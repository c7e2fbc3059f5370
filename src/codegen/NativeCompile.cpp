//===- codegen/NativeCompile.cpp ------------------------------------------===//

#include "codegen/NativeCompile.h"

#include "codegen/CppCodeGen.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace efc;

namespace {

/// FNV-1a over the generated source: the artifact cache key.  Two
/// pipelines whose generated units are identical share one .so.
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string hex16(uint64_t V) {
  char Buf[24];
  snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
  return Buf;
}

/// mkdir -p: creates every missing component; existing directories are
/// fine.  Returns false only when a component cannot be created.
bool makeDirs(const std::string &Path) {
  std::string Cur;
  for (size_t I = 0; I <= Path.size(); ++I) {
    if (I < Path.size() && Path[I] != '/') {
      Cur.push_back(Path[I]);
      continue;
    }
    if (I < Path.size())
      Cur.push_back('/');
    if (Cur.empty() || Cur == "/")
      continue;
    if (mkdir(Cur.c_str(), 0755) != 0 && errno != EEXIST)
      return false;
  }
  return true;
}

std::string sanitizeTag(const std::string &Tag) {
  std::string S;
  for (char C : Tag)
    S.push_back(isalnum((unsigned char)C) ? C : '_');
  if (S.size() > 48)
    S.resize(48);
  return S.empty() ? std::string("t") : S;
}

std::string readFile(const std::string &Path) {
  std::ifstream F(Path);
  std::ostringstream Buf;
  Buf << F.rdbuf();
  return Buf.str();
}

} // namespace

void NativeTransducer::DlCloser::operator()(void *H) const { dlclose(H); }

std::string NativeTransducer::cacheDir() {
  const char *E = std::getenv("EFC_CACHE_DIR");
  std::string Dir = E && *E ? E : ".efc-cache";
  makeDirs(Dir);
  return Dir;
}

namespace {

struct NativeMetrics {
  metrics::Counter &Compiles;
  metrics::Counter &Failures;
  metrics::Counter &DiskHits;
  metrics::DoubleCounter &Seconds;
  static NativeMetrics &get() {
    namespace mx = metrics;
    static NativeMetrics M{
        mx::Registry::instance().counter("efc_native_compiles_total",
                                         "Host-compiler invocations"),
        mx::Registry::instance().counter("efc_native_compile_failures_total",
                                         "Native compile/load failures"),
        mx::Registry::instance().counter(
            "efc_native_disk_hits_total",
            "Compiles satisfied by the on-disk artifact cache"),
        mx::Registry::instance().dcounter("efc_native_compile_seconds_total",
                                          "Host-compiler wall time")};
    return M;
  }
};

} // namespace

std::optional<NativeTransducer>
NativeTransducer::compile(const Bst &A, const std::string &Tag,
                          std::string *Error, NativeCompileInfo *Info,
                          std::shared_ptr<const CompiledTransducer> Ref) {
  trace::Span NativeSp("native");
  CodeGenOptions Opts;
  Opts.FunctionName = "efc_impl";
  std::string Source;
  {
    trace::Span CgSp("codegen");
    Source = generateCpp(A, Opts);
    CgSp.note("bytes", (uint64_t)Source.size());
  }
  // Exported entry points with stable names, over the unit's own stream
  // types (efc_elem_in, efc_out_buf: CppCodeGen.h).
  Source +=
      "\nextern \"C\" size_t efc_stream_state_words() { return "
      "efc_impl_state_words; }\n"
      "extern \"C\" void efc_stream_init(uint64_t *st) { efc_impl_init(st); "
      "}\n"
      "extern \"C\" bool efc_stream_feed(uint64_t *st, const efc_elem_in "
      "*in, size_t n, efc_out_buf &out, efc_scan_fn scan) { return "
      "efc_impl_feed(st, in, n, out, scan); }\n"
      "extern \"C\" bool efc_stream_finish(uint64_t *st, efc_out_buf &out) "
      "{ return efc_impl_finish(st, out); }\n"
      "extern \"C\" unsigned long long efc_classifier_hash() { return "
      "efc_impl_classifier_hash; }\n";
  // The certification anchor: the .so re-exports the classifier hash baked
  // into its source, and tryLoad below rejects a cached artifact whose
  // exported hash disagrees with the hash of this Bst — "what was
  // certified" and "what got loaded" are tied structurally, not just by
  // file name.
  uint64_t WantHash = ::efc::classifierHash(A);

  std::string Lib = cacheDir() + "/efc_" + sanitizeTag(Tag) + "_" +
                    hex16(fnv1a(Source)) + ".so";
  if (Info) {
    *Info = NativeCompileInfo();
    Info->SoPath = Lib;
  }

  auto tryLoad = [&](std::string *Err) -> std::optional<NativeTransducer> {
    NativeTransducer T;
    T.Handle.reset(dlopen(Lib.c_str(), RTLD_NOW | RTLD_LOCAL));
    if (!T.Handle) {
      if (Err)
        *Err = std::string("dlopen: ") + dlerror();
      return std::nullopt;
    }
    void *H = T.Handle.get();
    T.WordsFn =
        reinterpret_cast<WordsFnTy>(dlsym(H, "efc_stream_state_words"));
    T.InitFn = reinterpret_cast<InitFnTy>(dlsym(H, "efc_stream_init"));
    T.FeedSym = dlsym(H, "efc_stream_feed");
    T.FinishSym = dlsym(H, "efc_stream_finish");
    if (!T.WordsFn || !T.InitFn || !T.FeedSym || !T.FinishSym) {
      if (Err)
        *Err = "missing efc_stream_* entry point";
      return std::nullopt;
    }
    auto HashFn = reinterpret_cast<HashFnTy>(dlsym(H, "efc_classifier_hash"));
    if (!HashFn) {
      if (Err)
        *Err = "missing efc_classifier_hash export";
      return std::nullopt;
    }
    T.ClassifierHash = HashFn();
    if (T.ClassifierHash != WantHash) {
      if (Err)
        *Err = "cached artifact classifier hash mismatch (stale .so)";
      return std::nullopt;
    }
    T.InW = elemWidthOf(A.inputType());
    T.OutW = elemWidthOf(A.outputType());
    const Type *ITy = A.inputType();
    T.InMask = Value::maskOf(ITy->isBool() ? 1 : ITy->width());
    if (!Ref)
      if (auto Vm = CompiledTransducer::compile(A))
        Ref = std::make_shared<const CompiledTransducer>(std::move(*Vm));
    T.Ref = Ref;
    return T;
  };

  // Artifact cache probe: same source hash → same semantics, load the
  // existing .so without touching the compiler.  A stale or corrupt
  // artifact falls through to a fresh compile.
  if (access(Lib.c_str(), R_OK) == 0) {
    std::string LoadErr;
    if (auto T = tryLoad(&LoadErr)) {
      if (Info)
        Info->DiskCacheHit = true;
      NativeMetrics::get().DiskHits.inc();
      NativeSp.note("disk_cache_hit", (uint64_t)1);
      return T;
    }
    unlink(Lib.c_str());
  }

  // Unique temporaries next to the final artifact; the publish is an
  // atomic rename so concurrent compiles of the same spec are safe.
  std::string Uniq = std::to_string(uint64_t(getpid()));
  std::string Src = Lib + "." + Uniq + ".cpp";
  std::string Tmp = Lib + "." + Uniq + ".tmp";
  std::string Log = Lib + "." + Uniq + ".log";
  auto Cleanup = [&] {
    unlink(Src.c_str());
    unlink(Tmp.c_str());
    unlink(Log.c_str());
  };
  // All failure modes from here on are environmental (toolchain missing,
  // disk full, cc OOM, dlopen): the generated source is machine-produced
  // and compiles whenever the toolchain works.  Mark them Transient so
  // callers retry instead of negative-caching the spec forever.
  auto Fail = [&] {
    if (Info)
      Info->Transient = true;
    NativeMetrics::get().Failures.inc();
    return std::nullopt;
  };
  {
    std::ofstream F(Src);
    if (!F) {
      if (Error)
        *Error = "cannot write " + Src;
      return Fail();
    }
    F << Source;
  }
  // EFC_CXX overrides the host compiler (also the lever regression tests
  // use to simulate a transient toolchain outage).
  const char *Cxx = std::getenv("EFC_CXX");
  std::string Cmd = std::string(Cxx && *Cxx ? Cxx : "c++") +
                    " -std=c++17 -O2 -fPIC -shared -o " + Tmp + " " + Src +
                    " 2>" + Log;
  Stopwatch Compile;
  {
    trace::Span CcSp("cc");
    if (std::system(Cmd.c_str()) != 0) {
      if (Error) {
        std::string Diag = readFile(Log);
        if (Diag.size() > 2000)
          Diag.resize(2000);
        *Error = "native compilation failed: " + Diag;
      }
      Cleanup();
      return Fail();
    }
    CcSp.note("ms", Compile.millis());
  }
  if (Info)
    Info->CompileMs = Compile.millis();
  NativeMetrics::get().Compiles.inc();
  NativeMetrics::get().Seconds.add(Compile.seconds());
  if (rename(Tmp.c_str(), Lib.c_str()) != 0) {
    if (Error)
      *Error = "cannot publish " + Lib;
    Cleanup();
    return Fail();
  }
  Cleanup();

  std::string LoadErr;
  trace::Span DlSp("dlopen");
  auto T = tryLoad(&LoadErr);
  if (!T) {
    if (Error)
      *Error = LoadErr;
    return Fail();
  }
  return T;
}

std::optional<std::vector<uint64_t>>
NativeTransducer::run(const uint64_t *In, size_t N) const {
  std::span<const uint64_t> Elems(In, N);
  if (!fitsInputMask(Elems, InMask))
    return Ref->run(Elems); // does not fit the typed stream: the reference
  std::vector<uint64_t> St(stateWords());
  streamInit(St.data());
  return runNarrowed(
      InW, OutW, Elems,
      [&](const auto *X, size_t K, auto &Out) {
        return streamFeed(St.data(), X, K, Out);
      },
      [&](auto &Out) { return streamFinish(St.data(), Out); });
}

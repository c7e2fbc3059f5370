//===- runtime/StreamSession.cpp ------------------------------------------===//

#include "runtime/StreamSession.h"

using namespace efc;
using namespace efc::runtime;

void StreamSession::bindMetrics() {
  namespace mx = metrics;
  auto &R = mx::Registry::instance();
  const char *Label = Kind == Backend::Vm     ? "backend=\"vm\""
                      : Kind == Backend::Fast ? "backend=\"fastpath\""
                                              : "backend=\"native\"";
  R.counter("efc_stream_sessions_total", "Stream sessions opened", Label)
      .inc();
  MBytesIn = &R.counter("efc_stream_bytes_in_total",
                        "Input bytes fed into stream sessions", Label);
  MBytesOut = &R.counter("efc_stream_bytes_out_total",
                         "Output bytes drained from stream sessions", Label);
  if (Kind == Backend::Fast) {
    MRuns = &R.counter("efc_fastpath_runs_total",
                       "Bulk spans driven through run kernels");
    MRunElems = &R.counter("efc_fastpath_run_elements_total",
                           "Elements consumed by run kernels");
  }
}

StreamSession StreamSession::overVm(const CompiledTransducer &T) {
  StreamSession S;
  S.Kind = Backend::Vm;
  S.Cur.emplace(T);
  S.bindMetrics();
  return S;
}

StreamSession StreamSession::overFast(const FastPathPlan &P,
                                      const CompiledTransducer &T) {
  StreamSession S;
  S.Kind = Backend::Fast;
  S.FCur.emplace(P, T);
  S.bindMetrics();
  return S;
}

StreamSession StreamSession::overNative(const NativeTransducer &T) {
  StreamSession S;
  S.Kind = Backend::Native;
  S.Nat = &T;
  S.NatState.assign(T.stateWords(), 0);
  T.streamInit(S.NatState.data());
  S.bindMetrics();
  return S;
}

std::optional<StreamSession>
StreamSession::open(std::shared_ptr<const CompiledPipeline> P, Backend B,
                    std::string *Err) {
  if (!P || !P->Vm) {
    if (Err)
      *Err = "no compiled pipeline";
    return std::nullopt;
  }
  std::optional<StreamSession> S;
  if (B == Backend::Vm) {
    S = overVm(*P->Vm);
  } else if (B == Backend::Fast) {
    // Entries always carry a plan; a hand-built CompiledPipeline without
    // one transparently degrades to plain bytecode.
    if (P->Fast)
      S = overFast(*P->Fast, *P->Vm);
    else
      S = overVm(*P->Vm);
  } else {
    std::string NErr;
    const NativeTransducer *N = P->native(&NErr);
    if (!N) {
      if (Err)
        *Err = "native backend unavailable: " + NErr;
      return std::nullopt;
    }
    S = overNative(*N);
  }
  S->Keep = std::move(P);
  return S;
}

void StreamSession::drain() {
  // Pipeline boundaries are byte valued (utf8-encode is the last stage),
  // so each emitted element is one output byte.
  Output.reserve(Output.size() + Staged.size());
  for (uint64_t V : Staged)
    Output.push_back(char(V));
  BytesOut += Staged.size();
  if (MBytesOut && !Staged.empty())
    MBytesOut->inc(Staged.size());
  Staged.clear();
  if (MRuns) {
    // Fold the cursor's local run counters as a delta, so counts survive
    // sessions that are dropped without finish().
    const auto &RC = FCur->runCounters();
    MRuns->inc(RC.Runs - FoldedRuns);
    MRunElems->inc(RC.RunElements - FoldedRunElems);
    FoldedRuns = RC.Runs;
    FoldedRunElems = RC.RunElements;
  }
}

bool StreamSession::feed(const void *Data, size_t N) {
  if (Rejected || Finished)
    return !Rejected && N == 0;
  BytesIn += N;
  if (MBytesIn)
    MBytesIn->inc(N);
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  if (Kind == Backend::Vm) {
    if (Staged.capacity() < N)
      Staged.reserve(N);
    for (size_t I = 0; I < N; ++I) {
      if (!Cur->feed(Bytes[I], Staged)) {
        Rejected = true;
        drain();
        return false;
      }
    }
  } else {
    // Widen into the reused chunk buffer so the fast-path cursor and the
    // native feed get one contiguous span per feed (both are
    // chunk-oriented).
    Chunk.clear();
    Chunk.reserve(N);
    for (size_t I = 0; I < N; ++I)
      Chunk.push_back(Bytes[I]);
    bool Ok = Kind == Backend::Fast
                  ? FCur->feed(Chunk, Staged)
                  : Nat->streamFeed(NatState.data(), Chunk.data(),
                                    Chunk.size(), Staged);
    if (!Ok) {
      Rejected = true;
      drain();
      return false;
    }
  }
  drain();
  return true;
}

bool StreamSession::finish() {
  if (Rejected)
    return false;
  if (Finished)
    return true;
  Finished = true;
  bool Ok = Kind == Backend::Vm     ? Cur->finish(Staged)
            : Kind == Backend::Fast ? FCur->finish(Staged)
                                    : Nat->streamFinish(NatState.data(),
                                                        Staged);
  if (!Ok)
    Rejected = true;
  drain();
  return Ok;
}

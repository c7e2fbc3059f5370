//===- perfbench/harness/Bench.cpp -----------------------------------------===//

#include "Bench.h"

#include "support/Metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sys/resource.h>
#include <cstdio>
#include <dirent.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

namespace pb {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  size_t K = size_t(std::ceil(Q * double(V.size())));
  K = K ? K - 1 : 0;
  K = std::min(K, V.size() - 1);
  std::nth_element(V.begin(), V.begin() + ptrdiff_t(K), V.end());
  return V[K];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(std::max(X, 1e-12));
  return std::exp(L / double(V.size()));
}

namespace {

/// Index of the first byte where \p A and \p B differ.
size_t firstDiff(const std::string &A, const std::string &B) {
  size_t N = std::min(A.size(), B.size()), I = 0;
  while (I < N && A[I] == B[I])
    ++I;
  return I;
}

} // namespace

void Report::mismatch(const std::string &Workload, const std::string &What,
                      const std::string &Expected, const std::string &Actual) {
  ++Failed;
  if (!Mismatch.empty())
    return;
  size_t At = firstDiff(Expected, Actual);
  auto Around = [&](const std::string &S) {
    std::string Out;
    for (size_t I = At; I < S.size() && I < At + 24; ++I)
      Out += (S[I] >= 32 && S[I] < 127) ? S[I] : '.';
    return Out;
  };
  Mismatch = "workload " + Workload + ", " + What +
             ": output differs from the reference at byte " +
             std::to_string(At) + " (expected " +
             std::to_string(Expected.size()) + " bytes \"" + Around(Expected) +
             "\", got " + std::to_string(Actual.size()) + " bytes \"" +
             Around(Actual) + "\")";
}

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

std::vector<std::pair<std::string, double>> Tracer::selfMs(size_t From) const {
  std::vector<double> ChildMs(Spans.size(), 0.0);
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Parent)
      ChildMs[Spans[I].Parent - 1] +=
          secondsBetween(Spans[I].T0, Spans[I].T1) * 1e3;
  std::map<std::string, double> Self;
  for (size_t I = From; I < Spans.size(); ++I)
    Self[Spans[I].Layer] +=
        secondsBetween(Spans[I].T0, Spans[I].T1) * 1e3 - ChildMs[I];
  return {Self.begin(), Self.end()};
}

double Tracer::rootMs(size_t From) const {
  double Ms = 0;
  for (size_t I = From; I < Spans.size(); ++I)
    if (!Spans[I].Parent)
      Ms += secondsBetween(Spans[I].T0, Spans[I].T1) * 1e3;
  return Ms;
}

void Tracer::print(FILE *Out) const {
  struct Row {
    uint64_t N = 0;
    double TotalMs = 0, SelfMs = 0;
  };
  std::vector<double> ChildMs(Spans.size(), 0.0);
  for (const SpanRec &S : Spans)
    if (S.Parent)
      ChildMs[S.Parent - 1] += secondsBetween(S.T0, S.T1) * 1e3;
  std::map<std::pair<std::string, std::string>, Row> Rows;
  for (size_t I = 0; I < Spans.size(); ++I) {
    Row &R = Rows[{Spans[I].Layer, Spans[I].Name}];
    double Ms = secondsBetween(Spans[I].T0, Spans[I].T1) * 1e3;
    ++R.N;
    R.TotalMs += Ms;
    R.SelfMs += Ms - ChildMs[I];
  }
  fprintf(Out, "  spans (layer/name: count, total ms, self ms):\n");
  for (const auto &[Key, R] : Rows)
    fprintf(Out, "    %s/%s: %llu, %.3f, %.3f\n", Key.first.c_str(),
            Key.second.c_str(), (unsigned long long)R.N, R.TotalMs, R.SelfMs);
}

void addLayerAccounting(Report &R, size_t From, double EndToEndMs) {
  for (auto &[Layer, Ms] : Tracer::get().selfMs(From))
    R.layer("self_ms." + Layer, Ms);
  double Covered = Tracer::get().rootMs(From);
  R.layer("unattributed_share",
          EndToEndMs > 0 ? std::max(0.0, 1.0 - Covered / EndToEndMs) : 0);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

namespace {

double cpuSecondsOf(int Who) {
  auto Sec = [](const timeval &T) {
    return double(T.tv_sec) + double(T.tv_usec) / 1e6;
  };
  rusage U{};
  getrusage(Who, &U);
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

} // namespace

double cpuSeconds() { return cpuSecondsOf(RUSAGE_SELF); }

double threadCpuSeconds() { return cpuSecondsOf(RUSAGE_THREAD); }

double otherThreadsCpuSeconds() {
  DIR *D = opendir("/proc/self/task");
  if (!D)
    return -1;
  std::string Self = std::to_string(long(syscall(SYS_gettid)));
  double Sec = 0;
  bool Any = false;
  while (dirent *E = readdir(D)) {
    if (E->d_name[0] == '.' || Self == E->d_name)
      continue;
    std::string Path = "/proc/self/task/" + std::string(E->d_name) +
                       "/schedstat";
    FILE *F = fopen(Path.c_str(), "r");
    if (!F)
      continue;
    unsigned long long Ns = 0; // first field: time spent on a CPU
    if (fscanf(F, "%llu", &Ns) == 1) {
      Sec += double(Ns) / 1e9;
      Any = true;
    }
    fclose(F);
  }
  closedir(D);
  return Any ? Sec : -1;
}

uint64_t registryCounter(const char *Name, const char *Labels) {
  return efc::metrics::Registry::instance().counter(Name, {}, Labels).value();
}

double setUpInChild(const std::function<double()> &SetUp) {
  int Fds[2];
  if (pipe(Fds) != 0)
    return -1;
  fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    return -1;
  }
  if (Pid == 0) {
    close(Fds[0]);
    double S = SetUp();
    if (write(Fds[1], &S, sizeof S) != ssize_t(sizeof S))
      _exit(1);
    _exit(0);
  }
  close(Fds[1]);
  double S = -1;
  if (read(Fds[0], &S, sizeof S) != ssize_t(sizeof S))
    S = -1;
  close(Fds[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0 ? S : -1;
}

void freshArtifactDir(const std::string &Tag) {
  static unsigned N = 0;
  std::string Dir;
  do // skip directories an earlier run left behind
    Dir = "artifacts-" + Tag + "-" + std::to_string(N++);
  while (mkdir(Dir.c_str(), 0755) != 0);
  setenv("EFC_CACHE_DIR", Dir.c_str(), 1);
}

} // namespace pb

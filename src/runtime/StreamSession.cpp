//===- runtime/StreamSession.cpp ------------------------------------------===//

#include "runtime/StreamSession.h"

#include <algorithm>

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
  if (Kind == Backend::Vm)
    MVmBytecode = &R.counter(FastPathCursor::BytecodeCounterName,
                             FastPathCursor::BytecodeCounterHelp);
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
    if (N->inputWidth() != ElemWidth::U8 ||
        N->outputWidth() != ElemWidth::U8) {
      if (Err)
        *Err = "native backend needs a byte-to-byte pipeline";
      return std::nullopt;
    }
    S = overNative(*N);
  }
  S->Keep = std::move(P);
  return S;
}

void StreamSession::account(size_t Out0) {
  size_t Produced = Output.size() - Out0;
  BytesOut += Produced;
  if (MBytesOut && Produced)
    MBytesOut->inc(Produced);
  // Per feed, so counts survive sessions dropped without finish().
  if (FCur)
    FCur->foldCounters();
}

bool StreamSession::feedBlock(const uint8_t *In, size_t N) {
  switch (Kind) {
  case Backend::Vm: {
    size_t I = 0;
    bool Ok = true;
    while (I < N && Ok)
      Ok = Cur->feed(In[I++], Output);
    VmElements += I;
    if (MVmBytecode && I)
      MVmBytecode->inc(I);
    return Ok;
  }
  case Backend::Fast:
    return FCur->feed(In, N, Output);
  case Backend::Native:
    return Nat->streamFeed(NatState.data(), In, N, Output);
  }
  return false;
}

bool StreamSession::feed(const void *Data, size_t N) {
  if (Rejected || Finished)
    return !Rejected && N == 0;
  BytesIn += N;
  if (MBytesIn)
    MBytesIn->inc(N);
  const auto *In = static_cast<const uint8_t *>(Data);
  size_t Out0 = Output.size();
  for (size_t Off = 0; Off < N && !Rejected; Off += BlockBytes)
    Rejected = !feedBlock(In + Off, std::min(BlockBytes, N - Off));
  account(Out0);
  return !Rejected;
}

bool StreamSession::finish() {
  if (Rejected)
    return false;
  if (Finished)
    return true;
  Finished = true;
  size_t Out0 = Output.size();
  bool Ok = Kind == Backend::Vm     ? Cur->finish(Output)
            : Kind == Backend::Fast ? FCur->finish(Output)
                                    : Nat->streamFinish(NatState.data(),
                                                        Output);
  if (!Ok)
    Rejected = true;
  account(Out0);
  return Ok;
}

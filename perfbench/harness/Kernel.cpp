//===- perfbench/harness/Kernel.cpp ----------------------------------------===//

#include "Kernel.h"

#include "Bench.h"

namespace pb::kernel {

Input prepare(const std::string &Bytes) {
  Input In;
  In.Elems.assign(Bytes.begin(), Bytes.end());
  for (uint64_t &E : In.Elems)
    E &= 0xFF; // bytes, not sign-extended chars
  return In;
}

namespace {

void narrow(const std::vector<uint64_t> &Elems, std::string *Out) {
  Out->clear();
  Out->reserve(Elems.size());
  for (uint64_t E : Elems)
    Out->push_back(char(E));
}

} // namespace

double runFast(const efc::runtime::CompiledPipeline &P, const Input &In,
               std::string *Out) {
  Clock::time_point T0 = Clock::now();
  auto R = efc::runFastPath(*P.Fast, *P.Vm, In.Elems);
  double S = secondsBetween(T0, Clock::now());
  if (!R)
    return -1;
  narrow(*R, Out);
  return S;
}

double runNative(const efc::NativeTransducer &N, const Input &In,
                 std::string *Out) {
  Clock::time_point T0 = Clock::now();
  auto R = N.run(In.Elems);
  double S = secondsBetween(T0, Clock::now());
  if (!R)
    return -1;
  narrow(*R, Out);
  return S;
}

} // namespace pb::kernel

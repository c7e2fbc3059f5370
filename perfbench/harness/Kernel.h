//===- perfbench/harness/Kernel.h - Element-array kernel adapter -*- C++ -*-===//
///
/// \file
/// The only place the benchmark calls the element-array kernels
/// (runFastPath, NativeTransducer::run).  Only the traced run uses them,
/// to split session time into kernel time and session overhead; the
/// end-to-end run goes through StreamSession alone, so a change to the
/// element width touches this file and nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_PERFBENCH_KERNEL_H
#define EFC_PERFBENCH_KERNEL_H

#include "runtime/PipelineCache.h"

#include <string>

namespace pb::kernel {

/// Input prepared for the kernels (outside any timer).
struct Input {
  std::vector<uint64_t> Elems;
};
Input prepare(const std::string &Bytes);

/// One kernel-only fast-path run over \p In; returns its seconds and the
/// output as bytes in \p Out (narrowed outside the timer).  Negative when
/// the pipeline rejected the input.
double runFast(const efc::runtime::CompiledPipeline &P, const Input &In,
               std::string *Out);

/// Same on the native artifact.
double runNative(const efc::NativeTransducer &N, const Input &In,
                 std::string *Out);

} // namespace pb::kernel

#endif // EFC_PERFBENCH_KERNEL_H

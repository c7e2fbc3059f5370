//===- vm/Simd.h - Runtime ISA level detection and override -----*- C++ -*-===//
///
/// \file
/// One cpuid probe at startup picks the widest vector ISA the machine
/// supports; the fast-path scan kernels (FastPath.cpp) and anything else
/// that keeps per-level function pointers index off the returned Level.
/// `EFC_SIMD=scalar|sse2|avx2|avx512` clamps the active level below the
/// detected one (never above: requesting avx512 on an sse2 box degrades
/// to the detected level with a one-time stderr note), so the scalar and
/// SSE2 fallback paths stay testable on wide machines.  Native code
/// reads the level through the host: its run kernels call the scanner
/// vm/FastPath.h nibbleScanner() picks, passed in on every feed, so a
/// forced level applies to every backend at once.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_VM_SIMD_H
#define EFC_VM_SIMD_H

#include <optional>
#include <string_view>

namespace efc::simd {

/// Vector ISA tiers the scan kernels are compiled for.  Values are
/// ordered: a machine at level L can run every kernel at level <= L.
/// SSE2 is the x86-64 baseline; AVX2 adds pshufb-classified 32-byte
/// blocks (the two-nibble-table idiom); AVX512 adds 64-byte blocks with
/// vpmovqb element packing.  Non-x86 builds detect Scalar.
enum class Level : int { Scalar = 0, SSE2 = 1, AVX2 = 2, AVX512 = 3 };

/// What the hardware supports (cpuid, probed once and cached).
Level detectedLevel();

/// detectedLevel() clamped by the EFC_SIMD override; cached after the
/// first call.  This is what kernel dispatch reads.
Level activeLevel();

/// "scalar" / "sse2" / "avx2" / "avx512".
const char *levelName(Level L);

/// Parses an EFC_SIMD value; nullopt for unrecognized strings.
std::optional<Level> parseLevel(std::string_view S);

/// Testing hook: force the active level (clamped to detectedLevel(), so
/// a test sweep over all levels is safe on any machine).  Returns the
/// level actually installed.
Level setActiveLevelForTesting(Level L);

} // namespace efc::simd

#endif // EFC_VM_SIMD_H

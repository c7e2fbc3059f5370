//===- codegen/CppCodeGen.h - C++ source generation from BSTs ---*- C++ -*-===//
///
/// \file
/// Serial code generation as described in paper §6: for each control state
/// a labeled code block implements its transition rule as a tree of
/// if/else statements whose leaves emit outputs, update register fields
/// and jump (goto) to the target state's block.  The generated unit is
/// self-contained C++17 whose streams have the Bst's own element widths
/// (vm/Vm.h ElemWidth): a byte pipeline reads `const uint8_t *` and
/// appends to a std::string, a UTF-16 one reads `const uint16_t *` into a
/// std::vector<uint16_t>, wider types travel as uint64_t; registers are
/// uint64_t locals.  Each state block is emitted once, in the streaming
/// entry point; the one-shot function is a few-line wrapper over it.
/// The unit holds no ISA-specific code: run kernels take their nibble
/// block scanner as a parameter.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_CODEGEN_CPPCODEGEN_H
#define EFC_CODEGEN_CPPCODEGEN_H

#include "bst/Bst.h"

#include <string>
#include <vector>

namespace efc {

/// Options for the generated unit.
struct CodeGenOptions {
  /// Name of the one-shot function and prefix of the streaming entries.
  std::string FunctionName = "transduce";
  /// Also emit a main() that checks embedded test vectors and returns 0
  /// on success (used by the self-check test which compiles and runs the
  /// generated code with the host compiler).
  bool EmitMain = false;
  /// Emit bulk run loops for self-loop byte classes (the same kernels the
  /// VM fast path drives; see vm/FastPath.h RunKernel).  Off only for A/B
  /// measurement — generated code stays semantically identical either way.
  bool RunAccel = true;
};

/// One embedded test vector for EmitMain.
struct CodeGenTestVector {
  std::vector<uint64_t> Input;
  bool Accepts = true;
  std::vector<uint64_t> Output; // checked only when Accepts
};

/// Generates a self-contained C++ translation unit implementing ⟦A⟧.
/// Input and output types must be scalar.  The unit defines:
///
///   efc_elem_in, efc_out_buf    the input element and output buffer types
///   <name>_state_words          constant: control state + register leaves
///   <name>_init(uint64_t *st)   resets st to the initial configuration
///   <name>_feed(st, const efc_elem_in *in, n, efc_out_buf &out, scan)
///                               consumes a chunk, suspends at its end
///   <name>_finish(st, out)      runs the finalizer of the saved state
///   <name>(in, n, out)          one-shot: init, one feed, finish
///
/// The state block persists the control state (st[0]) and every register
/// leaf (st[1..]) across calls, so feeding a split input chunk by chunk
/// is byte-identical to one <name>(in, n, out) call over the whole
/// input.  feed, finish and the one-shot function return false on
/// rejection.  `scan` is a vm/FastPath.h NibbleScanFnOf<efc_elem_in>
/// (typedef efc_scan_fn): NativeTransducer passes nibbleScanner(), the
/// host's block loop for its active ISA level; the one-shot wrapper
/// passes a no-op, so a standalone unit scans with its scalar loops
/// alone.  Span boundaries do not depend on the scanner.
std::string generateCpp(const Bst &A, const CodeGenOptions &Opts = {},
                        const std::vector<CodeGenTestVector> &Vectors = {});

/// Context- and process-independent fingerprint of the IR \p A alone:
/// its structural rule trees, state count, element and register types,
/// and initial configuration.  Variables hash by name, types by shape.
/// It keys the per-pass artifact cache (pipeline/Pass.h) and names what
/// fusion produced, independent of how the backends classify it.
uint64_t irHash(const Bst &A);

/// Context- and process-independent fingerprint of everything code
/// generation derives from \p A: irHash(A), then the byte-class tables
/// and run kernels recomputed by classifyDeltaByteClasses /
/// classifyRunKernels.
/// generateCpp embeds it in the emitted source as
/// `<name>_classifier_hash`, NativeCompile re-exports it from the shared
/// object and re-checks it at dlopen, and the equivalence checker
/// (verify/EquivChecker.h) recomputes it from the certified BST — tying
/// "what was certified" to "what was compiled" structurally.  Variables
/// hash by name, types by shape, so the value is stable across
/// TermContexts and across processes (it guards the on-disk .so cache).
uint64_t classifierHash(const Bst &A);

} // namespace efc

#endif // EFC_CODEGEN_CPPCODEGEN_H

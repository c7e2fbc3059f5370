//===- support/EnvParse.h - Validated env/flag numeric parsing --*- C++ -*-===//
///
/// \file
/// One shared parser for every numeric environment knob and CLI flag.
/// The historical call sites used bare `atoi`/`strtoull(V, nullptr, 10)`,
/// which silently map garbage to 0 — `EFC_SESSION_IDLE_MS=abc` became
/// "reap immediately".  Two disciplines replace that:
///
///  * env vars (`env::u64` / `env::i64` / `env::f64` / `env::flag`):
///    endptr- and range-checked; a malformed or out-of-range value warns
///    once per variable on stderr and falls back to the documented
///    default, so a typo can never change semantics silently.
///  * CLI flags (`env::parseU64` / `parseI64` / `parseF64`): strict
///    parse returning false on any trailing garbage, overflow or empty
///    string — the caller turns that into a usage error.
///
//===----------------------------------------------------------------------===//

#ifndef EFC_SUPPORT_ENVPARSE_H
#define EFC_SUPPORT_ENVPARSE_H

#include <cstdint>
#include <limits>

namespace efc::env {

/// Strict parses for CLI flags: the whole string must be one number in
/// range (leading/trailing whitespace rejected).  \p Base follows strtoull
/// (0 = accept 0x-prefixed hex).  On failure \p Out is untouched.
bool parseU64(const char *S, uint64_t &Out, int Base = 10);
bool parseI64(const char *S, int64_t &Out, int Base = 10);
bool parseF64(const char *S, double &Out);

/// Reads \p Name from the environment as an unsigned integer in
/// [\p Min, \p Max].  Unset → \p Def.  Malformed or out of range → warn
/// once on stderr, return \p Def.  \p Base as above (EFC_FUZZ_SEED uses
/// base 0 for 0x-hex seeds).
uint64_t u64(const char *Name, uint64_t Def, uint64_t Min = 0,
             uint64_t Max = std::numeric_limits<uint64_t>::max(),
             int Base = 10);

/// Signed variant (EFC_NATIVE_RETRY_MS and friends).
int64_t i64(const char *Name, int64_t Def,
            int64_t Min = std::numeric_limits<int64_t>::min(),
            int64_t Max = std::numeric_limits<int64_t>::max());

/// Floating-point variant (EFC_CERTIFY_BUDGET_MS).
double f64(const char *Name, double Def,
           double Min = -std::numeric_limits<double>::infinity(),
           double Max = std::numeric_limits<double>::infinity());

/// Boolean knob: unset → \p Def; "0" → false; any other *numeric* value
/// → true; malformed → warn once, return \p Def.  (Matches the historical
/// `atoi(E) != 0` contract for well-formed values.)
bool flag(const char *Name, bool Def);

/// Test hook: forget which variables have already warned, so suites can
/// assert the warning fires.  Returns the number of entries dropped.
unsigned resetWarnings();

} // namespace efc::env

#endif // EFC_SUPPORT_ENVPARSE_H

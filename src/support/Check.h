//===- Check.h - Simulator invariant checking macros -----------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TRIDENT_CHECK / TRIDENT_DCHECK: the simulator's invariant layer.
///
/// A cycle-accurate simulator is only as trustworthy as its invariants —
/// a silently corrupted MSHR heap or a non-monotonic cycle counter does
/// not crash, it just produces wrong numbers that look plausible. These
/// macros replace bare assert() everywhere in src/ (enforced by
/// tools/trident_analyze.py) and add printf-style formatted context so a
/// failure report carries the actual values, not just the expression:
///
///   TRIDENT_CHECK(Ctx < Ctxs.size(),
///                 "context %u out of range (have %zu)", Ctx, Ctxs.size());
///
/// Two severities:
///
///  * TRIDENT_CHECK — structural/configuration invariants checked in every
///    build flavor, including Release. Use on cold paths (constructors,
///    per-batch setup, mode switches) where the cost is irrelevant.
///
///  * TRIDENT_DCHECK — per-access invariants on simulator hot paths
///    (register file indexing, cache line alignment, heap bounds). Active
///    in checked builds (TRIDENT_DCHECKS_ENABLED=1, the default for the
///    `checked`, `asan`, and `tsan` presets and the plain RelWithDebInfo
///    build); compiled out — condition unevaluated — in the `release`
///    preset. A DCHECK must therefore never carry side effects.
///
/// Failures print the expression, location, and formatted message to
/// stderr and abort(), so death tests and sanitizers both see them.
/// Checks never alter simulated timing: they observe state, they do not
/// advance it (the figure-harness bit-identity test in
/// tools/run_all_figures.sh relies on this).
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SUPPORT_CHECK_H
#define TRIDENT_SUPPORT_CHECK_H

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace trident {
namespace detail {

/// Prints the failure report and aborts. Out-of-line so the hot-path
/// callers only carry a compare + branch; the cold tail lives here.
[[noreturn]] inline void checkFailV(const char *CondStr, const char *File,
                                    int Line, const char *Func,
                                    const char *Fmt, va_list Args) {
  std::fprintf(stderr, "TRIDENT_CHECK failed: %s\n  at %s:%d in %s\n", CondStr,
               File, Line, Func);
  if (Fmt && *Fmt) {
    std::fprintf(stderr, "  ");
    std::vfprintf(stderr, Fmt, Args);
    std::fprintf(stderr, "\n");
  }
  std::fflush(stderr);
  std::abort();
}

#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 5, 6)))
#endif
[[noreturn]] inline void
checkFail(const char *CondStr, const char *File, int Line, const char *Func,
          const char *Fmt = nullptr, ...) {
  va_list Args;
  va_start(Args, Fmt);
  checkFailV(CondStr, File, Line, Func, Fmt, Args);
  // checkFailV aborts; va_end is unreachable but keeps analyzers happy.
}

} // namespace detail
} // namespace trident

/// Always-on invariant. Evaluates \p Cond exactly once; on failure prints
/// the condition, source location, and the optional printf-style message,
/// then aborts.
#define TRIDENT_CHECK(Cond, ...)                                               \
  do {                                                                         \
    if (!(Cond)) [[unlikely]]                                                  \
      ::trident::detail::checkFail(#Cond, __FILE__, __LINE__,                  \
                                   static_cast<const char *>(__func__)         \
                                       __VA_OPT__(, ) __VA_ARGS__);            \
  } while (0)

/// Marks a statically unreachable path (invalid opcode, exhausted switch).
#define TRIDENT_UNREACHABLE(...)                                               \
  ::trident::detail::checkFail("unreachable", __FILE__, __LINE__,              \
                               static_cast<const char *>(__func__)             \
                                   __VA_OPT__(, ) __VA_ARGS__)

#ifndef TRIDENT_DCHECKS_ENABLED
/// Default to checked semantics when the build system says nothing —
/// matches the repo's historical "assertions on in every build type".
#define TRIDENT_DCHECKS_ENABLED 1
#endif

#if TRIDENT_DCHECKS_ENABLED
#define TRIDENT_DCHECK(Cond, ...) TRIDENT_CHECK(Cond __VA_OPT__(, ) __VA_ARGS__)
#else
/// Compiled out: the `if (false)` keeps the expression type-checked (so a
/// DCHECK cannot rot in Release-only code) while the optimizer removes the
/// evaluation entirely.
#define TRIDENT_DCHECK(Cond, ...)                                              \
  do {                                                                         \
    if (false)                                                                 \
      TRIDENT_CHECK(Cond __VA_OPT__(, ) __VA_ARGS__);                          \
  } while (0)
#endif

namespace trident {

/// Returns \p Config after CHECKing that its invalidReason() is empty.
/// Meant for constructor initializer lists, so that no member is sized
/// from a config the constructor would reject.
template <typename ConfigT>
const ConfigT &checkedConfig(const ConfigT &Config) {
  const auto Why = Config.invalidReason();
  TRIDENT_CHECK(Why.empty(), "%s", Why.c_str());
  return Config;
}

} // namespace trident

#endif // TRIDENT_SUPPORT_CHECK_H

//===- TraceBuilder.h - Streamline blocks into a hot trace -----*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds a hot trace from a start PC and a branch-direction bitmap: walks
/// the original program along the indicated path, streamlining
/// "typically non-contiguous instruction blocks ... to form a trace"
/// (Section 3.2). In-trace branch directions are rewritten so the hot path
/// falls through; the other direction becomes a side exit to original
/// code. Unconditional jumps are elided. The classical base optimizations
/// (redundant load removal, constant propagation, strength reduction,
/// store/load-pair-to-MOVE conversion) run over the streamlined body.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_TRIDENT_TRACEBUILDER_H
#define TRIDENT_TRIDENT_TRACEBUILDER_H

#include "isa/Program.h"
#include "support/Fields.h"
#include "trident/BranchProfiler.h"
#include "trident/Trace.h"

#include <optional>

namespace trident {

struct TraceBuilderConfig {
  /// Trace length cap; generous so that applu-class (>1000 instruction)
  /// inner loops still fit in one trace.
  unsigned MaxLength = 2048;
  bool RunClassicalOpts = true;

  static constexpr auto fields() {
    return std::tuple(
        Field{"max_length", &TraceBuilderConfig::MaxLength},
        Field{"run_classical_opts", &TraceBuilderConfig::RunClassicalOpts});
  }
};

/// Statistics for one optimization pass over a trace body:
/// runClassicalOpts' return value, read by unit tests; no run exports it.
struct ClassicalOptStats {
  unsigned RedundantLoadsRemoved = 0;
  unsigned StoreLoadPairsForwarded = 0;
  unsigned ConstantsFolded = 0;
  unsigned StrengthReduced = 0;
  unsigned RedundantBranchesRemoved = 0;

  unsigned total() const {
    return RedundantLoadsRemoved + StoreLoadPairsForwarded + ConstantsFolded +
           StrengthReduced + RedundantBranchesRemoved;
  }
};

class TraceBuilder {
public:
  explicit TraceBuilder(const TraceBuilderConfig &Cfg = {}) : Config(Cfg) {}

  /// Builds a trace for \p Candidate over \p Prog. Returns nullopt when
  /// the path immediately leaves the program or is degenerate. \p Id tags
  /// the resulting trace.
  std::optional<Trace> build(const Program &Prog,
                             const HotTraceCandidate &Candidate,
                             uint32_t Id) const;

  /// Runs the base (classical) optimizations over \p Body in place;
  /// exposed separately for unit testing.
  static ClassicalOptStats runClassicalOpts(std::vector<Instruction> &Body);

private:
  TraceBuilderConfig Config;
};

} // namespace trident

#endif // TRIDENT_TRIDENT_TRACEBUILDER_H

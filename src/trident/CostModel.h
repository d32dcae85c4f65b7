//===- CostModel.h - Helper-thread work costing ----------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime optimizer executes as a helper thread on the spare SMT
/// context. We model its cost as a stream of single-cycle instructions
/// issued at low priority (see SmtCore::startStub); this model supplies
/// the instruction counts, calibrated so that the helper thread is active
/// for the ~2.2% of program cycles the paper reports (Figure 3) and so
/// that a repair is "much quicker than generating a new prefetch-optimized
/// hot trace" (Section 3.5.1).
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_TRIDENT_COSTMODEL_H
#define TRIDENT_TRIDENT_COSTMODEL_H

#include "support/Fields.h"

#include <cstdint>

namespace trident {

struct OptimizerCostModel {
  /// Helper-thread startup latency in cycles (Section 4.3: "we simulate
  /// the startup of the thread, with a 2000 cycle latency").
  uint64_t StartupCycles = 2000;

  /// Streamlining + classical optimization of a hot trace.
  uint64_t traceFormation(unsigned TraceLength) const {
    return 500 + 45ull * TraceLength;
  }

  /// Re-optimizing a trace to insert prefetches: identify and classify the
  /// delinquent loads, plan groups, regenerate the body.
  uint64_t prefetchInsertion(unsigned TraceLength,
                             unsigned NumDelinquentLoads) const {
    return 700 + 50ull * TraceLength + 200ull * NumDelinquentLoads;
  }

  /// Repairing existing prefetch instructions in place (patch distance
  /// bits, update bookkeeping) — no trace regeneration.
  uint64_t repair(unsigned NumLoadsRepaired) const {
    return 150 + 80ull * NumLoadsRepaired;
  }

  static constexpr auto fields() {
    return std::tuple(
        Field{"startup_cycles", &OptimizerCostModel::StartupCycles});
  }
};

} // namespace trident

#endif // TRIDENT_TRIDENT_COSTMODEL_H

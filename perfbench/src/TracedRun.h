//===- TracedRun.h - Per-layer timing from outside the sim -----*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced pass of the benchmark. runSimulation is one monolithic call,
/// so for solo jobs this file wires the machine the way runSimulation does,
/// from public constructors, and reads a cheap clock at each phase
/// boundary. Layers are timed through the public virtual seams only: a
/// timing HwPrefetcher wrapper, a timing BranchPredictor wrapper, and
/// EventSubscriber stamps subscribed around the Trident runtime's and the
/// phase monitor's subscriptions. The wiring is an instrument: every solo
/// job's registry export must be byte-identical to runSimulation's, or the
/// traced run fails.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACEDRUN_H
#define PERFBENCH_TRACEDRUN_H

#include "BenchJobs.h"

#include <map>
#include <string>

namespace perfbench {

/// Result of the traced pass over one workload.
struct TracedReport {
  /// Per-layer metrics by name (METRICS.md).
  std::map<std::string, double> Metrics;
  /// Jobs whose traced or untraced wiring export differed from
  /// runSimulation's, or whose repeat differed from the batch.
  uint64_t IdentityFailures = 0;
  /// Batch results by label, as runSimulation produced them.
  std::map<std::string, std::string> Digests;
};

/// Runs the batch of \p Jobs untraced, then every solo job through the
/// plain and the instrumented wiring and every mix job whole, records and
/// replays load streams, and returns the per-layer metrics.
TracedReport runTraced(const std::vector<BenchJob> &Jobs);

} // namespace perfbench

#endif // PERFBENCH_TRACEDRUN_H

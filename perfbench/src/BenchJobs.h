//===- BenchJobs.h - The benchmark's workloads as job lists ----*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark workloads as closed batches of (program, config) jobs,
/// derived from the benchmark seed, plus the per-job result digest the
/// benchmark checks against its stored references. Every batch runs serially
/// with the memo cache off. See METRICS.md.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCHJOBS_H
#define PERFBENCH_BENCHJOBS_H

#include "sim/ExperimentRunner.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Seconds elapsed since \p T0.
inline double since(SteadyClock::time_point T0) {
  return std::chrono::duration<double>(SteadyClock::now() - T0).count();
}

/// One job: a stable label (program + config role), the program name as
/// makeWorkload resolves it, and the full simulation config.
struct BenchJob {
  std::string Label;
  std::string Program;
  trident::SimConfig Config;
};

/// The seed the stored reference digests were taken at.
inline constexpr uint64_t kDefaultSeed = 1;

/// Builds the job list of workload \p Name for \p Seed. sweep-long runs a
/// fixed job set whose order the seed permutes; in arsenal-mix the seed
/// draws the fuzzed co-runners and seeds the bandit. Returns false on an
/// unknown name.
bool makeBenchWorkload(const std::string &Name, uint64_t Seed,
                       std::vector<BenchJob> &Out);

/// Builds every job's workload, as each figure binary does once per job,
/// and runs the batch on one worker with the memo cache off. Results come
/// back in job order.
std::vector<std::shared_ptr<const trident::SimResult>>
runBatch(const std::vector<BenchJob> &Jobs);

/// The job's result digest: measured cycles and instructions, the register
/// checksum, and a hash of the registry JSONL export.
std::string resultDigest(const trident::SimResult &R);

/// Instructions the job committed in warmup and measurement, over all
/// lanes whose counts the result exposes (co-runner warmup is not
/// reported by SimResult and is not counted).
uint64_t simulatedInstructions(const trident::SimResult &R,
                               const trident::SimConfig &C);

} // namespace perfbench

#endif // PERFBENCH_BENCHJOBS_H

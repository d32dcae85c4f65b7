//===- mix_determinism_test.cpp - Mix result shape and keys ----------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// What a multi-programmed mix run reports: a solo-shaped result plus the
// per-lane appendix and the only-when-on mix.* registry lines. Its
// co-runners are part of its memo key like every other field of the
// config (experiment_runner_test). That mix runs are byte-reproducible
// (repeated, re-scheduled on the pool, traced) is the identity harness's
// job: fuzz_golden_test's mix rows.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulation.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>

using namespace trident;

namespace {

/// Small-budget two-workload mix: mcf (pointer-chasing primary) against
/// art (streaming co-runner), contention-heavy enough that scheduling
/// bugs would perturb counters immediately.
SimConfig mixConfig() {
  SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
  C.SimInstructions = 20'000;
  C.WarmupInstructions = 5'000;
  C.MixWith = {"art"};
  return C;
}

} // namespace

TEST(MixDeterminism, MixResultShapeAndExports) {
  SimResult R = runSimulation(makeWorkload("mcf"), mixConfig());
  // A mix result reads like a solo result plus the mix appendix.
  EXPECT_EQ(R.Workload, "mcf");
  EXPECT_EQ(R.ConfigName, "trident-self-repairing+mix(art)");
  EXPECT_EQ(R.Instructions, 20'000u);
  ASSERT_EQ(R.MixLanes.size(), 1u);
  EXPECT_EQ(R.MixLanes[0].Workload, "art");
  EXPECT_GT(R.MixLanes[0].Instructions, 0u);
  EXPECT_GT(R.MixLanes[0].Cycles, 0u);
  // mix.* registry lines are only-when-on and present on mix runs.
  ASSERT_TRUE(R.Registry);
  EXPECT_EQ(R.Registry->counter("mix.lanes"), 2u);
  EXPECT_EQ(R.Registry->counter("mix.quantum_cycles"), 1'000u);
  EXPECT_EQ(R.Registry->counter("mix.lane1.instructions"),
            R.MixLanes[0].Instructions);
  EXPECT_EQ(R.Registry->counter("mix.lane1.cycles"), R.MixLanes[0].Cycles);
}

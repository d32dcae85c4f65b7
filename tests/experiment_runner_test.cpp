//===- experiment_runner_test.cpp - Runner memo cache and keys ------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The parallel experiment runner's memo cache hands back the same object
// for a repeated (workload, config fingerprint) key and separate objects
// for separate configs, and the fingerprint moves with every layer of the
// config. That scheduling never changes a result is the identity
// harness's pool perturbation (fuzz_golden_test): every row through one
// 4-thread batch, in submission order, against its own direct run.
//
//===----------------------------------------------------------------------===//

#include "sim/ExperimentRunner.h"

#include "gtest/gtest.h"

using namespace trident;

namespace {

/// Short budget so the cache checks stay fast.
SimConfig quick(SimConfig C) {
  C.WarmupInstructions = 5'000;
  C.SimInstructions = 30'000;
  return C;
}

TEST(ExperimentRunner, CacheReturnsSameObjectForRepeatedKey) {
  ExperimentRunner::clearResultCache();
  ExperimentRunner Runner({/*Threads=*/2, /*UseCache=*/true});
  Workload W = makeWorkload("mcf");
  SimConfig C = quick(SimConfig::withMode(PrefetchMode::SelfRepairing));

  // Duplicates inside one batch coalesce to one simulation and one object.
  auto Results =
      Runner.runBatch({ExperimentJob{W, C}, ExperimentJob{W, C}});
  EXPECT_EQ(Results[0].get(), Results[1].get());
  EXPECT_EQ(ExperimentRunner::resultCacheSize(), 1u);

  // A later batch with the same key returns the identical object.
  auto Again = Runner.run(W, C);
  EXPECT_EQ(Again.get(), Results[0].get());
  EXPECT_EQ(ExperimentRunner::resultCacheSize(), 1u);

  // The cache is process-wide: a different runner sees the same entry.
  ExperimentRunner Other({/*Threads=*/1, /*UseCache=*/true});
  EXPECT_EQ(Other.run(W, C).get(), Results[0].get());
  ExperimentRunner::clearResultCache();
}

TEST(ExperimentRunner, CacheDistinguishesConfigs) {
  ExperimentRunner::clearResultCache();
  ExperimentRunner Runner({/*Threads=*/2, /*UseCache=*/true});
  Workload W = makeWorkload("swim");
  SimConfig A = quick(SimConfig::withMode(PrefetchMode::SelfRepairing));
  SimConfig B = A;
  B.Runtime.Dlt.MonitorWindow = 128;

  auto Results = Runner.runBatch({ExperimentJob{W, A}, ExperimentJob{W, B}});
  EXPECT_NE(Results[0].get(), Results[1].get());
  EXPECT_EQ(ExperimentRunner::resultCacheSize(), 2u);
  ExperimentRunner::clearResultCache();
}

TEST(ConfigFingerprint, SensitiveToEveryLayerOfTheConfig) {
  SimConfig Base = SimConfig::hwBaseline();
  uint64_t H = configFingerprint(Base);
  EXPECT_EQ(H, configFingerprint(SimConfig::hwBaseline()));

  SimConfig C = Base;
  C.SimInstructions += 1;
  EXPECT_NE(configFingerprint(C), H);

  C = Base;
  C.Mem.NumMSHRs = 16;
  EXPECT_NE(configFingerprint(C), H);

  C = Base;
  C.Core.IssueWidth = 2;
  EXPECT_NE(configFingerprint(C), H);

  C = Base;
  C.HwPf = "sb4x4";
  EXPECT_NE(configFingerprint(C), H);

  C = Base;
  C.HwPf = "sb8x8:depth=8"; // same unit, distinct spec string
  EXPECT_NE(configFingerprint(C), H);

  C = Base;
  C.Core.HwPfFeedbackIntervalCommits = 1000;
  EXPECT_NE(configFingerprint(C), H);

  C = Base;
  C.Mem.Tlb.Enable = true;
  EXPECT_NE(configFingerprint(C), H);

  SimConfig T = SimConfig::withMode(PrefetchMode::SelfRepairing);
  uint64_t HT = configFingerprint(T);
  EXPECT_NE(HT, H);

  SimConfig T2 = T;
  T2.Runtime.Dlt.MissThreshold = 4;
  EXPECT_NE(configFingerprint(T2), HT);

  T2 = T;
  T2.Runtime.LinkTraces = false;
  EXPECT_NE(configFingerprint(T2), HT);

  T2 = T;
  T2.Runtime.Mode = PrefetchMode::Basic;
  EXPECT_NE(configFingerprint(T2), HT);
}

TEST(ExperimentRunner, DefaultThreadCountIsPositive) {
  EXPECT_GE(ExperimentRunner::defaultThreadCount(), 1u);
}

TEST(ExperimentRunner, EmptyBatchReturnsEmpty) {
  ExperimentRunner Runner({/*Threads=*/2, /*UseCache=*/true});
  EXPECT_TRUE(Runner.runBatch({}).empty());
}

} // namespace

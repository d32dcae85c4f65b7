//===- experiment_runner_test.cpp - Parallel runner determinism -----------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The contract of the parallel experiment runner: scheduling must never
// change a result. For all 56 (workload, Fig. 5 config) pairs, a batch run
// across many worker threads must produce the same registry export and
// register checksum as serial execution, the memo cache must hand back the
// same object for a repeated (workload, config fingerprint) key, and
// results must come back in submission order.
//
//===----------------------------------------------------------------------===//

#include "sim/ExperimentRunner.h"

#include "gtest/gtest.h"

using namespace trident;

namespace {

/// Short budget so the full-suite comparisons stay fast.
SimConfig quick(SimConfig C) {
  C.WarmupInstructions = 5'000;
  C.SimInstructions = 30'000;
  return C;
}

/// Every registry line (core.*, mem.*, trident.*, cpu.*, ...) plus the
/// final register file: any scheduling-dependent state shows up here.
void expectBitIdentical(const SimResult &A, const SimResult &B) {
  EXPECT_EQ(A.Workload, B.Workload);
  EXPECT_EQ(A.ConfigName, B.ConfigName);
  EXPECT_EQ(A.RegChecksum, B.RegChecksum);
  ASSERT_TRUE(A.Registry && B.Registry);
  EXPECT_EQ(A.Registry->toJsonl(), B.Registry->toJsonl());
}

/// The Fig. 5 sweep: every workload under the hw baseline and the three
/// software-prefetching schemes.
std::vector<ExperimentJob> fullSuiteJobs() {
  const SimConfig Configs[] = {
      quick(SimConfig::hwBaseline()),
      quick(SimConfig::withMode(PrefetchMode::Basic)),
      quick(SimConfig::withMode(PrefetchMode::WholeObject)),
      quick(SimConfig::withMode(PrefetchMode::SelfRepairing))};
  std::vector<ExperimentJob> Jobs;
  for (const std::string &Name : workloadNames())
    for (const SimConfig &C : Configs)
      Jobs.push_back(ExperimentJob{makeWorkload(Name), C});
  return Jobs;
}

TEST(ExperimentRunner, ParallelMatchesSerialForEveryWorkload) {
  std::vector<ExperimentJob> Jobs = fullSuiteJobs();

  ExperimentRunner Serial({/*Threads=*/1, /*UseCache=*/false});
  ExperimentRunner Parallel({/*Threads=*/4, /*UseCache=*/false});
  auto SerialResults = Serial.runBatch(Jobs);
  auto ParallelResults = Parallel.runBatch(Jobs);

  ASSERT_EQ(SerialResults.size(), Jobs.size());
  ASSERT_EQ(ParallelResults.size(), Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    SCOPED_TRACE(Jobs[I].W.Name + " " + SerialResults[I]->ConfigName);
    expectBitIdentical(*SerialResults[I], *ParallelResults[I]);
  }
}

TEST(ExperimentRunner, ResultsComeBackInSubmissionOrder) {
  std::vector<ExperimentJob> Jobs = fullSuiteJobs();
  ExperimentRunner Runner({/*Threads=*/4, /*UseCache=*/false});
  auto Results = Runner.runBatch(Jobs);
  ASSERT_EQ(Results.size(), Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I)
    EXPECT_EQ(Results[I]->Workload, Jobs[I].W.Name);
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

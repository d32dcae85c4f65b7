//===- experiment_runner_test.cpp - Runner memo cache and keys ------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The parallel experiment runner's memo cache hands back the same object
// for a repeated (workload, config fingerprint) key and separate objects
// for separate configs, the fingerprint moves with every field of the
// config's field lists, and the keys of the committed configs stay pinned.
// That scheduling never changes a result is the identity harness's pool
// perturbation (fuzz_golden_test): every row through one 4-thread batch,
// in submission order, against its own direct run.
//
//===----------------------------------------------------------------------===//

#include "sim/ExperimentRunner.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

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

/// Calls \p Fn(V, Path) on every leaf and every vector reachable from
/// \p V through the field lists, vector elements included. A path spells
/// the rows' names, e.g. "config.faults.actions[0].at".
template <typename T, typename FnT>
void walk(T &V, const std::string &Path, FnT &Fn) {
  if constexpr (HasFields<T>) {
    forEachField<T>([&](const auto &Row) {
      walk(V.*Row.Member, Path + "." + Row.Name, Fn);
    });
  } else {
    Fn(V, Path);
    if constexpr (requires { V.emplace_back(); })
      for (size_t I = 0; I < V.size(); ++I)
        walk(V[I], Path + "[" + std::to_string(I) + "]", Fn);
  }
}

/// Appends to a vector; gives anything else a different value.
template <typename T> void perturb(T &V) {
  if constexpr (requires { V.emplace_back(); })
    V.emplace_back();
  else if constexpr (std::is_same_v<T, bool>)
    V = !V;
  else if constexpr (std::is_enum_v<T>)
    V = static_cast<T>(static_cast<std::underlying_type_t<T>>(V) + 1);
  else if constexpr (std::is_same_v<T, std::string>)
    V += 'x';
  else
    V = static_cast<T>(V + 1);
}

/// Every leaf and every vector of SimConfig's field list is part of the
/// memo key: changing one leaf, or appending to one vector, moves the
/// fingerprint. The base config has a fault action and a co-runner, so
/// the walk reaches the leaves inside both vectors.
TEST(ConfigFingerprint, MovesWithEveryListedField) {
  SimConfig Base = SimConfig::withMode(PrefetchMode::SelfRepairing);
  Base.Faults.Actions.emplace_back();
  Base.MixWith = {"art"};
  const uint64_t Key = configFingerprint(Base);

  std::vector<std::string> Targets;
  auto Record = [&](auto &, const std::string &Path) {
    Targets.push_back(Path);
  };
  SimConfig Walked = Base;
  walk(Walked, "config", Record);
  ASSERT_GT(Targets.size(), 80u);

  for (const std::string &Target : Targets) {
    SimConfig C = Base;
    auto Change = [&](auto &V, const std::string &Path) {
      if (Path == Target)
        perturb(V);
    };
    walk(C, "config", Change);
    EXPECT_NE(configFingerprint(C), Key) << Target;
  }
}

//===----------------------------------------------------------------------===//
// Pinned memo keys
//===----------------------------------------------------------------------===//

/// The identity harness's budget (fuzz_golden_test).
SimConfig harnessBudget(SimConfig C) {
  C.WarmupInstructions = 10'000;
  C.SimInstructions = 40'000;
  return C;
}

FaultAction faultAt(FaultKind Kind, Cycle At) {
  FaultAction A;
  A.At = At;
  A.Kind = Kind;
  return A;
}

/// Every memo key a committed artifact depends on, as a hex constant. A
/// refactor of the fingerprint must leave each of them unchanged: a moved
/// key silently re-keys every cached result and every sweep cell the
/// identity harness matches to a corpus row by equal fingerprints.
TEST(ConfigFingerprint, PinnedKeysAreStable) {
  EXPECT_EQ(configFingerprint(SimConfig::hwBaseline()),
            0xa6302102f98e3e36ull);
  EXPECT_EQ(configFingerprint(SimConfig::withMode(PrefetchMode::None)),
            0x9caafd64c45649bcull);
  EXPECT_EQ(configFingerprint(SimConfig::withMode(PrefetchMode::Basic)),
            0xa9be093a1dbb4291ull);
  EXPECT_EQ(configFingerprint(SimConfig::withMode(PrefetchMode::WholeObject)),
            0xd593412e36c76016ull);
  EXPECT_EQ(
      configFingerprint(SimConfig::withMode(PrefetchMode::SelfRepairing)),
      0xae1af22e6326eedbull);

  // The harness's faulted sweep column.
  SimConfig Faulted =
      harnessBudget(SimConfig::withMode(PrefetchMode::SelfRepairing));
  FaultAction Spike = faultAt(FaultKind::LatencySpike, 20'000);
  Spike.ExtraMemLatency = 300;
  Spike.DurationCycles = 40'000;
  Faulted.Faults.Actions = {Spike, faultAt(FaultKind::EvictDlt, 60'000),
                            faultAt(FaultKind::InvalidateTraces, 90'000),
                            faultAt(FaultKind::EvictCaches, 130'000)};
  EXPECT_EQ(configFingerprint(Faulted), 0xc24ad4a3ae51c3eaull);

  // Corpus row mix_fuzz_106: three co-runners, dcpt, the bandit selector.
  SimConfig Mix =
      harnessBudget(SimConfig::withMode(PrefetchMode::SelfRepairing));
  Mix.MixWith = {"art", "fuzz@107:wset=512,segs=8", "swim"};
  Mix.HwPf = "dcpt";
  std::string Error;
  ASSERT_TRUE(SelectorConfig::parse("bandit", Mix.Selector, &Error)) << Error;
  EXPECT_EQ(configFingerprint(Mix), 0x6cd1e5dac671ae15ull);

  // Corpus row repair_fuzz_101_phase: phase detection on, 150k budget.
  SimConfig Phase =
      harnessBudget(SimConfig::withMode(PrefetchMode::SelfRepairing));
  Phase.SimInstructions = 150'000;
  Phase.Runtime.ClearMatureOnPhaseChange = true;
  Phase.Runtime.PhaseIntervalCommits = 10'000;
  EXPECT_EQ(configFingerprint(Phase), 0xc9551fe2e2ca8795ull);

  // A TLB and a knobbed prefetcher spec.
  SimConfig Tlb = SimConfig::hwBaseline();
  Tlb.Mem.Tlb.Enable = true;
  Tlb.HwPf = "sb8x8:depth=8";
  EXPECT_EQ(configFingerprint(Tlb), 0x342f7e0e75d639fbull);
}

/// $TRIDENT_BENCH_JOBS counts only as a nonzero decimal number; anything
/// else falls back to the hardware count instead of wrapping or losing
/// its suffix. Only defaultThreadCount() runs: no pool is ever built from
/// a bad value.
TEST(ExperimentRunner, DefaultThreadCountReadsDecimalJobs) {
  const char *Saved = std::getenv("TRIDENT_BENCH_JOBS");
  const std::string Restore = Saved ? Saved : "";
  unsetenv("TRIDENT_BENCH_JOBS");
  const unsigned Fallback = ExperimentRunner::defaultThreadCount();
  EXPECT_GE(Fallback, 1u);
  for (const char *Bad : {"-1", "12x", "0"}) {
    setenv("TRIDENT_BENCH_JOBS", Bad, 1);
    EXPECT_EQ(ExperimentRunner::defaultThreadCount(), Fallback) << Bad;
  }
  setenv("TRIDENT_BENCH_JOBS", "4", 1);
  EXPECT_EQ(ExperimentRunner::defaultThreadCount(), 4u);
  if (Saved)
    setenv("TRIDENT_BENCH_JOBS", Restore.c_str(), 1);
  else
    unsetenv("TRIDENT_BENCH_JOBS");
}

TEST(ExperimentRunner, EmptyBatchReturnsEmpty) {
  ExperimentRunner Runner({/*Threads=*/2, /*UseCache=*/true});
  EXPECT_TRUE(Runner.runBatch({}).empty());
}

} // namespace

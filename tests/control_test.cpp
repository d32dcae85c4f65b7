//===- control_test.cpp - Unit tests for src/control -----------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The control plane's contracts:
//
//  * the bandit actually adapts — nonzero swaps under a regime-shift
//    fault plan — and the oracle resolves to a real arsenal unit and then
//    never swaps;
//  * the `--selector` spec parser accepts each policy's decimal knobs and
//    rejects everything else.
//
// That selector-off runs carry no selector state, and that a seed replays
// its decision trace byte for byte (traced, on the 4-thread pool),
// are rows of the identity harness (fuzz_golden_test). That each policy
// and seed is its own memo-cache key is experiment_runner_test's
// field-list walk.
//
//===----------------------------------------------------------------------===//

#include "control/PhaseMonitor.h"
#include "control/PrefetcherSelector.h"
#include "hwpf/PrefetcherRegistry.h"
#include "sim/ExperimentRunner.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace trident;

namespace {

SimConfig budget(SimConfig C, uint64_t N = 300'000) {
  C.SimInstructions = N;
  C.WarmupInstructions = 30'000;
  return C;
}

/// A fault plan that keeps changing the memory regime, early enough that
/// a 300k-instruction run sees several shifts.
FaultPlan shiftyPlan() {
  FaultPlan P;
  Cycle At = 100'000;
  for (int I = 0; I < 8; ++I) {
    FaultAction A;
    A.Trigger = FaultTrigger::AtCycle;
    A.At = At;
    if (I % 2 == 0) {
      A.Kind = FaultKind::LatencySpike;
      A.ExtraMemLatency = 250;
      A.DurationCycles = 150'000;
    } else {
      A.Kind = FaultKind::EvictCaches;
    }
    P.Actions.push_back(A);
    At += 250'000;
  }
  return P;
}

/// \p MoreKnobs (",knob=value...") is appended to the bandit spec.
SimConfig banditConfig(uint64_t Seed, const std::string &MoreKnobs = "") {
  SimConfig C = budget(SimConfig::hwBaseline());
  C.Faults = shiftyPlan();
  std::string Err;
  bool Ok = SelectorConfig::parse("bandit:seed=" + std::to_string(Seed) +
                                      ",epoch=4,interval=1000" + MoreKnobs,
                                  C.Selector, &Err);
  EXPECT_TRUE(Ok) << Err;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// SelectorConfig::parse
//===----------------------------------------------------------------------===//

TEST(SelectorConfig, ParsesEveryPolicy) {
  SelectorConfig C;
  std::string Err;
  ASSERT_TRUE(SelectorConfig::parse("static", C, &Err)) << Err;
  EXPECT_FALSE(C.enabled());
  EXPECT_EQ(C.shortName(), "static");

  ASSERT_TRUE(SelectorConfig::parse(
      "bandit:seed=9,eps=250,ema=500,epoch=16,interval=500", C, &Err))
      << Err;
  EXPECT_TRUE(C.enabled());
  EXPECT_EQ(C.Policy, SelectorPolicy::Bandit);
  EXPECT_EQ(C.Seed, 9u);
  EXPECT_EQ(C.EpsilonPermille, 250u);
  EXPECT_EQ(C.EmaPermille, 500u);
  EXPECT_EQ(C.SamplesPerEpoch, 16u);
  EXPECT_EQ(C.IntervalCommits, 500u);
  EXPECT_FALSE(C.Ucb);
  EXPECT_EQ(C.shortName(), "bandit");

  ASSERT_TRUE(SelectorConfig::parse("bandit:ucb=1", C, &Err)) << Err;
  EXPECT_TRUE(C.Ucb);
  EXPECT_EQ(C.shortName(), "bandit-ucb");

  ASSERT_TRUE(SelectorConfig::parse("oracle", C, &Err)) << Err;
  EXPECT_EQ(C.Policy, SelectorPolicy::Oracle);
  EXPECT_TRUE(C.OracleUnit.empty()); // unresolved until the first pass
  EXPECT_EQ(C.shortName(), "oracle");

  // An empty spec is the CLI's "flag not given": it resets to the static
  // default rather than erroring.
  ASSERT_TRUE(SelectorConfig::parse("", C, &Err)) << Err;
  EXPECT_FALSE(C.enabled());
}

TEST(SelectorConfig, RejectsBadSpecs) {
  SelectorConfig C;
  std::string Err;
  EXPECT_FALSE(SelectorConfig::parse("greedy", C, &Err));
  EXPECT_NE(Err.find("unknown selector policy"), std::string::npos) << Err;

  // Per-policy knob allow-lists: the static policy takes none, the oracle
  // takes no bandit knobs.
  EXPECT_FALSE(SelectorConfig::parse("static:seed=3", C, &Err));
  EXPECT_FALSE(SelectorConfig::parse("oracle:seed=3", C, &Err));
  EXPECT_FALSE(SelectorConfig::parse("bandit:bogus=1", C, &Err));

  // Value validation.
  EXPECT_FALSE(SelectorConfig::parse("bandit:epoch=0", C, &Err));
  EXPECT_FALSE(SelectorConfig::parse("bandit:interval=0", C, &Err));
  EXPECT_FALSE(SelectorConfig::parse("bandit:eps=1001", C, &Err));
  EXPECT_FALSE(SelectorConfig::parse("bandit:ema=0", C, &Err));

  // The arsenal's spec hardening applies here too.
  EXPECT_FALSE(SelectorConfig::parse("bandit:seed=-1", C, &Err));
  EXPECT_FALSE(SelectorConfig::parse("bandit:seed=1,seed=2", C, &Err));

  // An empty knob list or element is malformed, and ucb is 0/1; each error
  // names the element or the knob.
  const std::pair<const char *, const char *> Named[] = {
      {"bandit:", "malformed knob ''"},
      {"bandit:seed=3,", "malformed knob ''"},
      {"bandit:ucb=2", "bandit knob 'ucb' is 2, outside [0, 1]"},
  };
  for (const auto &[Text, Names] : Named) {
    EXPECT_FALSE(SelectorConfig::parse(Text, C, &Err)) << Text;
    EXPECT_NE(Err.find(Names), std::string::npos) << Text << ": " << Err;
  }
}

TEST(SelectorConfig, UnknownPolicyTextNamesEveryPolicy) {
  // The full text, pinned: every policy in enum order.
  SelectorConfig C;
  std::string Err;
  EXPECT_FALSE(SelectorConfig::parse("greedy", C, &Err));
  EXPECT_EQ(Err, "unknown selector policy 'greedy' "
                 "(policies: static, bandit, oracle)");
}

TEST(SelectorConfig, UnknownKnobTextNamesEveryPolicyVocabulary) {
  // The full text, pinned: every policy's knobs in their table order.
  const std::string Vocabulary =
      "' (bandit: epoch, interval, seed, eps, ucb, ema; "
      "oracle: epoch, interval; static: none)";
  const std::pair<const char *, const char *> Rows[] = {
      {"bandit:bogus=1", "unknown knob 'bogus' for selector policy 'bandit"},
      {"oracle:seed=3", "unknown knob 'seed' for selector policy 'oracle"},
      {"static:epoch=4", "unknown knob 'epoch' for selector policy 'static"},
  };
  for (const auto &[Spec, Head] : Rows) {
    SelectorConfig C;
    std::string Err;
    EXPECT_FALSE(SelectorConfig::parse(Spec, C, &Err)) << Spec;
    EXPECT_EQ(Err, Head + Vocabulary) << Spec;
  }
}

TEST(Selector, KnobValuesAreDecimal) {
  // A leading zero does not switch to octal, and a base prefix is an error.
  SelectorConfig C;
  std::string Err;
  ASSERT_TRUE(SelectorConfig::parse("bandit:seed=010", C, &Err)) << Err;
  EXPECT_EQ(C.Seed, 10u);
  EXPECT_FALSE(SelectorConfig::parse("bandit:seed=0x10", C, &Err));
  EXPECT_NE(Err.find("non-integer"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Bandit: adapts under regime shifts
//===----------------------------------------------------------------------===//

TEST(Selector, BanditSwapsUnderRegimeShifts) {
  SimResult R = runSimulation(makeWorkload("mcf"), banditConfig(3));
  EXPECT_GT(R.Selector.Epochs, 0u);
  EXPECT_GT(R.Selector.Swaps, 0u);
  EXPECT_GT(R.Selector.Samples, R.Selector.Epochs);
  // The trace records every epoch decision (holds included); swaps are
  // exactly the decisions that changed arms.
  EXPECT_EQ(R.Selector.Epochs, R.SelectorTrace.size());
  uint64_t Changed = 0;
  const auto Arms = PrefetcherRegistry::instance().arsenalNames();
  for (const SelectorDecisionRecord &D : R.SelectorTrace) {
    EXPECT_LT(D.ChosenArm, Arms.size());
    Changed += D.ChosenArm != D.PrevArm;
  }
  EXPECT_EQ(Changed, R.Selector.Swaps);
  EXPECT_FALSE(R.SelectorFinalUnit.empty());
  EXPECT_NE(R.ConfigName.find("+bandit"), std::string::npos) << R.ConfigName;
  // The stats export carries the control-plane counters.
  ASSERT_TRUE(R.Registry);
  EXPECT_TRUE(R.Registry->has("selector.swaps"));
  EXPECT_EQ(R.Registry->counter("selector.swaps"), R.Selector.Swaps);
}

TEST(Selector, UcbBanditExploresAndReplays) {
  // UCB1 draws no random numbers: its bonus term is the exploration. On
  // mcf under shiftyPlan at 300k+30k it reads 75 epochs, 65 swaps and 41
  // explorations.
  const SimConfig C = banditConfig(3, ",ucb=1");
  SimResult R = runSimulation(makeWorkload("mcf"), C);
  EXPECT_TRUE(R.ConfigName.ends_with("+bandit-ucb")) << R.ConfigName;
  EXPECT_EQ(R.Selector.Epochs, R.SelectorTrace.size());
  const auto Arms = PrefetcherRegistry::instance().arsenalNames();
  for (const SelectorDecisionRecord &D : R.SelectorTrace)
    EXPECT_LT(D.ChosenArm, Arms.size());
  EXPECT_GT(R.Selector.Explorations, 0u);
  EXPECT_GT(R.Selector.Swaps, 0u);
  SimResult Again = runSimulation(makeWorkload("mcf"), C);
  ASSERT_TRUE(R.Registry && Again.Registry);
  EXPECT_EQ(R.Registry->toJsonl(), Again.Registry->toJsonl());
}

//===----------------------------------------------------------------------===//
// Oracle: two-pass resolution
//===----------------------------------------------------------------------===//

TEST(Selector, OracleResolvesToBestStaticAndNeverSwaps) {
  SimConfig C = budget(SimConfig::hwBaseline(), 150'000);
  C.Faults = shiftyPlan();
  std::string Err;
  ASSERT_TRUE(SelectorConfig::parse("oracle", C.Selector, &Err)) << Err;

  ExperimentRunnerOptions Opts;
  Opts.Threads = 2;
  ExperimentRunner R(Opts);
  const Workload W = makeWorkload("mcf");
  SimConfig Resolved = resolveSelectorOracle(R, W, C);
  const auto Arms = PrefetcherRegistry::instance().arsenalNames();
  ASSERT_NE(std::find(Arms.begin(), Arms.end(), Resolved.Selector.OracleUnit),
            Arms.end())
      << "'" << Resolved.Selector.OracleUnit << "' is not an arsenal unit";

  // The pinned unit is the exposed-latency argmin of the first pass.
  uint64_t Best = ~0ull;
  std::string BestName;
  for (const std::string &Arm : Arms) {
    SimConfig S = C;
    S.Selector = SelectorConfig();
    S.HwPf = Arm;
    auto Res = R.run(W, S);
    ASSERT_TRUE(Res);
    if (Res->Mem.TotalExposedLatency < Best) {
      Best = Res->Mem.TotalExposedLatency;
      BestName = Arm;
    }
  }
  EXPECT_EQ(Resolved.Selector.OracleUnit, BestName);

  // The oracle run itself holds its arm for the whole window: the trace
  // has one hold decision per epoch and no swap ever happens in the
  // measurement window (the swap to the pinned arm, if any, lands during
  // warmup).
  SimResult Run = runSimulation(W, Resolved);
  EXPECT_GT(Run.Selector.Epochs, 0u);
  EXPECT_EQ(Run.Selector.Swaps, 0u);
  EXPECT_EQ(Run.SelectorTrace.size(), Run.Selector.Epochs);
  for (const SelectorDecisionRecord &D : Run.SelectorTrace)
    EXPECT_EQ(D.ChosenArm, D.PrevArm);
  EXPECT_EQ(Run.SelectorFinalUnit, BestName);

  // Non-oracle configs pass through resolution untouched.
  SimConfig Bandit = banditConfig(1);
  EXPECT_EQ(configFingerprint(resolveSelectorOracle(R, W, Bandit)),
            configFingerprint(Bandit));
}

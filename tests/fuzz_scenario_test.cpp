//===- fuzz_scenario_test.cpp - Differential properties of fuzzed runs -----===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The property harness over the generative scenario space: for seeds drawn
// across the knob space, (1) the generator is a pure function of
// seed+knobs down to instruction encodings, (2) spec parsing accepts the
// documented grammar and rejects everything else with a message, (3)
// self-repair re-converges within a bounded number of delinquent-load
// events when a fault plan shifts the latency regime mid-run, and (4) a
// fuzzed mix keeps every lane moving within one quantum — on programs no
// human wrote. That a fuzzed scenario's run replays byte for byte
// (traced, under a never-firing fault plan, on the 4-thread pool) is the
// identity harness's job: fuzz_golden_test's fuzz rows.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"
#include "sim/Simulation.h"
#include "workloads/Workloads.h"
#include "workloads/fuzz/FuzzGenerator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace trident;

namespace {

/// Canonical specs spread over the knob space; reused by several suites.
const char *kScenarios[] = {
    "fuzz@11",
    "fuzz@12:wset=1024,entropy=650",
    "fuzz@13:segs=6,branch=400",
    "fuzz@14:wset=32768,phase=900,streams=8",
};

/// Byte-wise equality of two programs, not just hash equality.
bool sameProgram(const Program &A, const Program &B) {
  if (A.size() != B.size() || A.basePC() != B.basePC() ||
      A.entryPC() != B.entryPC())
    return false;
  for (Addr PC = A.basePC(); PC < A.endPC(); ++PC)
    if (A.at(PC).encode() != B.at(PC).encode())
      return false;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Generator determinism
//===----------------------------------------------------------------------===//

TEST(FuzzScenario, GeneratorIsAPureFunctionOfSeedAndKnobs) {
  for (const char *Spec : kScenarios) {
    Workload A = makeWorkload(Spec);
    Workload B = makeWorkload(Spec);
    EXPECT_TRUE(sameProgram(A.Prog, B.Prog)) << Spec;
    EXPECT_EQ(A.ProgramHash, B.ProgramHash) << Spec;
    EXPECT_EQ(A.Name, B.Name) << Spec;
    EXPECT_NE(A.ProgramHash, 0u) << Spec;
  }
  // Different seeds and different knobs must actually change the program.
  EXPECT_NE(makeFuzzWorkload(1).ProgramHash, makeFuzzWorkload(2).ProgramHash);
  FuzzKnobs K;
  K.EntropyPermille = 900;
  EXPECT_NE(makeFuzzWorkload(1).ProgramHash, makeFuzzWorkload(1, K).ProgramHash);
}

TEST(FuzzScenario, NamesAreCanonicalAndRoundTrip) {
  // A canonical spec resolves to itself.
  for (const char *Spec : kScenarios)
    EXPECT_EQ(makeWorkload(Spec).Name, Spec);
  // Knob order is normalized: any accepted spelling of the same scenario
  // resolves to one canonical name (one memo-cache key, one golden file).
  Workload A = makeWorkload("fuzz@14:wset=32768,phase=900,streams=8");
  Workload B = makeWorkload("fuzz@14:streams=8,phase=900,wset=32768");
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_EQ(A.ProgramHash, B.ProgramHash);
  // Default-valued knobs spelled out explicitly normalize away.
  Workload C = makeWorkload("fuzz@11:segs=3");
  EXPECT_EQ(C.Name, "fuzz@11");
  EXPECT_EQ(C.ProgramHash, makeWorkload("fuzz@11").ProgramHash);
}

TEST(FuzzScenario, SpecParsingRejectsMalformedInput) {
  uint64_t Seed;
  FuzzKnobs K;
  std::string Err;
  EXPECT_TRUE(parseFuzzSpec("fuzz@7", Seed, K, &Err)) << Err;
  EXPECT_EQ(Seed, 7u);
  EXPECT_TRUE(parseFuzzSpec("fuzz@7:wset=256,segs=2", Seed, K, &Err)) << Err;
  EXPECT_EQ(K.WsetKB, 256u);
  EXPECT_EQ(K.Segments, 2u);

  for (const char *Bad : {
           "fuzz@",                 // missing seed
           "fuzz@abc",              // non-numeric seed
           "fuzz@7:",               // empty knob list
           "fuzz@7:wset",           // knob without value
           "fuzz@7:wset=",          // empty value
           "fuzz@7:wset=abc",       // non-numeric value
           "fuzz@7:bogus=1",        // unknown knob
           "fuzz@7:wset=1",         // below range (min 64)
           "fuzz@7:segs=99",        // above range (max 8)
           "fuzz@7:entropy=1001",   // permille above 1000
           "fuzz@7:wset=256,,segs=2", // empty element
           "fuzz@7:wset=256,",      // trailing empty element
       }) {
    Err.clear();
    EXPECT_FALSE(parseFuzzSpec(Bad, Seed, K, &Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad << " rejected without a message";
  }
  // The unknown-knob text lists every knob in its table order.
  EXPECT_FALSE(parseFuzzSpec("fuzz@7:wset=256,bogus=1", Seed, K, &Err));
  EXPECT_EQ(Err, "unknown knob 'bogus' (have wset, segs, entropy, branch, "
                 "phase, streams)");
}

//===----------------------------------------------------------------------===//
// Self-repair under faults, on generated programs
//===----------------------------------------------------------------------===//

TEST(FuzzScenario, FaultedRunsReconverge) {
  // A latency-regime shift mid-measurement (the self_repair_test fault
  // triple: permanent spike + DLT and cache eviction), injected into a
  // fuzzed program the repair logic has never seen.
  SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
  C.SimInstructions = 120'000;
  C.WarmupInstructions = 10'000;
  {
    FaultAction Spike;
    Spike.Kind = FaultKind::LatencySpike;
    Spike.At = 400'000; // absolute cycle, safely inside the long window
    Spike.ExtraMemLatency = 900;
    C.Faults.Actions.push_back(Spike);
    FaultAction Dlt = Spike;
    Dlt.Kind = FaultKind::EvictDlt;
    C.Faults.Actions.push_back(Dlt);
    FaultAction Caches = Spike;
    Caches.Kind = FaultKind::EvictCaches;
    C.Faults.Actions.push_back(Caches);
  }
  Workload W = makeWorkload("fuzz@11");
  SimResult A = runSimulation(W, C);
  ASSERT_EQ(A.Faults.Injected, 3u)
      << "the fault plan never fired inside the run window";
  EXPECT_GE(A.Faults.DetectionEvents, 1u)
      << "no delinquent-load re-detection after the regime shift";
  // Bounded re-convergence: the monitors must re-detect within the DLT's
  // own reaction time, not eventually. The bound is generous (hundreds of
  // thousands of cycles would mean the repair path is dead, not slow).
  ASSERT_GT(A.Faults.DetectionEvents, 0u);
  EXPECT_LE(A.Faults.DetectionCyclesTotal / A.Faults.DetectionEvents,
            200'000u)
      << "mean fault-to-redetection latency is unboundedly large";
}

//===----------------------------------------------------------------------===//
// Mix invariants on fuzzed scenarios
//===----------------------------------------------------------------------===//

TEST(FuzzScenario, FuzzedMixesHoldTheSoloInvariants) {
  SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
  C.SimInstructions = 20'000;
  C.WarmupInstructions = 4'000;
  C.MixWith = {"fuzz@13:segs=6,branch=400", "art"};
  Workload W = makeWorkload("fuzz@11");
  SimResult A = runSimulation(W, C);
  EXPECT_EQ(A.Instructions, C.SimInstructions);
  ASSERT_EQ(A.MixLanes.size(), 2u);
  EXPECT_EQ(A.MixLanes[0].Workload, "fuzz@13:segs=6,branch=400");
  EXPECT_EQ(A.MixLanes[1].Workload, "art");
  // Co-runners make real progress (the scheduler is not starving lanes)...
  EXPECT_GT(A.MixLanes[0].Instructions, 0u);
  EXPECT_GT(A.MixLanes[1].Instructions, 0u);
  // ...and lane clocks stay within one quantum of the primary's window
  // (the round-robin boundary contract).
  for (const SimResult::MixLane &L : A.MixLanes)
    EXPECT_LE(L.Cycles, A.Cycles + 2 * kMixQuantumCycles) << L.Workload;
}

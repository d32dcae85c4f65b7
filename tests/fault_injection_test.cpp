//===- fault_injection_test.cpp - FaultPlan / FaultInjector tests ----------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Covers the fault-injection subsystem from unit level (plan JSON schema,
// seeded generation, each fault kind's mutation hook) through the injector's
// trigger/revert machinery up to the whole-machine contracts: a plan that
// never fires leaves every simulation bit-identical across all 14 workloads,
// faults change only what they claim to change, and the ExperimentRunner
// keys its memo cache on the plan.
//
//===----------------------------------------------------------------------===//

#include "dlt/DelinquentLoadTable.h"
#include "events/EventBus.h"
#include "events/EventQueue.h"
#include "faults/FaultInjector.h"
#include "faults/FaultPlan.h"
#include "isa/ProgramBuilder.h"
#include "mem/MemorySystem.h"
#include "sim/ExperimentRunner.h"
#include "sim/Simulation.h"
#include "trident/WatchTable.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace trident;

namespace {

FaultAction spikeAt(Cycle At, unsigned ExtraMem = 300, Cycle Duration = 0) {
  FaultAction A;
  A.Trigger = FaultTrigger::AtCycle;
  A.At = At;
  A.Kind = FaultKind::LatencySpike;
  A.ExtraMemLatency = ExtraMem;
  A.DurationCycles = Duration;
  return A;
}

FaultAction kindAt(FaultKind K, Cycle At) {
  FaultAction A;
  A.Trigger = FaultTrigger::AtCycle;
  A.At = At;
  A.Kind = K;
  return A;
}

SimConfig tinyTrident() {
  SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
  C.SimInstructions = 40'000;
  C.WarmupInstructions = 10'000;
  return C;
}

//===----------------------------------------------------------------------===//
// FaultPlan: names, JSON round-trip, parser rejection, seeded generation
//===----------------------------------------------------------------------===//

TEST(FaultPlan, EveryKindHasUniqueRoundTrippableName) {
  for (unsigned I = 0; I < kNumFaultKinds; ++I) {
    FaultKind K = static_cast<FaultKind>(I);
    std::string Name = faultKindName(K);
    EXPECT_NE(Name, "<bad>") << "kind " << I;
    FaultKind Back;
    ASSERT_TRUE(faultKindFromName(Name, Back)) << Name;
    EXPECT_EQ(Back, K);
  }
  EXPECT_STREQ(faultKindName(FaultKind::NumKinds), "<bad>");
  FaultKind K;
  EXPECT_FALSE(faultKindFromName("bit-rot", K));
}

TEST(FaultPlan, JsonRoundTripIsExact) {
  FaultPlan P;
  P.Seed = 42;
  P.Actions.push_back(spikeAt(1000, 250, 500));
  FaultAction Counted;
  Counted.Trigger = FaultTrigger::AtEventCount;
  Counted.Counted = EventKind::DelinquentLoad;
  Counted.At = 3;
  Counted.Kind = FaultKind::EvictDlt;
  P.Actions.push_back(Counted);
  FaultAction Ranged = kindAt(FaultKind::EvictCaches, 77);
  Ranged.RangeLo = 0x1000'0000;
  Ranged.RangeHi = 0x1fff'ffff;
  P.Actions.push_back(Ranged);
  FaultAction Drops = kindAt(FaultKind::DropEvents, 5);
  Drops.Count = 9;
  P.Actions.push_back(Drops);

  std::string Error;
  std::optional<FaultPlan> Back = FaultPlan::parseJson(P.toJson(), &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_TRUE(Error.empty());
  EXPECT_EQ(*Back, P);
  // And a second serialization is byte-identical (canonical form).
  EXPECT_EQ(Back->toJson(), P.toJson());
}

TEST(FaultPlan, ParserRejectsMalformedInput) {
  const char *Bad[] = {
      "",                                             // no object
      "[]",                                           // wrong root
      "{\"seed\":1}x",                                // trailing garbage
      "{\"sed\":1}",                                  // unknown key
      "{\"actions\":[{\"at_cycle\":5}]}",             // action missing kind
      "{\"actions\":[{\"kind\":\"bit-rot\",\"at_cycle\":1}]}",
      "{\"actions\":[{\"kind\":\"evict-dlt\"}]}",     // no trigger
      "{\"actions\":[{\"kind\":\"evict-dlt\",\"at_cycle\":1,"
      "\"at_event\":\"commit\",\"at_count\":2}]}",    // both triggers
      "{\"actions\":[{\"kind\":\"evict-dlt\","
      "\"at_event\":\"no-such-event\",\"at_count\":1}]}",
      "{\"seed\":99999999999999999999}",              // 64-bit overflow
      "{\"seed\":-1}",                                // signed numbers
      "{\"seed\":1,\"actions\":[",                    // truncated
      "{\"actions\":[{\"kind\":\"latency-spike\",\"at_cycle\":1,"
      "\"extra_mem\":99999999999}]}",                 // 32-bit overflow
      "{\"actions\":[{\"kind\":\"latency-spike\",\"at_cycle\":1,"
      "\"extra_l2\":4294967296}]}",                   // 32-bit overflow
      "{\"seed\":1,\"seed\":2}",                      // duplicate key
      "{\"actions\":[{\"kind\":\"evict-dlt\",\"at_cycle\":1,"
      "\"at_cycle\":2}]}",                            // duplicate key
  };
  for (const char *Text : Bad) {
    std::string Error;
    EXPECT_FALSE(FaultPlan::parseJson(Text, &Error).has_value()) << Text;
    EXPECT_FALSE(Error.empty()) << Text;
  }
}

TEST(FaultPlan, ScatteredIsSeedDeterministic) {
  FaultPlan A = FaultPlan::scattered(7, 12, 1'000'000);
  FaultPlan B = FaultPlan::scattered(7, 12, 1'000'000);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.toJson(), B.toJson());
  EXPECT_EQ(A.Seed, 7u);
  ASSERT_EQ(A.Actions.size(), 12u);
  for (const FaultAction &Act : A.Actions) {
    EXPECT_GE(Act.At, 1u);
    EXPECT_LE(Act.At, 1'000'000u);
    EXPECT_LT(static_cast<unsigned>(Act.Kind), kNumFaultKinds);
  }
  FaultPlan C = FaultPlan::scattered(8, 12, 1'000'000);
  EXPECT_NE(A, C);
}

//===----------------------------------------------------------------------===//
// Per-fault-kind mutation hooks
//===----------------------------------------------------------------------===//

TEST(MemoryFaults, LatencySpikeIsRangedAndClearable) {
  constexpr Addr InRange = 0x1000'0000, OutOfRange = 0x7000'0000;

  // Reference cold-miss latency on a pristine machine.
  MemorySystem Ref(MemSystemConfig::baseline());
  Cycle RefLat = Ref.access(1, InRange, AccessKind::DemandLoad, 0).ReadyCycle;

  // Accesses are spaced far apart so bandwidth/MSHR contention from one
  // probe never bleeds into the next; each cold miss then costs exactly
  // the reference latency plus any injected extra.
  MemorySystem M(MemSystemConfig::baseline());
  M.injectLatencyFault(InRange, InRange + 0xFFFF, /*ExtraMem=*/123,
                       /*ExtraL2=*/0);
  EXPECT_TRUE(M.latencyFaultActive());
  // Faulted range: the cold miss pays the extra memory latency.
  EXPECT_EQ(M.access(1, InRange, AccessKind::DemandLoad, 0).ReadyCycle,
            RefLat + 123);
  // Outside the range: untouched.
  EXPECT_EQ(
      M.access(1, OutOfRange, AccessKind::DemandLoad, 10'000).ReadyCycle,
      10'000 + RefLat);
  // Cleared: back to the healthy regime (fresh line, cold miss again).
  M.clearLatencyFault();
  EXPECT_FALSE(M.latencyFaultActive());
  EXPECT_EQ(
      M.access(1, InRange + 0x4000, AccessKind::DemandLoad, 20'000)
          .ReadyCycle,
      20'000 + RefLat);
}

TEST(MemoryFaults, EvictRangeForcesRemisses) {
  constexpr Addr A = 0x2000'0000;
  MemorySystem M(MemSystemConfig::baseline());
  Cycle ColdLat = M.access(1, A, AccessKind::DemandLoad, 0).ReadyCycle;
  // Warm: a later re-access is an L1 hit.
  Cycle HitLat = M.access(1, A, AccessKind::DemandLoad, 10'000).ReadyCycle -
                 10'000;
  ASSERT_LT(HitLat, ColdLat);
  // Eviction invalidates the line in every level...
  EXPECT_GE(M.evictRange(A, A), 1u);
  // ...so the next access is a full cold miss again.
  EXPECT_EQ(M.access(1, A, AccessKind::DemandLoad, 20'000).ReadyCycle,
            20'000 + ColdLat);
  // An untouched range evicts nothing.
  EXPECT_EQ(M.evictRange(0x6000'0000, 0x6000'0040), 0u);
}

TEST(DltFaults, InvalidateAllForcesReflagging) {
  DltConfig C;
  C.NumEntries = 64;
  DelinquentLoadTable T(C);
  for (unsigned I = 0; I < 5; ++I)
    T.update(0x100 + I, 0x1000, /*Miss=*/true, 300);
  T.forceMature(0x100); // a settled load: never raises events again
  ASSERT_TRUE(T.lookup(0x100).has_value());
  ASSERT_TRUE(T.lookup(0x100)->Mature);

  uint64_t Cleared = T.invalidateAll();
  EXPECT_GE(Cleared, 5u);
  EXPECT_FALSE(T.lookup(0x100).has_value());
  EXPECT_EQ(T.invalidateAll(), 0u); // already empty

  // The re-allocated entry starts fresh: the mature flag is gone, so the
  // load can be re-flagged — the self-repair re-detection mechanism.
  T.update(0x100, 0x1000, true, 300);
  ASSERT_TRUE(T.lookup(0x100).has_value());
  EXPECT_FALSE(T.lookup(0x100)->Mature);
}

TEST(WatchFaults, InvalidateAllClearsEveryEntry) {
  WatchTable W(8);
  for (uint32_t Id = 1; Id <= 3; ++Id)
    ASSERT_TRUE(W.insert(Id, 0x100 * Id, 0x4000'0000 + 0x100 * Id, 16));
  EXPECT_EQ(W.size(), 3u);
  EXPECT_EQ(W.invalidateAll(), 3u);
  EXPECT_EQ(W.size(), 0u);
  EXPECT_EQ(W.find(1), nullptr);
  EXPECT_EQ(W.invalidateAll(), 0u);
  // The table is reusable after the upset.
  EXPECT_TRUE(W.insert(9, 0x900, 0x4000'0900, 8));
  EXPECT_EQ(W.size(), 1u);
}

TEST(QueueFaults, ForcedDropsCountSeparatelyAndSurviveClearStats) {
  EventQueue Q(4);
  Q.scheduleForcedDrops(1);
  Q.scheduleForcedDrops(1); // accumulates
  EXPECT_EQ(Q.pendingForcedDrops(), 2u);
  HardwareEvent E = HardwareEvent::delinquentLoad(0x10, 1, 5);
  EXPECT_FALSE(Q.tryPush(E));
  EXPECT_FALSE(Q.tryPush(E));
  EXPECT_TRUE(Q.tryPush(E)); // forced drops exhausted
  EXPECT_EQ(Q.pendingForcedDrops(), 0u);
  EXPECT_EQ(Q.injectedDrops(), 2u);
  EXPECT_EQ(Q.dropped(), 2u); // forced drops count as drops too
  EXPECT_EQ(Q.size(), 1u);

  // clearStats resets measurement accounting but not the fault state:
  // injected faults span measurement boundaries.
  Q.scheduleForcedDrops(1);
  Q.setStalled(true);
  Q.clearStats();
  EXPECT_EQ(Q.dropped(), 0u);
  EXPECT_EQ(Q.pendingForcedDrops(), 1u);
  EXPECT_EQ(Q.injectedDrops(), 2u);
  EXPECT_TRUE(Q.stalled());
  Q.setStalled(false);
  EXPECT_FALSE(Q.stalled());
}

//===----------------------------------------------------------------------===//
// FaultInjector trigger/revert machinery (no core: a hand-fed event bus)
//===----------------------------------------------------------------------===//

TEST(FaultInjector, AtCycleFiresOnceAndRevertsAfterDuration) {
  MemorySystem Mem(MemSystemConfig::baseline());
  FaultPlan P;
  P.Actions.push_back(spikeAt(100, 300, /*Duration=*/50));
  FaultTargets T;
  T.Mem = &Mem;
  FaultInjector Inj(P, T);
  EventBus Bus;
  Inj.attach(Bus);
  ASSERT_EQ(Inj.pendingActions(), 1u);

  Instruction Nop = makeNop();
  auto commitAt = [&](Cycle C) {
    Bus.publish(HardwareEvent::commit(0, 0x10, Nop, C));
  };

  commitAt(99); // before the trigger cycle: nothing happens
  EXPECT_FALSE(Mem.latencyFaultActive());
  EXPECT_EQ(Inj.stats().Injected, 0u);

  commitAt(103); // first event at/after the trigger cycle fires it
  EXPECT_TRUE(Mem.latencyFaultActive());
  EXPECT_EQ(Inj.stats().Injected, 1u);
  EXPECT_EQ(Inj.stats().LatencySpikes, 1u);
  EXPECT_EQ(Inj.pendingActions(), 0u);
  ASSERT_EQ(Inj.schedule().size(), 1u);
  EXPECT_EQ(Inj.schedule()[0], (std::pair<size_t, Cycle>{0, 103}));

  commitAt(120); // inside the fault window: still active, fires only once
  EXPECT_TRUE(Mem.latencyFaultActive());
  EXPECT_EQ(Inj.stats().Injected, 1u);

  commitAt(160); // 103 + 50 elapsed: reverted
  EXPECT_FALSE(Mem.latencyFaultActive());
  EXPECT_EQ(Inj.stats().Reverts, 1u);
}

TEST(FaultInjector, AtEventCountTriggersOnNthDeliveredEvent) {
  MemorySystem Mem(MemSystemConfig::baseline());
  FaultPlan P;
  FaultAction A;
  A.Trigger = FaultTrigger::AtEventCount;
  A.Counted = EventKind::DelinquentLoad;
  A.At = 3;
  A.Kind = FaultKind::LatencySpike;
  A.ExtraMemLatency = 100;
  P.Actions.push_back(A);
  FaultTargets T;
  T.Mem = &Mem;
  FaultInjector Inj(P, T);
  EventBus Bus;
  Inj.attach(Bus);

  for (Cycle C = 1; C <= 2; ++C) {
    Bus.publish(HardwareEvent::delinquentLoad(0x10, 1, C * 10));
    EXPECT_FALSE(Mem.latencyFaultActive()) << C;
  }
  Bus.publish(HardwareEvent::delinquentLoad(0x10, 1, 30)); // the 3rd
  EXPECT_TRUE(Mem.latencyFaultActive());
  ASSERT_EQ(Inj.schedule().size(), 1u);
  EXPECT_EQ(Inj.schedule()[0].second, 30u);
}

TEST(FaultInjector, RuntimeFaultsSkipWithoutRuntime) {
  // On a hardware-baseline machine (no Trident runtime) the runtime-
  // targeted kinds fire into nothing: counted skipped, never injected.
  MemorySystem Mem(MemSystemConfig::baseline());
  FaultPlan P;
  P.Actions.push_back(kindAt(FaultKind::EvictDlt, 1));
  P.Actions.push_back(kindAt(FaultKind::EvictWatchTable, 1));
  P.Actions.push_back(kindAt(FaultKind::DropEvents, 1));
  P.Actions.push_back(kindAt(FaultKind::StallQueue, 1));
  P.Actions.push_back(kindAt(FaultKind::InvalidateTraces, 1));
  FaultTargets T;
  T.Mem = &Mem;
  FaultInjector Inj(P, T);
  EventBus Bus;
  Inj.attach(Bus);

  Instruction Nop = makeNop();
  Bus.publish(HardwareEvent::commit(0, 0x10, Nop, 5));
  EXPECT_EQ(Inj.stats().Skipped, 5u);
  EXPECT_EQ(Inj.stats().Injected, 0u);
  EXPECT_TRUE(Inj.schedule().empty());
  EXPECT_EQ(Inj.pendingActions(), 0u); // skipped actions do not re-arm
}

TEST(FaultInjector, DetectionAndReconvergenceAccounting) {
  // A real (idle) runtime arms the re-convergence tracking that only
  // runtime-bearing machines get; events are hand-fed on a private bus.
  ProgramBuilder PB;
  PB.halt();
  Program Prog = PB.finish();
  DataMemory Data;
  MemorySystem Mem(MemSystemConfig::baseline());
  CodeCache CC;
  CodeImage Image(Prog, CC);
  SmtCore Core(CoreConfig::baseline(), Image, Data, Mem);
  TridentRuntime Runtime(RuntimeConfig::baseline(), Prog, Core, CC);

  FaultPlan P;
  P.Actions.push_back(spikeAt(10));
  FaultTargets T;
  T.Mem = &Mem;
  T.Runtime = &Runtime;
  FaultInjector Inj(P, T);
  EventBus Bus;
  Inj.attach(Bus);

  Instruction Nop = makeNop();
  Bus.publish(HardwareEvent::commit(0, 0x10, Nop, 10)); // fires at 10
  ASSERT_EQ(Inj.stats().Injected, 1u);

  Bus.publish(HardwareEvent::delinquentLoad(0x20, 1, 150));
  EXPECT_EQ(Inj.stats().DetectionEvents, 1u);
  EXPECT_EQ(Inj.stats().DetectionCyclesTotal, 140u);

  Bus.publish(HardwareEvent::helperDone(1, 400));
  EXPECT_EQ(Inj.stats().ReconvergenceEvents, 1u);
  EXPECT_EQ(Inj.stats().ReconvergenceCyclesTotal, 390u);

  // Only the first of each is the fault's answer; later ones are business
  // as usual.
  Bus.publish(HardwareEvent::delinquentLoad(0x20, 1, 500));
  Bus.publish(HardwareEvent::helperDone(1, 600));
  EXPECT_EQ(Inj.stats().DetectionEvents, 1u);
  EXPECT_EQ(Inj.stats().ReconvergenceEvents, 1u);
}

//===----------------------------------------------------------------------===//
// Whole-machine identity: a disabled/never-firing injector changes nothing
//===----------------------------------------------------------------------===//

TEST(FaultEndToEnd, NeverFiringPlanBitIdenticalAcrossAllWorkloads) {
  // The tentpole contract, asserted the same way the tracer's passivity
  // is: every counter in the machine flattens into the stat registry, so
  // byte-comparing the canonical JSONL compares the whole SimResult.
  FaultPlan Never;
  Never.Actions.push_back(spikeAt(~static_cast<Cycle>(0)));
  for (const std::string &Name : workloadNames()) {
    Workload W = makeWorkload(Name);
    SimConfig C = tinyTrident();
    SimResult Plain = runSimulation(W, C);
    SimConfig CF = tinyTrident();
    CF.Faults = Never;
    SimResult Faulted = runSimulation(W, CF);

    EXPECT_EQ(Plain.RegChecksum, Faulted.RegChecksum) << Name;
    EXPECT_EQ(Plain.Instructions, Faulted.Instructions) << Name;
    EXPECT_EQ(Plain.Cycles, Faulted.Cycles) << Name;
    EXPECT_EQ(Plain.Halted, Faulted.Halted) << Name;
    EXPECT_EQ(Plain.HelperBusyCycles, Faulted.HelperBusyCycles) << Name;
    EXPECT_EQ(Plain.BranchMispredicts, Faulted.BranchMispredicts) << Name;
    EXPECT_EQ(Plain.EventsPublished, Faulted.EventsPublished) << Name;
    EXPECT_EQ(Faulted.Faults.Injected, 0u) << Name;
    ASSERT_TRUE(Plain.Registry && Faulted.Registry) << Name;
    EXPECT_EQ(Plain.Registry->toJsonl(), Faulted.Registry->toJsonl()) << Name;
  }
}

TEST(FaultEndToEnd, NeverFiringPlanPassiveOnHardwareBaseline) {
  // Without Trident the injector is the machine's only Commit subscriber,
  // so (like the tracer) publish counters may differ — but timing and
  // architectural state must not.
  FaultPlan Never;
  Never.Actions.push_back(spikeAt(~static_cast<Cycle>(0)));
  SimConfig C = SimConfig::hwBaseline();
  C.SimInstructions = 40'000;
  C.WarmupInstructions = 10'000;
  Workload W = makeWorkload("mcf");
  SimResult Plain = runSimulation(W, C);
  SimConfig CF = C;
  CF.Faults = Never;
  SimResult Faulted = runSimulation(W, CF);
  EXPECT_EQ(Plain.RegChecksum, Faulted.RegChecksum);
  EXPECT_EQ(Plain.Cycles, Faulted.Cycles);
  EXPECT_EQ(Plain.Instructions, Faulted.Instructions);
  EXPECT_EQ(Plain.BranchMispredicts, Faulted.BranchMispredicts);
}

//===----------------------------------------------------------------------===//
// Faults that do fire: observable, accounted, bounded
//===----------------------------------------------------------------------===//

TEST(FaultEndToEnd, PermanentSpikeSlowsRunAndExportsStats) {
  Workload W = makeWorkload("mcf");
  SimConfig C = tinyTrident();
  SimResult Plain = runSimulation(W, C);

  SimConfig CF = tinyTrident();
  CF.Faults.Actions.push_back(spikeAt(1, /*ExtraMem=*/400));
  SimResult Faulted = runSimulation(W, CF);

  EXPECT_EQ(Faulted.Faults.Injected, 1u);
  EXPECT_EQ(Faulted.Faults.LatencySpikes, 1u);
  EXPECT_GT(Faulted.Cycles, Plain.Cycles); // every memory fetch pays
  // The "faults." namespace appears exactly because something fired.
  ASSERT_TRUE(Faulted.Registry);
  EXPECT_TRUE(Faulted.Registry->has("faults.injected"));
  EXPECT_EQ(Faulted.Registry->counter("faults.injected"), 1u);
  ASSERT_TRUE(Plain.Registry);
  EXPECT_FALSE(Plain.Registry->has("faults.injected"));
}

TEST(FaultEndToEnd, FiringPlanIsRunToRunDeterministic) {
  Workload W = makeWorkload("equake");
  SimConfig C = tinyTrident();
  C.Faults = FaultPlan::scattered(21, 6, 200'000);
  SimResult A = runSimulation(W, C);
  SimResult B = runSimulation(W, C);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Faults.Injected, B.Faults.Injected);
  ASSERT_TRUE(A.Registry && B.Registry);
  EXPECT_EQ(A.Registry->toJsonl(), B.Registry->toJsonl());
}

namespace {

/// Finite pointer chase (the integration-test quickstart loop, bounded):
/// runs to Halt so semantics can be compared exactly.
Workload finiteChase(uint64_t Iters) {
  constexpr Addr ListBase = 0x1000'0000;
  ProgramBuilder B;
  B.loadImm(1, ListBase);
  B.loadImm(4, 0).loadImm(5, static_cast<int64_t>(Iters));
  B.label("loop");
  B.load(1, 1, 0);
  B.load(6, 1, 8).load(7, 1, 72);
  B.fadd(8, 6, 7);
  B.fadd(9, 9, 8);
  B.addi(4, 4, 1);
  B.blt(4, 5, "loop");
  B.halt();
  Workload W;
  W.Name = "fault-chase";
  W.Prog = B.finish();
  W.Init = [](DataMemory &M) {
    buildLinkedList(M, ListBase, 1 << 16, 128, 0, /*Shuffled=*/false);
  };
  return W;
}

SimConfig runToHalt() {
  SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
  C.WarmupInstructions = 0;
  C.SimInstructions = 100'000'000;
  return C;
}

} // namespace

TEST(FaultEndToEnd, TraceInvalidationPreservesSemantics) {
  // Yanking every linked trace out from under the running program must
  // never change what it computes — threads fall back to original code
  // and traces re-form.
  Workload W = finiteChase(30'000);
  SimConfig Plain = runToHalt();
  SimResult R0 = runSimulation(W, Plain);
  ASSERT_TRUE(R0.Halted);

  SimConfig CF = runToHalt();
  CF.Faults.Actions.push_back(
      kindAt(FaultKind::InvalidateTraces, R0.Cycles / 2));
  SimResult R1 = runSimulation(W, CF);
  ASSERT_TRUE(R1.Halted);
  EXPECT_EQ(R1.Faults.Injected, 1u);
  EXPECT_GE(R1.Faults.TracesInvalidated, 1u); // it really hit live traces
  EXPECT_EQ(R1.Instructions, R0.Instructions);
  EXPECT_EQ(R1.RegChecksum, R0.RegChecksum);
  // Self-repair: after losing everything the runtime re-forms and
  // re-installs traces.
  EXPECT_GT(R1.Runtime.TracesInstalled, R0.Runtime.TracesInstalled);
}

TEST(FaultEndToEnd, EvictionFaultsPreserveSemantics) {
  Workload W = finiteChase(30'000);
  SimResult R0 = runSimulation(W, runToHalt());
  ASSERT_TRUE(R0.Halted);

  SimConfig CF = runToHalt();
  CF.Faults.Actions.push_back(kindAt(FaultKind::EvictCaches, R0.Cycles / 3));
  CF.Faults.Actions.push_back(kindAt(FaultKind::EvictDlt, R0.Cycles / 3));
  CF.Faults.Actions.push_back(
      kindAt(FaultKind::EvictWatchTable, R0.Cycles / 2));
  SimResult R1 = runSimulation(W, CF);
  ASSERT_TRUE(R1.Halted);
  EXPECT_EQ(R1.Faults.Injected, 3u);
  EXPECT_GE(R1.Faults.CacheLinesEvicted, 1u);
  EXPECT_EQ(R1.Instructions, R0.Instructions);
  EXPECT_EQ(R1.RegChecksum, R0.RegChecksum);
}

TEST(FaultEndToEnd, QueueStallSuppressesOptimizationUntilReverted) {
  Workload W = finiteChase(30'000);

  // Permanent stall from cycle 1: events pile up and overflow, the helper
  // never runs, no prefetching ever happens — but the program is correct.
  SimConfig Stuck = runToHalt();
  Stuck.Faults.Actions.push_back(kindAt(FaultKind::StallQueue, 1));
  SimResult RStuck = runSimulation(W, Stuck);
  ASSERT_TRUE(RStuck.Halted);
  EXPECT_EQ(RStuck.Faults.QueueStalls, 1u);
  EXPECT_EQ(RStuck.Runtime.InsertionOptimizations, 0u);
  EXPECT_GT(RStuck.Runtime.EventsDropped, 0u); // bounded queue overflowed

  // The same stall with a duration: after the revert pumps the queue, the
  // machine optimizes after all.
  SimConfig Bounded = runToHalt();
  FaultAction Stall = kindAt(FaultKind::StallQueue, 1);
  Stall.DurationCycles = RStuck.Cycles / 4;
  Bounded.Faults.Actions.push_back(Stall);
  SimResult RBounded = runSimulation(W, Bounded);
  ASSERT_TRUE(RBounded.Halted);
  EXPECT_EQ(RBounded.Faults.Reverts, 1u);
  EXPECT_GT(RBounded.Runtime.InsertionOptimizations, 0u);

  SimResult R0 = runSimulation(W, runToHalt());
  EXPECT_EQ(RStuck.RegChecksum, R0.RegChecksum);
  EXPECT_EQ(RBounded.RegChecksum, R0.RegChecksum);
}

TEST(FaultEndToEnd, DropEventsInjectsBackpressure) {
  // Force-drop a burst of filtered events right when optimization starts:
  // the runtime's drop accounting must see them (drops clear the DLT
  // window and the opt-in-progress flag, so the machine retries later).
  Workload W = finiteChase(30'000);
  SimConfig CF = runToHalt();
  FaultAction Drops;
  Drops.Trigger = FaultTrigger::AtEventCount;
  Drops.Counted = EventKind::HotTrace;
  Drops.At = 1; // as soon as the first hot trace is detected
  Drops.Kind = FaultKind::DropEvents;
  Drops.Count = 4;
  CF.Faults.Actions.push_back(Drops);
  SimResult R = runSimulation(W, CF);
  ASSERT_TRUE(R.Halted);
  EXPECT_EQ(R.Faults.EventDropsScheduled, 4u);
  EXPECT_GE(R.Runtime.EventsDropped, 4u);
  // Correctness unaffected.
  SimResult R0 = runSimulation(W, runToHalt());
  EXPECT_EQ(R.RegChecksum, R0.RegChecksum);
  EXPECT_EQ(R.Instructions, R0.Instructions);
}

//===----------------------------------------------------------------------===//
// ExperimentRunner: memo-cache keying and parallel determinism
//===----------------------------------------------------------------------===//

TEST(FaultExperimentRunner, MemoCacheKeysOnFaultPlan) {
  ExperimentRunner::clearResultCache();
  Workload W = makeWorkload("dot");
  SimConfig A = tinyTrident();
  SimConfig B = tinyTrident();
  B.Faults.Actions.push_back(spikeAt(1, 200));
  ASSERT_FALSE(A.Faults == B.Faults);

  ExperimentRunner Runner;
  auto RA = Runner.run(W, A);
  EXPECT_EQ(ExperimentRunner::resultCacheSize(), 1u);
  auto RB = Runner.run(W, B);
  // Two configs differing only in the fault plan are distinct cache
  // entries; sharing one would hand a faulted result to a clean config.
  EXPECT_EQ(ExperimentRunner::resultCacheSize(), 2u);
  EXPECT_NE(RA->Cycles, RB->Cycles);

  // Same plan again: memoized, no third entry.
  auto RB2 = Runner.run(W, B);
  EXPECT_EQ(ExperimentRunner::resultCacheSize(), 2u);
  EXPECT_EQ(RB.get(), RB2.get());
  ExperimentRunner::clearResultCache();
}

TEST(FaultExperimentRunner, ParallelBatchMatchesDirectRun) {
  // The same seed+plan must give the identical fault schedule and the
  // byte-identical registry export whether it runs inline or through the
  // parallel batch runner.
  FaultPlan Plan = FaultPlan::scattered(33, 5, 150'000);
  std::vector<ExperimentJob> Jobs;
  for (const char *Name : {"mcf", "art", "equake"}) {
    SimConfig C = tinyTrident();
    C.Faults = Plan;
    Jobs.push_back(ExperimentJob{makeWorkload(Name), C});
  }

  ExperimentRunner::clearResultCache();
  ExperimentRunner Runner;
  auto Batch = Runner.runBatch(Jobs);
  ASSERT_EQ(Batch.size(), Jobs.size());

  for (size_t I = 0; I < Jobs.size(); ++I) {
    SimResult Direct = runSimulation(Jobs[I].W, Jobs[I].Config);
    EXPECT_EQ(Batch[I]->Cycles, Direct.Cycles) << Jobs[I].W.Name;
    EXPECT_EQ(Batch[I]->Faults.Injected, Direct.Faults.Injected)
        << Jobs[I].W.Name;
    ASSERT_TRUE(Batch[I]->Registry && Direct.Registry);
    EXPECT_EQ(Batch[I]->Registry->toJsonl(), Direct.Registry->toJsonl())
        << Jobs[I].W.Name;
  }
  ExperimentRunner::clearResultCache();
}

} // namespace

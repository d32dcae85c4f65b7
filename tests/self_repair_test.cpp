//===- self_repair_test.cpp - Bounded re-convergence after faults ----------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The paper's central claim, validated end to end under fault injection:
// when the memory latency regime shifts underneath a converged prefetcher,
// the DLT re-flags the load, the helper re-patches the prefetch distance
// within a *bounded* number of delinquent-load events (the bound is
// asserted, not logged), and when the latency spike ends the distance
// comes back down. The machine is driven in explicit phases so each
// transition can be observed at a known point.
//
//===----------------------------------------------------------------------===//

#include "faults/FaultInjector.h"
#include "isa/ProgramBuilder.h"
#include "sim/Simulation.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace trident;

namespace {

constexpr Addr ListBase = 0x1000'0000;

/// The quickstart pointer chase (an endless loop: phases are delimited by
/// instruction budgets, not program exits). Returns the loop-head PC so
/// the test can query the trace's current prefetch distance.
struct ChaseProgram {
  Program Prog;
  Addr LoopHead = 0;
};

ChaseProgram chaseProgram() {
  ChaseProgram CP;
  ProgramBuilder B;
  B.loadImm(1, ListBase);
  B.loadImm(4, 0).loadImm(5, int64_t(1) << 40);
  CP.LoopHead = B.here();
  B.label("loop");
  B.load(1, 1, 0);
  B.load(6, 1, 8).load(7, 1, 72);
  B.fadd(8, 6, 7);
  B.fadd(9, 9, 8);
  B.addi(4, 4, 1);
  B.blt(4, 5, "loop");
  B.halt();
  CP.Prog = B.finish();
  return CP;
}

/// A hand-assembled machine (the integration-test idiom) whose phases the
/// test controls: run a bounded chunk, inspect, perturb, run again.
struct Machine {
  ChaseProgram CP;
  DataMemory Data;
  MemorySystem Mem;
  CodeCache CC;
  CodeImage Image;
  SmtCore Core;
  EventBus Bus;
  TridentRuntime Runtime;

  Machine()
      : CP(chaseProgram()), Mem(MemSystemConfig::baseline()),
        Image(CP.Prog, CC),
        Core(CoreConfig::baseline(), Image, Data, Mem),
        Runtime(RuntimeConfig::baseline(), CP.Prog, Core, CC) {
    buildLinkedList(Data, ListBase, 1 << 16, 128, 0, /*Shuffled=*/false);
    Runtime.attach(Bus);
    Core.setEventBus(&Bus);
    Runtime.setEnabled(true);
    Core.startContext(0, CP.Prog.entryPC());
  }

  /// Runs in small chunks until \p Done or the instruction budget is
  /// spent; returns the instructions actually consumed.
  template <typename Pred>
  uint64_t runUntil(uint64_t Budget, uint64_t Chunk, Pred Done) {
    uint64_t Spent = 0;
    while (Spent < Budget && !Done()) {
      Core.run(Chunk, ~static_cast<Cycle>(0));
      Spent += Chunk;
    }
    return Spent;
  }

  int distance() const { return Runtime.currentDistanceFor(CP.LoopHead); }
};

} // namespace

TEST(SelfRepair, LastRepairDistanceIsTheDistanceHeld) {
  // The climb's last budget unit steps the distance, then the settle
  // replaces that step with the best distance seen. The gauge reports
  // what the group holds afterwards, not the replaced step.
  Machine M;
  M.runUntil(4'000'000, 20'000, [&] {
    return M.Runtime.stats().LoadsMatured >= 2;
  });
  ASSERT_GE(M.Runtime.stats().LoadsMatured, 2u);
  EXPECT_EQ(M.Runtime.stats().LastRepairDistance, M.distance());
}

TEST(SelfRepair, BoundedReconvergenceAcrossALatencyRegimeShift) {
  Machine M;

  //--- Phase A: converge and settle under the healthy latency regime. -----
  // Run until the self-repairing optimizer has climbed the distance,
  // spent the repair budget, and settled (matured) both covered loads.
  // A settled prefetcher is the interesting starting point: phase B then
  // shows that a settled load is *re-opened* — not permanently frozen —
  // when the latency regime shifts underneath it.
  M.runUntil(4'000'000, 20'000, [&] {
    return M.Runtime.stats().LoadsMatured >= 2;
  });
  ASSERT_GE(M.Runtime.stats().RepairOptimizations, 2u)
      << "the prefetcher never started repairing under the healthy regime";
  ASSERT_GE(M.Runtime.stats().LoadsMatured, 2u)
      << "the repair budget never settled under the healthy regime";
  const uint64_t PreMatured = M.Runtime.stats().LoadsMatured;
  const int DPre = M.distance();
  ASSERT_GT(DPre, 0) << "no repairable prefetch group on the hot trace";

  //--- Phase B: latency regime shift (the fault). -------------------------
  // A fault injector delivers the shift the way the full simulator would:
  // a permanent global latency spike, plus cache and DLT eviction so the
  // warmed state (including the DLT's settled window counters) is gone.
  // DLT eviction is what allows re-flagging; the spike is what makes the
  // re-flagged load delinquent again.
  FaultPlan Shift;
  {
    FaultAction Spike;
    Spike.Kind = FaultKind::LatencySpike;
    Spike.At = M.Core.now() + 1;
    Spike.ExtraMemLatency = 1200;
    Shift.Actions.push_back(Spike);
    FaultAction Dlt = Spike;
    Dlt.Kind = FaultKind::EvictDlt;
    Shift.Actions.push_back(Dlt);
    FaultAction Caches = Spike;
    Caches.Kind = FaultKind::EvictCaches;
    Shift.Actions.push_back(Caches);
  }
  FaultTargets Targets;
  Targets.Mem = &M.Mem;
  Targets.Runtime = &M.Runtime;
  FaultInjector Injector(Shift, Targets);
  Injector.attach(M.Bus);

  const uint64_t EventsAtShift = M.Runtime.stats().DelinquentEvents;
  const uint64_t RepairsAtShift = M.Runtime.stats().RepairOptimizations;

  // The self-repair latency bound, in delinquent-load events: the monitors
  // re-flag the load and the helper re-patches the distance within this
  // many events after the shift. One event would be ideal (the first
  // re-flag starts repair work immediately); the bound leaves room for
  // events racing a busy helper thread.
  constexpr uint64_t kRepairEventBound = 8;

  M.runUntil(4'000'000, 2'000, [&] {
    return M.Runtime.stats().RepairOptimizations > RepairsAtShift;
  });
  ASSERT_EQ(Injector.stats().Injected, 3u); // the shift actually happened
  ASSERT_GT(M.Runtime.stats().DelinquentEvents, EventsAtShift)
      << "the DLT never re-flagged the load after the shift";
  ASSERT_GT(M.Runtime.stats().RepairOptimizations, RepairsAtShift)
      << "the planner never re-patched the distance after the shift";
  EXPECT_GE(M.Runtime.stats().RepairsReopened, 1u)
      << "the settled load was never re-opened for repair";
  EXPECT_LE(M.Runtime.stats().DelinquentEvents - EventsAtShift,
            kRepairEventBound)
      << "re-convergence took more delinquent-load events than the bound";
  // The injector's own accounting observed the same re-convergence.
  EXPECT_GE(Injector.stats().DetectionEvents, 1u);

  // Let the climb take a few more steps into the spiked regime: with
  // memory 1200 cycles further away, covering the latency needs a larger
  // distance. The chunk is small so the loop stops *near* the target
  // instead of letting the climb run all the way to the distance clamp —
  // phase C wants the climb parked mid-ascent, with the spiked-regime
  // latency it last observed still on record.
  M.runUntil(6'000'000, 2'000, [&] {
    return M.Runtime.stats().RepairOptimizations >= RepairsAtShift + 6;
  });
  const int DSpike = M.distance();
  EXPECT_GT(DSpike, DPre)
      << "the repaired distance did not climb to cover the spiked latency";
  ASSERT_EQ(M.Runtime.stats().LoadsMatured, PreMatured)
      << "the repair target matured mid-test; phase C would be inert";

  //--- Phase C: the spike ends. -------------------------------------------
  // Clear the latency fault through the public hook and deliver a DLT
  // eviction so monitoring restarts under the healthy regime. The caches
  // stay warm on purpose: the first post-spike DLT window then observes
  // the *regime's* latency, not a cold-refill transient, and the hill
  // climb — still parked mid-ascent with a ~500-cycle spiked observation
  // on record — sees the collapse and restarts from the seed.
  M.Mem.clearLatencyFault();
  FaultPlan Recover;
  {
    FaultAction Dlt;
    Dlt.Kind = FaultKind::EvictDlt;
    Dlt.At = M.Core.now() + 1;
    Recover.Actions.push_back(Dlt);
  }
  FaultInjector Recovery(Recover, Targets);
  Recovery.attach(M.Bus);

  const uint64_t RepairsAtRecovery = M.Runtime.stats().RepairOptimizations;
  M.runUntil(8'000'000, 2'000, [&] {
    return M.Runtime.stats().RepairOptimizations > RepairsAtRecovery &&
           M.distance() < DSpike;
  });
  EXPECT_EQ(Recovery.stats().Injected, 1u);
  EXPECT_GT(M.Runtime.stats().RepairOptimizations, RepairsAtRecovery)
      << "repair never resumed after the spike ended";
  EXPECT_GE(M.Runtime.stats().RegimeShiftsDetected, 1u)
      << "the hill climb never noticed the latency regime relaxing";
  EXPECT_LT(M.distance(), DSpike)
      << "the distance did not come back down after the spike ended";
}

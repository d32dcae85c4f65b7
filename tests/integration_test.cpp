//===- integration_test.cpp - Full-stack Trident runtime tests -------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// These run small programs through the complete system — core, memory,
// stream buffers, Trident runtime with the self-repairing prefetcher —
// and check the end-to-end behaviours the paper describes.
//
//===----------------------------------------------------------------------===//

#include "isa/ProgramBuilder.h"
#include "sim/ExperimentRunner.h"
#include "sim/Simulation.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace trident;

namespace {

constexpr Addr ListBase = 0x1000'0000;
constexpr Addr ArrayBase = 0x2000'0000;

/// Sequentially allocated pointer chase with a far field (the quickstart
/// workload): DLT-stride chase + same-object far field.
Workload chaseWorkload() {
  ProgramBuilder B;
  B.loadImm(1, ListBase);
  B.loadImm(4, 0).loadImm(5, int64_t(1) << 40);
  B.label("loop");
  B.load(1, 1, 0);
  B.load(6, 1, 8).load(7, 1, 72);
  B.fadd(8, 6, 7);
  B.fadd(9, 9, 8);
  B.addi(4, 4, 1);
  B.blt(4, 5, "loop");
  B.halt();
  Workload W;
  W.Name = "test-chase";
  W.Prog = B.finish();
  W.Init = [](DataMemory &M) {
    buildLinkedList(M, ListBase, 1 << 16, 128, 0, /*Shuffled=*/false);
  };
  return W;
}

/// Pure stride streaming loop over one huge array.
Workload strideWorkload() {
  ProgramBuilder B;
  B.loadImm(1, ArrayBase);
  B.loadImm(27, ArrayBase + (int64_t(1) << 33));
  B.label("loop");
  B.load(6, 1, 0);
  B.fadd(9, 9, 6);
  B.addi(1, 1, 128);
  B.blt(1, 27, "loop");
  B.halt();
  Workload W;
  W.Name = "test-stride";
  W.Prog = B.finish();
  W.Init = [](DataMemory &) {};
  return W;
}

SimConfig quick(PrefetchMode Mode, uint64_t N = 600'000) {
  SimConfig C = SimConfig::withMode(Mode);
  C.WarmupInstructions = 50'000;
  C.SimInstructions = N;
  return C;
}

SimConfig quickBaseline(uint64_t N = 600'000) {
  SimConfig C = SimConfig::hwBaseline();
  C.WarmupInstructions = 50'000;
  C.SimInstructions = N;
  return C;
}

} // namespace

TEST(Integration, TraceGetsFormedAndLinked) {
  SimResult R = runSimulation(chaseWorkload(), quick(PrefetchMode::None));
  EXPECT_GE(R.Runtime.TracesInstalled, 1u);
  EXPECT_GT(R.Runtime.CommitsInTraces, R.Runtime.CommitsTotal / 2);
}

TEST(Integration, DelinquentLoadsTriggerInsertion) {
  SimResult R =
      runSimulation(chaseWorkload(), quick(PrefetchMode::SelfRepairing));
  EXPECT_GE(R.Runtime.DelinquentEvents, 1u);
  EXPECT_GE(R.Runtime.InsertionOptimizations, 1u);
  EXPECT_GE(R.Runtime.PrefetchInstructionsPlanned, 1u);
}

TEST(Integration, SelfRepairingImprovesPointerChase) {
  SimResult Base = runSimulation(chaseWorkload(), quickBaseline(1'000'000));
  SimResult Srp = runSimulation(chaseWorkload(),
                                quick(PrefetchMode::SelfRepairing, 1'000'000));
  EXPECT_GT(speedup(Srp, Base), 1.10);
  EXPECT_GE(Srp.Runtime.RepairOptimizations, 3u); // distance was adapted
  EXPECT_GT(Srp.Runtime.LastRepairDistance, 1);   // and climbed past 1
}

TEST(Integration, RepairsOnlyHappenInSelfRepairingMode) {
  SimResult Basic =
      runSimulation(chaseWorkload(), quick(PrefetchMode::Basic, 800'000));
  EXPECT_EQ(Basic.Runtime.RepairOptimizations, 0u);
  SimResult Whole = runSimulation(chaseWorkload(),
                                  quick(PrefetchMode::WholeObject, 800'000));
  EXPECT_EQ(Whole.Runtime.RepairOptimizations, 0u);
}

TEST(Integration, SemanticsUnchangedByOptimization) {
  // The optimizer must never change what the program computes: run the
  // same finite program under every mode and compare final register state
  // and committed counts.
  auto finiteChase = []() {
    ProgramBuilder B;
    B.loadImm(1, ListBase);
    B.loadImm(4, 0).loadImm(5, 30'000);
    B.label("loop");
    B.load(1, 1, 0);
    B.load(6, 1, 8).load(7, 1, 72);
    B.alu(Opcode::Add, 9, 9, 6);
    B.alu(Opcode::Add, 9, 9, 7);
    B.addi(4, 4, 1);
    B.blt(4, 5, "loop");
    B.halt();
    Workload W;
    W.Name = "finite-chase";
    W.Prog = B.finish();
    W.Init = [](DataMemory &M) {
      // Fields hold recognizable values.
      buildLinkedList(M, ListBase, 1 << 14, 128, 0, /*Shuffled=*/true, 99);
      for (uint64_t I = 0; I < (1 << 14); ++I) {
        M.write64(ListBase + I * 128 + 8, I * 3 + 1);
        M.write64(ListBase + I * 128 + 72, I * 7 + 2);
      }
    };
    return W;
  };

  // Reference: raw machine, no Trident.
  SimConfig Ref = quickBaseline(~0ull);
  Ref.WarmupInstructions = 0;
  Ref.SimInstructions = 100'000'000; // runs to Halt
  SimResult RRef = runSimulation(finiteChase(), Ref);

  for (PrefetchMode Mode :
       {PrefetchMode::None, PrefetchMode::Basic, PrefetchMode::WholeObject,
        PrefetchMode::SelfRepairing}) {
    SimConfig C = quick(Mode, 100'000'000);
    C.WarmupInstructions = 0;
    SimResult R = runSimulation(finiteChase(), C);
    EXPECT_TRUE(R.Halted);
    EXPECT_EQ(R.Instructions, RRef.Instructions)
        << "committed-instruction mismatch in mode "
        << prefetchModeName(Mode);
    EXPECT_EQ(R.RegChecksum, RRef.RegChecksum)
        << "register-state mismatch in mode " << prefetchModeName(Mode);
  }
}

TEST(Integration, OverheadModeNeverLinksTraces) {
  SimConfig C = quick(PrefetchMode::SelfRepairing);
  C.Runtime.LinkTraces = false;
  SimResult R = runSimulation(chaseWorkload(), C);
  EXPECT_GE(R.Runtime.TracesInstalled, 1u);
  EXPECT_EQ(R.Runtime.CommitsInTraces, 0u); // never executed from cache
  // The helper thread did run (that is the cost being measured, §5.1).
  EXPECT_GT(R.HelperBusyCycles, 0u);
}

TEST(Integration, OverheadIsSmall) {
  // Section 5.1: the total cost of running the optimizer without using
  // its traces is ~0.6%.
  SimResult Base = runSimulation(chaseWorkload(), quickBaseline());
  SimConfig C = quick(PrefetchMode::SelfRepairing);
  C.Runtime.LinkTraces = false;
  SimResult NoLink = runSimulation(chaseWorkload(), C);
  double Overhead = 1.0 - NoLink.Ipc / Base.Ipc;
  EXPECT_LT(Overhead, 0.03);
}

TEST(Integration, HelperActivityIsSmallFraction) {
  SimResult R =
      runSimulation(chaseWorkload(), quick(PrefetchMode::SelfRepairing));
  EXPECT_LT(R.helperActiveFraction(), 0.20);
  EXPECT_GT(R.helperActiveFraction(), 0.0);
}

TEST(Integration, StrideLoopCoverageIsHigh) {
  SimResult R = runSimulation(strideWorkload(),
                              quick(PrefetchMode::SelfRepairing, 1'000'000));
  // Practically all misses are inside the (single) hot trace.
  EXPECT_GT(R.Runtime.traceMissCoverage(), 0.9);
}

TEST(Integration, MatureFlagStopsEventStorms) {
  // A loop with unclassifiable random probes: its loads mature after the
  // first optimization attempt and stop raising events.
  ProgramBuilder B;
  B.loadImm(1, 0x3000'0000).loadImm(11, 12345);
  B.loadImm(4, 0).loadImm(5, int64_t(1) << 40);
  B.label("loop");
  B.aluImm(Opcode::MulI, 11, 11, 6364136223846793005ll);
  B.aluImm(Opcode::ShrI, 12, 11, 30);
  B.aluImm(Opcode::AndI, 12, 12, 0x00FF'FFF8);
  B.alu(Opcode::Add, 13, 1, 12);
  B.load(14, 13, 0);
  B.addi(4, 4, 1);
  B.blt(4, 5, "loop");
  B.halt();
  Workload W;
  W.Name = "random-probe";
  W.Prog = B.finish();
  W.Init = [](DataMemory &) {};

  SimResult R = runSimulation(W, quick(PrefetchMode::SelfRepairing));
  EXPECT_GE(R.Runtime.LoadsMatured, 1u);
  // Far fewer events than windows completed: maturing took effect.
  EXPECT_LT(R.Runtime.DelinquentEvents, 10u);
}

TEST(Integration, DeterministicAcrossRuns) {
  SimResult A =
      runSimulation(chaseWorkload(), quick(PrefetchMode::SelfRepairing));
  SimResult B =
      runSimulation(chaseWorkload(), quick(PrefetchMode::SelfRepairing));
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.Runtime.RepairOptimizations, B.Runtime.RepairOptimizations);
}

TEST(Integration, EstimateSeededRepairStillConverges) {
  // Section 5.3's "alternate strategy": seeding the distance with the
  // equation-2 estimate must behave like (not worse than) seeding with 1.
  SimConfig C1 = quick(PrefetchMode::SelfRepairing, 1'000'000);
  SimConfig CE = C1;
  CE.Runtime.SelfRepairInitialEstimate = true;
  SimResult R1 = runSimulation(chaseWorkload(), C1);
  SimResult RE = runSimulation(chaseWorkload(), CE);
  EXPECT_GT(RE.Ipc, R1.Ipc * 0.85);
  EXPECT_LT(RE.Ipc, R1.Ipc * 1.30);
}

TEST(Integration, PhaseChangeDetectionClearsMatureFlags) {
  // Two alternating hot loops, one of which contains an unclassifiable
  // probe load that matures; the trace-mix shift is a phase change.
  ProgramBuilder B;
  B.loadImm(1, 0x10000000ll).loadImm(2, 0x30000000ll);
  B.loadImm(26, 0x50000000ll);
  B.label("outer");
  B.loadImm(4, 0).loadImm(5, 20'000);
  B.label("p1");
  B.load(6, 1, 0);
  B.aluImm(Opcode::MulI, 11, 4, 2654435761ll);
  B.aluImm(Opcode::ShrI, 12, 11, 7);
  B.aluImm(Opcode::AndI, 12, 12, 0x00FF0FF8);
  B.alu(Opcode::Add, 13, 26, 12);
  B.load(14, 13, 0);
  B.aluImm(Opcode::AddI, 1, 1, 64);
  B.addi(4, 4, 1);
  B.blt(4, 5, "p1");
  B.loadImm(4, 0).loadImm(5, 20'000);
  B.label("p2");
  B.load(7, 2, 0);
  B.fadd(10, 10, 7);
  B.aluImm(Opcode::AddI, 2, 2, 4160);
  B.addi(4, 4, 1);
  B.blt(4, 5, "p2");
  B.jump("outer");
  B.halt();
  Workload W{"phased-test", "", B.finish(), [](DataMemory &) {}};

  SimConfig C = quick(PrefetchMode::SelfRepairing, 900'000);
  C.Runtime.ClearMatureOnPhaseChange = true;
  C.Runtime.PhaseIntervalCommits = 100'000;
  SimResult R = runSimulation(W, C);
  EXPECT_GE(R.Runtime.PhaseChangesDetected, 1u);
  EXPECT_GE(R.Runtime.MatureFlagsCleared, 1u);

  // And the hook defaults to off.
  SimConfig COff = quick(PrefetchMode::SelfRepairing, 900'000);
  SimResult ROff = runSimulation(W, COff);
  EXPECT_EQ(ROff.Runtime.PhaseChangesDetected, 0u);
}

TEST(Integration, RegistrationStructureTracksHelperSpawns) {
  // The Section 3.1 registration structure: initialized at runtime
  // creation, priority Low (the helper must not steal main-thread slots),
  // and counting helper invocations.
  Program Prog = chaseWorkload().Prog;
  DataMemory Data;
  chaseWorkload().Init(Data);
  MemorySystem Mem(MemSystemConfig::baseline());
  CodeCache CC;
  CodeImage Image(Prog, CC);
  SmtCore Core(CoreConfig::baseline(), Image, Data, Mem);
  EventBus Bus;
  TridentRuntime Runtime(RuntimeConfig::baseline(), Prog, Core, CC);
  Runtime.attach(Bus);
  Core.setEventBus(&Bus);
  Runtime.setEnabled(true);
  Core.startContext(0, Prog.entryPC());

  const RegistrationStructure &Reg = Runtime.registration();
  EXPECT_EQ(Reg.ThreadPriority, RegistrationStructure::Priority::Low);
  EXPECT_EQ(Reg.CodeCachePointer, CodeCache::Base);
  EXPECT_EQ(Reg.Invocations, 0u);

  Core.run(400'000, ~0ull);
  EXPECT_GE(Reg.Invocations, 2u); // trace formation + >=1 optimization
}

TEST(Integration, EventQueueOverflowDropsCleanly) {
  SimConfig C = quick(PrefetchMode::SelfRepairing, 800'000);
  C.Runtime.MaxPendingEvents = 0; // pathological: every event drops
  SimResult R = runSimulation(chaseWorkload(), C);
  // Events fire and are all dropped, monitoring keeps running, nothing
  // wedges, and no prefetching ever happens.
  EXPECT_GT(R.Runtime.EventsDropped, 0u);
  EXPECT_EQ(R.Runtime.InsertionOptimizations, 0u);
  EXPECT_EQ(R.Instructions, 800'000u);
}

TEST(Integration, TrampolineMigratesOldTraceGenerations) {
  // After a re-optimization installs generation 2, a thread spinning in
  // generation 1 must migrate: from then on commits come from the newest
  // region only. We check it indirectly: reinstalls happen and the final
  // IPC reflects prefetching (generation 2) rather than the bare trace.
  SimResult R = runSimulation(chaseWorkload(),
                              quick(PrefetchMode::SelfRepairing, 1'000'000));
  EXPECT_GE(R.Runtime.TraceReinstalls, 1u);
  EXPECT_GT(R.Runtime.LdHitPrefetched + R.Runtime.LdPartial, 0u);
}

TEST(Integration, Figure5OrderingsHold) {
  // The paper's headline shapes, pinned as orderings and signs rather than
  // magnitudes, on the Fig. 5 sweep at a reduced 200k+100k budget.
  const SimConfig Configs[] = {
      SimConfig::hwBaseline(), SimConfig::withMode(PrefetchMode::Basic),
      SimConfig::withMode(PrefetchMode::WholeObject),
      SimConfig::withMode(PrefetchMode::SelfRepairing)};
  std::vector<ExperimentJob> Jobs;
  for (const std::string &Name : workloadNames())
    for (SimConfig C : Configs) {
      C.WarmupInstructions = 100'000;
      C.SimInstructions = 200'000;
      Jobs.push_back(ExperimentJob{makeWorkload(Name), C});
    }
  ExperimentRunner Runner({/*Threads=*/4, /*UseCache=*/false});
  auto R = Runner.runBatch(Jobs);

  // Speedup over the hw baseline per workload: basic, whole-object,
  // self-repairing.
  std::vector<double> Speedup[3];
  for (size_t I = 0; I < R.size(); I += 4)
    for (size_t M = 0; M < 3; ++M)
      Speedup[M].push_back(speedup(*R[I + 1 + M], *R[I]));
  EXPECT_GT(geometricMean(Speedup[0]), 1.0);
  EXPECT_GT(geometricMean(Speedup[1]), geometricMean(Speedup[0]));
  EXPECT_GT(geometricMean(Speedup[2]), geometricMean(Speedup[1]));

  const std::vector<std::string> &Names = workloadNames();
  auto IndexOf = [&](const char *Name) {
    return static_cast<size_t>(
        std::find(Names.begin(), Names.end(), Name) - Names.begin());
  };
  // applu's naive distance is already right: repair never fires.
  EXPECT_EQ(R[4 * IndexOf("applu") + 3]->Runtime.RepairOptimizations, 0u);
  // dot is the whole-object showcase: grouping, not repair, brings its gain.
  const size_t Dot = IndexOf("dot");
  EXPECT_GT(Speedup[1][Dot] - Speedup[0][Dot],
            Speedup[2][Dot] - Speedup[1][Dot]);
}

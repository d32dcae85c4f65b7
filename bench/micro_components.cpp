//===- micro_components.cpp - google-benchmark micro suite -----------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Not a paper figure: micro-benchmarks of the substrate components so
// regressions in simulator throughput are visible. Covers the structures
// on the per-instruction hot path (cache lookups, DLT updates, predictor
// updates), the per-event cold path (trace building, prefetch
// planning, full simulation throughput) and per-job set-up (data images).
//
//===----------------------------------------------------------------------===//

#include "core/PrefetchPlanner.h"
#include "dlt/DelinquentLoadTable.h"
#include "hwpf/StridePredictor.h"
#include "isa/ProgramBuilder.h"
#include "mem/MemorySystem.h"
#include "sim/ExperimentRunner.h"
#include "sim/Simulation.h"
#include "trident/TraceBuilder.h"

#include <benchmark/benchmark.h>

using namespace trident;

static void BM_CacheLookupHit(benchmark::State &State) {
  Cache C({"L1", 64 * 1024, 2, 64, 3});
  C.insert(0x1000, 0, false);
  for (auto _ : State)
    benchmark::DoNotOptimize(C.lookup(0x1000).Idx);
}
BENCHMARK(BM_CacheLookupHit);

static void BM_MemorySystemStreamingAccess(benchmark::State &State) {
  MemorySystem M(MemSystemConfig::baseline());
  Addr A = 0x1000'0000;
  Cycle Now = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        M.access(0x100, A, AccessKind::DemandLoad, Now));
    A += 8;
    Now += 4;
  }
}
BENCHMARK(BM_MemorySystemStreamingAccess);

static void BM_DltUpdate(benchmark::State &State) {
  DelinquentLoadTable T(DltConfig::baseline());
  Addr A = 0x1000;
  unsigned I = 0;
  for (auto _ : State) {
    unsigned Slot = I & 7;
    ++I;
    benchmark::DoNotOptimize(
        T.update(0x40000000 + Slot, A += 64, (I & 7) == 0, 300));
    // Drain events so the table does not stay frozen.
    if ((I & 1023) == 0)
      for (unsigned K = 0; K < 8; ++K)
        T.clearWindow(0x40000000 + K);
  }
}
BENCHMARK(BM_DltUpdate);

static void BM_StridePredictorTrain(benchmark::State &State) {
  StridePredictor P(1024);
  Addr A = 0x1000;
  for (auto _ : State) {
    P.train(0x100, A += 64);
    benchmark::DoNotOptimize(P.predict(0x100));
  }
}
BENCHMARK(BM_StridePredictorTrain);

static void BM_TraceBuild(benchmark::State &State) {
  ProgramBuilder B(0x100);
  B.label("head");
  for (int I = 0; I < 40; ++I)
    B.addi(1 + (I % 8), 1 + (I % 8), I);
  B.load(10, 2, 0);
  B.aluImm(Opcode::AddI, 2, 2, 64);
  B.blt(1, 3, "head");
  B.halt();
  Program P = B.finish();
  HotTraceCandidate Cand{0x100, 0b1, 1};
  TraceBuilder TB;
  for (auto _ : State) {
    auto T = TB.build(P, Cand, 0);
    benchmark::DoNotOptimize(T);
  }
}
BENCHMARK(BM_TraceBuild);

static void BM_PrefetchPlanning(benchmark::State &State) {
  std::vector<Instruction> Body = {
      makeLoad(5, 2, 0),  makeLoad(6, 2, 8),   makeLoad(7, 2, 72),
      makeLoad(8, 2, 96), makeAluImm(Opcode::AddI, 2, 2, 128),
      makeBranch(Opcode::Blt, 2, 3, 0x10),
  };
  DltConfig DC;
  DC.MonitorWindow = 16;
  DC.MissThreshold = 4;
  DelinquentLoadTable T(DC);
  for (unsigned L = 0; L < 4; ++L)
    for (unsigned I = 0; I < 16; ++I)
      T.update(0x40000000 + L, 0x100000 + I * 128 + Body[L].Imm, true, 300);
  std::vector<Addr> PCs = {0x40000000, 0x40000001, 0x40000002,
                           0x40000003, 0x40000004, 0x40000005};
  PrefetchPlanner P;
  for (auto _ : State) {
    PrefetchPlan Plan;
    auto L = P.identifyDelinquentLoads(Body, PCs, T);
    P.plan(Body, L, Plan, 1);
    auto E = P.emit(Body, Plan);
    benchmark::DoNotOptimize(E.NewBody.data());
  }
}
BENCHMARK(BM_PrefetchPlanning);

static void BM_SimulatorThroughput(benchmark::State &State) {
  // End-to-end simulated instructions per second on a representative
  // workload with the full Trident stack enabled.
  for (auto _ : State) {
    Workload W = makeWorkload("mcf");
    SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
    C.WarmupInstructions = 10'000;
    C.SimInstructions = 200'000;
    SimResult R = runSimulation(W, C);
    benchmark::DoNotOptimize(R.Ipc);
    State.SetItemsProcessed(State.items_processed() +
                            static_cast<int64_t>(R.Instructions));
  }
}
BENCHMARK(BM_SimulatorThroughput)->Unit(benchmark::kMillisecond);

static void BM_WorkloadImage(benchmark::State &State, const char *Name) {
  // The per-job set-up cost of one data image: declare it and destroy it.
  // Declaring writes no page and reserves room for every declared page;
  // a shuffled list (dot's, here) builds its successor table. A run's
  // writes to a page go into a 512-byte record of the words written, and
  // the page is filled only when a write turns it dense. After the first
  // iteration, slabs come from the free list the previous image returned
  // them to, as they do for later jobs of a batch.
  Workload W = makeWorkload(Name);
  for (auto _ : State) {
    DataMemory M;
    W.Init(M);
    benchmark::DoNotOptimize(M.numPages());
  }
}
BENCHMARK_CAPTURE(BM_WorkloadImage, mcf, "mcf")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WorkloadImage, equake, "equake")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WorkloadImage, dot, "dot")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WorkloadImage, vis, "vis")->Unit(benchmark::kMillisecond);

static void runBatchThroughput(benchmark::State &State, unsigned Threads) {
  // A small multi-workload sweep through the batch executor, caching
  // disabled so every iteration simulates for real. Thread count 1 is the
  // serial reference; 0 means all hardware threads.
  std::vector<ExperimentJob> Jobs;
  for (const char *Name : {"mcf", "mgrid", "equake", "swim"}) {
    SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
    C.WarmupInstructions = 10'000;
    C.SimInstructions = 100'000;
    Jobs.push_back(ExperimentJob{makeWorkload(Name), C});
  }
  ExperimentRunner Runner({Threads, /*UseCache=*/false});
  for (auto _ : State) {
    auto Results = Runner.runBatch(Jobs);
    int64_t Instr = 0;
    for (const auto &R : Results)
      Instr += static_cast<int64_t>(R->Instructions);
    benchmark::DoNotOptimize(Results.data());
    State.SetItemsProcessed(State.items_processed() + Instr);
  }
}

static void BM_BatchThroughputSerial(benchmark::State &State) {
  runBatchThroughput(State, 1);
}
BENCHMARK(BM_BatchThroughputSerial)->Unit(benchmark::kMillisecond);

static void BM_BatchThroughputParallel(benchmark::State &State) {
  runBatchThroughput(State, 0);
}
BENCHMARK(BM_BatchThroughputParallel)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

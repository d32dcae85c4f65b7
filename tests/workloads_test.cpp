//===- workloads_test.cpp - The 14 benchmark programs ----------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulation.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace trident;

TEST(Workloads, RegistryHasFourteenPaperBenchmarks) {
  const std::vector<std::string> &Names = workloadNames();
  EXPECT_EQ(Names.size(), 14u);
  std::set<std::string> S(Names.begin(), Names.end());
  for (const char *N : {"applu", "art", "dot", "equake", "facerec", "fma3d",
                        "galgel", "gap", "mcf", "mgrid", "parser", "swim",
                        "vis", "wupwise"})
    EXPECT_TRUE(S.count(N)) << N;
}

TEST(Workloads, ProgramsAvoidScratchRegisters) {
  for (const Workload &W : makeAllWorkloads()) {
    for (Addr PC = W.Prog.basePC(); PC < W.Prog.endPC(); ++PC) {
      const Instruction &I = W.Prog.at(PC);
      if (I.writesRd()) {
        EXPECT_LT(I.Rd, reg::FirstScratch)
            << W.Name << " writes a reserved scratch register at 0x"
            << std::hex << PC;
      }
    }
  }
}

TEST(Workloads, LinkedListGenerators) {
  DataMemory M;
  Addr Head = buildLinkedList(M, 0x1000, 64, 64, 0, /*Shuffled=*/false);
  EXPECT_EQ(Head, 0x1000u);
  // Sequential: every link advances by the node size; the last wraps.
  for (unsigned I = 0; I + 1 < 64; ++I)
    EXPECT_EQ(M.read64(0x1000 + I * 64), 0x1000u + (I + 1) * 64);
  EXPECT_EQ(M.read64(0x1000 + 63 * 64), 0x1000u);
}

TEST(Workloads, ShuffledListIsCircularPermutation) {
  DataMemory M;
  Addr Head = buildLinkedList(M, 0x1000, 128, 64, 0, /*Shuffled=*/true, 5);
  EXPECT_EQ(Head, 0x1000u); // rotated so Base leads
  std::set<Addr> Seen;
  Addr P = Head;
  for (unsigned I = 0; I < 128; ++I) {
    EXPECT_TRUE(Seen.insert(P).second) << "node revisited early";
    P = M.read64(P);
  }
  EXPECT_EQ(P, Head); // circular
}

TEST(Workloads, RunShuffledListHasSequentialRuns) {
  DataMemory M;
  Addr Head =
      buildRunShuffledList(M, 0x1000, 256, 64, 0, /*RunLength=*/16, 5);
  // Walk the list: at least 14 of every 16 links must be +NodeSize.
  Addr P = Head;
  unsigned Sequential = 0;
  for (unsigned I = 0; I < 256; ++I) {
    Addr N = M.read64(P);
    Sequential += (N == P + 64);
    P = N;
  }
  EXPECT_EQ(P, Head);
  EXPECT_GE(Sequential, 256u - 16u); // one jump per run
}

TEST(Workloads, PointerArrayTargets) {
  DataMemory M;
  buildPointerArray(M, 0x1000, 16, 0x8000, 64);
  for (unsigned I = 0; I < 16; ++I)
    EXPECT_EQ(M.read64(0x1000 + I * 8), 0x8000u + I * 64);
}

TEST(Workloads, InitializedImagesArePinned) {
  // DataMemory::contentHash of every named program's image and of three
  // fuzz scenarios (two of them build shuffled lists), recorded when the
  // list builders still wrote links in traversal order. A builder change
  // that alters an image fails here, even for an image no golden reads.
  constexpr uint64_t Empty = 0xcbf29ce484222325ull; // FNV-1a offset basis
  const std::map<std::string, uint64_t> Pinned = {
      {"applu", Empty},
      {"art", Empty},
      {"dot", 0x1ed40899fe97e9f9ull},
      {"equake", 0x8a0c7692f52e8cc6ull},
      {"facerec", Empty},
      {"fma3d", Empty},
      {"galgel", Empty},
      {"gap", 0x34f6cffcd1ca7265ull},
      {"mcf", 0xea8b8f718783bbf9ull},
      {"mgrid", Empty},
      {"parser", 0x9cac688e1f1b68a9ull},
      {"swim", Empty},
      {"vis", 0xe5c30f19cc578e5eull},
      {"wupwise", Empty},
      {"fuzz@101", 0x13948762e0897169ull},
      {"fuzz@17:wset=512,segs=8", 0xc80a9315f376ac53ull},
      {"fuzz@12:wset=1024,entropy=650", 0x12afd4c1089856e1ull},
  };
  for (const std::string &Name : workloadNames())
    EXPECT_TRUE(Pinned.count(Name)) << Name << " has no pinned image";
  for (const auto &[Name, Hash] : Pinned) {
    Workload W = makeWorkload(Name);
    DataMemory M;
    W.Init(M);
    EXPECT_EQ(M.contentHash(), Hash) << Name;
  }
}

TEST(Workloads, DeclaredImagesStartEmpty) {
  // Every image only declares its words, so Init materializes no page: a
  // page materializes when the run first writes it. That covers the
  // shuffled lists of dot, parser and two of the pinned fuzz images.
  std::vector<std::string> Names = workloadNames();
  for (const char *Fuzz : {"fuzz@101", "fuzz@17:wset=512,segs=8",
                           "fuzz@12:wset=1024,entropy=650"})
    Names.push_back(Fuzz);
  for (const std::string &Name : Names) {
    Workload W = makeWorkload(Name);
    DataMemory M;
    W.Init(M);
    EXPECT_EQ(M.numPages(), 0u) << Name;
  }
}

// Every workload must run on the raw machine without tripping asserts and
// make steady progress (parameterized over the whole suite).
class WorkloadSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmoke, RunsOnBaseline) {
  Workload W = makeWorkload(GetParam());
  SimConfig C = SimConfig::hwBaseline();
  C.WarmupInstructions = 20'000;
  C.SimInstructions = 80'000;
  SimResult R = runSimulation(W, C);
  EXPECT_EQ(R.Instructions, 80'000u) << "program halted early";
  EXPECT_GT(R.Ipc, 0.001);
  EXPECT_LT(R.Ipc, 4.0);
}

TEST_P(WorkloadSmoke, RunsUnderSelfRepairingTrident) {
  Workload W = makeWorkload(GetParam());
  SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
  C.WarmupInstructions = 20'000;
  C.SimInstructions = 150'000;
  SimResult R = runSimulation(W, C);
  EXPECT_EQ(R.Instructions, 150'000u);
  EXPECT_GT(R.Ipc, 0.001);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadSmoke,
                         ::testing::ValuesIn(workloadNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

//===----------------------------------------------------------------------===//
// Parameterized generators
//===----------------------------------------------------------------------===//

TEST(Generators, StrideLoopRunsAndMisses) {
  StrideLoopSpec S;
  S.NumStreams = 3;
  S.Stride = 128;
  Workload W = makeStrideLoopWorkload(S);
  SimConfig C = SimConfig::hwBaseline();
  C.HwPf = "none";
  C.WarmupInstructions = 5'000;
  C.SimInstructions = 60'000;
  SimResult R = runSimulation(W, C);
  EXPECT_EQ(R.Instructions, 60'000u);
  EXPECT_GT(R.Mem.demandL1Misses(), 1000u); // streams really miss
}

TEST(Generators, PointerChaseLayoutsDiffer) {
  auto run = [](PointerChaseSpec::Layout L) {
    PointerChaseSpec S;
    S.NodeLayout = L;
    S.NumNodes = 1 << 14;
    Workload W = makePointerChaseWorkload(S);
    SimConfig C = SimConfig::hwBaseline();
    C.WarmupInstructions = 20'000;
    C.SimInstructions = 150'000;
    return runSimulation(W, C);
  };
  SimResult Seq = run(PointerChaseSpec::Layout::Sequential);
  SimResult Shuf = run(PointerChaseSpec::Layout::Shuffled);
  // Sequential layout lets the stream buffers cover the chase; shuffled
  // defeats them.
  EXPECT_GT(Seq.Ipc, Shuf.Ipc * 1.5);
}

TEST(Generators, GatherBenefitsFromSelfRepair) {
  GatherSpec S;
  Workload W = makeGatherWorkload(S);
  SimConfig Base = SimConfig::hwBaseline();
  Base.WarmupInstructions = 50'000;
  Base.SimInstructions = 500'000;
  SimConfig Srp = SimConfig::withMode(PrefetchMode::SelfRepairing);
  Srp.WarmupInstructions = 50'000;
  Srp.SimInstructions = 500'000;
  SimResult RB = runSimulation(W, Base);
  SimResult RS = runSimulation(W, Srp);
  EXPECT_GT(speedup(RS, RB), 1.2);
}

TEST(Generators, SpecsAreHonoured) {
  PointerChaseSpec S;
  S.FieldOffsets = {16, 200};
  S.NodeSize = 256;
  Workload W = makePointerChaseWorkload(S, "custom");
  EXPECT_EQ(W.Name, "custom");
  // The program contains loads at the requested offsets.
  bool Saw16 = false, Saw200 = false;
  for (Addr PC = W.Prog.basePC(); PC < W.Prog.endPC(); ++PC) {
    const Instruction &I = W.Prog.at(PC);
    if (I.Op == Opcode::Load && I.Rs1 == 1) {
      Saw16 |= I.Imm == 16;
      Saw200 |= I.Imm == 200;
    }
  }
  EXPECT_TRUE(Saw16);
  EXPECT_TRUE(Saw200);
}

//===- Workloads.cpp ------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "isa/ProgramBuilder.h"
#include "support/Random.h"
#include "support/Check.h"
#include "workloads/fuzz/FuzzGenerator.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

using namespace trident;

uint64_t trident::programHash(const Program &P) {
  uint64_t H = 1469598103934665603ull;
  auto fold = [&H](uint64_t V) {
    for (int I = 0; I < 8; ++I)
      H = (H ^ ((V >> (8 * I)) & 0xFF)) * 1099511628211ull;
  };
  fold(P.entryPC());
  for (Addr PC = P.basePC(); PC < P.endPC(); ++PC)
    for (uint64_t Word : P.at(PC).encode())
      fold(Word);
  return H;
}

//===----------------------------------------------------------------------===//
// Data-image generators
//===----------------------------------------------------------------------===//

Addr trident::buildLinkedList(DataMemory &Mem, Addr Base, uint64_t NumNodes,
                              unsigned NodeSize, unsigned LinkOffset,
                              bool Shuffled, uint64_t Seed) {
  TRIDENT_CHECK(NumNodes >= 2, "list needs at least two nodes");
  TRIDENT_CHECK(NumNodes <= UINT32_MAX, "list too long: %llu nodes",
                static_cast<unsigned long long>(NumNodes));
  auto nodeAddr = [=](uint64_t Idx) { return Base + Idx * NodeSize; };
  if (!Shuffled) {
    Mem.declareWords(Base + LinkOffset, NumNodes, NodeSize,
                     [=](uint64_t N) { return nodeAddr((N + 1) % NumNodes); });
    return Base;
  }
  // The links are declared through a successor table, 4 bytes a node,
  // so the list's pages are read in place and never written at Init.
  std::vector<uint32_t> Next(NumNodes);
  {
    std::vector<uint32_t> Order(NumNodes);
    std::iota(Order.begin(), Order.end(), 0u);
    SplitMix64 Rng(Seed);
    shuffle(Order, Rng);
    // Rotate so node 0 (at Base) leads the traversal: callers can start
    // chasing at Base without searching for the head.
    std::rotate(Order.begin(), std::find(Order.begin(), Order.end(), 0u),
                Order.end());
    // Order[I] is the node at list position I.
    for (uint64_t I = 0; I < NumNodes; ++I)
      Next[Order[I]] = Order[(I + 1) % NumNodes];
  }
  Mem.declareWords(Base + LinkOffset, NumNodes, NodeSize,
                   [=, Next = std::move(Next)](uint64_t N) {
                     return nodeAddr(Next[N]);
                   });
  return Base;
}

Addr trident::buildRunShuffledList(DataMemory &Mem, Addr Base,
                                   uint64_t NumNodes, unsigned NodeSize,
                                   unsigned LinkOffset, unsigned RunLength,
                                   uint64_t Seed) {
  TRIDENT_CHECK(RunLength >= 1 && NumNodes >= 2 * RunLength, "need at least two runs");
  uint64_t NumRuns = NumNodes / RunLength;
  std::vector<uint64_t> RunOrder(NumRuns);
  for (uint64_t I = 0; I < NumRuns; ++I)
    RunOrder[I] = I;
  SplitMix64 Rng(Seed);
  shuffle(RunOrder, Rng);
  for (uint64_t I = 0; I < NumRuns; ++I) {
    if (RunOrder[I] == 0) {
      std::rotate(RunOrder.begin(), RunOrder.begin() + I, RunOrder.end());
      break;
    }
  }
  // Node N is node N % RunLength of run N / RunLength. Only a run's last
  // node links outside it, to the first node of the run that follows.
  std::vector<uint64_t> NextRun(NumRuns);
  for (uint64_t I = 0; I < NumRuns; ++I)
    NextRun[RunOrder[I]] = RunOrder[(I + 1) % NumRuns];
  Mem.declareWords(Base + LinkOffset, NumRuns * RunLength, NodeSize,
                   [=, NextRun = std::move(NextRun)](uint64_t N) {
                     uint64_t Next = N % RunLength + 1 < RunLength
                                         ? N + 1
                                         : NextRun[N / RunLength] * RunLength;
                     return Base + Next * NodeSize;
                   });
  return Base + RunOrder[0] * RunLength * NodeSize;
}

void trident::buildPointerArray(DataMemory &Mem, Addr ArrayBase,
                                uint64_t Count, Addr Target,
                                uint64_t Stride) {
  Mem.declareWords(ArrayBase, Count, 8,
                   [=](uint64_t I) { return Target + I * Stride; });
}

//===----------------------------------------------------------------------===//
// Shared emission helpers
//===----------------------------------------------------------------------===//

namespace {

// Memory map: one 256MB region per role, far apart so streams never alias.
constexpr Addr RegionA = 0x1000'0000;
constexpr Addr RegionB = 0x2000'0000;
constexpr Addr RegionC = 0x3000'0000;
constexpr Addr RegionD = 0x4000'0000;
constexpr Addr RegionE = 0x5000'0000;
constexpr int64_t FarLimit = int64_t(1) << 40; // "never" reached

/// Dependent FP chain: lengthens the loop iteration (each FAdd is 4 cy).
void emitFpChain(ProgramBuilder &B, unsigned N, unsigned Acc, unsigned Src) {
  for (unsigned I = 0; I < N; ++I)
    B.fadd(Acc, Acc, Src);
}

/// Independent-ish FP filler across three accumulators (ILP-friendly).
void emitFpFiller(ProgramBuilder &B, unsigned N, unsigned Src) {
  static const unsigned Accs[3] = {21, 22, 23};
  for (unsigned I = 0; I < N; ++I)
    B.fadd(Accs[I % 3], Accs[I % 3], Src);
}

} // namespace

//===----------------------------------------------------------------------===//
// The 14 benchmarks
//===----------------------------------------------------------------------===//

namespace {

/// swim: pure unit-stride streaming over huge arrays. The hardware stream
/// buffers already cover it; software prefetching adds little (Fig. 9).
Workload makeSwim() {
  ProgramBuilder B;
  B.loadImm(1, RegionA).loadImm(2, RegionB).loadImm(3, RegionC);
  B.loadImm(27, RegionA + (64ull << 20)); // reset point far away
  B.label("outer");
  B.label("loop");
  B.load(6, 1, 0).load(7, 2, 0);
  B.fadd(8, 6, 7);
  B.store(3, 0, 8);
  B.addi(1, 1, 8).addi(2, 2, 8).addi(3, 3, 8);
  B.blt(1, 27, "loop");
  B.loadImm(1, RegionA).loadImm(2, RegionB).loadImm(3, RegionC);
  B.jump("outer");
  B.halt();
  return {"swim", "unit-stride streaming (HW-prefetch friendly)",
          B.finish(), [](DataMemory &) {}};
}

/// equake: indexed sparse gather — a pointer-array load feeding
/// dereference loads over regularly allocated data (short strides).
Workload makeEquake() {
  constexpr uint64_t Entries = 2'000'000;
  ProgramBuilder B;
  B.loadImm(1, RegionA);
  B.loadImm(27, RegionA + Entries * 8);
  B.label("outer");
  B.label("loop");
  B.load(2, 1, 0);  // pointer load, stride-8 base
  B.load(6, 2, 0);  // gathered data (pointer class; targets stride 64)
  B.load(7, 2, 8);  // second field of the same object
  B.fadd(8, 6, 7);
  B.fadd(9, 9, 8);
  B.addi(1, 1, 8);
  B.blt(1, 27, "loop");
  B.loadImm(1, RegionA);
  B.jump("outer");
  B.halt();
  return {"equake", "indexed gather over regular data", B.finish(),
          [](DataMemory &M) {
            buildPointerArray(M, RegionA, Entries, RegionB, 64);
          }};
}

/// applu: a >1000-instruction unit-stride FP inner loop. Iteration time
/// exceeds the memory latency, so a prefetch distance of 1 is already
/// optimal — self-repairing adds nothing here (Fig. 5 discussion).
Workload makeApplu() {
  constexpr unsigned Unroll = 48;
  ProgramBuilder B;
  B.loadImm(1, RegionA).loadImm(2, RegionB).loadImm(3, RegionC);
  B.loadImm(27, RegionA + (256ull << 20));
  B.label("loop");
  for (unsigned K = 0; K < Unroll; ++K) {
    int64_t Off = int64_t(K) * 8;
    B.load(6, 1, Off).load(7, 2, Off);
    B.fadd(8, 6, 7);
    B.store(3, Off, 8);
    emitFpChain(B, 6, 9, 8); // dependent chain: long iteration
  }
  B.addi(1, 1, Unroll * 8).addi(2, 2, Unroll * 8).addi(3, 3, Unroll * 8);
  B.blt(1, 27, "loop");
  B.loadImm(1, RegionA).loadImm(2, RegionB).loadImm(3, RegionC);
  B.jump("loop");
  B.halt();
  return {"applu", ">1000-instr inner loop; distance 1 optimal", B.finish(),
          [](DataMemory &) {}};
}

/// art: strided scans of large matrices with a little reuse arithmetic.
Workload makeArt() {
  ProgramBuilder B;
  // Ten stride-128 scans (a fresh line per stream per iteration): more
  // streams than the 8 stream buffers can hold, so the baseline misses
  // hard — which is also what makes the basic distance estimate see real
  // miss latencies and land on a sensible distance.
  for (unsigned K = 0; K < 10; ++K)
    B.loadImm(1 + K, RegionA + uint64_t(K) * 0x0400'0000 +
                         uint64_t(K) * 6400); // stagger L1 sets
  B.loadImm(26, 0).loadImm(27, FarLimit);
  B.label("loop");
  for (unsigned K = 0; K < 10; ++K) {
    B.load(11 + K, 1 + K, 0);
    B.aluImm(Opcode::AddI, 1 + K, 1 + K, 128);
  }
  B.fmul(21, 11, 12);
  B.fadd(22, 13, 14);
  B.fadd(22, 22, 15);
  B.fadd(23, 16, 17);
  B.fadd(23, 23, 18);
  B.fadd(24, 19, 20);
  B.fadd(25, 21, 22);
  B.fadd(25, 25, 23);
  B.fadd(25, 25, 24);
  B.addi(26, 26, 1);
  B.blt(26, 27, "loop");
  B.halt();
  return {"art", "ten stride-128 scans (stream-buffer overflow)", B.finish(),
          [](DataMemory &) {}};
}

/// facerec: medium strided loop whose iteration time makes the naive
/// distance estimate land on the right answer.
Workload makeFacerec() {
  ProgramBuilder B;
  // Ten concurrent line streams: more than the 8 stream buffers track, so
  // hardware prefetching leaves latency on the table that the naive
  // software estimate already recovers.
  for (unsigned K = 0; K < 10; ++K)
    B.loadImm(1 + K, RegionA + uint64_t(K) * 0x0200'0000 +
                         uint64_t(K) * 6400); // stagger L1 sets
  B.loadImm(26, 0).loadImm(27, FarLimit);
  B.label("loop");
  for (unsigned K = 0; K < 10; ++K) {
    B.load(11 + K, 1 + K, 0);
    B.aluImm(Opcode::AddI, 1 + K, 1 + K, 64);
  }
  B.fadd(21, 11, 12);
  B.fadd(21, 21, 13);
  B.fadd(22, 14, 15);
  B.fadd(22, 22, 16);
  emitFpChain(B, 4, 23, 21);
  B.addi(26, 26, 1);
  B.blt(26, 27, "loop");
  B.halt();
  return {"facerec", "ten line streams; naive estimate sufficient",
          B.finish(), [](DataMemory &) {}};
}

/// fma3d: array-of-structs walk touching many fields per 128-byte object;
/// same-object grouping covers the whole object with few prefetches.
Workload makeFma3d() {
  ProgramBuilder B;
  B.loadImm(1, RegionA);
  B.loadImm(27, RegionA + (192ull << 20));
  B.label("loop");
  B.load(6, 1, 0).load(7, 1, 8).load(8, 1, 16);
  B.load(9, 1, 72).load(10, 1, 96);
  B.fadd(11, 6, 7);
  B.fadd(11, 11, 8);
  B.fadd(12, 9, 10);
  B.fadd(13, 13, 12);
  emitFpFiller(B, 5, 11);
  B.store(1, 24, 11);
  B.addi(1, 1, 128);
  B.blt(1, 27, "loop");
  B.loadImm(1, RegionA);
  B.jump("loop");
  B.halt();
  return {"fma3d", "array-of-structs, multi-field objects", B.finish(),
          [](DataMemory &) {}};
}

/// galgel: twelve concurrent large-stride (column-major) streams — more
/// streams than the 8 stream buffers can track, but trivial for per-PC
/// software prefetches.
Workload makeGalgel() {
  ProgramBuilder B;
  // Padded rows (4096+64) so columns do not camp on a few L1 sets, and
  // staggered bases so the twelve streams spread over the cache.
  for (unsigned K = 0; K < 12; ++K)
    B.loadImm(1 + K, RegionA + uint64_t(K) * 0x0400'0000 + uint64_t(K) * 320);
  B.loadImm(26, 0);
  B.loadImm(27, FarLimit);
  B.label("loop");
  for (unsigned K = 0; K < 12; ++K) {
    B.load(13 + K, 1 + K, 0);
    B.aluImm(Opcode::AddI, 1 + K, 1 + K, 4160);
  }
  B.fadd(25, 25, 13);
  B.fadd(25, 25, 14);
  B.fadd(25, 25, 15);
  B.fadd(25, 25, 16);
  B.addi(26, 26, 1);
  B.blt(26, 27, "loop");
  B.halt();
  return {"galgel", "12 large-stride column streams (buffer thrash)",
          B.finish(), [](DataMemory &) {}};
}

/// mcf: pointer chasing over sequentially allocated 128-byte nodes with
/// several fields per node — the showcase for DLT stride detection on
/// pointer loads, whole-object prefetching, and adaptive distance.
Workload makeMcf() {
  constexpr uint64_t Nodes = 131072; // 16MB circular list
  ProgramBuilder B;
  B.loadImm(1, RegionA);
  B.loadImm(4, 0).loadImm(5, FarLimit);
  B.label("loop");
  B.load(1, 1, 0); // chase (self-pointer; DLT sees stride 128)
  B.load(6, 1, 8).load(7, 1, 16);
  B.load(8, 1, 72).load(9, 1, 96);
  B.fadd(10, 6, 7);
  B.fadd(10, 10, 8);
  B.fadd(11, 10, 9);
  B.fadd(12, 12, 11);
  B.store(1, 24, 10);
  B.addi(4, 4, 1);
  B.blt(4, 5, "loop");
  B.halt();
  return {"mcf", "pointer chase + wide nodes (adaptive showcase)",
          B.finish(), [](DataMemory &M) {
            // Mostly sequential allocation with churn: runs of 32 nodes.
            buildRunShuffledList(M, RegionA, Nodes, 128, 0, /*RunLength=*/32,
                                 /*Seed=*/3);
          }};
}

/// mgrid: 3D stencil — nine far-apart offsets off one walking base; more
/// concurrent line streams than the hardware buffers track.
Workload makeMgrid() {
  ProgramBuilder B;
  B.loadImm(1, RegionA + (8ull << 20)); // start away from region edge
  B.loadImm(2, RegionB);
  B.loadImm(3, RegionC);
  B.loadImm(27, RegionA + (192ull << 20));
  B.label("loop");
  // Stencil offsets use padded row/plane sizes (not multiples of the L1
  // way size) so the nine streams spread across cache sets.
  B.load(6, 1, 0).load(7, 1, 8).load(8, 1, -8);
  B.load(9, 1, 4160).load(10, 1, -4160);
  B.load(11, 1, 2125760).load(12, 1, -2125760);
  B.load(13, 1, 8320).load(14, 1, -8320);
  B.load(15, 2, 0).load(16, 2, 4160);
  B.fadd(17, 6, 7);
  B.fadd(17, 17, 8);
  B.fadd(18, 9, 10);
  B.fadd(18, 18, 11);
  B.fadd(19, 12, 13);
  B.fadd(19, 19, 14);
  B.fadd(20, 15, 16);
  B.fadd(21, 17, 18);
  B.fadd(21, 21, 19);
  B.fadd(21, 21, 20);
  B.store(3, 0, 21);
  B.addi(1, 1, 8).addi(2, 2, 8320).addi(3, 3, 8); // r2: fast column walk
  B.blt(1, 27, "loop");
  B.loadImm(1, RegionA + (4ull << 20)).loadImm(2, RegionB).loadImm(3, RegionC);
  B.jump("loop");
  B.halt();
  return {"mgrid", "3D stencil, eleven concurrent streams", B.finish(),
          [](DataMemory &) {}};
}

/// dot: pointer-intensive with *randomized* layout plus an unstable-branch
/// probe phase — low hot-trace coverage; jump-pointer (whole-object)
/// prefetching is what helps (Figs. 4, 5).
Workload makeDot() {
  constexpr uint64_t Nodes = 131072; // 16MB shuffled circular list
  ProgramBuilder B;
  B.loadImm(1, 0);           // chase cursor, loaded by Init via r1 seed below
  B.loadImm(26, RegionB);    // probe region
  B.loadImm(11, 88172645463325252ull); // LCG state
  B.loadImm(1, RegionA);     // head (Init links node 0 first in order)
  B.label("outer");
  // Phase 1: stable chase over the shuffled list.
  B.loadImm(4, 0).loadImm(5, 3000);
  B.label("p1");
  B.load(1, 1, 0);
  B.load(6, 1, 8).load(7, 1, 16);
  B.fadd(8, 6, 7); // consume near fields before touching the far line
  B.load(2, 1, 72).load(10, 1, 104); // far fields: second node line
  B.fadd(8, 8, 2);
  B.fadd(8, 8, 10);
  B.fadd(9, 9, 8);
  B.addi(4, 4, 1);
  B.blt(4, 5, "p1");
  // Phase 2: unstable random probes (never forms a stable trace).
  B.loadImm(4, 0).loadImm(18, 2500);
  B.label("p2");
  B.aluImm(Opcode::MulI, 11, 11, 6364136223846793005ll);
  B.addi(11, 11, 1442695040888963407ll);
  B.aluImm(Opcode::ShrI, 12, 11, 33);
  B.aluImm(Opcode::AndI, 12, 12, 0x00FF'FFC0);
  B.alu(Opcode::Add, 13, 26, 12);
  B.aluImm(Opcode::ShrI, 14, 11, 5);
  B.aluImm(Opcode::AndI, 14, 14, 1);
  B.beq(14, 0, "p2skip");
  B.load(15, 13, 0);
  B.fadd(16, 16, 15);
  B.label("p2skip");
  B.load(17, 13, 8);
  B.addi(4, 4, 1);
  B.blt(4, 18, "p2");
  B.jump("outer");
  B.halt();
  return {"dot", "random-layout chase + unstable probes (low coverage)",
          B.finish(), [](DataMemory &M) {
            [[maybe_unused]] Addr Head = buildLinkedList(
                M, RegionA, Nodes, 128, 0, /*Shuffled=*/true, /*Seed=*/7);
            TRIDENT_CHECK(Head == RegionA, "rotated list must lead at Base");
          }};
}

/// parser: 48 small hot loops — 36 doing unclassifiable hash probes (they
/// mature without prefetches and pressure the DLT) and 12 doing short
/// pointer chases that only get prefetched when the DLT is big enough to
/// keep their entries live (the Fig. 8 story).
Workload makeParser() {
  constexpr uint64_t ChaseNodes = 65536; // 4MB shuffled list
  ProgramBuilder B;
  B.loadImm(27, RegionB); // probe region base
  B.loadImm(3, 1);        // global probe counter
  B.loadImm(1, RegionA);  // chase cursor
  B.label("block0");
  for (unsigned Blk = 0; Blk < 48; ++Blk) {
    if (Blk != 0)
      B.label("block" + std::to_string(Blk));
    B.loadImm(4, 0).loadImm(5, 256);
    B.label("loop" + std::to_string(Blk));
    if (Blk % 4 == 3) {
      // Chase block: short pointer-chasing burst.
      B.load(1, 1, 0);
      B.load(6, 1, 8).load(7, 1, 16).load(8, 1, 24);
      B.fadd(9, 6, 7);
      B.fadd(9, 9, 8);
      B.fadd(10, 10, 9);
    } else {
      // Probe block: 12 pseudo-random hash probes, unclassifiable.
      for (unsigned P = 0; P < 12; ++P) {
        int64_t K = 0x9E3779B1 + int64_t(Blk * 131 + P * 2654435761ull);
        B.aluImm(Opcode::MulI, 12, 3, K);
        B.aluImm(Opcode::ShrI, 12, 12, 16);
        B.aluImm(Opcode::AndI, 12, 12, 0x00FF'FFF8);
        B.alu(Opcode::Add, 13, 27, 12);
        B.load(14 + (P % 8), 13, 0);
      }
      B.addi(3, 3, 1);
    }
    B.addi(4, 4, 1);
    B.blt(4, 5, "loop" + std::to_string(Blk));
    if (Blk + 1 < 48)
      B.jump("block" + std::to_string(Blk + 1));
  }
  B.jump("block0");
  B.halt();
  return {"parser", "48 loops: hash probes + short chases (DLT pressure)",
          B.finish(), [](DataMemory &M) {
            [[maybe_unused]] Addr Head = buildLinkedList(
                M, RegionA, ChaseNodes, 64, 0, /*Shuffled=*/true,
                /*Seed=*/13);
            TRIDENT_CHECK(Head == RegionA, "rotated list must lead at Base");
          }};
}

/// gap: one hot chase loop that covers most of its misses, plus a cold
/// loop with 18 data-dependent branches per iteration — uncapturable, so
/// its misses stay outside hot traces (low trace coverage, Fig. 4).
Workload makeGap() {
  constexpr uint64_t Nodes = 131072; // 8MB sequential circular list
  ProgramBuilder B;
  B.loadImm(1, RegionA);
  B.loadImm(2, RegionB);
  B.loadImm(26, RegionB + (128ull << 20));
  B.label("outer");
  B.loadImm(4, 0).loadImm(5, 4096);
  B.label("hot");
  B.load(1, 1, 0);
  B.load(6, 1, 8).load(7, 1, 16);
  B.fadd(8, 6, 7);
  B.fadd(9, 9, 8);
  B.addi(4, 4, 1);
  B.blt(4, 5, "hot");
  B.loadImm(4, 0).loadImm(5, 2800);
  B.label("cold");
  B.load(10, 2, 0);
  B.addi(2, 2, 64);
  for (unsigned K = 0; K < 18; ++K) {
    B.aluImm(Opcode::AndI, 11, 4, int64_t(1) << (K % 10));
    B.beq(11, 0, "skip" + std::to_string(K));
    B.fadd(12, 12, 10);
    B.label("skip" + std::to_string(K));
  }
  B.addi(4, 4, 1);
  B.blt(4, 5, "cold");
  B.blt(2, 26, "outer");
  B.loadImm(2, RegionB);
  B.jump("outer");
  B.halt();
  return {"gap", "hot chase + uncapturable cold loop", B.finish(),
          [](DataMemory &M) {
            buildLinkedList(M, RegionA, Nodes, 64, 0, /*Shuffled=*/false);
          }};
}

/// vis: mixed pointer chase (sequentially allocated 96-byte nodes) and a
/// unit-stride stream in the same loop.
Workload makeVis() {
  constexpr uint64_t Nodes = 87040; // ~8MB circular list
  ProgramBuilder B;
  B.loadImm(1, RegionA);
  B.loadImm(2, RegionB);
  B.loadImm(27, RegionB + (128ull << 20));
  B.loadImm(4, 0).loadImm(5, FarLimit);
  B.label("loop");
  B.load(1, 1, 0); // chase; DLT sees stride 96
  B.load(6, 1, 8).load(7, 1, 40);
  B.load(8, 2, 0);
  B.addi(2, 2, 8);
  B.fadd(9, 6, 7);
  B.fadd(9, 9, 8);
  B.fadd(10, 10, 9);
  B.store(1, 16, 9);
  B.addi(4, 4, 1);
  B.blt(4, 5, "loop");
  B.halt();
  return {"vis", "pointer chase + stream mix", B.finish(),
          [](DataMemory &M) {
            buildLinkedList(M, RegionA, Nodes, 96, 0, /*Shuffled=*/false);
          }};
}

/// wupwise: strided complex arithmetic over two arrays, moderate body.
Workload makeWupwise() {
  ProgramBuilder B;
  B.loadImm(1, RegionA).loadImm(2, RegionB).loadImm(3, RegionC);
  B.loadImm(27, RegionA + (128ull << 20));
  B.label("loop");
  B.load(6, 1, 0).load(7, 1, 8);
  B.load(8, 2, 0).load(9, 2, 8);
  B.fmul(10, 6, 8);
  B.fmul(11, 7, 9);
  B.fmul(12, 6, 9);
  B.fmul(13, 7, 8);
  B.alu(Opcode::FAdd, 14, 10, 11);
  B.alu(Opcode::FAdd, 15, 12, 13);
  emitFpFiller(B, 4, 14);
  B.store(3, 0, 14);
  B.store(3, 8, 15);
  B.addi(1, 1, 16).addi(2, 2, 16).addi(3, 3, 16);
  B.blt(1, 27, "loop");
  B.loadImm(1, RegionA).loadImm(2, RegionB).loadImm(3, RegionC);
  B.jump("loop");
  B.halt();
  return {"wupwise", "strided complex arithmetic", B.finish(),
          [](DataMemory &) {}};
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

namespace {

/// The one registration table: every named workload appears here exactly
/// once, and workloadNames() / makeWorkload() / makeAllWorkloads() are all
/// projections of it — name bookkeeping cannot drift between them.
struct RegisteredWorkload {
  const char *Name;
  Workload (*Make)();
};

constexpr RegisteredWorkload kRegistry[] = {
    {"applu", makeApplu},   {"art", makeArt},         {"dot", makeDot},
    {"equake", makeEquake}, {"facerec", makeFacerec}, {"fma3d", makeFma3d},
    {"galgel", makeGalgel}, {"gap", makeGap},         {"mcf", makeMcf},
    {"mgrid", makeMgrid},   {"parser", makeParser},   {"swim", makeSwim},
    {"vis", makeVis},       {"wupwise", makeWupwise},
};

/// The shared tail of every registration path (named, spec-based, fuzzed):
/// stamps the program-identity hash so any caller of makeWorkload or the
/// make*Workload builders can key goldens and memo entries off it.
Workload finalizeWorkload(Workload W) {
  W.ProgramHash = programHash(W.Prog);
  return W;
}

} // namespace

const std::vector<std::string> &trident::workloadNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const RegisteredWorkload &R : kRegistry)
      N.push_back(R.Name);
    return N;
  }();
  return Names;
}

Workload trident::makeWorkload(const std::string &Name) {
  // Fuzz scenarios resolve through the same entry point as the named 14,
  // so the memo cache, benches, and the mix scheduler need no special
  // casing — a fuzz name is just a workload whose program is derived from
  // its seed (the fuzzer stamps ProgramHash itself).
  if (isFuzzSpec(Name))
    return makeFuzzWorkloadFromSpec(Name);
  for (const RegisteredWorkload &R : kRegistry)
    if (Name == R.Name) {
      Workload W = finalizeWorkload(R.Make());
      TRIDENT_CHECK(W.Name == Name,
                    "registry name '%s' disagrees with workload name '%s'",
                    Name.c_str(), W.Name.c_str());
      return W;
    }
  TRIDENT_UNREACHABLE("unknown workload name");
  return finalizeWorkload(makeSwim());
}

std::vector<Workload> trident::makeAllWorkloads() {
  std::vector<Workload> Out;
  for (const RegisteredWorkload &R : kRegistry)
    Out.push_back(makeWorkload(R.Name));
  return Out;
}

//===----------------------------------------------------------------------===//
// Parameterized generators
//===----------------------------------------------------------------------===//

Workload trident::makeStrideLoopWorkload(const StrideLoopSpec &Spec,
                                         const std::string &Name) {
  TRIDENT_CHECK(Spec.NumStreams >= 1 && Spec.NumStreams <= 12, "1..12 streams supported (register budget)");
  TRIDENT_CHECK(Spec.Stride != 0, "stride must be nonzero");
  ProgramBuilder B;
  for (unsigned K = 0; K < Spec.NumStreams; ++K)
    B.loadImm(1 + K, Spec.Base + uint64_t(K) * 0x0400'0000 +
                         uint64_t(K) * 6400); // stagger cache sets
  if (Spec.StoreStream)
    B.loadImm(25, Spec.Base + 12ull * 0x0400'0000);
  B.loadImm(26, 0).loadImm(27, FarLimit);
  B.label("loop");
  for (unsigned K = 0; K < Spec.NumStreams; ++K) {
    B.load(13 + (K % 12), 1 + K, 0);
    B.aluImm(Opcode::AddI, 1 + K, 1 + K, Spec.Stride);
  }
  for (unsigned I = 0; I < Spec.ComputeChain; ++I)
    B.fadd(24, 24, 13 + (I % Spec.NumStreams % 12));
  if (Spec.StoreStream) {
    B.store(25, 0, 24);
    B.addi(25, 25, 8);
  }
  B.addi(26, 26, 1);
  B.blt(26, 27, "loop");
  B.halt();
  return finalizeWorkload({Name,
                           std::to_string(Spec.NumStreams) +
                               " streams, stride " +
                               std::to_string(Spec.Stride),
                           B.finish(), [](DataMemory &) {}});
}

Workload trident::makePointerChaseWorkload(const PointerChaseSpec &Spec,
                                           const std::string &Name) {
  TRIDENT_CHECK(Spec.FieldOffsets.size() <= 8, "at most 8 field loads");
  TRIDENT_CHECK(Spec.NodeSize >= 8, "node must hold the link pointer");
  ProgramBuilder B;
  B.loadImm(1, Spec.Base);
  B.loadImm(4, 0).loadImm(5, FarLimit);
  B.label("loop");
  B.load(1, 1, 0); // p = p->next
  unsigned Rd = 6;
  for (int64_t Off : Spec.FieldOffsets)
    B.load(Rd++, 1, Off);
  for (unsigned I = 6; I < Rd; ++I)
    B.fadd(20, 20, I);
  B.addi(4, 4, 1);
  B.blt(4, 5, "loop");
  B.halt();

  PointerChaseSpec S = Spec; // captured by the init lambda
  return finalizeWorkload(
      {Name,
       "chase over " + std::to_string(Spec.NumNodes) + " nodes of " +
           std::to_string(Spec.NodeSize) + "B",
       B.finish(), [S](DataMemory &M) {
            switch (S.NodeLayout) {
            case PointerChaseSpec::Layout::Sequential:
              buildLinkedList(M, S.Base, S.NumNodes, S.NodeSize, 0,
                              /*Shuffled=*/false, S.Seed);
              break;
            case PointerChaseSpec::Layout::RunShuffled:
              buildRunShuffledList(M, S.Base, S.NumNodes, S.NodeSize, 0,
                                   S.RunLength, S.Seed);
              break;
            case PointerChaseSpec::Layout::Shuffled:
              buildLinkedList(M, S.Base, S.NumNodes, S.NodeSize, 0,
                              /*Shuffled=*/true, S.Seed);
              break;
            }
       }});
}

Workload trident::makeGatherWorkload(const GatherSpec &Spec,
                                     const std::string &Name) {
  TRIDENT_CHECK(Spec.FieldOffsets.size() >= 1 && Spec.FieldOffsets.size() <= 8, "1..8 dereference loads");
  ProgramBuilder B;
  B.loadImm(1, Spec.ArrayBase);
  B.loadImm(27, Spec.ArrayBase + Spec.Entries * 8);
  B.label("outer");
  B.label("loop");
  B.load(2, 1, 0); // the gathered pointer
  unsigned Rd = 6;
  for (int64_t Off : Spec.FieldOffsets)
    B.load(Rd++, 2, Off);
  for (unsigned I = 6; I < Rd; ++I)
    B.fadd(20, 20, I);
  B.addi(1, 1, 8);
  B.blt(1, 27, "loop");
  B.loadImm(1, Spec.ArrayBase);
  B.jump("outer");
  B.halt();

  GatherSpec S = Spec;
  return finalizeWorkload(
      {Name,
       "indexed gather over " + std::to_string(Spec.Entries) + " pointers",
       B.finish(), [S](DataMemory &M) {
         buildPointerArray(M, S.ArrayBase, S.Entries, S.TargetBase,
                           S.TargetStride);
       }});
}

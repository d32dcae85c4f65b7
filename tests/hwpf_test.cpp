//===- hwpf_test.cpp - Unit tests for src/hwpf -----------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "hwpf/Dcpt.h"
#include "hwpf/EnhancedStream.h"
#include "hwpf/PrefetchBuffer.h"
#include "hwpf/PrefetcherRegistry.h"
#include "hwpf/StreamBuffer.h"
#include "hwpf/StridePredictor.h"
#include "hwpf/Tskid.h"
#include "mem/MemorySystem.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

using namespace trident;

//===----------------------------------------------------------------------===//
// StridePredictor
//===----------------------------------------------------------------------===//

TEST(StridePredictor, LearnsConstantStride) {
  StridePredictor P(64);
  for (int I = 0; I < 5; ++I)
    P.train(0x100, 0x1000 + I * 64);
  ASSERT_TRUE(P.predict(0x100).has_value());
  EXPECT_EQ(*P.predict(0x100), 64);
  EXPECT_EQ(*P.lastAddress(0x100), 0x1000u + 4 * 64);
}

TEST(StridePredictor, NoConfidenceNoPrediction) {
  StridePredictor P(64);
  P.train(0x100, 0x1000);
  P.train(0x100, 0x1040);
  // One observed stride is not confidence.
  EXPECT_FALSE(P.predict(0x100).has_value());
}

TEST(StridePredictor, RandomAddressesNeverPredict) {
  StridePredictor P(64);
  uint64_t A = 0x1000;
  for (int I = 0; I < 50; ++I) {
    A = A * 6364136223846793005ull + 1442695040888963407ull;
    P.train(0x100, A & 0xFFFFF8);
  }
  EXPECT_FALSE(P.predict(0x100).has_value());
}

TEST(StridePredictor, ZeroStrideNeverPredicts) {
  StridePredictor P(64);
  for (int I = 0; I < 10; ++I)
    P.train(0x100, 0x1000);
  EXPECT_FALSE(P.predict(0x100).has_value());
}

TEST(StridePredictor, AliasingStealsEntries) {
  StridePredictor P(16);
  for (int I = 0; I < 5; ++I)
    P.train(0x100, 0x1000 + I * 64);
  EXPECT_TRUE(P.predict(0x100).has_value());
  // PC 0x110 maps to the same index (0x100 & 15 == 0x110 & 15 == 0).
  P.train(0x110, 0x9000);
  EXPECT_FALSE(P.predict(0x100).has_value()); // entry stolen
}

TEST(StridePredictor, NegativeStride) {
  StridePredictor P(64);
  for (int I = 0; I < 5; ++I)
    P.train(0x100, 0x10000 - I * 128);
  ASSERT_TRUE(P.predict(0x100).has_value());
  EXPECT_EQ(*P.predict(0x100), -128);
}

//===----------------------------------------------------------------------===//
// StreamBufferUnit (through a real MemorySystem backend)
//===----------------------------------------------------------------------===//

namespace {
MemSystemConfig sbBackendConfig() {
  MemSystemConfig C;
  C.L1 = {"L1", 1024, 2, 64, 3};
  C.L2 = {"L2", 8192, 4, 64, 11};
  C.L3 = {"L3", 65536, 4, 64, 35};
  C.MemoryLatency = 350;
  C.BusOccupancy = 6;
  return C;
}

/// Trains the unit with a miss sequence at the given stride until the
/// predictor gains confidence and a buffer allocates.
void primeStream(StreamBufferUnit &U, MemorySystem &M, Addr PC, Addr Base,
                 int64_t Stride, unsigned N) {
  for (unsigned I = 0; I < N; ++I)
    U.trainOnMiss(PC, Base + I * Stride, /*Now=*/I * 10, M);
}
} // namespace

TEST(StreamBuffer, AllocatesAfterConfidence) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config4x4());
  EXPECT_EQ(U.numActiveBuffers(), 0u);
  primeStream(U, M, 0x100, 0x10000, 64, 2);
  EXPECT_EQ(U.numActiveBuffers(), 0u); // not confident yet
  primeStream(U, M, 0x100, 0x10080, 64, 3);
  EXPECT_EQ(U.numActiveBuffers(), 1u);
  EXPECT_GE(U.stats().LinesPrefetched, 1u);
}

TEST(StreamBuffer, ProbeHitConsumesAndRunsAhead) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config8x8());
  // Allocation happens at the 4th miss (2-bit confidence); the buffer then
  // holds the next two lines (gradual ramp).
  primeStream(U, M, 0x100, 0x10000, 64, 4);
  uint64_t Before = U.stats().LinesPrefetched;
  std::optional<Cycle> R = U.probe(0x10000 + 4 * 64, 1000, M);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(U.stats().ProbeHits, 1u);
  EXPECT_GT(U.stats().LinesPrefetched, Before); // refilled after consume
  // Successive probes keep hitting as the stream runs ahead.
  EXPECT_TRUE(U.probe(0x10000 + 5 * 64, 1010, M).has_value());
  EXPECT_TRUE(U.probe(0x10000 + 6 * 64, 1020, M).has_value());
}

TEST(StreamBuffer, ProbeMissOnUnrelatedLine) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config8x8());
  primeStream(U, M, 0x100, 0x10000, 64, 6);
  EXPECT_FALSE(U.probe(0x90000, 1000, M).has_value());
  EXPECT_GE(U.stats().ProbeMisses, 1u);
}

TEST(StreamBuffer, LruStealWhenOverSubscribed) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config4x4());
  // Six concurrent streams onto four buffers.
  for (unsigned S = 0; S < 6; ++S)
    primeStream(U, M, 0x100 + S, 0x100000 * (S + 1), 64, 5);
  EXPECT_EQ(U.numActiveBuffers(), 4u);
  EXPECT_GE(U.stats().Allocations, 6u);
}

TEST(StreamBuffer, TrackingPreventsReallocStorm) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config8x8());
  primeStream(U, M, 0x100, 0x10000, 64, 5);
  uint64_t AllocsAfterPrime = U.stats().Allocations;
  // A consuming stream (probe + trailing in-flight misses, as demand
  // produces them) keeps the buffer tracking without reallocation.
  for (unsigned I = 4; I < 12; ++I) {
    U.probe(0x10000 + I * 64, 1000 + I * 10, M);
    U.trainOnMiss(0x100, 0x10000 + I * 64, 1000 + I * 10, M);
  }
  EXPECT_EQ(U.stats().Allocations, AllocsAfterPrime);
}

TEST(StreamBuffer, StreamJumpRePrimes) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config8x8());
  primeStream(U, M, 0x100, 0x10000, 64, 5);
  uint64_t Allocs = U.stats().Allocations;
  // Same PC, same stride, far-away address: the stream jumped.
  U.trainOnMiss(0x100, 0x80000, 500, M);
  U.trainOnMiss(0x100, 0x80040, 510, M);
  EXPECT_GT(U.stats().Allocations, Allocs);
}

TEST(StreamBuffer, LargeStrideFetchesDistinctLines) {
  MemorySystem M(sbBackendConfig());
  StreamBufferUnit U(StreamBufferConfig::config8x8());
  primeStream(U, M, 0x100, 0x100000, 4096, 5);
  // Probe several successive stream lines: all should be present over
  // consecutive probes (refilled as consumed).
  unsigned Hits = 0;
  for (unsigned I = 5; I < 9; ++I)
    Hits += U.probe(0x100000 + I * 4096, 2000 + I, M).has_value();
  EXPECT_GE(Hits, 2u);
}

TEST(StreamBuffer, NamesAndConfigs) {
  StreamBufferUnit U4(StreamBufferConfig::config4x4());
  StreamBufferUnit U8(StreamBufferConfig::config8x8());
  EXPECT_EQ(U4.name(), "stream-buffers-4x4");
  EXPECT_EQ(U8.name(), "stream-buffers-8x8");
  EXPECT_EQ(U8.config().HistoryEntries, 1024u); // Table 1
}

TEST(StreamBuffer, PageBoundaryStopWhenConfigured) {
  MemorySystem M(sbBackendConfig());
  StreamBufferConfig C = StreamBufferConfig::config8x8();
  C.StopAtPageBoundary = true;
  StreamBufferUnit U(C);
  // Prime near the end of a page with a large stride: the stream may not
  // run into the next page.
  Addr Base = 0x10000 + 4096 - 3 * 1024;
  for (unsigned I = 0; I < 4; ++I)
    U.trainOnMiss(0x100, Base + I * 1024, I * 10, M);
  // Entries must all be within the priming page.
  unsigned HitsInPage = 0, HitsBeyond = 0;
  for (unsigned I = 4; I < 12; ++I) {
    Addr A = Base + I * 1024;
    bool Hit = U.probe(A & ~63ull, 1000 + I, M).has_value();
    if ((A >> 12) == ((Base + 3 * 1024) >> 12))
      HitsInPage += Hit;
    else
      HitsBeyond += Hit;
  }
  EXPECT_EQ(HitsBeyond, 0u);
}

//===----------------------------------------------------------------------===//
// PrefetchBuffer
//===----------------------------------------------------------------------===//

namespace {

/// The array-of-structs buffer the packed one replaced, kept as its
/// reference model: a valid bit per slot, a full scan per operation, and
/// fetch spelled out as contains, then fetchBeyondL1, then insert.
class RefPrefetchBuffer {
public:
  explicit RefPrefetchBuffer(unsigned Capacity)
      : Slots(Capacity == 0 ? 1 : Capacity) {}

  bool contains(Addr LineAddr) const {
    for (const Slot &S : Slots)
      if (S.Valid && S.LineAddr == LineAddr)
        return true;
    return false;
  }

  std::optional<Cycle> take(Addr LineAddr) {
    for (Slot &S : Slots)
      if (S.Valid && S.LineAddr == LineAddr) {
        S.Valid = false;
        return S.Ready;
      }
    return std::nullopt;
  }

  void insert(Addr LineAddr, Cycle Ready) {
    for (Slot &S : Slots)
      if (S.Valid && S.LineAddr == LineAddr) {
        S.Ready = Ready;
        return;
      }
    Slots[Hand] = {true, LineAddr, Ready};
    Hand = (Hand + 1) % static_cast<unsigned>(Slots.size());
  }

  bool fetch(Addr LineAddr, Cycle Now, MemoryBackend &BE) {
    if (contains(LineAddr))
      return false;
    insert(LineAddr,
           BE.fetchBeyondL1(LineAddr, Now, AccessKind::HardwarePrefetch));
    return true;
  }

  void clear() {
    for (Slot &S : Slots)
      S.Valid = false;
    Hand = 0;
  }

private:
  struct Slot {
    bool Valid = false;
    Addr LineAddr = 0;
    Cycle Ready = 0;
  };
  std::vector<Slot> Slots;
  unsigned Hand = 0;
};

/// Answers every fill with a ready cycle no earlier call got, and logs the
/// lines and kinds it was asked for.
class LoggingBackend final : public MemoryBackend {
public:
  Cycle fetchBeyondL1(Addr LineAddr, Cycle Now, AccessKind Kind) override {
    Fills.push_back(LineAddr);
    Kinds.push_back(Kind);
    return Now + 1000 + Fills.size();
  }
  unsigned lineSize() const override { return 64; }

  std::vector<Addr> Fills;
  std::vector<AccessKind> Kinds;
};

} // namespace

TEST(PrefetchBuffer, MatchesReferenceModelInLockStep) {
  for (unsigned Capacity : {1u, 3u, 32u}) {
    for (uint64_t Seed : {1ull, 2ull, 3ull}) {
      PrefetchBuffer B(Capacity);
      RefPrefetchBuffer R(Capacity);
      LoggingBackend BB, RB;
      SplitMix64 Rng(Seed);
      // Half again as many lines as slots: lines are evicted, re-fetched,
      // refreshed and hit.
      const uint64_t NumLines = Capacity + Capacity / 2 + 2;
      for (unsigned Step = 0; Step < 4000; ++Step) {
        const Addr Line = Rng.nextBelow(NumLines) * 64;
        const Cycle Now = Step;
        const uint64_t Op = Rng.nextBelow(100);
        if (Op < 25) {
          B.insert(Line, Now * 3 + 1);
          R.insert(Line, Now * 3 + 1);
        } else if (Op < 50) {
          ASSERT_EQ(B.take(Line), R.take(Line)) << "step " << Step;
        } else if (Op < 65) {
          ASSERT_EQ(B.contains(Line), R.contains(Line)) << "step " << Step;
        } else if (Op < 99) {
          ASSERT_EQ(B.fetch(Line, Now, BB), R.fetch(Line, Now, RB))
              << "step " << Step;
        } else {
          B.clear();
          R.clear();
        }
        ASSERT_EQ(BB.Fills, RB.Fills) << "step " << Step;
        // Same residency after every step, so the two evict the same line
        // in the same order.
        for (uint64_t L = 0; L < NumLines; ++L)
          ASSERT_EQ(B.contains(L * 64), R.contains(L * 64))
              << "capacity " << Capacity << " seed " << Seed << " step "
              << Step << " line " << L;
      }
      EXPECT_GT(BB.Fills.size(), 100u) << "the stream barely fetched";
      for (AccessKind K : BB.Kinds)
        EXPECT_EQ(K, AccessKind::HardwarePrefetch);
    }
  }
}

//===----------------------------------------------------------------------===//
// EnhancedStreamPrefetcher
//===----------------------------------------------------------------------===//

namespace {
/// Block-granularity training helper (line size is 64 in the backend).
void missAtBlock(HwPrefetcher &U, MemorySystem &M, uint64_t Block, Cycle Now,
                 Addr PC = 0x100) {
  U.trainOnMiss(PC, Block * 64, Now, M);
}
} // namespace

TEST(EnhancedStream, ConfirmsAfterThreeConsistentMisses) {
  MemorySystem M(sbBackendConfig());
  EnhancedStreamPrefetcher U(EnhancedStreamConfig::baseline());
  missAtBlock(U, M, 1000, 10);
  missAtBlock(U, M, 1001, 20);
  EXPECT_EQ(U.numActiveStreams(), 0u); // two misses: not confirmed yet
  missAtBlock(U, M, 1002, 30);
  EXPECT_EQ(U.numActiveStreams(), 1u);
  EXPECT_GE(U.snapshotStats().get("lines_prefetched"), 2u); // degree-2 ramp
  // The stream runs upward from the confirmation point.
  EXPECT_TRUE(U.probe(1003 * 64, 100, M).has_value());
}

TEST(EnhancedStream, NoiseTolerantTraining) {
  MemorySystem M(sbBackendConfig());
  EnhancedStreamPrefetcher U(EnhancedStreamConfig::baseline());
  missAtBlock(U, M, 1000, 10);
  missAtBlock(U, M, 1001, 20);
  // A stray miss inside the region that breaks the stride: ignored, the
  // trainer keeps its state instead of resetting.
  missAtBlock(U, M, 1010, 30);
  EXPECT_EQ(U.snapshotStats().get("noise_rejected"), 1u);
  EXPECT_EQ(U.numActiveStreams(), 0u);
  // The real stream continues and still confirms.
  missAtBlock(U, M, 1002, 40);
  EXPECT_EQ(U.numActiveStreams(), 1u);
}

TEST(EnhancedStream, TrainsOnRegionsNotPCs) {
  MemorySystem M(sbBackendConfig());
  EnhancedStreamPrefetcher U(EnhancedStreamConfig::baseline());
  // Three different PCs walking one region still confirm one stream:
  // identification is by region, not by instruction.
  missAtBlock(U, M, 2000, 10, /*PC=*/0x100);
  missAtBlock(U, M, 2001, 20, /*PC=*/0x200);
  missAtBlock(U, M, 2002, 30, /*PC=*/0x300);
  EXPECT_EQ(U.numActiveStreams(), 1u);
}

TEST(EnhancedStream, DeadStreamRemoval) {
  MemorySystem M(sbBackendConfig());
  EnhancedStreamConfig Cfg = EnhancedStreamConfig::baseline();
  Cfg.NumStreams = 2;
  EnhancedStreamPrefetcher U(Cfg);
  // Fill both stream slots (each confirmed stream has ramped only
  // Degree=2 lines — below DeadMinLength=4).
  for (uint64_t B : {1000ull, 5000ull})
    for (unsigned I = 0; I < 3; ++I)
      missAtBlock(U, M, B + I, 10 * I);
  EXPECT_EQ(U.numActiveStreams(), 2u);
  // Idle both streams past DeadIdleEvents with unrelated one-shot misses
  // (distinct regions, so nothing confirms or touches the streams).
  for (unsigned I = 0; I < 70; ++I)
    missAtBlock(U, M, 100000 + uint64_t(I) * 200, 1000 + I);
  // A third stream confirms: the victim is a dead stream, not plain LRU.
  for (unsigned I = 0; I < 3; ++I)
    missAtBlock(U, M, 9000 + I, 2000 + 10 * I);
  EXPECT_EQ(U.numActiveStreams(), 2u);
  EXPECT_GE(U.snapshotStats().get("dead_streams_removed"), 1u);
}

TEST(EnhancedStream, TrainerReplacementFollowsRecencyAndFreesConfirmed) {
  // Two trainers, three regions: A, B and C lie in different 64-line
  // regions, so the third region to miss must evict a trainer.
  MemorySystem M(sbBackendConfig());
  EnhancedStreamConfig Cfg = EnhancedStreamConfig::baseline();
  Cfg.NumTrainingEntries = 2;
  EnhancedStreamPrefetcher U(Cfg);
  const uint64_t A = 1000, B = 5000, C = 9000;
  Cycle Now = 0;
  auto miss = [&](uint64_t Block) { missAtBlock(U, M, Block, Now += 10); };
  // A and B each see two consistent misses; A's second comes last, so
  // its recency touch leaves B least recently used.
  miss(A);
  miss(B);
  miss(B + 1);
  miss(A + 1);
  // C takes B's trainer, not A's.
  miss(C);
  EXPECT_EQ(U.numActiveStreams(), 0u);
  // A kept its two misses: its third confirms a stream and frees its
  // trainer.
  miss(A + 2);
  EXPECT_EQ(U.numActiveStreams(), 1u) << "A lost its trainer to C";
  // B was evicted, so its third miss only starts training again; it
  // takes A's freed trainer instead of evicting C.
  miss(B + 2);
  EXPECT_EQ(U.numActiveStreams(), 1u) << "B kept its trainer";
  // C kept its trainer and confirms on its next two misses.
  miss(C + 1);
  miss(C + 2);
  EXPECT_EQ(U.numActiveStreams(), 2u)
      << "C lost its trainer: A's confirmed trainer was never freed";
}

//===----------------------------------------------------------------------===//
// DcptPrefetcher
//===----------------------------------------------------------------------===//

TEST(Dcpt, ReplaysCompositeDeltaPattern) {
  MemorySystem M(sbBackendConfig());
  DcptPrefetcher U(DcptConfig::baseline());
  // Row-walk pattern +1,+1,+62 — the composite stride a single-stride
  // predictor cannot learn.
  const uint64_t Blocks[] = {10, 11, 12, 74, 75, 76};
  Cycle Now = 0;
  for (uint64_t B : Blocks)
    U.trainOnMiss(0x100, B * 64, Now += 10, M);
  // The newest pair (+1,+1) recurs in history; the replay predicts
  // +62,+1,+1 from block 76: blocks 138, 139, 140.
  EXPECT_GE(U.snapshotStats().get("pattern_matches"), 1u);
  EXPECT_GE(U.snapshotStats().get("lines_prefetched"), 3u);
  EXPECT_TRUE(U.probe(138 * 64, 1000, M).has_value());
  EXPECT_TRUE(U.probe(139 * 64, 1010, M).has_value());
  EXPECT_FALSE(U.probe(137 * 64, 1020, M).has_value()); // not predicted
}

TEST(Dcpt, NoMatchNoPrefetch) {
  MemorySystem M(sbBackendConfig());
  DcptPrefetcher U(DcptConfig::baseline());
  // Strictly novel deltas: no pair ever recurs.
  const uint64_t Blocks[] = {10, 11, 13, 17, 25, 41};
  Cycle Now = 0;
  for (uint64_t B : Blocks)
    U.trainOnMiss(0x100, B * 64, Now += 10, M);
  EXPECT_EQ(U.snapshotStats().get("pattern_matches"), 0u);
  EXPECT_EQ(U.snapshotStats().get("lines_prefetched"), 0u);
}

TEST(Dcpt, PcAliasingResetsEntry) {
  MemorySystem M(sbBackendConfig());
  DcptConfig Cfg = DcptConfig::baseline();
  Cfg.NumEntries = 16;
  DcptPrefetcher U(Cfg);
  const uint64_t Blocks[] = {10, 11, 12, 74, 75};
  Cycle Now = 0;
  for (uint64_t B : Blocks)
    U.trainOnMiss(0x100, B * 64, Now += 10, M);
  // PC 0x110 maps to the same direct-mapped slot: the entry retags and
  // the earlier history is gone, so the pattern never completes.
  U.trainOnMiss(0x110, 5000 * 64, Now += 10, M);
  U.trainOnMiss(0x100, 76 * 64, Now += 10, M);
  EXPECT_EQ(U.snapshotStats().get("pattern_matches"), 0u);
}

TEST(Dcpt, RingSlotMatchesModuloFormula) {
  for (unsigned N : {2u, 3u, 8u})
    for (unsigned Head = 0; Head < N; ++Head)
      for (unsigned Count = 0; Count <= N; ++Count)
        for (unsigned Age = 0; Age < Count; ++Age)
          EXPECT_EQ(DcptPrefetcher::ringSlot(Head, Count, Age, N),
                    (Head + N - Count + Age) % N)
              << "N " << N << " head " << Head << " count " << Count
              << " age " << Age;
}

//===----------------------------------------------------------------------===//
// TskidPrefetcher
//===----------------------------------------------------------------------===//

TEST(Tskid, DelaysPrefetchUntilLearnedSkid) {
  MemorySystem M(sbBackendConfig());
  TskidPrefetcher U(TskidConfig::baseline()); // lead 400, minskid 64
  // Learn: trigger PC 0xA's miss precedes target PC 0xB's by 500 cycles
  // at a +100-block delta.
  U.trainOnMiss(0xA, 100 * 64, 1000, M);
  U.trainOnMiss(0xB, 200 * 64, 1500, M);
  // The trigger fires again: the target's line is predicted but NOT
  // issued — it waits for (skid - lead) = 100 cycles.
  U.trainOnMiss(0xA, 300 * 64, 3000, M);
  EXPECT_EQ(U.numPending(), 1u);
  EXPECT_EQ(U.snapshotStats().get("delayed_issues"), 1u);
  EXPECT_EQ(U.snapshotStats().get("lines_prefetched"), 0u);
  // Probing before the issue time finds nothing...
  EXPECT_FALSE(U.probe(400 * 64, 3050, M).has_value());
  // ...and after it (3000 + 500 - 400 = 3100) the line is in flight.
  EXPECT_TRUE(U.probe(400 * 64, 3200, M).has_value());
  EXPECT_EQ(U.numPending(), 0u);
  EXPECT_EQ(U.snapshotStats().get("lines_prefetched"), 1u);
}

TEST(Tskid, ShortSkidIssuesImmediately) {
  MemorySystem M(sbBackendConfig());
  TskidPrefetcher U(TskidConfig::baseline());
  // Skid 20 < minskid 64: timing is noise, issue right away.
  U.trainOnMiss(0xA, 100 * 64, 1000, M);
  U.trainOnMiss(0xB, 200 * 64, 1020, M);
  U.trainOnMiss(0xA, 300 * 64, 2000, M);
  EXPECT_EQ(U.numPending(), 0u);
  EXPECT_EQ(U.snapshotStats().get("lines_prefetched"), 1u);
  EXPECT_TRUE(U.probe(400 * 64, 2001, M).has_value());
}

TEST(Tskid, LearnsTriggerAssociations) {
  MemorySystem M(sbBackendConfig());
  TskidPrefetcher U(TskidConfig::baseline());
  U.trainOnMiss(0xA, 100 * 64, 1000, M);
  U.trainOnMiss(0xB, 200 * 64, 1500, M);
  EXPECT_GE(U.snapshotStats().get("triggers_learned"), 1u);
}

//===----------------------------------------------------------------------===//
// PrefetcherRegistry
//===----------------------------------------------------------------------===//

TEST(PrefetcherRegistry, ArsenalIsRegistered) {
  std::vector<std::string> Names = PrefetcherRegistry::instance().names();
  for (const char *N :
       {"sb4x4", "sb8x8", "stream", "enhanced-stream", "dcpt", "tskid"})
    EXPECT_NE(std::find(Names.begin(), Names.end(), N), Names.end())
        << "missing registry entry: " << N;
  // The fig9 sweep set excludes the parameterized "stream" alias (it
  // would duplicate sb8x8's row) and includes the four real units.
  std::vector<std::string> Arsenal =
      PrefetcherRegistry::instance().arsenalNames();
  EXPECT_EQ(std::find(Arsenal.begin(), Arsenal.end(), "stream"),
            Arsenal.end());
  EXPECT_GE(Arsenal.size(), 5u); // sb4x4, sb8x8, enhanced-stream, dcpt, tskid
}

TEST(PrefetcherRegistry, CreateRoundTripsEveryArsenalName) {
  for (const std::string &N :
       PrefetcherRegistry::instance().arsenalNames()) {
    std::string Error;
    auto U = PrefetcherRegistry::instance().create(N, PrefetcherEnv{}, &Error);
    ASSERT_TRUE(U) << N << ": " << Error;
    EXPECT_FALSE(U->name().empty());
    EXPECT_EQ(U->snapshotStats().Prefetcher, U->name());
  }
}

TEST(PrefetcherRegistry, NoneIsNotAnError) {
  for (const char *Spec : {"none", ""}) {
    std::string Error = "untouched";
    auto U =
        PrefetcherRegistry::instance().create(Spec, PrefetcherEnv{}, &Error);
    EXPECT_EQ(U, nullptr);
    EXPECT_EQ(Error, "untouched");
    EXPECT_TRUE(PrefetcherRegistry::isNone(Spec));
  }
  EXPECT_FALSE(PrefetcherRegistry::isNone("sb8x8"));
}

TEST(PrefetcherRegistry, UnknownNameSetsError) {
  std::string Error;
  auto U = PrefetcherRegistry::instance().create("bogus", PrefetcherEnv{},
                                                 &Error);
  EXPECT_EQ(U, nullptr);
  EXPECT_NE(Error.find("unknown prefetcher 'bogus'"), std::string::npos);
  EXPECT_NE(Error.find("sb8x8"), std::string::npos); // lists what exists
}

TEST(PrefetcherRegistry, KnobsReachTheUnit) {
  // Every knob of every unit, each at a different value, so a knob row
  // pointing at the wrong member shows as two fields that are off.
  const PrefetcherRegistry &Reg = PrefetcherRegistry::instance();
  std::string Error;
  auto U = Reg.create("dcpt:entries=64,degree=2", PrefetcherEnv{}, &Error);
  ASSERT_TRUE(U) << Error;
  EXPECT_EQ(dynamic_cast<DcptPrefetcher &>(*U).config().NumDeltas, 8u)
      << "an untouched knob keeps its default";
  auto S = Reg.create("sb4x4:buffers=3,depth=5,history=64", {}, &Error);
  ASSERT_TRUE(S) << Error;
  const StreamBufferConfig &SC =
      dynamic_cast<StreamBufferUnit &>(*S).config();
  EXPECT_EQ(std::tuple(SC.NumBuffers, SC.Depth, SC.HistoryEntries),
            std::tuple(3u, 5u, 64u));
  auto E = Reg.create(
      "enhanced-stream:trainers=3,streams=5,degree=6,depth=7,region=32,"
      "confirm=9",
      {}, &Error);
  ASSERT_TRUE(E) << Error;
  const EnhancedStreamConfig &EC =
      dynamic_cast<EnhancedStreamPrefetcher &>(*E).config();
  EXPECT_EQ(std::tuple(EC.NumTrainingEntries, EC.NumStreams, EC.Degree,
                       EC.Depth, EC.RegionLines, EC.ConfirmMisses),
            std::tuple(3u, 5u, 6u, 7u, 32u, 9u));
  auto D = Reg.create("dcpt:entries=3,deltas=5,degree=6,buffer=7", {}, &Error);
  ASSERT_TRUE(D) << Error;
  const DcptConfig &DC = dynamic_cast<DcptPrefetcher &>(*D).config();
  EXPECT_EQ(std::tuple(DC.NumEntries, DC.NumDeltas, DC.Degree,
                       DC.BufferCapacity),
            std::tuple(3u, 5u, 6u, 7u));
  auto T = Reg.create("tskid:entries=3,recent=5,pending=6,buffer=7,lead=8,"
                      "minskid=9",
                      {}, &Error);
  ASSERT_TRUE(T) << Error;
  const TskidConfig &TC = dynamic_cast<TskidPrefetcher &>(*T).config();
  EXPECT_EQ(std::tuple(TC.NumEntries, TC.RecentMissDepth, TC.PendingDepth,
                       TC.BufferCapacity, TC.LeadCycles, TC.MinSkidCycles),
            std::tuple(3u, 5u, 6u, 7u, 8u, 9u));
}

TEST(PrefetcherRegistry, KnobValuesAreDecimal) {
  // A leading zero does not switch to octal, and a base prefix is as much
  // an error as any other non-digit.
  const PrefetcherRegistry &Reg = PrefetcherRegistry::instance();
  std::string Error;
  for (const auto &[Spec, Depth] :
       {std::pair{"sb8x8:depth=010", 10u}, std::pair{"sb8x8:depth=08", 8u}}) {
    auto U = Reg.create(Spec, PrefetcherEnv{}, &Error);
    ASSERT_TRUE(U) << Spec << ": " << Error;
    EXPECT_EQ(dynamic_cast<StreamBufferUnit &>(*U).config().Depth, Depth)
        << Spec;
  }
  EXPECT_EQ(Reg.create("sb8x8:depth=0x10", PrefetcherEnv{}, &Error), nullptr);
  EXPECT_NE(Error.find("non-integer"), std::string::npos) << Error;
}

TEST(PrefetcherRegistry, BadKnobsAreRejected) {
  std::string Error;
  EXPECT_EQ(PrefetcherRegistry::instance().create("dcpt:bogus=3",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("unknown knob 'bogus'"), std::string::npos);
  EXPECT_EQ(PrefetcherRegistry::instance().create("dcpt:entries=abc",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("non-integer"), std::string::npos);
  EXPECT_EQ(PrefetcherRegistry::instance().create("dcpt:entries",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("malformed knob"), std::string::npos);
  // Values a unit cannot be built with are spec errors naming the knob,
  // not aborts (or faults) in its constructor.
  const std::pair<const char *, const char *> OutOfRange[] = {
      {"dcpt:deltas=1", "'deltas'"},
      {"dcpt:entries=0", "'entries'"},
      {"dcpt:degree=0", "'degree'"},
      {"dcpt:deltas=4000000000", "'deltas'"},
      {"dcpt:buffer=1025", "'buffer'"},
      {"tskid:entries=0", "'entries'"},
      {"tskid:recent=0", "'recent'"},
      {"tskid:pending=0", "'pending'"},
      {"tskid:pending=1025", "'pending'"},
      {"enhanced-stream:trainers=0", "'trainers'"},
      {"enhanced-stream:streams=0", "'streams'"},
      {"enhanced-stream:degree=0", "'degree'"},
      {"enhanced-stream:region=0", "'region'"},
      {"enhanced-stream:depth=1025", "'depth'"},
      {"sb8x8:history=0", "'history'"},
      {"sb8x8:history=1000", "'history'"},
      {"sb8x8:history=2048", "'history'"},
      {"sb8x8:buffers=0", "'buffers'"},
      {"sb4x4:buffers=0", "'buffers'"},
      {"stream:buffers=0", "'buffers'"},
  };
  const PrefetcherRegistry &Reg = PrefetcherRegistry::instance();
  for (const auto &[Spec, Knob] : OutOfRange) {
    Error.clear();
    EXPECT_EQ(Reg.create(Spec, PrefetcherEnv{}, &Error), nullptr) << Spec;
    EXPECT_NE(Error.find(Knob), std::string::npos) << Spec << ": " << Error;
  }
}

TEST(PrefetcherRegistry, KnobsAtTheirBoundsBuild) {
  // The specs benches, tests and docs use, and each knob at the edges of
  // its range.
  const char *const InRange[] = {
      "dcpt:entries=64,degree=2",
      "enhanced-stream:streams=16",
      "sb8x8:depth=8",
      "stream:buffers=8,depth=8",
      "dcpt:deltas=2,buffer=0",
      "dcpt:entries=1024,deltas=1024,degree=1024,buffer=1024",
      "tskid:entries=1,recent=1,pending=1,buffer=0",
      "tskid:entries=1024,recent=1024,pending=1024,buffer=1024",
      "enhanced-stream:trainers=1024,streams=1,degree=1024,depth=1024",
      "enhanced-stream:depth=0,region=1",
      "sb8x8:depth=0,history=1",
      "sb4x4:buffers=1024,history=1024",
  };
  const PrefetcherRegistry &Reg = PrefetcherRegistry::instance();
  for (const char *Spec : InRange) {
    std::string Error;
    EXPECT_NE(Reg.create(Spec, PrefetcherEnv{}, &Error), nullptr)
        << Spec << ": " << Error;
  }
}

TEST(PrefetcherRegistryDeathTest, ConstructorsCheckTheirConfig) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DcptConfig D;
  D.NumDeltas = 1;
  EXPECT_DEATH(DcptPrefetcher{D}, "dcpt knob 'deltas'");
  TskidConfig T;
  T.PendingDepth = 0;
  EXPECT_DEATH(TskidPrefetcher{T}, "tskid knob 'pending'");
  EnhancedStreamConfig E;
  E.RegionLines = 0;
  EXPECT_DEATH(EnhancedStreamPrefetcher{E}, "knob 'region'");
  StreamBufferConfig S;
  S.NumBuffers = 0;
  EXPECT_DEATH(StreamBufferUnit{S}, "knob 'buffers'");
}

TEST(PrefetcherRegistry, SignedKnobValuesAreRejected) {
  // strtoull would happily wrap "-1" to 2^64-1 and the factory would then
  // truncate it to a huge unsigned depth; the parser owns this rejection.
  std::string Error;
  EXPECT_EQ(PrefetcherRegistry::instance().create("sb8x8:depth=-1",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("knobs are unsigned"), std::string::npos) << Error;
  EXPECT_EQ(PrefetcherRegistry::instance().create("dcpt:entries=+4",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("knobs are unsigned"), std::string::npos) << Error;
}

TEST(PrefetcherRegistry, OutOfRangeKnobValuesAreRejected) {
  std::string Error;
  // 2^33: fits in uint64 but would truncate when narrowed to unsigned.
  EXPECT_EQ(PrefetcherRegistry::instance().create("sb8x8:depth=8589934592",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("out of range"), std::string::npos) << Error;
  // Past 2^64: strtoull saturates and sets ERANGE.
  EXPECT_EQ(PrefetcherRegistry::instance().create(
                "sb8x8:depth=99999999999999999999999", PrefetcherEnv{},
                &Error),
            nullptr);
  EXPECT_NE(Error.find("out of range"), std::string::npos) << Error;
  // The boundary itself is fine.
  PrefetcherSpec S;
  EXPECT_TRUE(PrefetcherSpec::parse("sb8x8:depth=4294967295", S, &Error));
  EXPECT_EQ(S.knobOr("depth", 0), 4294967295ull);
}

TEST(PrefetcherRegistry, DuplicateKnobsAreRejected) {
  // knobOr is first-wins, so "depth=4,depth=16" used to silently mean
  // depth=4 while fingerprinting as a distinct config.
  std::string Error;
  EXPECT_EQ(PrefetcherRegistry::instance().create("sb8x8:depth=4,depth=16",
                                                  PrefetcherEnv{}, &Error),
            nullptr);
  EXPECT_NE(Error.find("duplicate knob 'depth'"), std::string::npos) << Error;
  // Distinct knobs still parse.
  PrefetcherSpec S;
  EXPECT_TRUE(
      PrefetcherSpec::parse("stream:buffers=4,depth=4", S, &Error));
}

TEST(PrefetcherRegistryDeathTest, ReRegisteringANameAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PrefetcherRegistry::Info I;
  I.Name = "sb8x8"; // collides with the built-in arsenal
  I.Make = [](const PrefetcherSpec &, const PrefetcherEnv &,
              std::string *) -> std::unique_ptr<HwPrefetcher> {
    return nullptr;
  };
  EXPECT_DEATH(PrefetcherRegistry::instance().add(std::move(I)),
               "duplicate prefetcher registration 'sb8x8'");
}

TEST(PrefetcherRegistry, PageBoundedEnvConfiguresStreamBuffers) {
  PrefetcherEnv Env;
  Env.PageBounded = true;
  Env.PageBits = 13;
  std::string Error;
  auto U = PrefetcherRegistry::instance().create("sb8x8", Env, &Error);
  ASSERT_TRUE(U) << Error;
  auto *SB = dynamic_cast<StreamBufferUnit *>(U.get());
  ASSERT_NE(SB, nullptr);
  EXPECT_TRUE(SB->config().StopAtPageBoundary);
  EXPECT_EQ(SB->config().PageBits, 13u);
}

//===----------------------------------------------------------------------===//
// Train/issue/feedback contract through a real MemorySystem
//===----------------------------------------------------------------------===//

namespace {

/// Counting stub exercising every optional hook of the contract.
class HookCountingPrefetcher final : public HwPrefetcher {
public:
  uint64_t Misses = 0, Accesses = 0, Fills = 0, Probes = 0;

  void trainOnMiss(Addr, Addr, Cycle, MemoryBackend &) override { ++Misses; }
  std::optional<Cycle> probe(Addr, Cycle, MemoryBackend &) override {
    ++Probes;
    return std::nullopt;
  }
  bool wantsAccessTraining() const override { return true; }
  void trainOnAccess(Addr, Addr, Cycle) override { ++Accesses; }
  bool wantsFillTraining() const override { return true; }
  void trainOnFill(Addr, Cycle, AccessKind) override { ++Fills; }
  std::string name() const override { return "hook-counter"; }
};

} // namespace

TEST(HwPfContract, HooksFireFromMemorySystemAccess) {
  MemorySystem M(sbBackendConfig());
  auto Owned = std::make_unique<HookCountingPrefetcher>();
  HookCountingPrefetcher *Pf = Owned.get();
  M.attachPrefetcher(std::move(Owned));

  // Cold demand load: probe + miss training + a fill.
  M.access(0x100, 0x10000, AccessKind::DemandLoad, 0);
  EXPECT_EQ(Pf->Probes, 1u);
  EXPECT_EQ(Pf->Misses, 1u);
  EXPECT_EQ(Pf->Fills, 1u);
  EXPECT_EQ(Pf->Accesses, 0u);

  // Same line once the fill has landed: a data-present L1 hit trains the
  // access hook and nothing else.
  M.access(0x100, 0x10000, AccessKind::DemandLoad, 10'000);
  EXPECT_EQ(Pf->Accesses, 1u);
  EXPECT_EQ(Pf->Misses, 1u);
  EXPECT_EQ(Pf->Fills, 1u);

  // Hardware-prefetch traffic never trains the access hook.
  M.access(0x100, 0x20000, AccessKind::DemandLoad, 20'000);
  uint64_t AccessesBefore = Pf->Accesses;
  M.access(0x100, 0x20000, AccessKind::HardwarePrefetch, 30'000);
  EXPECT_EQ(Pf->Accesses, AccessesBefore);
}

TEST(HwPfContract, TskidFillHookFiresEndToEnd) {
  MemorySystem M(sbBackendConfig());
  std::string Error;
  auto U = PrefetcherRegistry::instance().create("tskid", PrefetcherEnv{},
                                                 &Error);
  ASSERT_TRUE(U) << Error;
  M.attachPrefetcher(std::move(U));
  for (unsigned I = 0; I < 8; ++I)
    M.access(0x100, 0x10000 + I * 0x1000, AccessKind::DemandLoad,
             Cycle(I) * 1000);
  const HwPrefetcher *Pf = M.prefetcher();
  ASSERT_NE(Pf, nullptr);
  EXPECT_GT(Pf->snapshotStats().get("fills_observed"), 0u);
}

TEST(HwPfContract, FeedbackCountersTrackStreamBufferActivity) {
  MemorySystem M(sbBackendConfig());
  std::string Error;
  auto U =
      PrefetcherRegistry::instance().create("sb8x8", PrefetcherEnv{}, &Error);
  ASSERT_TRUE(U) << Error;
  M.attachPrefetcher(std::move(U));

  // A long stride-64 demand stream: buffers allocate, run ahead, and the
  // demand consumes their lines.
  Cycle Now = 0;
  for (unsigned I = 0; I < 200; ++I) {
    AccessResult R =
        M.access(0x100, 0x100000 + uint64_t(I) * 64, AccessKind::DemandLoad,
                 Now);
    Now = R.ReadyCycle + 1;
  }
  const HwPfFeedback &Fb = M.feedback();
  EXPECT_GT(Fb.Issued, 0u);
  EXPECT_GT(Fb.Useful + Fb.Late, 0u);
  EXPECT_GT(Fb.DemandMisses, 0u); // the cold misses before confidence
  EXPECT_GE(Fb.accuracy(), 0.0);
  EXPECT_LE(Fb.coverage(), 1.0);
  EXPECT_GT(Fb.coverage(), 0.0);

  // clearStats resets the feedback channel with the rest.
  M.clearStats();
  EXPECT_EQ(M.feedback().Issued, 0u);
  EXPECT_EQ(M.feedback().Useful + M.feedback().Late, 0u);
}

TEST(HwPfContract, MidRunSwapKeepsMemorySystemConsistent) {
  // The control plane swaps units at epoch boundaries mid-run; the
  // referee counters (feedback channel), the MSHR fill heap, and the bus
  // schedule all live in MemorySystem, so they must survive the swap.
  MemorySystem M(sbBackendConfig());
  std::string Error;
  auto U =
      PrefetcherRegistry::instance().create("sb8x8", PrefetcherEnv{}, &Error);
  ASSERT_TRUE(U) << Error;
  M.attachPrefetcher(std::move(U));

  Cycle Now = 0;
  for (unsigned I = 0; I < 120; ++I) {
    AccessResult R = M.access(0x100, 0x100000 + uint64_t(I) * 64,
                              AccessKind::DemandLoad, Now);
    EXPECT_GE(R.ReadyCycle, Now);
    Now = R.ReadyCycle + 1;
  }
  const HwPfFeedback FbBefore = M.feedback();
  EXPECT_GT(FbBefore.Issued, 0u);
  const uint64_t LoadsBefore = M.stats().DemandLoads;

  // Swap to a different unit with fills still conceptually in flight
  // (the access above just scheduled one).
  auto Next =
      PrefetcherRegistry::instance().create("dcpt", PrefetcherEnv{}, &Error);
  ASSERT_TRUE(Next) << Error;
  M.attachPrefetcher(std::move(Next));
  ASSERT_NE(M.prefetcher(), nullptr);
  EXPECT_EQ(M.prefetcher()->name(), "dcpt");

  // Referee counters are monotone across the swap, not reset.
  const HwPfFeedback &FbAfter = M.feedback();
  EXPECT_GE(FbAfter.Issued, FbBefore.Issued);
  EXPECT_GE(FbAfter.Useful + FbAfter.Late, FbBefore.Useful + FbBefore.Late);

  // The memory system keeps serving demand with sane timing, and demand
  // accounting continues from where it was.
  for (unsigned I = 0; I < 60; ++I) {
    AccessResult R = M.access(0x200, 0x400000 + uint64_t(I) * 64,
                              AccessKind::DemandLoad, Now);
    EXPECT_GE(R.ReadyCycle, Now);
    Now = R.ReadyCycle + 1;
  }
  EXPECT_EQ(M.stats().DemandLoads, LoadsBefore + 60);
  // The new unit trains on the post-swap miss stream.
  EXPECT_GT(M.prefetcher()->snapshotStats().get("misses_observed") +
                M.prefetcher()->snapshotStats().get("pattern_matches") +
                M.feedback().DemandMisses,
            FbBefore.DemandMisses);

  // Detaching entirely is also a legal mid-run transition.
  M.attachPrefetcher(nullptr);
  EXPECT_EQ(M.prefetcher(), nullptr);
  AccessResult R = M.access(0x300, 0x800000, AccessKind::DemandLoad, Now);
  EXPECT_GE(R.ReadyCycle, Now);
}

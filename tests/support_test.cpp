//===- support_test.cpp - Unit tests for src/support ----------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "support/LruTable.h"
#include "support/Random.h"
#include "support/SaturatingCounter.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

using namespace trident;

TEST(SaturatingCounter, ClampsAtBounds) {
  FourBitCounter C;
  EXPECT_EQ(C.value(), 0);
  C.add(-5);
  EXPECT_EQ(C.value(), 0);
  C.add(100);
  EXPECT_EQ(C.value(), 15);
  EXPECT_TRUE(C.isSaturated());
  C.add(-7);
  EXPECT_EQ(C.value(), 8);
}

TEST(SaturatingCounter, DltConfidenceDiscipline) {
  // The DLT confidence counter: +1 on match, -7 on mismatch; predictable
  // at 15 (Section 3.3). One mismatch drops it far below predictable.
  FourBitCounter C;
  for (int I = 0; I < 15; ++I)
    C.add(1);
  EXPECT_TRUE(C.isSaturated());
  C.add(-7);
  EXPECT_EQ(C.value(), 8);
  EXPECT_FALSE(C.isSaturated());
}

TEST(SaturatingCounter, TwoBitTakenThreshold) {
  TwoBitCounter C(2);
  EXPECT_TRUE(C.isSet());
  C.decrement();
  EXPECT_FALSE(C.isSet());
}

namespace {

/// The reference model of LruTable: per set, its keys from the most to
/// the least recently used, and each key's payload.
class LruModel {
public:
  LruModel(size_t Sets, size_t NumWays) : Ways(NumWays), BySet(Sets) {}

  std::optional<uint64_t> find(uint64_t K) const {
    auto It = Payloads.find(K);
    return It == Payloads.end() ? std::nullopt
                                : std::optional<uint64_t>(It->second);
  }
  std::optional<uint64_t> touch(uint64_t K) {
    std::optional<uint64_t> P = find(K);
    if (P) {
      std::vector<uint64_t> &Set = setOf(K);
      Set.erase(std::find(Set.begin(), Set.end(), K));
      Set.insert(Set.begin(), K);
    }
    return P;
  }
  /// Inserts absent \p K with payload \p P; returns the evicted key.
  std::optional<uint64_t> insert(uint64_t K, uint64_t P) {
    std::vector<uint64_t> &Set = setOf(K);
    std::optional<uint64_t> Evicted;
    if (Set.size() == Ways) {
      Evicted = Set.back();
      Set.pop_back();
      Payloads.erase(*Evicted);
    }
    Set.insert(Set.begin(), K);
    Payloads[K] = P;
    return Evicted;
  }
  bool erase(uint64_t K) {
    if (!Payloads.erase(K))
      return false;
    std::vector<uint64_t> &Set = setOf(K);
    Set.erase(std::find(Set.begin(), Set.end(), K));
    return true;
  }
  size_t clear() {
    const size_t N = Payloads.size();
    Payloads.clear();
    for (std::vector<uint64_t> &Set : BySet)
      Set.clear();
    return N;
  }
  const std::map<uint64_t, uint64_t> &payloads() const { return Payloads; }

private:
  std::vector<uint64_t> &setOf(uint64_t K) {
    return BySet[K & (BySet.size() - 1)];
  }

  size_t Ways;
  std::vector<std::vector<uint64_t>> BySet;
  std::map<uint64_t, uint64_t> Payloads;
};

} // namespace

TEST(LruTable, MatchesTheReferenceModel) {
  // Seeded streams of every operation over direct-mapped, set-associative
  // and fully associative geometries. Each payload holds a fresh id, so a
  // hit on the wrong entry shows as a wrong id.
  struct Geometry {
    size_t Sets, Ways;
  };
  for (const Geometry G :
       {Geometry{1, 1}, {16, 1}, {64, 4}, {512, 2}, {1, 256}}) {
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      SCOPED_TRACE(testing::Message() << G.Sets << "x" << G.Ways << " seed "
                                      << Seed);
      LruTable<uint64_t, uint64_t> T(G.Sets, G.Ways);
      LruModel M(G.Sets, G.Ways);
      ASSERT_EQ(T.capacity(), G.Sets * G.Ways);
      SplitMix64 Rng(Seed);
      // Twice the capacity in keys keeps sets full and evicting.
      const uint64_t Keys = 2 * G.Sets * G.Ways + 1;
      uint64_t NextId = 1;
      unsigned Evictions = 0;
      // Checks an insert's slot against the model, then gives it an id.
      auto Inserted = [&](uint64_t K, LruTable<uint64_t, uint64_t>::Slot S) {
        EXPECT_EQ(S.Value, 0u) << K; // value-initialized
        S.Value = NextId;
        EXPECT_EQ(S.Evicted, M.insert(K, NextId++)) << K;
        Evictions += S.Evicted.has_value();
      };
      for (int Step = 0; Step < 4'000; ++Step) {
        const uint64_t K = Rng.nextBelow(Keys);
        const uint64_t Op = Rng.nextBelow(1024);
        if (Op < 256) {
          const uint64_t *P = std::as_const(T).find(K);
          EXPECT_EQ(P ? std::optional<uint64_t>(*P) : std::nullopt, M.find(K))
              << K;
        } else if (Op < 512) {
          const uint64_t *P = T.touch(K);
          EXPECT_EQ(P ? std::optional<uint64_t>(*P) : std::nullopt,
                    M.touch(K))
              << K;
        } else if (Op < 704) {
          if (!M.find(K))
            Inserted(K, T.insert(K));
        } else if (Op < 960) {
          LruTable<uint64_t, uint64_t>::Slot S = T.touchOrInsert(K);
          if (std::optional<uint64_t> P = M.touch(K)) {
            EXPECT_EQ(S.Value, *P) << K;
            EXPECT_EQ(S.Evicted, std::nullopt) << K;
          } else {
            Inserted(K, S);
          }
        } else if (Op < 1022) {
          EXPECT_EQ(T.erase(K), M.erase(K)) << K;
        } else {
          EXPECT_EQ(T.clear(), M.clear());
        }
        ASSERT_EQ(T.size(), M.payloads().size()) << "step " << Step;
      }
      std::map<uint64_t, uint64_t> Seen;
      T.forEach([&](uint64_t K, uint64_t P) { Seen[K] = P; });
      EXPECT_EQ(Seen, M.payloads());
      EXPECT_GT(Evictions, 0u) << "the stream never replaced an entry";
    }
  }
}

TEST(Random, Deterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, BoundsRespected) {
  SplitMix64 R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(Random, ShuffleIsPermutation) {
  std::vector<int> V = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  SplitMix64 R(3);
  shuffle(V, R);
  std::vector<int> Sorted = V;
  std::sort(Sorted.begin(), Sorted.end());
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Sorted[I], I);
}

TEST(Statistics, RunningStatBasics) {
  RunningStat S;
  S.addSample(1.0);
  S.addSample(3.0);
  S.addSample(2.0);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 2.0);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 3.0);
}

TEST(Statistics, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometricMean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
  EXPECT_NEAR(geometricMean({1.1, 1.1, 1.1}), 1.1, 1e-12);
}

TEST(Statistics, HistogramBuckets) {
  Histogram H(10.0, 5);
  H.addSample(0);
  H.addSample(9.9);
  H.addSample(10);
  H.addSample(1000); // overflow bucket
  EXPECT_EQ(H.total(), 4u);
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(H.numBuckets() - 1), 1u);
  EXPECT_DOUBLE_EQ(H.cdfAt(1), 0.75);
}

TEST(Table, RendersAlignedRows) {
  Table T({"bench", "ipc"});
  T.addRow({"mcf", "0.42"});
  T.addSeparator();
  T.addRow({"average", "1.00"});
  std::string S = T.render();
  EXPECT_NE(S.find("mcf"), std::string::npos);
  EXPECT_NE(S.find("0.42"), std::string::npos);
  EXPECT_NE(S.find("+--"), std::string::npos);
  EXPECT_EQ(T.numRows(), 3u);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(formatDouble(1.2345, 2), "1.23");
  EXPECT_EQ(formatPercent(0.234, 1), "23.4%");
}

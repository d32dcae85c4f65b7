//===- mem_test.cpp - Unit tests for src/mem -------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "mem/Cache.h"
#include "mem/DataMemory.h"
#include "mem/MemorySystem.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace trident;

//===----------------------------------------------------------------------===//
// DataMemory
//===----------------------------------------------------------------------===//

TEST(DataMemory, ReadsZeroWhenUntouched) {
  DataMemory M;
  EXPECT_EQ(M.read64(0x12345678), 0u);
  EXPECT_EQ(M.numPages(), 0u); // reads never materialize pages
}

TEST(DataMemory, WriteReadRoundTrip) {
  DataMemory M;
  M.write64(0x1000, 0xdeadbeefcafebabeull);
  EXPECT_EQ(M.read64(0x1000), 0xdeadbeefcafebabeull);
  EXPECT_EQ(M.numPages(), 1u);
}

TEST(DataMemory, PageStraddlingAccess) {
  DataMemory M;
  Addr A = DataMemory::PageSize - 4; // straddles two pages
  M.write64(A, 0x1122334455667788ull);
  EXPECT_EQ(M.read64(A), 0x1122334455667788ull);
  EXPECT_EQ(M.numPages(), 2u);
  // Byte-level split is little-endian consistent.
  EXPECT_EQ(M.read64(A + 1) & 0xff, 0x77u);
}

TEST(DataMemory, UnalignedWithinPage) {
  DataMemory M;
  M.write64(0x1003, 42);
  EXPECT_EQ(M.read64(0x1003), 42u);
}

namespace {
constexpr Addr PageSz = DataMemory::PageSize;
uint64_t wordValue(Addr A, uint64_t Tag) {
  return (A * 0x9E3779B97F4A7C15ull) ^ Tag;
}
} // namespace

TEST(DataMemory, RecycledPagesReadZero) {
  constexpr unsigned Pages = 600; // more than two 256-page slabs
  {
    DataMemory Dirty;
    for (Addr A = 0; A < Pages * PageSz; A += 8)
      Dirty.write64(0x10'0000 + A, ~0ull);
  } // its slabs go back to the free list, every word dirty
  DataMemory M;
  for (unsigned P = 0; P < Pages; ++P)
    M.write64(0x20'0000 + P * PageSz + PageSz - 8, 7);
  ASSERT_EQ(M.numPages(), Pages);
  unsigned NonZero = 0;
  for (unsigned P = 0; P < Pages; ++P)
    for (Addr Off = 0; Off + 8 < PageSz; Off += 8)
      NonZero += M.read64(0x20'0000 + P * PageSz + Off) != 0;
  EXPECT_EQ(NonZero, 0u) << "a recycled page kept an earlier image's bytes";
}

TEST(DataMemory, TranslationCacheSurvivesTableGrowth) {
  // 2,000 pages grow the 1,024-slot table twice. Each write to a new page
  // alternates with a read of the previous page, so the translation cache
  // holds a live page whenever the table rehashes.
  constexpr unsigned Pages = 2000;
  constexpr Addr Base = 0x4000'0000;
  DataMemory M;
  for (unsigned P = 0; P < Pages; ++P) {
    Addr Page = Base + P * PageSz;
    // The translation cache remembers the next page as absent; the next
    // iteration's first write must materialize it anyway.
    EXPECT_EQ(M.read64(Page + PageSz), 0u);
    for (Addr Off = 0; Off < PageSz; Off += 8) {
      M.write64(Page + Off, wordValue(Page + Off, 1));
      if (P > 0) {
        ASSERT_EQ(M.read64(Page - PageSz + Off),
                  wordValue(Page - PageSz + Off, 1));
      }
    }
  }
  ASSERT_EQ(M.numPages(), Pages);
  unsigned Wrong = 0;
  for (Addr A = Base; A < Base + Pages * PageSz; A += 8)
    Wrong += M.read64(A) != wordValue(A, 1);
  EXPECT_EQ(Wrong, 0u);
}

TEST(DataMemory, LiveMemoriesNeverAliasPages) {
  // Two live memories, as the lanes of a mix have, over the same
  // addresses, drawing recycled slabs in interleaved order.
  constexpr unsigned Pages = 600;
  {
    DataMemory Warm;
    for (unsigned P = 0; P < Pages; ++P)
      Warm.write64(P * PageSz, 1);
  }
  DataMemory A, B;
  for (Addr Off = 0; Off < Pages * PageSz; Off += 8) {
    A.write64(Off, wordValue(Off, 0xA));
    B.write64(Off, wordValue(Off, 0xB));
  }
  unsigned Wrong = 0;
  for (Addr Off = 0; Off < Pages * PageSz; Off += 8)
    Wrong += (A.read64(Off) != wordValue(Off, 0xA)) +
             (B.read64(Off) != wordValue(Off, 0xB));
  EXPECT_EQ(Wrong, 0u) << "two live memories share a page";
}

namespace {
/// One step of a declared-image row: declare Count words (word I at
/// Base + I*Stride holds wordValue of its address and Tag), or store Tag
/// at Base.
struct ImageStep {
  bool Declare;
  Addr Base;
  uint64_t Count;
  uint64_t Stride;
  uint64_t Tag;
};
ImageStep declared(Addr Base, uint64_t Count, uint64_t Stride, uint64_t Tag) {
  return {true, Base, Count, Stride, Tag};
}
ImageStep stored(Addr A, uint64_t Value) { return {false, A, 1, 8, Value}; }

struct DeclaredImageCase {
  const char *Name;
  std::vector<ImageStep> Steps;
};
} // namespace

TEST(DataMemory, DeclaredWordsMatchPlainWrites) {
  // The reference model: each row builds its image twice, once through
  // declareWords and once through a plain write64 loop, then compares
  // every word and the content hash. A full touch reads every word from
  // one page before the image to one page after it, gap pages included;
  // the lazy memory must still hold only the pages its stores touched. A
  // write-back touch then writes every word back, which materializes the
  // same pages in both, and compares page counts and hashes again.
  const std::vector<DeclaredImageCase> Cases = {
      {"straddles-a-page-boundary",
       {declared(0x10'0000 + PageSz - 28, 8, 8, 1),
        declared(0x20'0000 + PageSz - 6, 6, PageSz + 4, 2)}},
      {"stride-beyond-a-page",
       {declared(0x30'0000 + 64, 5, 3 * PageSz + 8, 3)}},
      {"count-one", {declared(0x40'0000 + 200, 1, 8, 4)}},
      {"overlapping-declarations",
       {declared(0x50'0000, 1024, 16, 5), declared(0x50'0000 + 4, 700, 24, 6)}},
      {"stores-before-and-after",
       {stored(0x60'0000 + 40, 0xAAAA), stored(0x60'0000 + 48, 0xBBBB),
        declared(0x60'0000, 600, 16, 7), stored(0x60'0000 + 64, 0xCCCC),
        stored(0x60'0000 + PageSz + 8, 0xDDDD)}},
      {"store-into-untouched-declared-page",
       {declared(0x70'0000, 2048, 8, 8),
        stored(0x70'0000 + 2 * PageSz + 20, 0xEEEE)}},
  };
  for (const DeclaredImageCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    DataMemory Lazy, Eager;
    Addr Lo = ~Addr(0), Hi = 0;
    std::set<Addr> StoredPages;
    for (const ImageStep &S : C.Steps) {
      const Addr Base = S.Base;
      const uint64_t Stride = S.Stride, Tag = S.Tag;
      Lo = std::min(Lo, Base);
      Hi = std::max(Hi, Base + (S.Count - 1) * Stride + 8);
      if (!S.Declare) {
        Lazy.write64(Base, Tag);
        Eager.write64(Base, Tag);
        StoredPages.insert(Base / PageSz);
        StoredPages.insert((Base + 7) / PageSz);
        continue;
      }
      Lazy.declareWords(Base, S.Count, Stride, [=](uint64_t I) {
        return wordValue(Base + I * Stride, Tag);
      });
      for (uint64_t I = 0; I < S.Count; ++I)
        Eager.write64(Base + I * Stride, wordValue(Base + I * Stride, Tag));
    }
    EXPECT_EQ(Lazy.contentHash(), Eager.contentHash()) << "before any touch";
    const Addr TouchLo = (Lo & ~(PageSz - 1)) - PageSz;
    unsigned Wrong = 0;
    for (Addr A = TouchLo; A < Hi + PageSz; A += 8)
      Wrong += Lazy.read64(A) != Eager.read64(A);
    EXPECT_EQ(Wrong, 0u);
    EXPECT_EQ(Lazy.numPages(), StoredPages.size()) << "a read materialized";
    EXPECT_EQ(Lazy.contentHash(), Eager.contentHash()) << "after a full touch";
    for (Addr A = TouchLo; A < Hi + PageSz; A += 8) {
      Lazy.write64(A, Lazy.read64(A));
      Eager.write64(A, Eager.read64(A));
    }
    EXPECT_EQ(Lazy.numPages(), Eager.numPages());
    EXPECT_EQ(Lazy.contentHash(), Eager.contentHash())
        << "after a write-back touch";
  }
}

namespace {
/// The byte model the reference test checks DataMemory against: a map
/// from address to byte, every operation applied eagerly in program
/// order. It also records which pages hold declared words and which
/// pages writes touched.
struct ByteModel {
  std::map<Addr, uint8_t> Bytes;
  std::set<Addr> DeclaredPages, WrittenPages;

  void store(Addr A, uint64_t V) {
    for (unsigned B = 0; B < 8; ++B)
      Bytes[A + B] = static_cast<uint8_t>(V >> (8 * B));
  }
  void write(Addr A, uint64_t V) {
    store(A, V);
    WrittenPages.insert(A / PageSz);
    WrittenPages.insert((A + 7) / PageSz);
  }
  void declare(Addr Base, uint64_t Count, uint64_t Stride,
               const std::function<uint64_t(uint64_t)> &Value) {
    for (uint64_t I = 0; I < Count; ++I) {
      const Addr W = Base + I * Stride;
      store(W, Value(I));
      DeclaredPages.insert(W / PageSz);
      DeclaredPages.insert((W + 7) / PageSz);
    }
  }
  uint64_t read(Addr A) const {
    uint64_t V = 0;
    for (unsigned B = 0; B < 8; ++B)
      if (auto It = Bytes.find(A + B); It != Bytes.end())
        V |= uint64_t(It->second) << (8 * B);
    return V;
  }
  /// DataMemory::contentHash's definition: FNV-1a over each page's VPN
  /// and bytes, in ascending VPN order, over every declared or written
  /// page.
  uint64_t hash() const {
    std::set<Addr> Pages = DeclaredPages;
    Pages.insert(WrittenPages.begin(), WrittenPages.end());
    uint64_t H = 0xcbf29ce484222325ull;
    auto fold = [&H](uint8_t B) { H = (H ^ B) * 1099511628211ull; };
    std::vector<uint8_t> Page(PageSz);
    for (Addr Vpn : Pages) {
      std::fill(Page.begin(), Page.end(), 0);
      for (auto It = Bytes.lower_bound(Vpn * PageSz);
           It != Bytes.end() && It->first < (Vpn + 1) * PageSz; ++It)
        Page[It->first - Vpn * PageSz] = It->second;
      for (int I = 0; I < 8; ++I)
        fold(static_cast<uint8_t>(Vpn >> (8 * I)));
      for (uint8_t B : Page)
        fold(B);
    }
    return H;
  }
};
} // namespace

namespace {
/// One input of the byte-model test: a window of pages, and how many of
/// every 20 ops declare words, write one value, or write a run of aligned
/// words on one page; the rest read.
struct OpMix {
  const char *Name;
  uint64_t WindowPages;
  unsigned Seeds, Ops;
  unsigned Declares, Writes, Runs;
};
/// Words a sparse page stores before a write promotes it to a dense page.
constexpr size_t SparseWords = 56;
} // namespace

TEST(DataMemory, RandomOperationsMatchAByteModel) {
  // Seeded random sequences of declarations, writes and reads. The first
  // input spans a 32-page window, and its writes are rare enough that
  // most reads find their page absent. The second spans 4 pages, and its
  // writes outnumber its reads, so pages cross from sparse to dense
  // between declarations, unaligned writes and reads, and a page that was
  // dense hands its record to one that materializes later. Declarations
  // overlap each other, straddle pages and step past whole pages; writes
  // and reads are aligned, unaligned and page-straddling. Every read, the
  // page count and the content hash must match the byte model.
  constexpr Addr Window = 0x40'0000;
  const uint64_t Strides[] = {8, 16, 24, 56, 64, 136, PageSz - 4, PageSz + 8,
                              3 * PageSz - 12};
  const OpMix Inputs[] = {{"read-mostly", 32, 24, 100, 3, 2, 0},
                          {"write-heavy", 4, 16, 400, 1, 8, 4}};
  size_t MixedStraddles = 0, Promotions = 0, CachedPromotions = 0;
  for (const OpMix &In : Inputs) {
    for (uint64_t Seed = 1; Seed <= In.Seeds; ++Seed) {
      SCOPED_TRACE(std::string(In.Name) + " seed " + std::to_string(Seed));
      SplitMix64 Rng(Seed);
      DataMemory M;
      ByteModel Model;
      std::vector<std::array<uint64_t, 3>> Declared; // Base, Count, Stride
      // The aligned words writes have stored on each page, and the page
      // the last op accessed with one aligned read or write (the page
      // the translation cache then holds), or none.
      std::map<Addr, std::set<Addr>> StoredWords;
      Addr LastAligned = ~Addr(0);
      auto pick = [&](uint64_t N) { return Rng.nextBelow(N); };
      // An address in the window: word-aligned, anywhere, 1-7 bytes below
      // a page boundary, or within 7 bytes of a declared word's start (the
      // first and last words most often, and one past the last).
      auto address = [&] {
        const Addr Page = Window + pick(In.WindowPages) * PageSz;
        switch (pick(4)) {
        case 0:
          return Page + 8 * pick(PageSz / 8);
        case 1:
          return Page + pick(PageSz);
        case 2:
          if (!Declared.empty()) {
            const auto [Base, Count, Stride] = Declared[pick(Declared.size())];
            const uint64_t I = pick(3) == 0 ? pick(Count + 1)
                                            : (pick(2) ? 0 : Count - 1);
            return Base + I * Stride + pick(15) - 7;
          }
          [[fallthrough]];
        default:
          return Page + PageSz - 1 - pick(7);
        }
      };
      auto write = [&](Addr A, uint64_t V) {
        M.write64(A, V);
        Model.write(A, V);
        const Addr W = A & ~Addr(7);
        for (Addr Word : {W, A == W ? W : W + 8}) {
          std::set<Addr> &Words = StoredWords[Word / PageSz];
          if (!Words.insert(Word).second || Words.size() != SparseWords + 1)
            continue;
          ++Promotions;
          CachedPromotions += A == W && Word / PageSz == LastAligned;
        }
        LastAligned = A == W ? A / PageSz : ~Addr(0);
      };
      for (unsigned Op = 0; Op < In.Ops; ++Op) {
        const uint64_t Kind = pick(20);
        if (Kind < In.Declares) {
          const uint64_t Stride = Strides[pick(std::size(Strides))];
          const uint64_t Count = 1 + pick(Stride > PageSz / 2 ? 6 : 64);
          const uint64_t Tag = Rng.next();
          const Addr Base = address();
          auto Value = [Tag](uint64_t I) { return wordValue(I, Tag); };
          M.declareWords(Base, Count, Stride, Value);
          Model.declare(Base, Count, Stride, Value);
          Declared.push_back({Base, Count, Stride});
          LastAligned = ~Addr(0);
        } else if (Kind < In.Declares + In.Writes) {
          const Addr A = address();
          write(A, Rng.next());
        } else if (Kind < In.Declares + In.Writes + In.Runs) {
          // 1-16 aligned words in a row, up to the end of the page.
          const Addr Start = address() & ~Addr(7);
          const Addr End = std::min(Start + 8 * (1 + pick(16)),
                                    (Start / PageSz + 1) * PageSz);
          for (Addr A = Start; A < End; A += 8)
            write(A, Rng.next());
        } else {
          const Addr A = address();
          const Addr Lo = A / PageSz, Hi = (A + 7) / PageSz;
          if (Lo != Hi && Model.WrittenPages.count(Lo) !=
                              Model.WrittenPages.count(Hi))
            MixedStraddles += Model.DeclaredPages.count(
                Model.WrittenPages.count(Lo) ? Hi : Lo);
          ASSERT_EQ(M.read64(A), Model.read(A))
              << "op " << Op << " read at 0x" << std::hex << A;
          LastAligned = A % 8 == 0 ? Lo : ~Addr(0);
        }
        ASSERT_EQ(M.numPages(), Model.WrittenPages.size()) << "op " << Op;
        if (Op % 20 == 19) {
          ASSERT_EQ(M.contentHash(), Model.hash()) << "op " << Op;
        }
      }
    }
  }
  // Straddling reads where one page exists and the other is only
  // declared: the path that merges declared and written bytes.
  EXPECT_GT(MixedStraddles, 0u);
  // Sparse pages turned dense, some by a write that found the page's
  // record in the translation cache.
  EXPECT_GT(Promotions, 0u);
  EXPECT_GT(CachedPromotions, 0u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(DataMemoryDeathTest, ReadThroughDestroyedMemoryReports) {
  // The destroyed memory's translation cache still points at its page,
  // which now sits poisoned on the free list: the read must report
  // instead of returning whatever a later image writes there.
  alignas(DataMemory) unsigned char Storage[sizeof(DataMemory)];
  DataMemory *M = new (Storage) DataMemory;
  M->write64(0x1000, 42);
  M->~DataMemory();
  EXPECT_DEATH(M->read64(0x1000), "use-after-poison");
}
#endif

//===----------------------------------------------------------------------===//
// Cache
//===----------------------------------------------------------------------===//

namespace {
CacheConfig tinyCache() {
  // 4 sets x 2 ways x 64B = 512B.
  return {"tiny", 512, 2, 64, 3};
}
} // namespace

TEST(Cache, GeometryDerivation) {
  Cache C(tinyCache());
  EXPECT_EQ(C.numSets(), 4u);
  EXPECT_EQ(C.lineAddr(0x12345), 0x12340u & ~0x3Fu);
}

TEST(Cache, MissThenHit) {
  Cache C(tinyCache());
  EXPECT_FALSE(C.lookup(0x1000));
  Cache::LineIdx Filled = C.insert(0x1000, /*FillReady=*/10,
                                   /*Prefetched=*/false);
  Cache::LookupResult R = C.lookup(0x1000);
  ASSERT_TRUE(R);
  EXPECT_EQ(R.Idx, Filled);
  EXPECT_EQ(C.fillReady(R.Idx), 10u);
  EXPECT_FALSE(C.prefetched(R.Idx));
}

TEST(Cache, LruEviction) {
  Cache C(tinyCache());
  // Three lines in the same set (set stride = 4 * 64 = 256).
  C.insert(0x0000, 0, false);
  C.insert(0x0100, 0, false);
  C.lookup(0x0000); // touch A so B becomes LRU
  C.insert(0x0200, 0, false);
  EXPECT_TRUE(C.lookup(0x0000));
  EXPECT_FALSE(C.lookup(0x0100)); // evicted
  EXPECT_TRUE(C.lookup(0x0200));
}

TEST(Cache, PrefetchVictimTagTracking) {
  Cache C(tinyCache());
  C.insert(0x0000, 0, false);
  C.lookup(0x0000); // demand-touched
  C.insert(0x0100, 0, false);
  C.lookup(0x0100);
  C.lookup(0x0000);
  // A prefetch displaces 0x0100 (LRU).
  C.insert(0x0200, 0, /*Prefetched=*/true);
  // The subsequent miss on 0x0100 is attributable to prefetching.
  Cache::LookupResult R = C.lookup(0x0100);
  EXPECT_FALSE(R);
  EXPECT_TRUE(R.VictimOfPrefetch);
  // The victim record is consumed: a second miss is ordinary.
  EXPECT_FALSE(C.lookup(0x0100).VictimOfPrefetch);
}

TEST(Cache, UntouchedBitSemantics) {
  Cache C(tinyCache());
  C.insert(0x1000, 0, /*Prefetched=*/true);
  Cache::LineIdx L = C.peek(0x1000);
  ASSERT_NE(L, Cache::NoLine);
  EXPECT_TRUE(C.prefetched(L));
  EXPECT_TRUE(C.untouched(L));
}

TEST(Cache, ResetInvalidatesEverything) {
  Cache C(tinyCache());
  C.insert(0x1000, 0, false);
  C.reset();
  EXPECT_FALSE(C.lookup(0x1000));
}

TEST(Cache, RefillOfPresentLineKeepsIt) {
  Cache C(tinyCache());
  Cache::LineIdx Filled = C.insert(0x1000, 5, false);
  EXPECT_EQ(C.insert(0x1000, 99, true), Filled); // refresh, not duplicate
  Cache::LookupResult R = C.lookup(0x1000);
  ASSERT_TRUE(R);
  EXPECT_EQ(C.fillReady(R.Idx), 5u); // original fill time retained
}

namespace {
/// A map-based model of one Cache, with the rules of Cache.h spelled out
/// plainly. Per set: its valid lines in recency order, most recent first,
/// each with the way it sits in; and a ring of four prefetch-victim tags
/// with a cursor that steps on every record.
class ReferenceCache {
public:
  struct Line {
    uint64_t Tag;
    unsigned Way;
    Cycle FillReady;
    bool Prefetched;
    bool Untouched;
  };
  struct Outcome {
    const Line *Hit; ///< null on a miss
    bool VictimOfPrefetch;
  };

  explicit ReferenceCache(const CacheConfig &C)
      : LineSize(C.LineSize), Assoc(C.Assoc), NumSets(C.numSets()) {}

  uint64_t setOf(Addr LineAddr) const {
    return LineAddr / LineSize % NumSets;
  }
  uint64_t tagOf(Addr LineAddr) const { return LineAddr / LineSize; }
  Cache::LineIdx indexOf(const Line &L, uint64_t Set) const {
    return static_cast<Cache::LineIdx>(Set * Assoc + L.Way);
  }

  /// A hit becomes the most recent line. A miss whose tag is in the ring
  /// reports VictimOfPrefetch and clears that entry.
  Outcome lookup(Addr LineAddr) {
    SetState &S = Sets[setOf(LineAddr)];
    const uint64_t Tag = tagOf(LineAddr);
    if (auto It = find(S, Tag); It != S.Lines.end()) {
      S.Lines.splice(S.Lines.begin(), S.Lines, It);
      return {&S.Lines.front(), false};
    }
    for (std::optional<uint64_t> &V : S.Victims)
      if (V == Tag) {
        V.reset();
        return {nullptr, true};
      }
    return {nullptr, false};
  }

  Line *peek(Addr LineAddr) {
    SetState &S = Sets[setOf(LineAddr)];
    auto It = find(S, tagOf(LineAddr));
    return It == S.Lines.end() ? nullptr : &*It;
  }

  /// A refill of a present line only makes it the most recent. Otherwise
  /// the fill takes the first invalid way, else the least recent line's;
  /// a prefetch fill that displaces a demand-touched line records the
  /// victim's tag.
  const Line &insert(Addr LineAddr, Cycle FillReady, bool Prefetched) {
    SetState &S = Sets[setOf(LineAddr)];
    const uint64_t Tag = tagOf(LineAddr);
    if (auto It = find(S, Tag); It != S.Lines.end()) {
      S.Lines.splice(S.Lines.begin(), S.Lines, It);
      return S.Lines.front();
    }
    unsigned Way = 0;
    if (S.Lines.size() < Assoc) {
      while (std::any_of(S.Lines.begin(), S.Lines.end(),
                         [Way](const Line &X) { return X.Way == Way; }))
        ++Way;
    } else {
      const Line &Lru = S.Lines.back();
      Way = Lru.Way;
      if (Prefetched && !Lru.Untouched) {
        S.Victims[S.NextVictim] = Lru.Tag;
        S.NextVictim = (S.NextVictim + 1) % S.Victims.size();
      }
      S.Lines.pop_back();
    }
    S.Lines.push_front({Tag, Way, FillReady, Prefetched, Prefetched});
    return S.Lines.front();
  }

  /// Drops every line with a byte in [Lo, Hi]; the rings stay.
  uint64_t invalidateRange(Addr Lo, Addr Hi) {
    uint64_t N = 0;
    for (auto &[Set, S] : Sets)
      N += std::erase_if(S.Lines, [&](const Line &X) {
        return X.Tag * LineSize <= Hi && X.Tag * LineSize + LineSize - 1 >= Lo;
      });
    return N;
  }

  void reset() { Sets.clear(); }

private:
  struct SetState {
    std::list<Line> Lines; ///< valid lines, most recent first
    std::array<std::optional<uint64_t>, 4> Victims;
    size_t NextVictim = 0;
  };
  static std::list<Line>::iterator find(SetState &S, uint64_t Tag) {
    return std::find_if(S.Lines.begin(), S.Lines.end(),
                        [Tag](const Line &X) { return X.Tag == Tag; });
  }

  uint64_t LineSize, Assoc, NumSets;
  std::map<uint64_t, SetState> Sets;
};
} // namespace

TEST(Cache, MatchesAReferenceModelInLockStep) {
  // Seeded streams of lookups, peeks, demand and prefetch fills, untouched
  // bits cleared on hits, range invalidations and resets, run against
  // Cache and ReferenceCache at once. Addresses come from a few sets with
  // two more tags each than the set has ways, so every set evicts. After
  // every op the hit or miss, VictimOfPrefetch, the line's index and its
  // state must agree; every 500 ops, so must every modelled set's
  // residency.
  const MemSystemConfig Table1;
  const CacheConfig Geometries[] = {Table1.L1, Table1.L2, Table1.L3,
                                    {"L1-96KB-3way", 96 * 1024, 3, 64, 3},
                                    tinyCache()};
  for (const CacheConfig &G : Geometries) {
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      SCOPED_TRACE(G.Name + " seed " + std::to_string(Seed));
      SplitMix64 Rng(Seed);
      auto pick = [&](uint64_t N) { return Rng.nextBelow(N); };
      Cache C(G);
      ReferenceCache Ref(G);
      const uint64_t Sets = C.numSets();
      std::vector<Addr> Pool;
      for (uint64_t Set : std::set<uint64_t>{0, 1, Sets / 2 + 1, Sets - 1})
        for (uint64_t K = 0; K < G.Assoc + 2; ++K)
          Pool.push_back(((pick(1 << 20) * Sets) + Set) * G.LineSize);
      // Checks the line at \p A in both: present in both or in neither,
      // and the same index and state.
      auto agree = [&](Addr A, Cache::LineIdx Idx,
                       const ReferenceCache::Line *L, unsigned Op) {
        const uint64_t Set = Ref.setOf(A);
        ::testing::AssertionResult R = ::testing::AssertionFailure();
        if ((Idx != Cache::NoLine) != (L != nullptr))
          R << (L ? "the model holds the line" : "the cache holds the line");
        else if (L && (Idx != Ref.indexOf(*L, Set) ||
                       C.fillReady(Idx) != L->FillReady ||
                       C.prefetched(Idx) != L->Prefetched ||
                       C.untouched(Idx) != L->Untouched))
          R << "index " << Idx << " vs way " << L->Way << ", fill "
            << C.fillReady(Idx) << " vs " << L->FillReady << ", prefetched "
            << C.prefetched(Idx) << " vs " << L->Prefetched << ", untouched "
            << C.untouched(Idx) << " vs " << L->Untouched;
        else
          return ::testing::AssertionSuccess();
        return R << " at op " << Op << ", set " << Set << ", tag 0x"
                 << std::hex << Ref.tagOf(A);
      };
      for (unsigned Op = 0; Op < 20'000; ++Op) {
        const Addr A = Pool[pick(Pool.size())];
        const uint64_t Kind = pick(1000);
        if (Kind < 400) {
          const Cache::LookupResult R = C.lookup(A);
          const ReferenceCache::Outcome M = Ref.lookup(A);
          ASSERT_TRUE(agree(A, R.Idx, M.Hit, Op));
          ASSERT_EQ(R.VictimOfPrefetch, M.VictimOfPrefetch)
              << "op " << Op << ", set " << Ref.setOf(A) << ", tag 0x"
              << std::hex << Ref.tagOf(A);
          if (R && pick(2)) {
            C.clearUntouched(R.Idx);
            Ref.peek(A)->Untouched = false;
          }
        } else if (Kind < 500) {
          ASSERT_TRUE(agree(A, C.peek(A), Ref.peek(A), Op));
        } else if (Kind < 990) {
          const Cycle Fill = pick(1000);
          const bool Prefetched = pick(2);
          const Cache::LineIdx Idx = C.insert(A, Fill, Prefetched);
          ASSERT_TRUE(agree(A, Idx, &Ref.insert(A, Fill, Prefetched), Op));
        } else if (Kind < 998) {
          const Addr Lo = A + pick(G.LineSize) - G.LineSize / 2;
          const Addr Hi = Lo + pick(3 * G.LineSize);
          ASSERT_EQ(C.invalidateRange(Lo, Hi), Ref.invalidateRange(Lo, Hi))
              << "op " << Op;
        } else {
          C.reset();
          Ref.reset();
        }
        if (Op % 500 == 499) {
          for (Addr P : Pool)
            ASSERT_TRUE(agree(P, C.peek(P), Ref.peek(P), Op)) << " (residency)";
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// MemorySystem (no hardware prefetcher)
//===----------------------------------------------------------------------===//

namespace {
MemSystemConfig smallConfig() {
  MemSystemConfig C;
  C.L1 = {"L1", 1024, 2, 64, 3};
  C.L2 = {"L2", 4096, 4, 64, 11};
  C.L3 = {"L3", 16384, 4, 64, 35};
  C.MemoryLatency = 350;
  C.BusOccupancy = 6;
  C.NumMSHRs = 4;
  return C;
}
} // namespace

TEST(MemorySystem, ColdMissPaysMemoryLatency) {
  MemorySystem M(smallConfig());
  AccessResult R = M.access(0x1, 0x10000, AccessKind::DemandLoad, 100);
  EXPECT_EQ(R.Outcome, LoadOutcome::Miss);
  EXPECT_EQ(R.Level, 4u);
  EXPECT_GE(R.ReadyCycle, 100u + 350u);
}

TEST(MemorySystem, SecondAccessHitsL1) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  AccessResult R = M.access(0x1, 0x10000, AccessKind::DemandLoad, 1000);
  EXPECT_EQ(R.Outcome, LoadOutcome::HitNone);
  EXPECT_EQ(R.ReadyCycle, 1000u + 3u);
}

TEST(MemorySystem, InFlightLineIsPartialOrMergedMiss) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  // Ten cycles later the fill (ready ~350) is still in flight.
  AccessResult R = M.access(0x2, 0x10008, AccessKind::DemandLoad, 10);
  EXPECT_EQ(R.Outcome, LoadOutcome::Miss); // demand-initiated: merged miss
  EXPECT_GT(R.ReadyCycle, 300u);
}

TEST(MemorySystem, PrefetchedLineFirstTouchIsHitPrefetched) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::SoftwarePrefetch, 0);
  AccessResult R1 = M.access(0x2, 0x10000, AccessKind::DemandLoad, 1000);
  EXPECT_EQ(R1.Outcome, LoadOutcome::HitPrefetched);
  AccessResult R2 = M.access(0x2, 0x10000, AccessKind::DemandLoad, 1001);
  EXPECT_EQ(R2.Outcome, LoadOutcome::HitNone); // only the first touch counts
}

TEST(MemorySystem, InFlightPrefetchGivesPartialHit) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::SoftwarePrefetch, 0);
  AccessResult R = M.access(0x2, 0x10000, AccessKind::DemandLoad, 100);
  EXPECT_EQ(R.Outcome, LoadOutcome::PartialHit);
  EXPECT_LT(R.ReadyCycle, 100u + 350u); // part of the latency is hidden
  EXPECT_GT(R.ReadyCycle, 100u + 3u);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  // L1 is 1KB/2-way/64B = 8 sets; lines 8*64=512 apart share a set. Fill
  // the set with two more lines to evict 0x10000 from L1 (still in L2).
  M.access(0x1, 0x10000 + 512, AccessKind::DemandLoad, 1000);
  M.access(0x1, 0x10000 + 1024, AccessKind::DemandLoad, 2000);
  AccessResult R = M.access(0x1, 0x10000, AccessKind::DemandLoad, 3000);
  EXPECT_EQ(R.Outcome, LoadOutcome::Miss);
  EXPECT_EQ(R.ReadyCycle, 3000u + 3u + 11u); // issue after L1 lookup, L2 hit
}

TEST(MemorySystem, BusSerializesMemoryFetches) {
  MemorySystem M(smallConfig());
  AccessResult R1 = M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  AccessResult R2 = M.access(0x2, 0x20000, AccessKind::DemandLoad, 0);
  AccessResult R3 = M.access(0x3, 0x30000, AccessKind::DemandLoad, 0);
  // Each later fetch queues behind the previous one's bus occupancy (6cy).
  EXPECT_GE(R2.ReadyCycle, R1.ReadyCycle + 6);
  EXPECT_GE(R3.ReadyCycle, R2.ReadyCycle + 6);
}

TEST(MemorySystem, MshrExhaustionDelaysFills) {
  MemSystemConfig C = smallConfig();
  C.NumMSHRs = 2;
  MemorySystem M(C);
  AccessResult R1 = M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  M.access(0x2, 0x20000, AccessKind::DemandLoad, 0);
  // Third outstanding fill must wait for an MSHR to free.
  AccessResult R3 = M.access(0x3, 0x30000, AccessKind::DemandLoad, 0);
  EXPECT_GE(R3.ReadyCycle, R1.ReadyCycle + 350);
}

TEST(MemorySystem, StatsClassifyDemandLoads) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);       // miss
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 1000);    // hit
  M.access(0x1, 0x20000, AccessKind::SoftwarePrefetch, 0); // pf
  M.access(0x1, 0x20000, AccessKind::DemandLoad, 2000);    // hit-prefetched
  const MemStats &S = M.stats();
  EXPECT_EQ(S.DemandLoads, 3u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.HitsNone, 1u);
  EXPECT_EQ(S.HitsPrefetched, 1u);
  EXPECT_EQ(S.SoftwarePrefetches, 1u);
  EXPECT_EQ(S.MemoryFetches, 2u);
}

TEST(MemorySystem, PrefetchOfResidentLineIsCheap) {
  MemorySystem M(smallConfig());
  M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  uint64_t FetchesBefore = M.stats().MemoryFetches;
  M.access(0x1, 0x10000, AccessKind::SoftwarePrefetch, 1000);
  EXPECT_EQ(M.stats().MemoryFetches, FetchesBefore); // no duplicate fetch
}

//===----------------------------------------------------------------------===//
// TLB
//===----------------------------------------------------------------------===//

TEST(Tlb, HitAfterInstall) {
  TlbConfig C;
  C.Enable = true;
  C.NumEntries = 16;
  C.Assoc = 4;
  Tlb T(C);
  EXPECT_FALSE(T.access(0x1234)); // cold miss installs
  EXPECT_TRUE(T.access(0x1FF8));  // same 4KB page
  EXPECT_FALSE(T.access(0x2000)); // next page
  EXPECT_EQ(T.stats().Misses, 2u);
  EXPECT_EQ(T.stats().Lookups, 3u);
}

TEST(Tlb, LruReplacementWithinSet) {
  TlbConfig C;
  C.Enable = true;
  C.NumEntries = 4;
  C.Assoc = 2; // 2 sets
  Tlb T(C);
  // Pages 0, 2, 4 share set 0 (vpn & 1 == 0).
  T.access(0x0000);
  T.access(0x2000);
  T.access(0x0000); // touch page 0 so page 2 is LRU
  T.access(0x4000); // evicts page 2
  EXPECT_TRUE(T.present(0x0000));
  EXPECT_FALSE(T.present(0x2000));
  EXPECT_TRUE(T.present(0x4000));
}

TEST(Tlb, MemorySystemWalkPenalty) {
  MemSystemConfig C = smallConfig();
  C.Tlb.Enable = true;
  C.Tlb.WalkLatency = 30;
  MemorySystem M(C);
  // First access: TLB miss (30) + memory miss.
  AccessResult R1 = M.access(0x1, 0x10000, AccessKind::DemandLoad, 0);
  EXPECT_GE(R1.ReadyCycle, 30u + 350u);
  // Same page, line resident: pure L1 hit now.
  AccessResult R2 = M.access(0x1, 0x10000, AccessKind::DemandLoad, 1000);
  EXPECT_EQ(R2.ReadyCycle, 1003u);
}

TEST(Tlb, SoftwarePrefetchToColdPageIsDropped) {
  MemSystemConfig C = smallConfig();
  C.Tlb.Enable = true;
  MemorySystem M(C);
  uint64_t Before = M.stats().MemoryFetches;
  M.access(0x1, 0x50000, AccessKind::SoftwarePrefetch, 0);
  EXPECT_EQ(M.stats().MemoryFetches, Before); // dropped, no fetch
  ASSERT_NE(M.dtlb(), nullptr);
  EXPECT_EQ(M.dtlb()->stats().PrefetchesDropped, 1u);
  // After a demand access maps the page, prefetches flow.
  M.access(0x1, 0x50000, AccessKind::DemandLoad, 10);
  M.access(0x1, 0x50040, AccessKind::SoftwarePrefetch, 2000);
  EXPECT_GT(M.stats().MemoryFetches, Before);
}

TEST(Tlb, DisabledByDefault) {
  MemorySystem M(smallConfig());
  EXPECT_EQ(M.dtlb(), nullptr);
}

//===- Dcpt.h - Delta-correlating prediction table prefetcher --*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DCPT — Delta-Correlating Prediction Tables (Grannaes, Jahre & Natvig,
/// JILP 2011 / DPC-1). Each load PC owns a table entry holding a ring of
/// the most recent line-address deltas. On a miss the newest delta pair is
/// matched against the entry's earlier history; on a match the deltas that
/// followed the earlier occurrence are replayed from the current address
/// to predict the next lines, and up to Degree of them are prefetched.
/// Correlating on delta *pairs* lets one entry capture composite patterns
/// (e.g. +1,+1,+62 row walks) that defeat single-stride predictors.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_HWPF_DCPT_H
#define TRIDENT_HWPF_DCPT_H

#include "hwpf/PrefetchBuffer.h"
#include "hwpf/PrefetcherRegistry.h"

#include <string>
#include <vector>

namespace trident {

struct DcptConfig {
  /// PC-indexed table entries (direct-mapped with tag).
  unsigned NumEntries = 128;
  /// Deltas of history per entry.
  unsigned NumDeltas = 8;
  /// Maximum lines prefetched per replayed match.
  unsigned Degree = 4;
  /// Prefetched-line buffer capacity.
  unsigned BufferCapacity = 32;

  /// Upper bound of every knob above.
  static constexpr unsigned MaxSize = 1024;
  static constexpr Knob<DcptConfig> Knobs[] = {
      {"entries", &DcptConfig::NumEntries, 1, MaxSize},
      {"deltas", &DcptConfig::NumDeltas, 2, MaxSize},
      {"degree", &DcptConfig::Degree, 1, MaxSize},
      {"buffer", &DcptConfig::BufferCapacity, 0, MaxSize}};

  static DcptConfig baseline() { return DcptConfig(); }
  /// Why no unit can be built from this config, or "" when one can. The
  /// constructor CHECKs it; the registry returns it as the spec error.
  std::string invalidReason() const;
};

/// DCPT's counters.
struct DcptStats {
  uint64_t ProbeHits = 0;
  uint64_t ProbeMisses = 0;
  uint64_t LinesPrefetched = 0;
  uint64_t PatternMatches = 0;

  /// Counter names, under "hwpf.".
  static constexpr auto fields() {
    return std::tuple(Field{"probe_hits", &DcptStats::ProbeHits},
                      Field{"probe_misses", &DcptStats::ProbeMisses},
                      Field{"lines_prefetched", &DcptStats::LinesPrefetched},
                      Field{"pattern_matches", &DcptStats::PatternMatches});
  }
};

class DcptPrefetcher final : public HwPrefetcher {
public:
  explicit DcptPrefetcher(const DcptConfig &Config);

  // HwPrefetcher interface.
  void trainOnMiss(Addr PC, Addr ByteAddr, Cycle Now,
                   MemoryBackend &BE) override;
  std::optional<Cycle> probe(Addr LineAddr, Cycle Now,
                             MemoryBackend &BE) override;
  HwPfStats snapshotStats() const override;
  std::string name() const override;

  const DcptConfig &config() const { return Config; }

  /// Slot of the delta \p Age places after the oldest, in a ring of
  /// \p N slots whose next write goes to \p Head and which holds \p Count
  /// deltas (Age < Count <= N, Head < N). Equals
  /// (Head + N - Count + Age) % N without the divide.
  static unsigned ringSlot(unsigned Head, unsigned Count, unsigned Age,
                           unsigned N) {
    const unsigned Raw = Head + N - Count + Age; // below 2N
    return Raw >= N ? Raw - N : Raw;
  }

private:
  /// Per-PC table entry. Table[I] keeps its delta history, a fixed ring
  /// of NumDeltas signed line deltas, in row I of DeltaStore.
  struct Entry {
    bool Valid = false;
    Addr Tag = 0;          ///< full PC (tag for the direct-mapped slot)
    uint64_t LastBlock = 0;
    uint64_t LastPrefetchBlock = 0; ///< dedup: newest block already issued
    unsigned Head = 0;              ///< slot the next delta goes into
    unsigned Count = 0;
  };

  void reset(Entry &E, Addr PC, uint64_t Block);

  DcptConfig Config;
  /// Fixed NumEntries slots, allocated at construction.
  std::vector<Entry> Table;
  /// Every entry's delta ring, NumEntries x NumDeltas row-major, allocated
  /// at construction.
  std::vector<int32_t> DeltaStore;
  PrefetchBuffer Buffer;
  DcptStats Stats;
};

} // namespace trident

#endif // TRIDENT_HWPF_DCPT_H

//===- Cache.h - One set-associative cache level ---------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A timing-aware set-associative cache. Lines carry a fill-completion cycle
/// (so hits on in-flight fills become *partial* hits), a prefetched bit with
/// a first-touch marker (Figure 6's "Hit-prefetched"), and each set keeps a
/// tiny victim-tag buffer of lines displaced by prefetch fills so a later
/// miss on the same tag can be attributed to prefetch pollution ("Miss due
/// to prefetching").
///
/// Storage is a set-major structure-of-arrays: tags, fill cycles, LRU
/// stamps, and the per-line flag bits each live in one contiguous array
/// indexed by set*Assoc+way, so the per-access way scan walks packed tags
/// instead of striding over fat Line records. Callers address lines through
/// opaque indices (\c LineIdx) plus accessors rather than pointers.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_MEM_CACHE_H
#define TRIDENT_MEM_CACHE_H

#include "mem/CacheTypes.h"

#include <cstdint>
#include <vector>

namespace trident {

class Cache {
public:
  /// Opaque dense line handle (set * Assoc + way).
  using LineIdx = uint32_t;
  static constexpr LineIdx NoLine = ~static_cast<LineIdx>(0);

  /// Result of looking up one line.
  struct LookupResult {
    LineIdx Idx = NoLine;          ///< NoLine on miss.
    bool VictimOfPrefetch = false; ///< miss tag matched a prefetch victim.
    explicit operator bool() const { return Idx != NoLine; }
  };

  explicit Cache(const CacheConfig &Config);

  const CacheConfig &config() const { return Config; }

  /// Looks up \p LineAddr (must be line-aligned). On hit, bumps LRU. On
  /// miss, reports whether this tag was recently displaced by a prefetch
  /// fill (and consumes that victim record).
  LookupResult lookup(Addr LineAddr);

  /// Looks up without changing LRU or victim-buffer state. NoLine on miss.
  LineIdx peek(Addr LineAddr) const;

  /// Inserts \p LineAddr, evicting the LRU way. \p FillReady is when the
  /// data arrives; \p Prefetched tags prefetch-initiated fills. If the
  /// insertion displaces a valid demand-touched line *because of a
  /// prefetch*, the victim tag is remembered for pollution attribution.
  /// Returns the line filled, or refreshed when it was already present.
  LineIdx insert(Addr LineAddr, Cycle FillReady, bool Prefetched);

  /// Per-line state accessors for a handle returned by lookup()/peek().
  Cycle fillReady(LineIdx I) const { return FillReadyArr[I]; }
  bool prefetched(LineIdx I) const { return (FlagsArr[I] & kPrefetched) != 0; }
  bool untouched(LineIdx I) const { return (FlagsArr[I] & kUntouched) != 0; }
  void clearUntouched(LineIdx I) {
    FlagsArr[I] &= static_cast<uint8_t>(~kUntouched);
  }

  /// Invalidates every line (used between experiment phases).
  void reset();

  /// Invalidates every valid line whose byte range overlaps [\p Lo, \p Hi]
  /// (inclusive). Returns the number of lines evicted. Fault-injection
  /// hook (src/faults); victim-tag pollution state is untouched.
  uint64_t invalidateRange(Addr Lo, Addr Hi);

  /// Aligns \p A down to the containing line address.
  Addr lineAddr(Addr A) const { return A & ~static_cast<Addr>(Config.LineSize - 1); }

  uint64_t numSets() const { return Sets; }

private:
  /// Tag value marking an invalid line. Validity lives in the tag array
  /// itself so the per-access way scan touches one array instead of two;
  /// the sentinel is unreachable for real lines (it would need a byte
  /// address at the very top of the 64-bit space).
  static constexpr uint64_t kNoTag = ~static_cast<uint64_t>(0);

  /// Per-line flag bits (packed into FlagsArr).
  static constexpr uint8_t kPrefetched = 1u << 1;
  static constexpr uint8_t kUntouched = 1u << 2;

  /// Small per-set FIFO of tags displaced by prefetch fills (pollution
  /// tracking); stored as flat arrays parallel to the set index.
  static constexpr unsigned VictimDepth = 4;

  void recordVictim(uint64_t Set, uint64_t Tag);
  bool consumeVictim(uint64_t Set, uint64_t Tag);

  // LineSize is a checked power of two: shift instead of dividing (the
  // compiler cannot strength-reduce a division by a runtime config field,
  // and setIndex/tagOf run twice per access).
  uint64_t setIndex(Addr LineAddr) const {
    return (LineAddr >> LineShift) & (Sets - 1);
  }
  uint64_t tagOf(Addr LineAddr) const { return LineAddr >> LineShift; }

  CacheConfig Config;
  uint64_t Sets;
  unsigned LineShift;
  // Set-major SoA line state: index = set * Assoc + way.
  std::vector<uint64_t> TagsArr;
  std::vector<Cycle> FillReadyArr;
  std::vector<uint64_t> LastUseArr;
  std::vector<uint8_t> FlagsArr;
  // Victim-tag FIFOs: index = set * VictimDepth + slot.
  std::vector<uint64_t> VictimTags;
  std::vector<uint8_t> VictimValid;
  std::vector<uint8_t> VictimNext; ///< per-set FIFO cursor.
  uint64_t UseClock = 0;
};

} // namespace trident

#endif // TRIDENT_MEM_CACHE_H

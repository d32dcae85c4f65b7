//===- LruTable.h - Bounded set-associative LRU table ----------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one bounded lookup table the DLT, the watch table, the branch
/// profiler, the TLB and enhanced-stream's trainers are built on, in the
/// shape of ChampSim's msl::lru_table: it owns the sets, the ways and the
/// LRU order.
///
/// Key K lives in set `K & (Sets - 1)`, so the set count is a power of
/// two; Ways = 1 gives a direct-mapped table and Sets = 1 a fully
/// associative one. Keys, valid bits and recency stamps sit in packed
/// set-major arrays, so a probe scans contiguous keys; the payloads sit
/// beside them. Every touch and insert takes a fresh stamp from one clock,
/// so valid entries never tie and the LRU victim is unique.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SUPPORT_LRUTABLE_H
#define TRIDENT_SUPPORT_LRUTABLE_H

#include "support/Check.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace trident {

template <typename Key, typename Payload> class LruTable {
public:
  /// What insert() and touchOrInsert() leave: the entry's payload and the
  /// valid key an insert evicted.
  struct Slot {
    Payload &Value;
    std::optional<Key> Evicted;
  };

  LruTable(size_t Sets, size_t Ways)
      : NumWays(Ways), SetMask(Sets - 1), Keys(Sets * Ways),
        Valid(Sets * Ways, 0), Stamps(Sets * Ways, 0), Payloads(Sets * Ways) {
    TRIDENT_CHECK(Ways >= 1 && Sets >= 1 && (Sets & (Sets - 1)) == 0,
                  "an LRU table needs a power-of-two set count and a way "
                  "(asked for %zu x %zu)",
                  Sets, Ways);
  }

  /// The payload of \p K, or null. Neither find touches.
  Payload *find(Key K) { return at(indexOf(K)); }
  const Payload *find(Key K) const {
    const size_t I = indexOf(K);
    return I == NoWay ? nullptr : &Payloads[I];
  }

  /// Like find(), and makes \p K the most recently used entry of its set.
  Payload *touch(Key K) {
    const size_t I = indexOf(K);
    if (I != NoWay)
      Stamps[I] = ++Clock;
    return at(I);
  }

  /// Inserts \p K, which must be absent, with a value-initialized payload:
  /// into the first free way of its set, or else over its least recently
  /// used entry.
  Slot insert(Key K) {
    TRIDENT_DCHECK(indexOf(K) == NoWay, "LRU table insert of a present key");
    const size_t Base = setBase(K);
    size_t Victim = Base;
    for (size_t I = Base; I < Base + NumWays; ++I) {
      if (!Valid[I]) {
        Victim = I;
        break;
      }
      if (Stamps[I] < Stamps[Victim])
        Victim = I;
    }
    std::optional<Key> Evicted;
    if (Valid[Victim])
      Evicted = Keys[Victim];
    else
      ++Occupied;
    Keys[Victim] = K;
    Valid[Victim] = 1;
    Stamps[Victim] = ++Clock;
    Payloads[Victim] = Payload();
    return {Payloads[Victim], Evicted};
  }

  /// touch(\p K) when present, else insert(\p K).
  Slot touchOrInsert(Key K) {
    if (Payload *P = touch(K))
      return {*P, std::nullopt};
    return insert(K);
  }

  /// Invalidates \p K; returns whether it was present.
  bool erase(Key K) {
    const size_t I = indexOf(K);
    if (I == NoWay)
      return false;
    Valid[I] = 0;
    --Occupied;
    return true;
  }

  /// Invalidates every entry; returns how many were valid.
  size_t clear() {
    Valid.assign(Valid.size(), 0);
    return std::exchange(Occupied, 0);
  }

  size_t size() const { return Occupied; }
  size_t capacity() const { return Keys.size(); }

  /// Calls \p F(key, payload) for every valid entry, set by set.
  template <typename Fn> void forEach(Fn F) {
    for (size_t I = 0; I < Keys.size(); ++I)
      if (Valid[I])
        F(Keys[I], Payloads[I]);
  }

private:
  static constexpr size_t NoWay = ~static_cast<size_t>(0);

  size_t setBase(Key K) const {
    const size_t Base = (static_cast<size_t>(K) & SetMask) * NumWays;
    TRIDENT_DCHECK(Base + NumWays <= Keys.size(),
                   "LRU set at %zu overruns the table (%zu ways, %zu entries)",
                   Base, NumWays, Keys.size());
    return Base;
  }

  size_t indexOf(Key K) const {
    const size_t Base = setBase(K);
    for (size_t I = Base; I < Base + NumWays; ++I)
      if (Keys[I] == K && Valid[I])
        return I;
    return NoWay;
  }

  Payload *at(size_t I) { return I == NoWay ? nullptr : &Payloads[I]; }

  size_t NumWays;
  size_t SetMask;
  std::vector<Key> Keys; ///< Index = set * NumWays + way, as for the rest.
  std::vector<uint8_t> Valid;
  std::vector<uint64_t> Stamps;
  std::vector<Payload> Payloads;
  size_t Occupied = 0;
  uint64_t Clock = 0;
};

} // namespace trident

#endif // TRIDENT_SUPPORT_LRUTABLE_H

//===- PrefetchBuffer.h - Shared prefetched-line store ---------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fully-associative store of prefetched lines shared by the
/// arsenal prefetchers (enhanced-stream, DCPT, T-SKID). Models the
/// prefetch buffer real units drain demand hits from: fetch() issues a
/// line through the MemoryBackend unless it is already buffered, take()
/// consumes it on a probe hit. Replacement is FIFO over a fixed ring, so
/// the per-miss path never touches the allocator and occupancy never
/// exceeds Capacity.
///
/// Storage is packed for the per-miss scans: line addresses and ready
/// cycles live in two parallel arrays, and a free slot holds the all-ones
/// address, which no line-aligned address can equal. A lookup is one pass
/// over the address array with no separate valid bit to test. A line
/// occupies at most one slot: insert() refreshes a buffered line in place
/// and fetch() skips one.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_HWPF_PREFETCHBUFFER_H
#define TRIDENT_HWPF_PREFETCHBUFFER_H

#include "mem/MemorySystem.h"
#include "support/Check.h"

#include <optional>
#include <vector>

namespace trident {

class PrefetchBuffer {
public:
  /// \p Capacity slots, allocated once; the ring never regrows.
  explicit PrefetchBuffer(unsigned Capacity)
      : Lines(Capacity == 0 ? 1 : Capacity, FreeSlot), Ready(Lines.size()) {}

  bool contains(Addr LineAddr) const { return find(LineAddr) != NotFound; }

  /// Consumes \p LineAddr if present, returning its data-ready cycle.
  std::optional<Cycle> take(Addr LineAddr) {
    const unsigned I = find(LineAddr);
    if (I == NotFound)
      return std::nullopt;
    Lines[I] = FreeSlot;
    return Ready[I];
  }

  /// Records a prefetched line; evicts the oldest entry when full. A
  /// duplicate insert refreshes the existing slot in place.
  void insert(Addr LineAddr, Cycle ReadyAt) {
    const unsigned I = find(LineAddr);
    if (I != NotFound) {
      Ready[I] = ReadyAt;
      return;
    }
    place(LineAddr, ReadyAt);
  }

  /// Issues a hardware prefetch of \p LineAddr through \p BE and buffers
  /// it, unless the line is already buffered; returns true when a fill was
  /// issued. The units' one contains -> fetchBeyondL1 -> insert path, done
  /// with a single scan.
  bool fetch(Addr LineAddr, Cycle Now, MemoryBackend &BE) {
    if (find(LineAddr) != NotFound)
      return false;
    place(LineAddr,
          BE.fetchBeyondL1(LineAddr, Now, AccessKind::HardwarePrefetch));
    return true;
  }

  void clear() {
    for (Addr &L : Lines)
      L = FreeSlot;
    Hand = 0;
  }

  unsigned capacity() const { return static_cast<unsigned>(Lines.size()); }

private:
  /// Marks a free slot. Line addresses are line-aligned, so never all ones.
  static constexpr Addr FreeSlot = ~static_cast<Addr>(0);
  static constexpr unsigned NotFound = ~0u;

  unsigned find(Addr LineAddr) const {
    TRIDENT_DCHECK(LineAddr != FreeSlot, "line address is the free marker");
    for (unsigned I = 0; I < Lines.size(); ++I)
      if (Lines[I] == LineAddr)
        return I;
    return NotFound;
  }

  /// Writes \p LineAddr into the FIFO slot, evicting whatever it held.
  void place(Addr LineAddr, Cycle ReadyAt) {
    Lines[Hand] = LineAddr;
    Ready[Hand] = ReadyAt;
    if (++Hand == capacity())
      Hand = 0;
  }

  /// Fixed Capacity slots; Hand is the FIFO replacement cursor.
  std::vector<Addr> Lines;
  std::vector<Cycle> Ready;
  unsigned Hand = 0;
};

} // namespace trident

#endif // TRIDENT_HWPF_PREFETCHBUFFER_H

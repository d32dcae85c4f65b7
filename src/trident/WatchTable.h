//===- WatchTable.h - Hot-trace performance monitor ------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trident's watch table (Table 2: 256 entries) monitors the hot traces
/// currently linked into execution. Per the paper it records the trace
/// starting PC, length, the *minimal* execution time observed for the
/// trace (used to compute a load's maximal prefetch distance, Section
/// 3.5.2), and the trace optimization flag that suppresses duplicate
/// re-optimization events while the helper thread works on the trace.
/// We additionally keep the running average iteration time, which the
/// "basic" (non-adaptive) distance estimator divides into the average
/// miss latency (Section 3.5, equation 2).
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_TRIDENT_WATCHTABLE_H
#define TRIDENT_TRIDENT_WATCHTABLE_H

#include "isa/Instruction.h"
#include "support/LruTable.h"
#include "support/Types.h"

#include <cstdint>

namespace trident {

struct WatchEntry {
  uint32_t TraceId = 0;
  Addr OrigStart = 0;  ///< Loop-head PC in the original binary.
  Addr TraceStart = 0; ///< Code-cache address of the trace body.
  unsigned Length = 0;
  /// Minimal observed head-to-head iteration time (best case: all hits).
  Cycle MinExecTime = ~static_cast<Cycle>(0);
  /// Running average iteration time (for the basic distance estimate).
  uint64_t IterTimeSum = 0;
  uint64_t IterCount = 0;
  /// Set while the helper thread is re-optimizing this trace.
  bool OptInProgress = false;

  bool hasTiming() const { return IterCount > 0; }
  double avgExecTime() const {
    return IterCount == 0 ? 0.0
                          : static_cast<double>(IterTimeSum) /
                                static_cast<double>(IterCount);
  }
};

/// One fully associative set of LRU-replaced entries keyed by trace id.
class WatchTable {
public:
  explicit WatchTable(unsigned NumEntries = 256);

  /// Registers a linked trace; evicts the least recently used entry if
  /// full. Returns false, and only touches the entry, if one for the same
  /// TraceId already exists.
  bool insert(uint32_t TraceId, Addr OrigStart, Addr TraceStart,
              unsigned Length);

  /// Removes the entry for \p TraceId (trace unlinked/replaced).
  void remove(uint32_t TraceId) { Entries.erase(TraceId); }

  /// The entry for \p TraceId, made the most recently used, or null.
  WatchEntry *find(uint32_t TraceId) { return Entries.touch(TraceId); }

  /// Finds the entry whose *original* start PC is \p OrigStart.
  WatchEntry *findByOrigStart(Addr OrigStart);

  /// Records one observed head-to-head iteration of \p TraceId.
  void recordIteration(uint32_t TraceId, Cycle IterTime);

  unsigned size() const { return static_cast<unsigned>(Entries.size()); }
  unsigned capacity() const {
    return static_cast<unsigned>(Entries.capacity());
  }

  /// Invalidates every entry (fault-injection hook, src/faults). The
  /// runtime tolerates missing watch entries everywhere — timing simply
  /// re-accumulates — so eviction models an SRAM upset safely. Returns
  /// the number of valid entries cleared.
  unsigned invalidateAll() { return static_cast<unsigned>(Entries.clear()); }

private:
  LruTable<uint32_t, WatchEntry> Entries;
};

} // namespace trident

#endif // TRIDENT_TRIDENT_WATCHTABLE_H

//===- WatchTable.cpp -----------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "trident/WatchTable.h"
#include "support/Check.h"

#include <optional>

using namespace trident;

/// \p NumEntries, once it is known to be a plausible table size.
static unsigned validated(unsigned NumEntries) {
  TRIDENT_CHECK(NumEntries > 0, "watch table needs at least one entry");
  TRIDENT_CHECK(NumEntries <= 1u << 20,
                "watch table size %u is implausible for an SRAM structure",
                NumEntries);
  return NumEntries;
}

WatchTable::WatchTable(unsigned NumEntries)
    : Entries(/*Sets=*/1, validated(NumEntries)) {}

bool WatchTable::insert(uint32_t TraceId, Addr OrigStart, Addr TraceStart,
                        unsigned Length) {
  if (Entries.touch(TraceId))
    return false;
  WatchEntry &E = Entries.insert(TraceId).Value;
  E.TraceId = TraceId;
  E.OrigStart = OrigStart;
  E.TraceStart = TraceStart;
  E.Length = Length;
  return true;
}

WatchEntry *WatchTable::findByOrigStart(Addr OrigStart) {
  std::optional<uint32_t> Id;
  Entries.forEach([&](uint32_t TraceId, const WatchEntry &E) {
    if (!Id && E.OrigStart == OrigStart)
      Id = TraceId;
  });
  return Id ? find(*Id) : nullptr;
}

void WatchTable::recordIteration(uint32_t TraceId, Cycle IterTime) {
  WatchEntry *E = find(TraceId);
  if (!E)
    return;
  if (IterTime < E->MinExecTime)
    E->MinExecTime = IterTime;
  E->IterTimeSum += IterTime;
  ++E->IterCount;
  // The minimum can only fall and stays consistent with the running sum:
  // the Section 3.5.2 distance estimate divides by these numbers.
  TRIDENT_DCHECK(E->MinExecTime * E->IterCount <= E->IterTimeSum,
                 "watch entry %u: min iter time %llu inconsistent with "
                 "sum %llu over %llu iterations",
                 TraceId, (unsigned long long)E->MinExecTime,
                 (unsigned long long)E->IterTimeSum,
                 (unsigned long long)E->IterCount);
}

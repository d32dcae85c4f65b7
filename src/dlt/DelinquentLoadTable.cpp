//===- DelinquentLoadTable.cpp --------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// trident-lint: hot-path (per-access simulation inner loop; no O(n) erase
// scans)
//
//===----------------------------------------------------------------------===//

#include "dlt/DelinquentLoadTable.h"
#include "support/Check.h"

#include <cstdio>
#include <cstdlib>

using namespace trident;

static bool dltDebugEnabled() {
  static const bool E = [] {
    const char *V = std::getenv("TRIDENT_DEBUG_DLT");
    return V && *V && *V != '0';
  }();
  return E;
}

static bool isPowerOfTwo(uint64_t X) { return X && (X & (X - 1)) == 0; }

std::string DltConfig::invalidReason() const {
  if (Assoc < 1 || NumEntries % Assoc != 0)
    return std::to_string(NumEntries) + " DLT entries must divide evenly "
           "into " + std::to_string(Assoc) + "-way sets";
  if (!isPowerOfTwo(NumEntries / Assoc))
    return "DLT set count " + std::to_string(NumEntries / Assoc) +
           " must be a power of two";
  if (MissThreshold > MonitorWindow)
    return "miss threshold " + std::to_string(MissThreshold) +
           " cannot exceed the " + std::to_string(MonitorWindow) +
           "-access window";
  return "";
}

/// \p C, once it is known to build a table.
static const DltConfig &validated(const DltConfig &C) {
  const std::string Why = C.invalidReason();
  TRIDENT_CHECK(Why.empty(), "%s", Why.c_str());
  return C;
}

DelinquentLoadTable::DelinquentLoadTable(const DltConfig &Cfg)
    : Config(validated(Cfg)),
      Entries(Config.NumEntries / Config.Assoc, Config.Assoc) {}

bool DelinquentLoadTable::meetsDelinquencyCriteria(const Payload &P) const {
  if (P.Misses < Config.MissThreshold)
    return false;
  double AvgMissLat = static_cast<double>(P.TotalMissLatency) / P.Misses;
  return AvgMissLat > static_cast<double>(Config.LatencyThreshold);
}

bool DelinquentLoadTable::update(Addr LoadPC, Addr EffectiveAddr, bool Miss,
                                 unsigned MissLatency) {
  ++Stats.Updates;
  const auto Slot = Entries.touchOrInsert(LoadPC);
  Stats.Replacements += Slot.Evicted.has_value();
  Payload &E = Slot.Value;

  // Stride prediction state updates on *every* committed instance of the
  // load, independent of the window counters (Section 3.3).
  if (E.HaveLastAddr) {
    int64_t NewStride = addrDelta(EffectiveAddr, E.LastAddr);
    if (NewStride == E.Stride)
      E.StrideConf.add(1);
    else
      E.StrideConf.add(-7);
    E.Stride = NewStride;
  }
  E.LastAddr = EffectiveAddr;
  E.HaveLastAddr = true;

  if (E.Frozen)
    return false; // Waiting for the helper thread to clear the window.

  ++E.Accesses;
  // Window-counter sanity: counters reset at every window boundary, so an
  // unfrozen entry can never run past the window, and a window can never
  // see more misses than accesses.
  TRIDENT_DCHECK(E.Accesses <= Config.MonitorWindow,
                 "DLT window overran: %u accesses in a %u-access window "
                 "(pc 0x%llx)",
                 E.Accesses, Config.MonitorWindow,
                 (unsigned long long)LoadPC);
  TRIDENT_DCHECK(E.Misses < E.Accesses,
                 "DLT entry for pc 0x%llx counts %u misses in %u accesses",
                 (unsigned long long)LoadPC, E.Misses, E.Accesses);
  if (Miss) {
    ++E.Misses;
    E.TotalMissLatency += MissLatency;
  }

  // Early exit inside the window: the miss counter can only be judged at
  // the window boundary (miss *rate* needs the full denominator).
  if (E.Accesses < Config.MonitorWindow)
    return false;

  ++Stats.WindowsCompleted;
  if (dltDebugEnabled())
    std::fprintf(stderr,
                 "[dlt] window pc=0x%llx misses=%u avg=%.1f mature=%d -> %s\n",
                 (unsigned long long)LoadPC, E.Misses,
                 E.Misses ? double(E.TotalMissLatency) / E.Misses : 0.0,
                 E.Mature,
                 (!E.Mature && meetsDelinquencyCriteria(E)) ? "EVENT" : "reset");
  if (!E.Mature && meetsDelinquencyCriteria(E)) {
    // Delinquent: freeze the counters (the helper thread reads and then
    // clears them) and raise the event.
    E.Frozen = true;
    ++Stats.Events;
    return true;
  }

  // Not delinquent (or mature): reset and keep monitoring.
  E.Accesses = 0;
  E.Misses = 0;
  E.TotalMissLatency = 0;
  return false;
}

std::optional<DltSnapshot> DelinquentLoadTable::lookup(Addr LoadPC) const {
  const Payload *Found = Entries.find(LoadPC);
  if (!Found)
    return std::nullopt;
  const Payload &P = *Found;
  DltSnapshot S;
  S.LoadPC = LoadPC;
  S.Accesses = P.Accesses;
  S.Misses = P.Misses;
  S.TotalMissLatency = P.TotalMissLatency;
  S.Stride = P.Stride;
  S.StridePredictable = P.StrideConf.value() >= Config.StrideConfidentAt;
  S.Mature = P.Mature;
  return S;
}

bool DelinquentLoadTable::isDelinquent(Addr LoadPC) const {
  const Payload *Found = Entries.find(LoadPC);
  if (!Found || Found->Mature)
    return false;
  const Payload &P = *Found;
  if (P.Misses == 0)
    return false;
  double AvgMissLat = static_cast<double>(P.TotalMissLatency) / P.Misses;
  if (AvgMissLat <= static_cast<double>(Config.LatencyThreshold))
    return false;
  // Partial-window scaling (Section 3.4.1): judge the miss *rate* using
  // the accesses seen so far rather than the full window.
  if (P.Accesses >= Config.MonitorWindow)
    return P.Misses >= Config.MissThreshold;
  double RateThreshold = static_cast<double>(Config.MissThreshold) /
                         static_cast<double>(Config.MonitorWindow);
  // Require a minimum sample so one early miss does not classify.
  if (P.Accesses < Config.MonitorWindow / 8)
    return false;
  return static_cast<double>(P.Misses) / P.Accesses >= RateThreshold;
}

void DelinquentLoadTable::clearWindow(Addr LoadPC) {
  Payload *Found = Entries.find(LoadPC);
  if (!Found)
    return;
  Payload &P = *Found;
  P.Accesses = 0;
  P.Misses = 0;
  P.TotalMissLatency = 0;
  P.Frozen = false;
}

void DelinquentLoadTable::forceMature(Addr LoadPC) {
  const auto Slot = Entries.touchOrInsert(LoadPC);
  Stats.Replacements += Slot.Evicted.has_value();
  Payload &P = Slot.Value;
  P.Mature = true;
  P.Accesses = 0;
  P.Misses = 0;
  P.TotalMissLatency = 0;
  P.Frozen = false;
}

uint64_t DelinquentLoadTable::clearAllMature() {
  uint64_t N = 0;
  Entries.forEach([&N](Addr, Payload &P) {
    N += P.Mature;
    P.Mature = false;
  });
  return N;
}

uint64_t DelinquentLoadTable::invalidateAll() { return Entries.clear(); }

void DelinquentLoadTable::setMature(Addr LoadPC, bool Mature) {
  Payload *Found = Entries.find(LoadPC);
  if (!Found)
    return;
  Payload &P = *Found;
  P.Mature = Mature;
  if (Mature) {
    P.Accesses = 0;
    P.Misses = 0;
    P.TotalMissLatency = 0;
    P.Frozen = false;
  }
}

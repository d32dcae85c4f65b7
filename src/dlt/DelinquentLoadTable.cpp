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
#include "support/StatRegistry.h"
#include "support/Check.h"

#include <cstdio>
#include <cstdlib>

using namespace trident;

void DltStats::registerInto(StatRegistry &R, const std::string &Prefix) const {
  R.setCounter(Prefix + "updates", Updates);
  R.setCounter(Prefix + "events", Events);
  R.setCounter(Prefix + "windows_completed", WindowsCompleted);
  R.setCounter(Prefix + "replacements", Replacements);
}

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

DelinquentLoadTable::DelinquentLoadTable(const DltConfig &Cfg) : Config(Cfg) {
  const std::string Why = Config.invalidReason();
  TRIDENT_CHECK(Why.empty(), "%s", Why.c_str());
  NumSets = Config.NumEntries / Config.Assoc;
  TagsArr.resize(Config.NumEntries, 0);
  ValidArr.resize(Config.NumEntries, 0);
  Payloads.resize(Config.NumEntries);
}

size_t DelinquentLoadTable::find(Addr PC) const {
  size_t Base = setIndex(PC) * Config.Assoc;
  for (unsigned W = 0; W < Config.Assoc; ++W)
    if (ValidArr[Base + W] && TagsArr[Base + W] == PC)
      return Base + W;
  return NoEntry;
}

size_t DelinquentLoadTable::findOrAllocate(Addr PC) {
  if (size_t I = find(PC); I != NoEntry) {
    Payloads[I].LastUse = ++UseClock;
    return I;
  }
  size_t Base = setIndex(PC) * Config.Assoc;
  // Size bound: the DLT is a fixed SRAM structure (Table 2); every set
  // must lie inside the backing array or replacement state is corrupt.
  TRIDENT_DCHECK(Base + Config.Assoc <= TagsArr.size(),
                 "DLT set for pc 0x%llx overruns the table (base %zu + %u > "
                 "%zu entries)",
                 (unsigned long long)PC, Base, Config.Assoc, TagsArr.size());
  size_t Victim = Base;
  for (unsigned W = 0; W < Config.Assoc; ++W) {
    size_t I = Base + W;
    if (!ValidArr[I]) {
      Victim = I;
      break;
    }
    if (Payloads[I].LastUse < Payloads[Victim].LastUse)
      Victim = I;
  }
  if (ValidArr[Victim])
    ++Stats.Replacements;
  Payloads[Victim] = Payload();
  ValidArr[Victim] = 1;
  TagsArr[Victim] = PC;
  Payloads[Victim].LastUse = ++UseClock;
  return Victim;
}

bool DelinquentLoadTable::meetsDelinquencyCriteria(const Payload &P) const {
  if (P.Misses < Config.MissThreshold)
    return false;
  double AvgMissLat = static_cast<double>(P.TotalMissLatency) / P.Misses;
  return AvgMissLat > static_cast<double>(Config.LatencyThreshold);
}

bool DelinquentLoadTable::update(Addr LoadPC, Addr EffectiveAddr, bool Miss,
                                 unsigned MissLatency) {
  ++Stats.Updates;
  Payload &E = Payloads[findOrAllocate(LoadPC)];

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
  size_t I = find(LoadPC);
  if (I == NoEntry)
    return std::nullopt;
  const Payload &P = Payloads[I];
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
  size_t I = find(LoadPC);
  if (I == NoEntry || Payloads[I].Mature)
    return false;
  const Payload &P = Payloads[I];
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
  size_t I = find(LoadPC);
  if (I == NoEntry)
    return;
  Payload &P = Payloads[I];
  P.Accesses = 0;
  P.Misses = 0;
  P.TotalMissLatency = 0;
  P.Frozen = false;
}

void DelinquentLoadTable::forceMature(Addr LoadPC) {
  Payload &P = Payloads[findOrAllocate(LoadPC)];
  P.Mature = true;
  P.Accesses = 0;
  P.Misses = 0;
  P.TotalMissLatency = 0;
  P.Frozen = false;
}

uint64_t DelinquentLoadTable::clearAllMature() {
  uint64_t N = 0;
  for (size_t I = 0; I < Payloads.size(); ++I) {
    if (ValidArr[I] && Payloads[I].Mature) {
      Payloads[I].Mature = false;
      ++N;
    }
  }
  return N;
}

uint64_t DelinquentLoadTable::invalidateAll() {
  uint64_t N = 0;
  for (size_t I = 0; I < Payloads.size(); ++I) {
    if (ValidArr[I]) {
      ValidArr[I] = 0;
      TagsArr[I] = 0;
      Payloads[I] = Payload();
      ++N;
    }
  }
  return N;
}

void DelinquentLoadTable::setMature(Addr LoadPC, bool Mature) {
  size_t I = find(LoadPC);
  if (I == NoEntry)
    return;
  Payload &P = Payloads[I];
  P.Mature = Mature;
  if (Mature) {
    P.Accesses = 0;
    P.Misses = 0;
    P.TotalMissLatency = 0;
    P.Frozen = false;
  }
}

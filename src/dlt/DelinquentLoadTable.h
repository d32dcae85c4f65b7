//===- DelinquentLoadTable.h - The DLT monitoring structure ----*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Delinquent Load Table of Section 3.3 / Table 2: a 2-way associative,
/// LRU-replaced table tagged by load PC that tracks, per load within a hot
/// trace: an access counter, an L1 miss counter, the total miss latency,
/// the last effective address, the last stride with a 4-bit confidence
/// counter (+1 on matching stride, -7 otherwise; stride-predictable at 15),
/// and a prefetch-mature flag.
///
/// Within each monitoring window of N accesses (default 256) a load is
/// delinquent iff its miss counter reaches the miss threshold (default 8,
/// i.e. a 3% miss rate) and its average miss latency exceeds half the L2
/// miss latency. A delinquent verdict at the window boundary raises a
/// delinquent-load event; otherwise the window counters reset and
/// monitoring continues. After an event the counters freeze until the
/// helper thread clears them during optimization.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_DLT_DELINQUENTLOADTABLE_H
#define TRIDENT_DLT_DELINQUENTLOADTABLE_H

#include "isa/Instruction.h"
#include "support/Fields.h"
#include "support/LruTable.h"
#include "support/SaturatingCounter.h"
#include "support/Types.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace trident {

struct DltConfig {
  unsigned NumEntries = 1024;
  unsigned Assoc = 2;
  /// N: the load monitoring window, in accesses.
  unsigned MonitorWindow = 256;
  /// Misses within a window needed for delinquency (8/256 ~ 3%).
  unsigned MissThreshold = 8;
  /// Average miss latency must exceed "half of the L2 miss latency"
  /// (Section 3.3) — the cost of missing in the L2 is the L3 hit latency
  /// (35 cycles, Table 1), so the threshold filters out loads that are
  /// effectively served by the L2/L3 and keeps those that stall the
  /// pipeline for longer.
  unsigned LatencyThreshold = 12;
  /// Stride confidence value at which a load is stride-predictable.
  int StrideConfidentAt = 15;

  static DltConfig baseline() { return DltConfig(); }
  static constexpr auto fields() {
    return std::tuple(Field{"num_entries", &DltConfig::NumEntries},
                      Field{"assoc", &DltConfig::Assoc},
                      Field{"monitor_window", &DltConfig::MonitorWindow},
                      Field{"miss_threshold", &DltConfig::MissThreshold},
                      Field{"latency_threshold", &DltConfig::LatencyThreshold},
                      Field{"stride_confident_at",
                            &DltConfig::StrideConfidentAt});
  }
  /// Why no table can be built with this geometry and window, or "" when
  /// one can. The table's constructor CHECKs it; front ends call it to
  /// reject bad input before building a machine.
  std::string invalidReason() const;
};

/// Read-only view of one DLT entry for the optimizer.
struct DltSnapshot {
  Addr LoadPC = 0;
  uint32_t Accesses = 0;
  uint32_t Misses = 0;
  uint64_t TotalMissLatency = 0;
  int64_t Stride = 0;
  bool StridePredictable = false;
  bool Mature = false;

  double missRate() const {
    return Accesses == 0 ? 0.0
                         : static_cast<double>(Misses) / Accesses;
  }
  double avgMissLatency() const {
    return Misses == 0 ? 0.0
                       : static_cast<double>(TotalMissLatency) / Misses;
  }
  /// Average per-access latency penalty; the quantity the self-repairing
  /// optimizer tracks to decide whether a distance bump helped
  /// (Section 3.5.2).
  double avgAccessLatency() const {
    return Accesses == 0 ? 0.0
                         : static_cast<double>(TotalMissLatency) / Accesses;
  }
};

struct DltStats {
  uint64_t Updates = 0;
  uint64_t Events = 0;
  uint64_t WindowsCompleted = 0;
  uint64_t Replacements = 0;

  /// Registry names, under "dlt.".
  static constexpr auto fields() {
    return std::tuple(Field{"updates", &DltStats::Updates},
                      Field{"events", &DltStats::Events},
                      Field{"windows_completed", &DltStats::WindowsCompleted},
                      Field{"replacements", &DltStats::Replacements});
  }
};

class DelinquentLoadTable {
public:
  explicit DelinquentLoadTable(const DltConfig &Config);

  /// Records one committed hot-trace load. \p Miss is true for any access
  /// the L1 could not serve at hit latency; \p MissLatency is the exposed
  /// latency beyond the L1 hit time. Returns true when the update raises a
  /// delinquent-load event.
  bool update(Addr LoadPC, Addr EffectiveAddr, bool Miss,
              unsigned MissLatency);

  /// Optimizer-side lookup; returns current (possibly partial-window)
  /// counters, or nullopt when the load is not resident.
  std::optional<DltSnapshot> lookup(Addr LoadPC) const;

  /// The Section 3.4.1 test the optimizer applies to *other* loads in the
  /// trace: delinquent by current counters, scaled for a partial window.
  bool isDelinquent(Addr LoadPC) const;

  /// Clears the window counters of \p LoadPC (the helper thread does this
  /// as part of optimization) and unfreezes monitoring.
  void clearWindow(Addr LoadPC);

  /// Sets or clears the prefetch-mature flag. A mature load never raises
  /// events until its entry is replaced.
  void setMature(Addr LoadPC, bool Mature);

  /// Like setMature(true), but allocates the entry if absent. The
  /// optimizer uses this to pre-mature loads it cannot prefetch at
  /// addresses that have not been monitored yet (e.g. in a freshly
  /// installed trace).
  void forceMature(Addr LoadPC);

  /// Clears every mature flag (the Section 3.5.2 future-work hook: invoked
  /// on a detected working-set/phase change). Returns how many were set.
  uint64_t clearAllMature();

  /// Invalidates every entry (fault-injection hook, src/faults): the
  /// monitoring state a context switch or SRAM upset would destroy. Loads
  /// re-allocate fresh entries — mature flags included — so eviction is
  /// what forces the DLT to re-flag a previously-settled load. Returns
  /// the number of valid entries cleared. Stats are untouched.
  uint64_t invalidateAll();

  const DltConfig &config() const { return Config; }
  const DltStats &stats() const { return Stats; }

private:
  /// Per-entry monitoring state; the tag, valid bit and LRU stamp live in
  /// the table's packed arrays.
  struct Payload {
    uint32_t Accesses = 0;
    uint32_t Misses = 0;
    uint64_t TotalMissLatency = 0;
    Addr LastAddr = 0;
    bool HaveLastAddr = false;
    int64_t Stride = 0;
    FourBitCounter StrideConf;
    bool Mature = false;
    /// Event fired; counters frozen until the helper clears them.
    bool Frozen = false;
  };

  bool meetsDelinquencyCriteria(const Payload &P) const;

  DltConfig Config;
  LruTable<Addr, Payload> Entries;
  DltStats Stats;
};

} // namespace trident

#endif // TRIDENT_DLT_DELINQUENTLOADTABLE_H

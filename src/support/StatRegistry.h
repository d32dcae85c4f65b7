//===- StatRegistry.h - Central named-statistics registry ------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One registry of named counters, gauges, and histograms for the whole
/// machine. Every component (cpu, mem, hwpf, dlt, trident, core) registers
/// its statistics under a dotted prefix at the end of a run, replacing the
/// per-binary hand-flattening of MemStats/RuntimeStats/DltStats that each
/// bench used to do. The registry is a measurement snapshot, not a live
/// counter bank: registration happens once, after the measurement window,
/// so it adds zero cost to the simulation hot path.
///
/// Export determinism (load-bearing): sortedEntries() orders names with a
/// plain byte-wise std::string comparison — no locale, no case folding —
/// and the JSONL writer formats integers as decimal and reals with %.17g,
/// so a given simulation produces byte-identical exports on every run and
/// platform.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SUPPORT_STATREGISTRY_H
#define TRIDENT_SUPPORT_STATREGISTRY_H

#include "support/Fields.h"
#include "support/Statistics.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace trident {

class StatRegistry {
public:
  enum class StatType : uint8_t { Counter, Real, Histogram };

  struct Entry {
    std::string Name;
    StatType Type = StatType::Counter;
    uint64_t U = 0;                ///< Counter value.
    double D = 0.0;                ///< Real value; histogram bucket width.
    std::vector<uint64_t> Buckets; ///< Histogram counts (last = overflow).
  };

  /// Registers (or overwrites) a monotonic counter.
  void setCounter(const std::string &Name, uint64_t Value);
  /// Registers (or overwrites) a real-valued gauge (e.g. an IPC).
  void setReal(const std::string &Name, double Value);
  /// Registers (or overwrites) a histogram snapshot.
  void setHistogram(const std::string &Name, const Histogram &H);
  /// Registers every exported row of the field list of \p Stats (see
  /// support/Fields.h) as the counter \p Prefix + its name.
  template <HasFields S>
  void setCounters(const std::string &Prefix, const S &Stats) {
    forEachField<S>([&](const auto &F) {
      if (F.Name)
        setCounter(Prefix + F.Name, static_cast<uint64_t>(Stats.*F.Member));
    });
  }

  bool has(const std::string &Name) const;
  /// Value of a counter, or 0 if absent / not a counter.
  uint64_t counter(const std::string &Name) const;
  /// Value of a real gauge, or 0.0 if absent / not a real.
  double real(const std::string &Name) const;
  const Entry *find(const std::string &Name) const;

  size_t size() const { return Map.size(); }

  /// Every entry, sorted by name with byte-wise comparison. The stable
  /// order is what makes the exports reproducible across runs, platforms,
  /// and registration order.
  std::vector<const Entry *> sortedEntries() const;

  /// One JSON object per line, sorted by name:
  ///   {"name":"mem.demand_loads","type":"counter","value":12345}
  ///   {"name":"core.ipc","type":"real","value":1.2345}
  ///   {"name":"...","type":"histogram","bucket_width":1,"buckets":[...]}
  std::string toJsonl() const;

  /// Writes toJsonl() to \p Path; returns false on I/O failure.
  bool writeJsonl(const std::string &Path) const;

private:
  Entry &upsert(const std::string &Name, StatType T);

  std::unordered_map<std::string, Entry> Map;
};

} // namespace trident

#endif // TRIDENT_SUPPORT_STATREGISTRY_H

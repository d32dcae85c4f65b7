//===- Tskid.h - Trigger/target timing-aware prefetcher --------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// T-SKID-style timing prefetcher (Sakamoto et al., DPC-3): the unit
/// learns, per *target* load PC, which earlier *trigger* PC's miss
/// reliably precedes it — and by how many cycles (the skid). On a later
/// trigger miss it predicts the target's line (trigger line + learned
/// delta) but does NOT issue immediately: the prefetch sits in a small
/// in-flight pending table until the learned skid has elapsed (minus a
/// lead time to cover the fetch latency), so the line arrives neither
/// early enough to be evicted nor late enough to expose latency. Pending
/// prefetches drain opportunistically on the next training or probe call
/// whose cycle passes their issue time — the event-driven analogue of the
/// original's per-cycle scan, and fully deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_HWPF_TSKID_H
#define TRIDENT_HWPF_TSKID_H

#include "hwpf/PrefetchBuffer.h"
#include "hwpf/PrefetcherRegistry.h"

#include <string>
#include <vector>

namespace trident {

struct TskidConfig {
  /// Trigger-table entries (direct-mapped by trigger PC).
  unsigned NumEntries = 64;
  /// Ring of recent misses scanned for trigger candidates.
  unsigned RecentMissDepth = 8;
  /// Pending (timed, not yet issued) prefetches.
  unsigned PendingDepth = 16;
  /// Prefetched-line buffer capacity.
  unsigned BufferCapacity = 32;
  /// Cycles of fetch latency the issue time is moved up by.
  unsigned LeadCycles = 400;
  /// Skids shorter than this issue immediately (no timing value).
  unsigned MinSkidCycles = 64;

  /// Upper bound of the four table sizes above.
  static constexpr unsigned MaxSize = 1024;
  static constexpr Knob<TskidConfig> Knobs[] = {
      {"entries", &TskidConfig::NumEntries, 1, MaxSize},
      {"recent", &TskidConfig::RecentMissDepth, 1, MaxSize},
      {"pending", &TskidConfig::PendingDepth, 1, MaxSize},
      {"buffer", &TskidConfig::BufferCapacity, 0, MaxSize},
      {"lead", &TskidConfig::LeadCycles},
      {"minskid", &TskidConfig::MinSkidCycles}};

  static TskidConfig baseline() { return TskidConfig(); }
  /// Why no unit can be built from this config, or "" when one can. The
  /// constructor CHECKs it; the registry returns it as the spec error.
  std::string invalidReason() const;
};

/// T-SKID's counters.
struct TskidStats {
  uint64_t ProbeHits = 0;
  uint64_t ProbeMisses = 0;
  uint64_t LinesPrefetched = 0;
  uint64_t TriggersLearned = 0;
  uint64_t DelayedIssues = 0;
  uint64_t FillsObserved = 0;

  /// Counter names, under "hwpf.".
  static constexpr auto fields() {
    return std::tuple(Field{"probe_hits", &TskidStats::ProbeHits},
                      Field{"probe_misses", &TskidStats::ProbeMisses},
                      Field{"lines_prefetched", &TskidStats::LinesPrefetched},
                      Field{"triggers_learned", &TskidStats::TriggersLearned},
                      Field{"delayed_issues", &TskidStats::DelayedIssues},
                      Field{"fills_observed", &TskidStats::FillsObserved});
  }
};

class TskidPrefetcher final : public HwPrefetcher {
public:
  explicit TskidPrefetcher(const TskidConfig &Config);

  // HwPrefetcher interface.
  void trainOnMiss(Addr PC, Addr ByteAddr, Cycle Now,
                   MemoryBackend &BE) override;
  std::optional<Cycle> probe(Addr LineAddr, Cycle Now,
                             MemoryBackend &BE) override;
  bool wantsFillTraining() const override { return true; }
  void trainOnFill(Addr LineAddr, Cycle Ready, AccessKind Kind) override;
  HwPfStats snapshotStats() const override;
  std::string name() const override;

  const TskidConfig &config() const { return Config; }
  /// Pending (scheduled, unissued) prefetches — for tests.
  unsigned numPending() const;

private:
  /// One learned trigger -> target association.
  struct TriggerEntry {
    bool Valid = false;
    Addr TriggerPC = 0;   ///< tag for the direct-mapped slot
    int64_t BlockDelta = 0; ///< target line - trigger line, in blocks
    Cycle Skid = 0;       ///< observed trigger-miss -> target-miss gap
  };

  /// Recent demand misses, scanned to discover trigger candidates.
  struct RecentMiss {
    bool Valid = false;
    Addr PC = 0;
    uint64_t Block = 0;
    Cycle At = 0;
  };

  /// A predicted prefetch waiting for its learned issue time.
  struct PendingPrefetch {
    bool Valid = false;
    Addr LineAddr = 0;
    Cycle IssueAt = 0;
  };

  static constexpr Cycle NeverDue = ~static_cast<Cycle>(0);

  void drainPending(Cycle Now, MemoryBackend &BE);
  void schedule(Addr LineAddr, Cycle IssueAt, Cycle Now, MemoryBackend &BE);

  TskidConfig Config;
  /// All three tables are fixed-size rings/arrays allocated at
  /// construction from the config bounds.
  std::vector<TriggerEntry> Triggers;
  std::vector<RecentMiss> Recent;
  std::vector<PendingPrefetch> Pending;
  /// No valid Pending entry is due before this cycle. schedule() lowers
  /// it; each full drain scan recomputes it. A stale, too-low bound only
  /// costs one needless scan.
  Cycle NextDue = NeverDue;
  unsigned RecentHand = 0;
  PrefetchBuffer Buffer;
  TskidStats Stats;
};

} // namespace trident

#endif // TRIDENT_HWPF_TSKID_H

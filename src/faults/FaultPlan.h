//===- FaultPlan.h - Deterministic fault-injection schedules ---*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FaultPlan is a deterministic, seeded schedule of machine perturbations
/// used to validate the paper's self-repair claim: the prefetcher should
/// keep re-converging even as memory behaviour shifts underneath it. Each
/// FaultAction names a trigger (an absolute cycle, or the N-th published
/// event of some kind), a fault kind (latency spike, cache / DLT / watch
/// eviction, event drop or stall, trace invalidation), and the fault's
/// parameters. Plans are plain data: value-comparable, JSON round-trippable
/// (the `--faults <plan.json>` flag on trident_sim), fingerprintable by the
/// ExperimentRunner memo cache, and generatable from a seed (scattered())
/// so determinism tests can sweep many schedules.
///
/// Determinism contract: a plan contains no randomness at execution time —
/// the same plan against the same machine produces the same injection
/// schedule, cycle for cycle. scattered() is the only RNG consumer and it
/// runs at plan *construction*, seeded explicitly (SplitMix64, per
/// trident-lint rules).
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_FAULTS_FAULTPLAN_H
#define TRIDENT_FAULTS_FAULTPLAN_H

#include "events/HardwareEvent.h"
#include "support/Fields.h"
#include "support/Types.h"

#include <optional>
#include <string>
#include <vector>

namespace trident {

/// What a FaultAction does to the machine when it fires.
enum class FaultKind : uint8_t {
  /// Extra L2/L3-hit and memory-fetch latency for accesses whose line
  /// address falls in [RangeLo, RangeHi]. Reverted after DurationCycles
  /// (0 = permanent).
  LatencySpike,
  /// Invalidate every cache line (all levels) overlapping the range.
  EvictCaches,
  /// Invalidate every Delinquent Load Table entry.
  EvictDlt,
  /// Invalidate every watch-table entry.
  EvictWatchTable,
  /// Force the next Count enqueue attempts at the EventQueue to drop.
  DropEvents,
  /// Stall EventQueue dispatch (events delay, overflow drops) for
  /// DurationCycles (0 = permanent).
  StallQueue,
  /// Unlink every installed code-cache trace (restore the entry patches,
  /// retarget back edges at original code, evict the watch entries).
  InvalidateTraces,
  NumKinds, ///< Sentinel; not a real fault.
};

inline constexpr unsigned kNumFaultKinds =
    static_cast<unsigned>(FaultKind::NumKinds);

/// Stable export/JSON name of a fault kind.
const char *faultKindName(FaultKind K);

/// Inverse of faultKindName(); false when \p Name matches no kind.
bool faultKindFromName(const std::string &Name, FaultKind &K);

/// When a FaultAction fires.
enum class FaultTrigger : uint8_t {
  /// First observed event with Time >= At (absolute cycle, warmup
  /// included — the injector has no clock of its own).
  AtCycle,
  /// The At-th delivered event of kind Counted (1-based).
  AtEventCount,
};

/// One scheduled perturbation.
struct FaultAction {
  FaultTrigger Trigger = FaultTrigger::AtCycle;
  /// Trigger cycle (AtCycle) or 1-based event ordinal (AtEventCount).
  uint64_t At = 0;
  /// Event kind counted by AtEventCount triggers.
  EventKind Counted = EventKind::Commit;

  FaultKind Kind = FaultKind::LatencySpike;
  /// Byte-address range the fault applies to (LatencySpike, EvictCaches);
  /// inclusive. Defaults cover the whole address space.
  Addr RangeLo = 0;
  Addr RangeHi = ~static_cast<Addr>(0);
  /// LatencySpike: extra cycles on memory fetches / on L2+L3 hits.
  unsigned ExtraMemLatency = 0;
  unsigned ExtraL2Latency = 0;
  /// LatencySpike / StallQueue: cycles until the fault reverts (0 = never).
  Cycle DurationCycles = 0;
  /// DropEvents: number of enqueue attempts to force-drop.
  uint64_t Count = 1;

  bool operator==(const FaultAction &) const = default;
  static constexpr auto fields() {
    using A = FaultAction;
    return std::tuple(
        Field{"trigger", &A::Trigger}, Field{"at", &A::At},
        Field{"counted", &A::Counted}, Field{"kind", &A::Kind},
        Field{"range_lo", &A::RangeLo}, Field{"range_hi", &A::RangeHi},
        Field{"extra_mem_latency", &A::ExtraMemLatency},
        Field{"extra_l2_latency", &A::ExtraL2Latency},
        Field{"duration_cycles", &A::DurationCycles},
        Field{"count", &A::Count});
  }
};

/// A full, ordered fault schedule.
struct FaultPlan {
  /// Identifies the plan (scattered() generation seed; 0 for hand-written
  /// plans). Folded into the ExperimentRunner config fingerprint.
  uint64_t Seed = 0;
  std::vector<FaultAction> Actions;

  bool empty() const { return Actions.empty(); }
  bool operator==(const FaultPlan &) const = default;
  static constexpr auto fields() {
    return std::tuple(Field{"seed", &FaultPlan::Seed},
                      Field{"actions", &FaultPlan::Actions});
  }

  /// Serializes the plan to the canonical JSON schema (see DESIGN.md §11).
  std::string toJson() const;

  /// Parses a plan from JSON. Returns nullopt on malformed input and, when
  /// \p Error is non-null, stores a one-line diagnostic.
  static std::optional<FaultPlan> parseJson(const std::string &Text,
                                            std::string *Error = nullptr);

  /// Deterministically generates \p NumActions pseudo-random actions with
  /// trigger cycles in [1, MaxCycle]. Same seed => same plan, bit for bit.
  static FaultPlan scattered(uint64_t Seed, unsigned NumActions,
                             Cycle MaxCycle);
};

} // namespace trident

#endif // TRIDENT_FAULTS_FAULTPLAN_H

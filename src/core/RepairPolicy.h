//===- RepairPolicy.h - The self-repairing prefetch distance ----*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution, Sections 3.5.1-3.5.2, as pure functions: a
/// self-repairing group starts at distance 1, each delinquent-load event
/// of a covered load moves the group's distance by one, up to the
/// group's maximal distance, and a load matures once it has spent a
/// repair budget of twice that maximum.
///
/// Each function maps one load's repair state, its group's distance and
/// maximal distance, the load's observed average access latency and the
/// mode's seed distance to a RepairDecision: the load's new state, the
/// group's new distance and the reason. The policy reads no config, table
/// or statistic; TridentRuntime gathers the inputs and carries the
/// decision out (slot patches, DLT maturing, counters).
///
/// Where this rule departs from the paper's text (the +-5% hysteresis,
/// settle-on-best, the regime restart and the re-open) is pinned against a
/// paper-literal rule in core_test's RepairPolicy table.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_CORE_REPAIRPOLICY_H
#define TRIDENT_CORE_REPAIRPOLICY_H

#include <cstdint>

namespace trident {

/// Per-covered-load repair bookkeeping ("the optimizer always maintains
/// relevant information from all delinquent loads, such as the number of
/// repairs left ... and the average access latency history", Section
/// 3.5.2). Kept per load: triggers from different loads of one group must
/// not be compared against each other's latency history. Only the
/// functions below write it.
struct LoadRepairState {
  int RepairsLeft = 0;
  double LastAvgAccessLatency = -1.0;
  /// Direction of the previous distance adjustment (+1/-1). Repair is a
  /// 1-D hill climb: keep moving while the latency improves, reverse when
  /// it clearly worsens. (A naive "decrement whenever latency rose"
  /// cascades to distance 1: each decrement worsens latency, which the
  /// rule reads as another decrement.)
  int LastMove = +1;
  /// Best observation so far; restored when the repair budget expires.
  double BestAvgAccessLatency = -1.0;
  int BestDistance = 1;
  bool Mature = false;
};

/// Why a decision changed a load's state.
enum class RepairReason : uint8_t {
  Climb,         ///< +1: the latency did not clearly rise.
  BackOff,       ///< -1: it clearly rose, or a decrement clearly helped.
  RegimeRestart, ///< It collapsed: back to the seed with a fresh budget.
  Settle,        ///< Budget spent: the best distance seen, and mature.
  Reopen,        ///< A settled load was flagged again: a fresh budget.
  PhaseReset,    ///< A phase change: un-mature with a smaller budget.
  Mature,        ///< Not repairable: mature so it stops raising events.
};

const char *repairReasonName(RepairReason R);

/// Everything one decision reads.
struct RepairInputs {
  LoadRepairState State;
  int Distance = 1;    ///< The group's current distance.
  int MaxDistance = 1; ///< The group's maximal distance.
  /// The load's average access latency over its last DLT window; 0 when
  /// the DLT holds no entry for it.
  double AvgAccessLatency = 0.0;
  /// Where a re-seeded climb starts (the mode's seed distance).
  int SeedDistance = 1;
  /// Whether every load of the group had settled.
  bool GroupSettled = false;
};

struct RepairDecision {
  RepairReason Reason = RepairReason::Climb;
  LoadRepairState State; ///< The load's new state.
  int OldDistance = 1;   ///< The group's distance before.
  int Distance = 1;      ///< The group's new distance.
  double AvgAccessLatency = 0.0; ///< The observation decided on.
};

namespace repair {

/// Section 3.5.1: a self-repairing group starts at distance 1.
inline constexpr int StartDistance = 1;

/// One of the rules below that decide on a covered load.
using Rule = RepairDecision (*)(const RepairInputs &);

/// The state of a load when it is first covered: "when a load is first
/// optimized, we set a repair counter for the load to [twice the maximal
/// distance]".
LoadRepairState begin(int MaxDistance);

/// One delinquent-load event of an unsettled load: a regime restart, a
/// +-1 climb step, or, on the last budget unit, a settle.
RepairDecision step(const RepairInputs &In);

/// A settled load flagged again: a fresh budget and history. The group's
/// distance is re-seeded only when every load of the group had settled;
/// otherwise another load is still climbing it.
RepairDecision reopen(const RepairInputs &In);

/// A program phase change un-matures a settled load with a budget of at
/// least the maximal distance, and forgets its last observation.
RepairDecision phaseReset(const RepairInputs &In);

/// A covered load whose distance is not repaired (a pointer-only group
/// or a fixed-distance mode) matures at its first event.
RepairDecision mature(const RepairInputs &In);

} // namespace repair
} // namespace trident

#endif // TRIDENT_CORE_REPAIRPOLICY_H

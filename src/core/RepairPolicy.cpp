//===- RepairPolicy.cpp ---------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/RepairPolicy.h"

#include <algorithm>

using namespace trident;

const char *trident::repairReasonName(RepairReason R) {
  switch (R) {
  case RepairReason::Climb:
    return "climb";
  case RepairReason::BackOff:
    return "back-off";
  case RepairReason::RegimeRestart:
    return "regime-restart";
  case RepairReason::Settle:
    return "settle";
  case RepairReason::Reopen:
    return "reopen";
  case RepairReason::PhaseReset:
    return "phase-reset";
  case RepairReason::Mature:
    return "mature";
  }
  return "<bad>";
}

namespace {

/// A decision that sets the load's state to \p S and the group's distance
/// to \p Distance.
RepairDecision decide(const RepairInputs &In, RepairReason Reason,
                      const LoadRepairState &S, int Distance) {
  RepairDecision D;
  D.Reason = Reason;
  D.State = S;
  D.OldDistance = In.Distance;
  D.Distance = Distance;
  D.AvgAccessLatency = In.AvgAccessLatency;
  return D;
}

/// A climb from \p Distance with no latency history and \p Budget left.
LoadRepairState freshClimb(int Budget, int Distance) {
  LoadRepairState S;
  S.RepairsLeft = Budget;
  S.BestDistance = Distance;
  return S;
}

} // namespace

LoadRepairState repair::begin(int MaxDistance) {
  LoadRepairState S;
  S.RepairsLeft = 2 * MaxDistance;
  return S;
}

RepairDecision repair::step(const RepairInputs &In) {
  LoadRepairState S = In.State;
  const double Cur = In.AvgAccessLatency;

  // A downward latency regime shift: the observation collapsed to under a
  // quarter of the previous one (with an absolute floor so cache-hit-level
  // noise cannot trigger it). The climb is deliberately biased upward, so
  // without this it can never descend from a distance tuned for a regime
  // that no longer exists; restart from the mode's seed with a fresh
  // budget instead. Only the downward direction restarts: an upward jump
  // needs a *larger* distance, which the ordinary +1 climb already
  // delivers from the current operating point — and one successful climb
  // step can itself halve the observation, so a looser threshold would
  // read the climb's own progress as a shift. A restart spends no budget.
  if (Cur > 0.0 && (Cur + 25.0) * 4.0 < S.LastAvgAccessLatency)
    return decide(In, RepairReason::RegimeRestart,
                  freshClimb(std::max(S.RepairsLeft, 2 * In.MaxDistance),
                             In.SeedDistance),
                  In.SeedDistance);

  // Cur was observed while running at the current distance.
  if (S.BestAvgAccessLatency < 0.0 || Cur < S.BestAvgAccessLatency) {
    S.BestAvgAccessLatency = Cur;
    S.BestDistance = In.Distance;
  }

  // Per the paper the distance is biased upward ("increases the load's
  // prefetch distance by 1 up to its maximal distance") and backs off when
  // the latency is observed to increase. To stay stable on noisy plateaus:
  // a decrement is only *repeated* while it clearly keeps helping;
  // otherwise the bias returns to +1.
  const bool HaveHistory = S.LastAvgAccessLatency >= 0.0;
  const bool ClearlyWorse =
      HaveHistory && Cur > S.LastAvgAccessLatency * 1.05 + 1.0;
  const bool ClearlyBetter =
      HaveHistory && Cur < S.LastAvgAccessLatency * 0.95 - 1.0;
  const int Move = S.LastMove < 0 ? (ClearlyBetter ? -1 : +1)
                                  : (ClearlyWorse ? -1 : +1);
  const int Stepped = std::clamp(In.Distance + Move, 1, In.MaxDistance);
  S.LastMove = Move;
  S.LastAvgAccessLatency = Cur;

  if (--S.RepairsLeft > 0)
    return decide(In, Move > 0 ? RepairReason::Climb : RepairReason::BackOff,
                  S, Stepped);
  // Budget spent: settle on the best distance this load observed, then
  // stop raising events for it.
  S.Mature = true;
  return decide(In, RepairReason::Settle, S, S.BestDistance);
}

RepairDecision repair::reopen(const RepairInputs &In) {
  // A settled load only re-raises a DelinquentLoad event after its DLT
  // entry was lost (capacity or fault eviction) *and* it re-crossed the
  // delinquency threshold: the memory behaviour its distance settled
  // against is gone. The first re-opened load of a fully settled group
  // also re-seeds the shared distance, so the climb restarts from the
  // seed instead of a distance tuned for the old regime.
  const int Distance = In.GroupSettled ? In.SeedDistance : In.Distance;
  return decide(In, RepairReason::Reopen,
                freshClimb(2 * In.MaxDistance, Distance), Distance);
}

RepairDecision repair::phaseReset(const RepairInputs &In) {
  // A fresh (smaller) budget: enough to re-adapt, not to thrash. The best
  // observation is kept.
  LoadRepairState S = In.State;
  S.Mature = false;
  S.RepairsLeft = std::max(S.RepairsLeft, In.MaxDistance);
  S.LastAvgAccessLatency = -1.0;
  return decide(In, RepairReason::PhaseReset, S, In.Distance);
}

RepairDecision repair::mature(const RepairInputs &In) {
  LoadRepairState S = In.State;
  S.Mature = true;
  return decide(In, RepairReason::Mature, S, In.Distance);
}

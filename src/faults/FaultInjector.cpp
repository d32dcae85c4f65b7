//===- FaultInjector.cpp --------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "faults/FaultInjector.h"

#include "core/TridentRuntime.h"
#include "mem/MemorySystem.h"
#include "support/Check.h"

using namespace trident;

FaultInjector::FaultInjector(const FaultPlan &Plan, FaultTargets T)
    : Targets(T) {
  TRIDENT_CHECK(Targets.Mem != nullptr,
                "fault injector needs a memory system target");
  Actions.reserve(Plan.Actions.size());
  for (const FaultAction &A : Plan.Actions)
    Actions.push_back(ActionState{A, false, false, 0, false, false});
}

void FaultInjector::attach(EventBus &B) {
  EventKindMask Mask = eventMaskOf(EventKind::Commit) |
                       eventMaskOf(EventKind::DelinquentLoad) |
                       eventMaskOf(EventKind::HelperDone);
  for (const ActionState &S : Actions)
    if (S.A.Trigger == FaultTrigger::AtEventCount)
      Mask |= eventMaskOf(S.A.Counted);
  B.subscribe(this, Mask);
}

size_t FaultInjector::pendingActions() const {
  size_t N = 0;
  for (const ActionState &S : Actions)
    N += !S.Fired;
  return N;
}

void FaultInjector::onEvent(const HardwareEvent &E) {
  ++Seen[static_cast<size_t>(E.Kind)];

  // Reverts first: an action whose duration elapsed comes back to the
  // healthy regime before anything new fires this event.
  for (ActionState &S : Actions)
    if (S.Fired && !S.Reverted && S.A.DurationCycles > 0 &&
        E.Time >= S.FiredAt + S.A.DurationCycles)
      revert(S);

  // Trigger checks, in plan order.
  for (ActionState &S : Actions) {
    if (S.Fired)
      continue;
    bool Due =
        S.A.Trigger == FaultTrigger::AtCycle
            ? E.Time >= S.A.At
            : Seen[static_cast<size_t>(S.A.Counted)] >= S.A.At &&
                  E.Kind == S.A.Counted;
    if (Due)
      fire(S, E);
  }

  // Re-convergence accounting: the first DelinquentLoad after a fault is
  // the monitors re-flagging ("detection"); the first HelperDone is a
  // completed re-optimization ("re-convergence").
  if (E.Kind == EventKind::DelinquentLoad) {
    for (ActionState &S : Actions)
      if (S.AwaitDetection) {
        S.AwaitDetection = false;
        ++Stats.DetectionEvents;
        Stats.DetectionCyclesTotal += E.Time - S.FiredAt;
      }
  } else if (E.Kind == EventKind::HelperDone) {
    for (ActionState &S : Actions)
      if (S.AwaitReconvergence) {
        S.AwaitReconvergence = false;
        ++Stats.ReconvergenceEvents;
        Stats.ReconvergenceCyclesTotal += E.Time - S.FiredAt;
      }
  }
}

void FaultInjector::fire(ActionState &S, const HardwareEvent &E) {
  S.Fired = true;
  S.FiredAt = E.Time;
  TridentRuntime *RT = Targets.Runtime;

  switch (S.A.Kind) {
  case FaultKind::LatencySpike:
    Targets.Mem->injectLatencyFault(S.A.RangeLo, S.A.RangeHi,
                                    S.A.ExtraMemLatency, S.A.ExtraL2Latency);
    ++Stats.LatencySpikes;
    break;
  case FaultKind::EvictCaches:
    Stats.CacheLinesEvicted += Targets.Mem->evictRange(S.A.RangeLo,
                                                       S.A.RangeHi);
    break;
  case FaultKind::EvictDlt:
    if (!RT) {
      ++Stats.Skipped;
      return;
    }
    Stats.DltEntriesEvicted += RT->Dlt.invalidateAll();
    break;
  case FaultKind::EvictWatchTable:
    if (!RT) {
      ++Stats.Skipped;
      return;
    }
    Stats.WatchEntriesEvicted += RT->Watch.invalidateAll();
    break;
  case FaultKind::DropEvents:
    if (!RT) {
      ++Stats.Skipped;
      return;
    }
    RT->Queue.scheduleForcedDrops(S.A.Count);
    Stats.EventDropsScheduled += S.A.Count;
    break;
  case FaultKind::StallQueue:
    if (!RT) {
      ++Stats.Skipped;
      return;
    }
    RT->Queue.setStalled(true);
    ++Stats.QueueStalls;
    break;
  case FaultKind::InvalidateTraces:
    if (!RT) {
      ++Stats.Skipped;
      return;
    }
    Stats.TracesInvalidated += RT->invalidateAllTraces();
    break;
  case FaultKind::NumKinds:
    TRIDENT_CHECK(false, "plan contains the sentinel fault kind");
  }

  ++Stats.Injected;
  Schedule.emplace_back(static_cast<size_t>(&S - Actions.data()), E.Time);
  if (RT) {
    S.AwaitDetection = true;
    S.AwaitReconvergence = true;
  }
}

void FaultInjector::revert(ActionState &S) {
  S.Reverted = true;
  switch (S.A.Kind) {
  case FaultKind::LatencySpike:
    Targets.Mem->clearLatencyFault();
    ++Stats.Reverts;
    break;
  case FaultKind::StallQueue:
    if (TridentRuntime *RT = Targets.Runtime) {
      RT->Queue.setStalled(false);
      RT->pumpEvents(); // drain what queued up during the stall
      ++Stats.Reverts;
    }
    break;
  case FaultKind::EvictCaches:
  case FaultKind::EvictDlt:
  case FaultKind::EvictWatchTable:
  case FaultKind::DropEvents:
  case FaultKind::InvalidateTraces:
    break; // one-shot kinds: nothing to revert
  case FaultKind::NumKinds:
    TRIDENT_CHECK(false, "plan contains the sentinel fault kind");
  }
}

//===- FaultInjector.h - Event-driven fault injection ----------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a FaultPlan against a running machine. The injector is an
/// ordinary EventBus subscriber — injection points are subscribers, not
/// hot-path hacks: it watches the event stream for its trigger conditions
/// (time passing, event counts) and, when one fires, perturbs the machine
/// through narrow mutation hooks (MemorySystem latency faults and range
/// eviction, EventQueue forced drops and stalls, DLT / watch-table /
/// trace invalidation on the Trident runtime).
///
/// Identity contract (asserted by tests/fault_injection_test.cpp, same
/// methodology as the tracer): constructing no injector, or an injector
/// whose plan never fires, leaves the simulation bit-identical — every
/// mutation hook is guarded so the zero-fault path executes exactly the
/// pre-fault-injection code. Like the tracer, subscribing does make the
/// core construct hot-path events that nothing else may have asked for, so
/// publish *counters* on an otherwise subscriber-less machine can change;
/// timing and architectural state never do.
///
/// Re-convergence accounting: for every injected fault the injector
/// records the delay until the next DelinquentLoad event (the monitors
/// re-flagging a load — "detection") and until the next HelperDone event
/// (a completed re-optimization — "re-convergence"), surfacing the
/// paper's self-repair latency as statistics.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_FAULTS_FAULTINJECTOR_H
#define TRIDENT_FAULTS_FAULTINJECTOR_H

#include "events/EventBus.h"
#include "faults/FaultPlan.h"
#include "support/Fields.h"

#include <string>
#include <vector>

namespace trident {

class MemorySystem;
class TridentRuntime;

/// The machine surfaces a FaultInjector may perturb. Runtime may be null
/// (hardware-baseline machines): runtime-targeted faults are then counted
/// as skipped instead of injected.
struct FaultTargets {
  MemorySystem *Mem = nullptr;
  TridentRuntime *Runtime = nullptr;
};

/// Injection and re-convergence accounting. Registered under "faults."
/// only when at least one fault fired, so a never-firing plan leaves the
/// StatRegistry export byte-identical to a fault-free run.
struct FaultStats {
  uint64_t Injected = 0;         ///< Actions fired (any kind).
  uint64_t Reverts = 0;          ///< Duration-bounded actions reverted.
  uint64_t Skipped = 0;          ///< Fired but target absent (no runtime).
  uint64_t LatencySpikes = 0;
  uint64_t CacheLinesEvicted = 0;
  uint64_t DltEntriesEvicted = 0;
  uint64_t WatchEntriesEvicted = 0;
  uint64_t EventDropsScheduled = 0;
  uint64_t QueueStalls = 0;
  uint64_t TracesInvalidated = 0;

  /// Faults followed by a DelinquentLoad event, and the summed delay.
  uint64_t DetectionEvents = 0;
  uint64_t DetectionCyclesTotal = 0;
  /// Faults followed by a HelperDone event, and the summed delay.
  uint64_t ReconvergenceEvents = 0;
  uint64_t ReconvergenceCyclesTotal = 0;

  /// Registry names, under "faults.".
  static constexpr auto fields() {
    using S = FaultStats;
    return std::tuple(
        Field{"injected", &S::Injected}, Field{"reverts", &S::Reverts},
        Field{"skipped", &S::Skipped},
        Field{"latency_spikes", &S::LatencySpikes},
        Field{"cache_lines_evicted", &S::CacheLinesEvicted},
        Field{"dlt_entries_evicted", &S::DltEntriesEvicted},
        Field{"watch_entries_evicted", &S::WatchEntriesEvicted},
        Field{"event_drops_scheduled", &S::EventDropsScheduled},
        Field{"queue_stalls", &S::QueueStalls},
        Field{"traces_invalidated", &S::TracesInvalidated},
        Field{"detection_events", &S::DetectionEvents},
        Field{"detection_cycles_total", &S::DetectionCyclesTotal},
        Field{"reconvergence_events", &S::ReconvergenceEvents},
        Field{"reconvergence_cycles_total", &S::ReconvergenceCyclesTotal});
  }
};

class FaultInjector final : public EventSubscriber {
public:
  FaultInjector(const FaultPlan &Plan, FaultTargets Targets);

  /// Subscribes to exactly the kinds the plan needs: Commit (time base),
  /// DelinquentLoad / HelperDone (re-convergence tracking), plus any kind
  /// an AtEventCount trigger counts.
  void attach(EventBus &B);

  void onEvent(const HardwareEvent &E) override;

  const FaultStats &stats() const { return Stats; }

  /// The realized schedule: (action index, fire cycle) in fire order.
  /// Determinism tests compare this across runs.
  const std::vector<std::pair<size_t, Cycle>> &schedule() const {
    return Schedule;
  }

  /// Actions that have not fired yet.
  size_t pendingActions() const;

private:
  struct ActionState {
    FaultAction A;
    bool Fired = false;
    bool Reverted = false;
    Cycle FiredAt = 0;
    bool AwaitDetection = false;
    bool AwaitReconvergence = false;
  };

  void fire(ActionState &S, const HardwareEvent &E);
  void revert(ActionState &S);

  FaultTargets Targets;
  std::vector<ActionState> Actions;
  /// Delivered-event counts per kind, for AtEventCount triggers.
  std::array<uint64_t, kNumEventKinds> Seen{};
  std::vector<std::pair<size_t, Cycle>> Schedule;
  FaultStats Stats;
};

} // namespace trident

#endif // TRIDENT_FAULTS_FAULTINJECTOR_H

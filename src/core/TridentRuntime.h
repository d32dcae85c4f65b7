//===- TridentRuntime.h - Event-driven optimization runtime ----*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Trident runtime extended with the self-repairing prefetcher — the
/// orchestrator of the whole paper:
///
///  * observes the commit stream of the main thread (its monitors are
///    independent EventBus subscribers; see attach()),
///  * detects hot traces (branch profiler), forms and links them
///    (trace builder, code cache, binary patcher, watch table),
///  * monitors hot-trace loads in the DLT; delinquent-load events spawn
///    the helper thread (modeled as a costed work stub on the spare SMT
///    context, with the paper's 2000-cycle startup latency),
///  * the helper inserts prefetches (PrefetchPlanner) or repairs existing
///    ones by patching distance immediates in the code cache, following
///    the adaptive algorithm of Sections 3.5.1-3.5.2 (distance 1 upward,
///    back off when average access latency rises, 2x-max-distance repair
///    budget, prefetch maturing).
///
/// PrefetchMode selects the paper's three evaluated schemes (Figure 5):
/// Basic (estimated fixed distance, no grouping), WholeObject (same-object
/// + pointer prefetching, estimated fixed distance), SelfRepairing (whole
/// object + adaptive repair).
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_CORE_TRIDENTRUNTIME_H
#define TRIDENT_CORE_TRIDENTRUNTIME_H

#include "core/PrefetchPlanner.h"
#include "cpu/SmtCore.h"
#include "dlt/DelinquentLoadTable.h"
#include "events/EventBus.h"
#include "events/EventQueue.h"
#include "trident/BranchProfiler.h"
#include "trident/CodeCache.h"
#include "trident/CostModel.h"
#include "trident/Registration.h"
#include "trident/TraceBuilder.h"
#include "trident/WatchTable.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace trident {

class StatRegistry;

enum class PrefetchMode : uint8_t {
  None,          ///< Trident traces only, no software prefetching.
  Basic,         ///< Prior-work style: per-load stride pf, estimated dist.
  WholeObject,   ///< + same-object groups and pointer deref, fixed dist.
  SelfRepairing, ///< + adaptive distance repair (the contribution).
};

const char *prefetchModeName(PrefetchMode M);

struct RuntimeConfig {
  PrefetchMode Mode = PrefetchMode::SelfRepairing;
  /// When false, traces are formed and optimized but never linked — the
  /// Section 5.1 overhead experiment.
  bool LinkTraces = true;
  DltConfig Dlt = DltConfig::baseline();
  BranchProfilerConfig Profiler;
  TraceBuilderConfig Builder;
  OptimizerCostModel Cost;
  unsigned WatchEntries = 256;
  /// Hardware context the helper thread runs on.
  unsigned HelperCtx = 1;
  /// Memory latency (max-distance numerator, Section 3.5.2).
  unsigned MemoryLatency = 350;
  /// L1 hit latency (to derive exposed miss latency for DLT updates).
  unsigned L1HitLatency = 3;
  int DistanceCap = 64;
  unsigned MaxPendingEvents = 16;

  /// Ablation (Section 5.3's "alternate strategy"): seed self-repairing
  /// groups with the equation-2 estimate instead of distance 1. The paper
  /// found performance "almost identical" because repair converges fast.
  bool SelfRepairInitialEstimate = false;

  /// Future-work feature (Section 3.5.2): clear prefetch-mature flags when
  /// a program phase change is detected (the executing-trace mix shifts),
  /// so loads whose behaviour changed can be re-optimized.
  bool ClearMatureOnPhaseChange = false;
  /// Commits per phase-detection interval.
  uint64_t PhaseIntervalCommits = 200'000;
  /// Manhattan distance between successive trace-mix signatures above
  /// which an interval counts as a phase change (0..2).
  double PhaseChangeThreshold = 0.5;

  static RuntimeConfig baseline() { return RuntimeConfig(); }
  /// Why no runtime can be built with this config (the distance cap or
  /// the DLT), or "" when one can. The runtime's constructor CHECKs it.
  std::string invalidReason() const;
};

struct RuntimeStats {
  uint64_t HotTraceEvents = 0;
  uint64_t TracesInstalled = 0;
  uint64_t TraceReinstalls = 0;
  uint64_t DelinquentEvents = 0;
  uint64_t InsertionOptimizations = 0;
  uint64_t RepairOptimizations = 0;
  uint64_t LoadsMatured = 0;
  /// Settled loads whose repair state was re-opened after their DLT entry
  /// was lost and they re-crossed the delinquency threshold.
  uint64_t RepairsReopened = 0;
  /// Hill-climb restarts triggered by a load's observed latency jumping
  /// far outside the band the climb was operating in.
  uint64_t RegimeShiftsDetected = 0;
  uint64_t EventsDropped = 0;
  uint64_t PrefetchInstructionsPlanned = 0;
  /// Distance set by the most recent repair (diagnostic).
  /// trident-analyze: unregistered-ok(last-value gauge, not a counter;
  /// exporting it would churn the golden JSONL on every repair)
  int LastRepairDistance = 0;

  // Figure 4: load-miss coverage.
  uint64_t LoadMissesTotal = 0;
  uint64_t LoadMissesInTraces = 0;
  uint64_t LoadMissesCovered = 0;

  // Figure 6: dynamic-load breakdown (main thread, original loads only).
  uint64_t LdTotal = 0;
  uint64_t LdHitNone = 0;
  uint64_t LdHitPrefetched = 0;
  uint64_t LdPartial = 0;
  uint64_t LdMiss = 0;
  uint64_t LdMissDueToPf = 0;

  uint64_t CommitsTotal = 0;
  uint64_t CommitsInTraces = 0;
  uint64_t PhaseChangesDetected = 0;
  uint64_t MatureFlagsCleared = 0;
  /// Highest event-queue occupancy observed in the measurement window.
  uint64_t PeakPendingEvents = 0;

  double traceMissCoverage() const {
    return LoadMissesTotal == 0
               ? 0.0
               : double(LoadMissesInTraces) / double(LoadMissesTotal);
  }
  double prefetchMissCoverage() const {
    return LoadMissesTotal == 0
               ? 0.0
               : double(LoadMissesCovered) / double(LoadMissesTotal);
  }

  /// Registers every field under \p Prefix (e.g. "trident.").
  void registerInto(StatRegistry &R, const std::string &Prefix) const;
};

class TridentRuntime final {
public:
  TridentRuntime(const RuntimeConfig &Config, Program &Prog, SmtCore &Core,
                 CodeCache &CC);

  /// Monitoring and optimization are disabled during warmup (Section 4.2).
  void setEnabled(bool E) { Enabled = E; }
  bool enabled() const { return Enabled; }

  /// Subscribes the runtime's hardware monitors to \p B, each as an
  /// independent subscriber: the watch table (Commit), the branch
  /// profiler (Commit + Branch), and the DLT (LoadOutcome). Subscription
  /// order is load-bearing: the watch table's excursion tracking ran
  /// before profiler training inside the old monolithic listener, and
  /// the bus dispatches Commit subscribers in exactly this order.
  ///
  /// The runtime also publishes its filtered events (HotTrace,
  /// DelinquentLoad) and the TraceEntry/TraceExit excursion markers back
  /// into \p B for observability sinks.
  void attach(EventBus &B);

  const RuntimeStats &stats() const { return Stats; }
  void clearStats() {
    Stats = RuntimeStats();
    Queue.clearStats();
  }

  /// The bounded hardware queue between the monitor filters and the
  /// helper thread (drop accounting lives here).
  const EventQueue &eventQueue() const { return Queue; }

  const RuntimeConfig &config() const { return Config; }
  /// The helper-thread registration structure (Section 3.1).
  const RegistrationStructure &registration() const { return Registration; }
  const DelinquentLoadTable &dlt() const { return Dlt; }
  const WatchTable &watchTable() const { return Watch; }
  const BranchProfiler &profiler() const { return Profiler; }
  size_t numTraces() const { return Traces.size(); }

  /// Introspection for tests/examples: the plan of the trace rooted at
  /// \p OrigStart, or nullptr.
  const PrefetchPlan *planFor(Addr OrigStart) const;
  /// Current distance of the first repairable group of that trace, or 0.
  int currentDistanceFor(Addr OrigStart) const;

  /// Fault-injection hook (src/faults): unlinks every installed trace —
  /// restores the entry patches, retargets all code-cache back edges at
  /// original code (threads inside a dead body exit at their next
  /// loop-back), evicts the watch entries, and un-suppresses the profiler
  /// so traces can re-form. Returns the number of traces invalidated.
  unsigned invalidateAllTraces();

  /// Re-attempts event dispatch (e.g. after a fault-injected queue stall
  /// clears — nothing else would drain events queued during the stall).
  void pumpEvents() { dispatchNext(); }

private:
  friend class FaultInjector; // perturbs Dlt / Watch / Queue directly

  struct TraceMeta {
    uint32_t Id = 0;
    Addr OrigStart = 0;
    std::vector<Instruction> BaseBody;
    PrefetchPlan Plan;
    Addr CacheAddr = 0;
    std::vector<unsigned> OldToNew;      ///< base idx -> installed offset
    std::vector<Addr> PrefetchSlotAddrs; ///< per Plan.Prefetches entry
    /// All code-cache regions ever installed for this trace (start, len);
    /// old regions' closing jumps are re-targeted at the newest head.
    std::vector<std::pair<Addr, size_t>> Installs;
    /// Installed load PC -> base-body index (accumulates across installs
    /// so stale in-flight events still resolve).
    std::unordered_map<Addr, unsigned> LoadPCToBaseIdx;
    bool Linked = false;
    /// Unlinked by a fault injection; stays in Traces (ids are dense) but
    /// introspection skips it and a fresh trace may form at OrigStart.
    bool Invalidated = false;
  };

  // Subscriber adapters: each monitor appears on the bus as its own
  // subscriber, forwarding into the runtime that owns the shared state.
  struct WatchSubscriber final : EventSubscriber {
    TridentRuntime &R;
    explicit WatchSubscriber(TridentRuntime &Rt) : R(Rt) {}
    void onEvent(const HardwareEvent &E) override { R.handleWatchCommit(E); }
  };
  struct ProfilerSubscriber final : EventSubscriber {
    TridentRuntime &R;
    explicit ProfilerSubscriber(TridentRuntime &Rt) : R(Rt) {}
    void onEvent(const HardwareEvent &E) override {
      if (E.Kind == EventKind::Branch)
        R.handleProfilerBranch(E);
      else
        R.handleProfilerCommit(E);
    }
  };
  struct DltSubscriber final : EventSubscriber {
    TridentRuntime &R;
    explicit DltSubscriber(TridentRuntime &Rt) : R(Rt) {}
    void onEvent(const HardwareEvent &E) override { R.handleLoad(E); }
  };

  void handleWatchCommit(const HardwareEvent &E);
  void handleProfilerCommit(const HardwareEvent &E);
  void handleProfilerBranch(const HardwareEvent &E);
  void handleLoad(const HardwareEvent &E);

  void raiseEvent(const HardwareEvent &E);
  void dispatchNext();
  void startHotTraceWork(const HotTraceCandidate &Cand);
  void startDelinquentWork(Addr LoadPC, uint32_t TraceId);

  /// Parks the arguments of the helper-thread work whose costed stub is
  /// currently running on the spare context; the stub-completion
  /// trampoline consumes it. One slot suffices because dispatchNext gates
  /// new work on Core.stubActive, so at most one helper stub is in flight
  /// — and a plain struct keeps stub launch free of heap-allocating
  /// closures (the SmtCore callback is a bare function pointer).
  struct PendingWork {
    enum class Kind : uint8_t { None, Formation, Insertion, Repair, Mature };
    Kind WorkKind = Kind::None;
    Trace FormedTrace;          ///< Formation
    PrefetchPlan Plan;          ///< Insertion
    PlanEmission Emission;      ///< Insertion
    std::vector<Addr> ClearPCs; ///< Insertion
    uint32_t TraceId = 0;       ///< Insertion / Repair / Mature
    unsigned BaseIdx = 0;       ///< Repair
    Addr LoadPC = 0;            ///< Repair / Mature
  };

  /// SmtCore stub-completion trampoline (Ctx is the TridentRuntime).
  static void onStubDone(void *Self, Cycle C);
  void finishPendingWork();
  /// Claims the (empty) pending slot for work of kind \p K.
  PendingWork &parkWork(PendingWork::Kind K);

  void finishTraceFormation(Trace T);
  void beginInsertion(TraceMeta &M, Addr TriggerPC);
  void finishInsertion(uint32_t TraceId, PrefetchPlan NewPlan,
                       PlanEmission Emission,
                       std::vector<Addr> ClearPCs);
  void finishRepair(uint32_t TraceId, unsigned BaseIdx, Addr LoadPC);
  void finishMature(uint32_t TraceId, Addr LoadPC);
  /// Rewrites the immediates of \p G's emitted prefetch slots in \p M for
  /// the group's current distance.
  void patchPrefetchSlots(const TraceMeta &M, const PrefetchGroup &G);

  /// Installs \p Body for \p M (allocating code cache space, repatching the
  /// entry jump, refreshing the watch table and PC maps).
  void installBody(TraceMeta &M, const std::vector<Instruction> &Body,
                   const std::vector<unsigned> &OldToNew,
                   const std::vector<unsigned> &PatchSlots);

  int estimateDistance(const TraceMeta &M, Addr TriggerPC) const;
  int maxDistanceFor(const TraceMeta &M) const;
  void clearOptFlag(uint32_t TraceId);

  /// Phase detection over the executing-trace mix; on a phase change,
  /// clears mature flags so changed loads can be re-optimized.
  void accountPhase(Addr PC);
  void onPhaseChange();

  RuntimeConfig Config;
  Program &Prog;
  SmtCore &Core;
  CodeCache &CC;
  RegistrationStructure Registration;
  BinaryPatcher Patcher;
  BranchProfiler Profiler;
  TraceBuilder Builder;
  WatchTable Watch;
  DelinquentLoadTable Dlt;
  PrefetchPlanner Planner;

  std::vector<TraceMeta> Traces;
  EventQueue Queue;
  RuntimeStats Stats;
  PendingWork Pending;
  bool Enabled = false;

  EventBus *Bus = nullptr;
  WatchSubscriber WatchSub{*this};
  ProfilerSubscriber ProfilerSub{*this};
  DltSubscriber DltSub{*this};

  // Per-main-context trace excursion tracking (iteration timing).
  uint32_t CurTraceId = ~0u;
  Addr CurHeadAddr = 0;
  Cycle LastHeadCycle = 0;
  bool LastHeadValid = false;

  // Phase detection state: commits per trace id this interval vs last.
  std::vector<uint64_t> PhaseCounts;
  std::vector<double> PrevPhaseSignature;
  uint64_t PhaseCommits = 0;
  uint64_t PhaseOtherCommits = 0;
};

} // namespace trident

#endif // TRIDENT_CORE_TRIDENTRUNTIME_H

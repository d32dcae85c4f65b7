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
///  * observes the commit stream of the main thread as one EventBus
///    subscriber that feeds its monitors in a fixed order (see attach()),
///  * detects hot traces (branch profiler), forms and links them
///    (trace builder, code cache, binary patcher, watch table),
///  * monitors hot-trace loads in the DLT; delinquent-load events spawn
///    the helper thread (modeled as a costed work stub on the spare SMT
///    context, with the paper's 2000-cycle startup latency),
///  * the helper inserts prefetches (PrefetchPlanner) or repairs existing
///    ones by patching distance immediates in the code cache, as the
///    adaptive algorithm of Sections 3.5.1-3.5.2 decides (RepairPolicy:
///    distance 1 upward, back off when average access latency rises,
///    2x-max-distance repair budget, prefetch maturing).
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
#include "support/Fields.h"
#include "trident/BranchProfiler.h"
#include "trident/CodeCache.h"
#include "trident/CostModel.h"
#include "trident/Registration.h"
#include "trident/TraceBuilder.h"
#include "trident/WatchTable.h"

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace trident {

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
  static constexpr auto fields() {
    using C = RuntimeConfig;
    return std::tuple(
        Field{"mode", &C::Mode}, Field{"link_traces", &C::LinkTraces},
        Field{"dlt", &C::Dlt}, Field{"profiler", &C::Profiler},
        Field{"builder", &C::Builder}, Field{"cost", &C::Cost},
        Field{"watch_entries", &C::WatchEntries},
        Field{"helper_ctx", &C::HelperCtx},
        Field{"memory_latency", &C::MemoryLatency},
        Field{"l1_hit_latency", &C::L1HitLatency},
        Field{"distance_cap", &C::DistanceCap},
        Field{"max_pending_events", &C::MaxPendingEvents},
        Field{"self_repair_initial_estimate", &C::SelfRepairInitialEstimate},
        Field{"clear_mature_on_phase_change", &C::ClearMatureOnPhaseChange},
        Field{"phase_interval_commits", &C::PhaseIntervalCommits},
        Field{"phase_change_threshold", &C::PhaseChangeThreshold});
  }
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
  /// The distance the most recent repair left its group at (diagnostic).
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

  /// Registry names, under "trident.". The two coverage ratios above are
  /// exported beside them as reals.
  static constexpr auto fields() {
    using S = RuntimeStats;
    return std::tuple(
        Field{"hot_trace_events", &S::HotTraceEvents},
        Field{"traces_installed", &S::TracesInstalled},
        Field{"trace_reinstalls", &S::TraceReinstalls},
        Field{"delinquent_events", &S::DelinquentEvents},
        Field{"insertion_optimizations", &S::InsertionOptimizations},
        Field{"repair_optimizations", &S::RepairOptimizations},
        Field{"loads_matured", &S::LoadsMatured},
        Field{"repairs_reopened", &S::RepairsReopened},
        Field{"regime_shifts_detected", &S::RegimeShiftsDetected},
        Field{"events_dropped", &S::EventsDropped},
        Field{"prefetch_instructions_planned",
              &S::PrefetchInstructionsPlanned},
        // A last-value gauge, not a counter: exporting it would churn the
        // golden JSONL on every repair.
        Field{nullptr, &S::LastRepairDistance},
        Field{"load_misses_total", &S::LoadMissesTotal},
        Field{"load_misses_in_traces", &S::LoadMissesInTraces},
        Field{"load_misses_covered", &S::LoadMissesCovered},
        Field{"ld_total", &S::LdTotal},
        Field{"ld_hit_none", &S::LdHitNone},
        Field{"ld_hit_prefetched", &S::LdHitPrefetched},
        Field{"ld_partial", &S::LdPartial},
        Field{"ld_miss", &S::LdMiss},
        Field{"ld_miss_due_to_pf", &S::LdMissDueToPf},
        Field{"commits_total", &S::CommitsTotal},
        Field{"commits_in_traces", &S::CommitsInTraces},
        Field{"phase_changes_detected", &S::PhaseChangesDetected},
        Field{"mature_flags_cleared", &S::MatureFlagsCleared},
        Field{"peak_pending_events", &S::PeakPendingEvents});
  }
};

class TridentRuntime final : public EventSubscriber {
public:
  TridentRuntime(const RuntimeConfig &Config, Program &Prog, SmtCore &Core,
                 CodeCache &CC);

  /// Monitoring and optimization are disabled during warmup (Section 4.2).
  void setEnabled(bool E) { Enabled = E; }
  bool enabled() const { return Enabled; }

  /// Subscribes the runtime to \p B once, for Commit, Branch and
  /// LoadOutcome. onEvent feeds its hardware monitors from there: a commit
  /// runs the watch table's excursion tracking and then profiler
  /// training, a branch trains the profiler, and a load outcome updates
  /// the DLT. That order is fixed by code, not by subscription order.
  ///
  /// The runtime also publishes its filtered events (HotTrace,
  /// DelinquentLoad) and the TraceEntry/TraceExit excursion markers back
  /// into \p B for observability sinks.
  void attach(EventBus &B);

  /// The one bus entry: drops events of contexts other than the main
  /// thread, probes the code cache once and dispatches by kind.
  void onEvent(const HardwareEvent &E) override;

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

  /// The trace id of a PC outside the code cache.
  static constexpr uint32_t NoTrace = ~0u;

  /// The monitors' share of a main-thread commit or load outcome whose PC
  /// lies in trace \p Tid (NoTrace outside the code cache).
  void handleCommit(const HardwareEvent &E, uint32_t Tid);
  void handleLoad(const HardwareEvent &E, uint32_t Tid);

  void raiseEvent(const HardwareEvent &E);
  void dispatchNext();
  void startHotTraceWork(const HotTraceCandidate &Cand);
  void startDelinquentWork(Addr LoadPC, uint32_t TraceId);

  /// The arguments of the helper-thread work whose costed stub is
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
    Addr LoadPC = 0;            ///< Repair / Mature
  };

  /// SmtCore stub-completion trampoline (Ctx is the TridentRuntime).
  static void onStubDone(void *Self, Cycle C);
  void finishPendingWork();
  /// Notes the spawn in the registration structure, parks work of kind
  /// \p K (callers fill in Pending's payload first) and starts its costed
  /// stub of \p WorkCycles on the helper context.
  void launchHelper(PendingWork::Kind K, uint64_t WorkCycles,
                    uint32_t TraceId = 0, Addr LoadPC = 0);

  void finishTraceFormation(Trace T);
  void beginInsertion(TraceMeta &M, Addr TriggerPC);
  void finishInsertion(uint32_t TraceId, PrefetchPlan NewPlan,
                       PlanEmission Emission,
                       std::vector<Addr> ClearPCs);
  void finishRepair(uint32_t TraceId, Addr LoadPC);
  void finishMature(uint32_t TraceId, Addr LoadPC);
  /// Rewrites the immediates of \p G's emitted prefetch slots in \p M for
  /// the group's current distance.
  void patchPrefetchSlots(const TraceMeta &M, const PrefetchGroup &G);
  /// Forces \p LoadPC mature in the DLT so it stops raising events.
  void matureLoad(Addr LoadPC);

  /// The group covering the load installed at \p LoadPC in \p M and that
  /// load's repair state, or two nulls.
  std::pair<PrefetchGroup *, LoadRepairState *> coveredLoad(TraceMeta &M,
                                                            Addr LoadPC);
  /// Decides on the covered load at \p LoadPC (state \p LS in group \p G)
  /// by the policy's \p Rule and carries the decision out. It gathers the
  /// inputs (the load's DLT latency, the group's distances, the mode's
  /// seed), stores the load's state and the group's distance, patches the
  /// slots after a step, and does the DLT, counter and opt-flag
  /// bookkeeping of the decision's reason.
  void applyRepair(TraceMeta &M, PrefetchGroup &G, LoadRepairState &LS,
                   Addr LoadPC, repair::Rule Rule);

  /// Installs \p Body for \p M (allocating code cache space, repatching the
  /// entry jump, refreshing the watch table and PC maps).
  void installBody(TraceMeta &M, const std::vector<Instruction> &Body,
                   const std::vector<unsigned> &OldToNew,
                   const std::vector<unsigned> &PatchSlots);

  // The distance helpers touch the trace's watch entry: not const.
  int estimateDistance(const TraceMeta &M, Addr TriggerPC);
  /// The distance a new group, a re-seeded group or a restarted climb
  /// starts from.
  int seedDistance(const TraceMeta &M, Addr TriggerPC);
  int maxDistanceFor(const TraceMeta &M);
  void clearOptFlag(uint32_t TraceId);

  /// Phase detection over the executing-trace mix (\p Tid is the
  /// committing trace, or NoTrace); on a phase change, clears mature flags
  /// so changed loads can be re-optimized.
  void accountPhase(uint32_t Tid);
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

  // Per-main-context trace excursion tracking (iteration timing).
  uint32_t CurTraceId = NoTrace;
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

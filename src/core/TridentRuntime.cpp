//===- TridentRuntime.cpp -------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/TridentRuntime.h"
#include "support/Check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace trident;

/// Env-gated diagnostics: set TRIDENT_DEBUG=1 to trace optimizer activity.
static bool debugEnabled() {
  static const bool E = [] {
    const char *V = std::getenv("TRIDENT_DEBUG");
    return V && *V && *V != '0';
  }();
  return E;
}

#define TRIDENT_DBG(...)                                                       \
  do {                                                                         \
    if (debugEnabled())                                                        \
      std::fprintf(stderr, __VA_ARGS__);                                       \
  } while (0)

const char *trident::prefetchModeName(PrefetchMode M) {
  switch (M) {
  case PrefetchMode::None:
    return "none";
  case PrefetchMode::Basic:
    return "basic";
  case PrefetchMode::WholeObject:
    return "whole-object";
  case PrefetchMode::SelfRepairing:
    return "self-repairing";
  }
  return "<bad>";
}

TridentRuntime::TridentRuntime(const RuntimeConfig &Cfg, Program &P,
                               SmtCore &CoreRef, CodeCache &CCRef)
    : Config(Cfg), Prog(P), Core(CoreRef), CC(CCRef), Patcher(P),
      Profiler(Config.Profiler), Builder(Config.Builder),
      Watch(Config.WatchEntries), Dlt(Config.Dlt),
      Planner(PlannerConfig{
          /*LineSize=*/64, /*ScratchReg=*/reg::FirstScratch,
          /*DistanceCap=*/Config.DistanceCap,
          /*WholeObject=*/Config.Mode == PrefetchMode::WholeObject ||
              Config.Mode == PrefetchMode::SelfRepairing}),
      Queue(Config.MaxPendingEvents) {
  // Initialize the Section 3.1 registration structure: the record the
  // hardware uses to spawn the helper thread onto the spare context.
  Registration.HelperStartPC = 0xF000'0000; // runtime-optimizer entry
  Registration.StackPointer = 0xEFFF'F000;  // helper's private stack
  Registration.GlobalDataPointer = 0xE000'0000;
  Registration.CodeCachePointer = CodeCache::Base;
  Registration.ThreadPriority = RegistrationStructure::Priority::Low;
  const std::string Why = Config.invalidReason();
  TRIDENT_CHECK(Why.empty(), "%s", Why.c_str());
}

std::string RuntimeConfig::invalidReason() const {
  // Distances are clamped to [1, DistanceCap].
  if (DistanceCap < 1)
    return "distance cap " + std::to_string(DistanceCap) +
           " must be at least 1";
  return Dlt.invalidReason();
}

const PrefetchPlan *TridentRuntime::planFor(Addr OrigStart) const {
  for (const TraceMeta &M : Traces)
    if (M.OrigStart == OrigStart && !M.Invalidated)
      return &M.Plan;
  return nullptr;
}

int TridentRuntime::currentDistanceFor(Addr OrigStart) const {
  const PrefetchPlan *P = planFor(OrigStart);
  if (!P)
    return 0;
  for (const PrefetchGroup &G : P->Groups)
    if (G.Repairable)
      return G.Distance;
  return 0;
}

//===----------------------------------------------------------------------===//
// Commit-stream observation
//===----------------------------------------------------------------------===//

void TridentRuntime::accountPhase(uint32_t Tid) {
  if (Tid != NoTrace) {
    if (Tid >= PhaseCounts.size())
      PhaseCounts.resize(Tid + 1, 0);
    ++PhaseCounts[Tid];
  } else {
    ++PhaseOtherCommits;
  }
  if (++PhaseCommits < Config.PhaseIntervalCommits)
    return;

  // Build the interval's trace-mix signature (fractions per trace id,
  // plus a bucket for non-trace code) and compare with the previous one.
  size_t N = std::max(PhaseCounts.size(), PrevPhaseSignature.empty()
                                              ? size_t(0)
                                              : PrevPhaseSignature.size() - 1);
  std::vector<double> Sig(N + 1, 0.0);
  double Total = static_cast<double>(PhaseCommits);
  for (size_t I = 0; I < PhaseCounts.size(); ++I)
    Sig[I] = static_cast<double>(PhaseCounts[I]) / Total;
  Sig[N] = static_cast<double>(PhaseOtherCommits) / Total;

  if (!PrevPhaseSignature.empty()) {
    double Dist = 0.0;
    for (size_t I = 0; I < Sig.size(); ++I) {
      double Prev = 0.0;
      if (I + 1 < PrevPhaseSignature.size())
        Prev = PrevPhaseSignature[I];
      else if (I + 1 == Sig.size() && !PrevPhaseSignature.empty())
        Prev = PrevPhaseSignature.back();
      Dist += std::abs(Sig[I] - Prev);
    }
    if (Dist > Config.PhaseChangeThreshold) {
      ++Stats.PhaseChangesDetected;
      onPhaseChange();
    }
  }
  PrevPhaseSignature = std::move(Sig);
  std::fill(PhaseCounts.begin(), PhaseCounts.end(), 0);
  PhaseCommits = 0;
  PhaseOtherCommits = 0;
}

void TridentRuntime::onPhaseChange() {
  TRIDENT_DBG("[trident] phase change: clearing mature flags\n");
  Stats.MatureFlagsCleared += Dlt.clearAllMature();
  for (TraceMeta &M : Traces) {
    // Loads the planner could not classify before may classify now (e.g.
    // an index stream that turned regular): let them be re-identified.
    Stats.MatureFlagsCleared += M.Plan.UncoverableLoadIdxs.size();
    M.Plan.UncoverableLoadIdxs.clear();
    for (PrefetchGroup &G : M.Plan.Groups)
      for (size_t I = 0; I < G.PerLoad.size(); ++I) {
        LoadRepairState &LS = G.PerLoad[I];
        if (!LS.Mature)
          continue;
        applyRepair(M, G, LS, M.CacheAddr + M.OldToNew[G.CoveredLoadIdxs[I]],
                    repair::phaseReset);
      }
  }
}

void TridentRuntime::attach(EventBus &B) {
  TRIDENT_CHECK(Bus == nullptr, "runtime already attached to a bus");
  Bus = &B;
  B.subscribe(this, eventMaskOf(EventKind::Commit) |
                        eventMaskOf(EventKind::Branch) |
                        eventMaskOf(EventKind::LoadOutcome));
}

void TridentRuntime::onEvent(const HardwareEvent &Ev) {
  if (Ev.Ctx != 0)
    return;
  // One code-cache probe per event; every monitor reads this trace id.
  const uint32_t Tid = CC.contains(Ev.PC) ? CC.traceIdAt(Ev.PC) : NoTrace;
  if (Ev.Kind == EventKind::Commit) {
    handleCommit(Ev, Tid);
  } else if (Ev.Kind == EventKind::LoadOutcome) {
    handleLoad(Ev, Tid);
  } else if (Enabled && Tid == NoTrace && !CC.contains(Ev.EA)) {
    // A branch. Trace-internal control flow never trains the profiler,
    // and entry jumps into the code cache are runtime glue.
    Profiler.onBranch(Ev.PC, Ev.Insn->isConditionalBranch(), Ev.Taken, Ev.EA);
  }
}

void TridentRuntime::handleCommit(const HardwareEvent &Ev, uint32_t Tid) {
  const Addr PC = Ev.PC;
  const Cycle Now = Ev.Time;
  ++Stats.CommitsTotal;
  if (Config.ClearMatureOnPhaseChange && Enabled)
    accountPhase(Tid);

  if (Tid != NoTrace) {
    ++Stats.CommitsInTraces;
    // Trace excursion tracking for the watch table's iteration timing.
    // Trace-internal commits never train the profiler.
    const TraceMeta &M = Traces[Tid];
    if (CurTraceId != Tid || CurHeadAddr != M.CacheAddr) {
      if (CurTraceId != NoTrace)
        Bus->publish(
            HardwareEvent::traceMark(EventKind::TraceExit, CurTraceId, PC, Now));
      Bus->publish(HardwareEvent::traceMark(EventKind::TraceEntry, Tid, PC, Now));
      CurTraceId = Tid;
      CurHeadAddr = M.CacheAddr;
      LastHeadValid = false;
    }
    if (PC == M.CacheAddr) {
      if (LastHeadValid)
        Watch.recordIteration(Tid, Now - LastHeadCycle);
      LastHeadCycle = Now;
      LastHeadValid = true;
    }
    return;
  }

  // The patched entry jump at a trace's original start PC is part of the
  // trace's loop (closing jump -> OrigStart -> entry jump -> trace head);
  // it must not end the excursion or iteration timing never accumulates.
  const Instruction &I = *Ev.Insn;
  bool IsEntryGlue = I.Op == Opcode::Jump && I.Synthetic &&
                     CC.contains(static_cast<Addr>(I.Imm));
  if (!IsEntryGlue) {
    // Genuine original-code commit: ends any trace excursion.
    if (CurTraceId != NoTrace)
      Bus->publish(
          HardwareEvent::traceMark(EventKind::TraceExit, CurTraceId, PC, Now));
    CurTraceId = NoTrace;
    LastHeadValid = false;
  }

  // Profiler training, after the excursion tracking above.
  if (!Enabled)
    return;
  if (std::optional<HotTraceCandidate> Cand = Profiler.onCommit(PC)) {
    ++Stats.HotTraceEvents;
    raiseEvent(HardwareEvent::hotTrace(*Cand, Now));
  }
}

void TridentRuntime::handleLoad(const HardwareEvent &Ev, uint32_t Tid) {
  if (Ev.Insn->Synthetic)
    return;
  const Addr PC = Ev.PC;
  const Addr EA = Ev.EA;
  const AccessResult &R = *Ev.Access;
  const Cycle Now = Ev.Time;

  const bool InTrace = Tid != NoTrace;
  bool Miss = R.Outcome != LoadOutcome::HitNone &&
              R.Outcome != LoadOutcome::HitPrefetched;
  Cycle BestCase = Now + Config.L1HitLatency;
  unsigned ExposedLatency =
      R.ReadyCycle > BestCase ? static_cast<unsigned>(R.ReadyCycle - BestCase)
                              : 0;

  // Figure 6 breakdown.
  ++Stats.LdTotal;
  switch (R.Outcome) {
  case LoadOutcome::HitNone:
    ++Stats.LdHitNone;
    break;
  case LoadOutcome::HitPrefetched:
    ++Stats.LdHitPrefetched;
    break;
  case LoadOutcome::PartialHit:
    ++Stats.LdPartial;
    break;
  case LoadOutcome::Miss:
    ++Stats.LdMiss;
    break;
  case LoadOutcome::MissDueToPrefetch:
    ++Stats.LdMissDueToPf;
    break;
  }

  // Figure 4 coverage.
  if (Miss) {
    ++Stats.LoadMissesTotal;
    if (InTrace) {
      ++Stats.LoadMissesInTraces;
      if (coveredLoad(Traces[Tid], PC).first)
        ++Stats.LoadMissesCovered;
    }
  }

  if (!Enabled || !InTrace || Config.Mode == PrefetchMode::None)
    return;

  // DLT monitoring of hot-trace loads.
  if (Dlt.update(PC, EA, Miss, ExposedLatency)) {
    ++Stats.DelinquentEvents;
    WatchEntry *W = Watch.find(Tid);
    TRIDENT_DBG("[trident] event pc=0x%llx trace=%u optflag=%d\n",
                (unsigned long long)PC, Tid, W && W->OptInProgress);
    if (W && W->OptInProgress) {
      // Trace already being re-optimized; unfreeze and keep monitoring.
      Dlt.clearWindow(PC);
      return;
    }
    if (W)
      W->OptInProgress = true;
    raiseEvent(HardwareEvent::delinquentLoad(PC, Tid, Now));
  }
}

//===----------------------------------------------------------------------===//
// Event dispatch / helper-thread scheduling
//===----------------------------------------------------------------------===//

void TridentRuntime::raiseEvent(const HardwareEvent &E) {
  // Observability fan-out first: the bus sees every raised event, dropped
  // or not (the queue models the hardware buffer, the bus models wires).
  Bus->publish(E);
  if (!Queue.tryPush(E)) {
    ++Stats.EventsDropped;
    if (E.Kind == EventKind::DelinquentLoad) {
      Dlt.clearWindow(E.PC);
      clearOptFlag(E.TraceId);
    }
    return;
  }
  Stats.PeakPendingEvents =
      std::max<uint64_t>(Stats.PeakPendingEvents, Queue.size());
  dispatchNext();
}

void TridentRuntime::dispatchNext() {
  if (Queue.stalled())
    return; // fault-injected stall: events delay in place
  if (Core.stubActive(Config.HelperCtx))
    return;
  if (Pending.WorkKind != PendingWork::Kind::None)
    return; // zero-cost stub completed, but its work has not fired yet
  Registration.HelperActive = false;
  while (!Queue.empty()) {
    HardwareEvent E = Queue.pop();
    if (E.Kind == EventKind::HotTrace) {
      if (Watch.findByOrigStart(E.Cand.StartPC))
        continue; // Already traced.
      startHotTraceWork(E.Cand);
      return;
    }
    startDelinquentWork(E.PC, E.TraceId);
    return;
  }
}

void TridentRuntime::clearOptFlag(uint32_t TraceId) {
  if (WatchEntry *W = Watch.find(TraceId))
    W->OptInProgress = false;
}

void TridentRuntime::onStubDone(void *Self, Cycle) {
  static_cast<TridentRuntime *>(Self)->finishPendingWork();
}

void TridentRuntime::launchHelper(PendingWork::Kind K, uint64_t WorkCycles,
                                  uint32_t TraceId, Addr LoadPC) {
  TRIDENT_DCHECK(Pending.WorkKind == PendingWork::Kind::None,
                 "helper work launched while another unit is in flight");
  // The spawn is noted in the Section 3.1 registration structure.
  Registration.HelperActive = true;
  ++Registration.Invocations;
  Pending.WorkKind = K;
  Pending.TraceId = TraceId;
  Pending.LoadPC = LoadPC;
  Core.startStub(Config.HelperCtx, WorkCycles, Config.Cost.StartupCycles,
                 {&TridentRuntime::onStubDone, this});
}

void TridentRuntime::finishPendingWork() {
  // Consume the slot before running the finisher: finishers call
  // dispatchNext, which may park the next unit of work in Pending.
  PendingWork W = std::move(Pending);
  Pending = PendingWork();
  switch (W.WorkKind) {
  case PendingWork::Kind::None:
    TRIDENT_UNREACHABLE("stub completed with no parked work");
    break;
  case PendingWork::Kind::Formation:
    finishTraceFormation(std::move(W.FormedTrace));
    break;
  case PendingWork::Kind::Insertion:
    finishInsertion(W.TraceId, std::move(W.Plan), std::move(W.Emission),
                    std::move(W.ClearPCs));
    break;
  case PendingWork::Kind::Repair:
    finishRepair(W.TraceId, W.LoadPC);
    break;
  case PendingWork::Kind::Mature:
    finishMature(W.TraceId, W.LoadPC);
    break;
  }
  dispatchNext();
}

void TridentRuntime::startHotTraceWork(const HotTraceCandidate &Cand) {
  std::optional<Trace> T =
      Builder.build(Prog, Cand, static_cast<uint32_t>(Traces.size()));
  if (!T) {
    dispatchNext();
    return;
  }
  Pending.FormedTrace = std::move(*T);
  launchHelper(PendingWork::Kind::Formation,
               Config.Cost.traceFormation(
                   static_cast<unsigned>(Pending.FormedTrace.size())));
}

void TridentRuntime::finishTraceFormation(Trace T) {
  TraceMeta M;
  M.Id = T.Id;
  M.OrigStart = T.OrigStart;
  M.BaseBody = std::move(T.Body);
  TRIDENT_CHECK(M.Id == Traces.size(), "trace ids must be dense");
  Traces.push_back(std::move(M));
  TraceMeta &Meta = Traces.back();

  std::vector<unsigned> Identity(Meta.BaseBody.size());
  for (unsigned I = 0; I < Identity.size(); ++I)
    Identity[I] = I;
  installBody(Meta, Meta.BaseBody, Identity, {});
  ++Stats.TracesInstalled;
  // One formation per loop head; suppress further profiling either way
  // (in no-link mode this mirrors Trident marking the trace as formed).
  Profiler.suppress(Meta.OrigStart);
}

void TridentRuntime::installBody(TraceMeta &M,
                                 const std::vector<Instruction> &Body,
                                 const std::vector<unsigned> &OldToNew,
                                 const std::vector<unsigned> &PatchSlots) {
  bool Reinstall = M.CacheAddr != 0;
  M.CacheAddr = CC.install(Body, M.Id);
  M.Installs.emplace_back(M.CacheAddr, Body.size());

  // A looping trace closes on its own head: retarget the builder's
  // OrigStart-marked back edge (a branch or jump) into the code cache.
  // Bouncing through the original entry every iteration would cost two
  // extra jumps per loop. Targeting OrigStart and targeting the head are
  // semantically identical — OrigStart holds a jump to the head.
  auto retarget = [&](Addr Start, size_t Len, Addr OldHead) {
    for (size_t I = 0; I < Len; ++I) {
      Instruction &Ins = CC.at(Start + I);
      if (!Ins.isBranch())
        continue;
      Addr Tgt = static_cast<Addr>(Ins.Imm);
      if (Tgt == M.OrigStart || (OldHead != 0 && Tgt == OldHead))
        Ins.Imm = static_cast<int64_t>(M.CacheAddr);
    }
  };
  retarget(M.CacheAddr, Body.size(), /*OldHead=*/0);
  // Unlink older generations: their back edges trampoline to the new
  // head, so a thread spinning inside an old body migrates at its next
  // loop-back ("a thread's execution will then automatically start using
  // the new hot trace", Section 3.2).
  if (Reinstall)
    for (size_t R = 0; R + 1 < M.Installs.size(); ++R)
      retarget(M.Installs[R].first, M.Installs[R].second,
               /*OldHead=*/M.Installs[R].first);

  M.OldToNew = OldToNew;
  M.PrefetchSlotAddrs.assign(PatchSlots.size(), 0);
  for (size_t I = 0; I < PatchSlots.size(); ++I)
    M.PrefetchSlotAddrs[I] = M.CacheAddr + PatchSlots[I];
  for (unsigned BaseIdx = 0; BaseIdx < M.BaseBody.size(); ++BaseIdx)
    if (M.BaseBody[BaseIdx].isLoad())
      M.LoadPCToBaseIdx[M.CacheAddr + M.OldToNew[BaseIdx]] = BaseIdx;

  if (Config.LinkTraces) {
    Patcher.patchJump(M.OrigStart, M.CacheAddr);
    M.Linked = true;
  }

  if (Reinstall) {
    // Trident "removes the old hot trace from the hardware watch table"
    // and tracks the new one.
    if (WatchEntry *W = Watch.find(M.Id)) {
      W->TraceStart = M.CacheAddr;
      W->Length = static_cast<unsigned>(Body.size());
    }
    ++Stats.TraceReinstalls;
  } else {
    Watch.insert(M.Id, M.OrigStart, M.CacheAddr,
                 static_cast<unsigned>(Body.size()));
  }
}

unsigned TridentRuntime::invalidateAllTraces() {
  unsigned N = 0;
  for (TraceMeta &M : Traces) {
    if (M.Invalidated || M.CacheAddr == 0)
      continue;
    // Reverse the install-time retargeting: any back edge aimed at a
    // generation head goes back to the original loop head, so a thread
    // inside any dead body migrates to original code at its next
    // loop-back. Side exits already target original code and are left
    // alone — mid-iteration control flow is untouched, so semantics are
    // preserved.
    auto IsGenerationHead = [&M](Addr T) {
      return std::any_of(M.Installs.begin(), M.Installs.end(),
                         [T](const auto &In) { return In.first == T; });
    };
    for (const auto &[Start, Len] : M.Installs)
      for (size_t I = 0; I < Len; ++I) {
        Instruction &Ins = CC.at(Start + I);
        if (Ins.isBranch() && IsGenerationHead(static_cast<Addr>(Ins.Imm)))
          Ins.Imm = static_cast<int64_t>(M.OrigStart);
      }
    if (M.Linked) {
      Patcher.restore(M.OrigStart);
      M.Linked = false;
    }
    Watch.remove(M.Id);
    Profiler.unsuppress(M.OrigStart);
    M.Invalidated = true;
    ++N;
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Delinquent-load optimization: insertion, repair, maturing
//===----------------------------------------------------------------------===//

int TridentRuntime::maxDistanceFor(const TraceMeta &M) {
  const WatchEntry *W = Watch.find(M.Id);
  Cycle MinT = W && W->MinExecTime != ~static_cast<Cycle>(0)
                   ? std::max<Cycle>(W->MinExecTime, 1)
                   : 32;
  int Max = static_cast<int>(Config.MemoryLatency / MinT);
  return std::clamp(Max, 1, Config.DistanceCap);
}

int TridentRuntime::estimateDistance(const TraceMeta &M, Addr TriggerPC) {
  // Equation 2: distance = avg load miss latency / cycles per iteration
  // (the basic, non-adaptive estimator). We divide by the watch table's
  // *minimal* execution time — the quantity the hardware actually tracks —
  // which usefully biases the distance upward: once prefetching starts
  // working, iterations approach the minimum, so an average-time estimate
  // systematically undershoots (the instability Section 3.5.1 describes).
  const WatchEntry *W = Watch.find(M.Id);
  double IterTime = 0.0;
  if (W && W->MinExecTime != ~static_cast<Cycle>(0))
    IterTime = static_cast<double>(W->MinExecTime);
  else if (W && W->hasTiming())
    IterTime = W->avgExecTime();
  double MissLat = 0.0;
  if (std::optional<DltSnapshot> S = Dlt.lookup(TriggerPC))
    MissLat = S->avgMissLatency();
  if (IterTime <= 0.0 || MissLat <= 0.0)
    return 1;
  int D = static_cast<int>(MissLat / IterTime + 0.5);
  return std::clamp(D, 1, Config.DistanceCap);
}

int TridentRuntime::seedDistance(const TraceMeta &M, Addr TriggerPC) {
  // Section 3.5.1; the fixed-distance modes and the Section 5.3 "alternate
  // strategy" ablation start at the equation-2 estimate.
  return Config.Mode == PrefetchMode::SelfRepairing &&
                 !Config.SelfRepairInitialEstimate
             ? repair::StartDistance
             : estimateDistance(M, TriggerPC);
}

std::pair<PrefetchGroup *, LoadRepairState *>
TridentRuntime::coveredLoad(TraceMeta &M, Addr LoadPC) {
  auto It = M.LoadPCToBaseIdx.find(LoadPC);
  PrefetchGroup *G = It == M.LoadPCToBaseIdx.end()
                         ? nullptr
                         : M.Plan.groupCovering(It->second);
  return {G, G ? G->stateFor(It->second) : nullptr};
}

void TridentRuntime::startDelinquentWork(Addr LoadPC, uint32_t TraceId) {
  TRIDENT_CHECK(TraceId < Traces.size(), "event for unknown trace");
  TraceMeta &M = Traces[TraceId];
  auto [G, LS] = coveredLoad(M, LoadPC);
  if (!G) {
    // Not covered yet: plan prefetches for every delinquent load in the
    // trace and regenerate the trace body.
    beginInsertion(M, LoadPC);
    return;
  }
  // Covered: repair the distance, or, when it is not repairable (pointer-
  // only group, or a fixed-distance mode), mark the load mature so it stops
  // raising events (Section 3.5.2).
  const bool Repair =
      G->Repairable && Config.Mode == PrefetchMode::SelfRepairing;
  if (Repair && LS->Mature)
    applyRepair(M, *G, *LS, LoadPC, repair::reopen);
  const unsigned Loads =
      Repair ? static_cast<unsigned>(G->CoveredLoadIdxs.size()) : 1u;
  launchHelper(Repair ? PendingWork::Kind::Repair : PendingWork::Kind::Mature,
               Config.Cost.repair(Loads), TraceId, LoadPC);
}

void TridentRuntime::beginInsertion(TraceMeta &M, Addr TriggerPC) {
  // Map base-body indices to the PCs they are currently installed at.
  std::vector<Addr> InstalledPCs(M.BaseBody.size(), 0);
  for (unsigned I = 0; I < M.BaseBody.size(); ++I)
    InstalledPCs[I] = M.CacheAddr + M.OldToNew[I];

  std::vector<DelinquentLoad> Loads =
      Planner.identifyDelinquentLoads(M.BaseBody, InstalledPCs, Dlt);
  if (debugEnabled())
    for (const DelinquentLoad &DL : Loads)
      TRIDENT_DBG("[trident]   delinquent idx=%u pc=0x%llx class=%d "
                  "stride=%lld dlt=%d off=%lld avgmiss=%.0f\n",
                  DL.BodyIdx, (unsigned long long)DL.PC, int(DL.Class),
                  (long long)DL.Stride, DL.StrideFromDlt,
                  (long long)DL.Offset, DL.AvgMissLatency);

  const int InitialDistance = seedDistance(M, TriggerPC);
  TRIDENT_DBG("[trident] plan trace=%u trigger=0x%llx initial distance=%d "
              "(mode %s)\n",
              M.Id, (unsigned long long)TriggerPC, InitialDistance,
              prefetchModeName(Config.Mode));
  PrefetchPlan NewPlan = M.Plan;
  size_t PrevGroups = NewPlan.Groups.size();
  size_t PrevUncoverable = NewPlan.UncoverableLoadIdxs.size();
  unsigned Covered = Planner.plan(M.BaseBody, Loads, NewPlan,
                                  InitialDistance);

  const int MaxD = maxDistanceFor(M);
  for (size_t GI = PrevGroups; GI < NewPlan.Groups.size(); ++GI) {
    PrefetchGroup &G = NewPlan.Groups[GI];
    G.MaxDistance = MaxD;
    for (LoadRepairState &LS : G.PerLoad)
      LS = repair::begin(MaxD);
  }

  if (Covered == 0 && NewPlan.UncoverableLoadIdxs.size() == PrevUncoverable) {
    // Nothing new to do (e.g. the trigger load's window cleared between
    // event and dispatch): mature the trigger so it stops firing.
    launchHelper(PendingWork::Kind::Mature, Config.Cost.repair(1), M.Id,
                 TriggerPC);
    return;
  }

  for (const DelinquentLoad &DL : Loads)
    Pending.ClearPCs.push_back(DL.PC);
  Pending.ClearPCs.push_back(TriggerPC);
  Pending.Emission = Planner.emit(M.BaseBody, NewPlan);
  Pending.Plan = std::move(NewPlan);
  launchHelper(PendingWork::Kind::Insertion,
               Config.Cost.prefetchInsertion(
                   static_cast<unsigned>(M.BaseBody.size()),
                   static_cast<unsigned>(Loads.size())),
               M.Id);
}

void TridentRuntime::finishInsertion(uint32_t TraceId, PrefetchPlan NewPlan,
                                     PlanEmission Emission,
                                     std::vector<Addr> ClearPCs) {
  TraceMeta &M = Traces[TraceId];
  M.Plan = std::move(NewPlan);
  Stats.PrefetchInstructionsPlanned = 0;
  for (const TraceMeta &T : Traces)
    Stats.PrefetchInstructionsPlanned += T.Plan.Prefetches.size();

  installBody(M, Emission.NewBody, Emission.OldToNew, Emission.PatchSlots);
  ++Stats.InsertionOptimizations;
  TRIDENT_DBG("[trident] insert trace=%u: %zu groups, %zu prefetches, %zu "
              "uncoverable; body %zu -> %zu @0x%llx\n",
              TraceId, M.Plan.Groups.size(), M.Plan.Prefetches.size(),
              M.Plan.UncoverableLoadIdxs.size(), M.BaseBody.size(),
              Emission.NewBody.size(), (unsigned long long)M.CacheAddr);

  // Mature the loads the planner could not cover, at their new addresses.
  for (unsigned BaseIdx : M.Plan.UncoverableLoadIdxs)
    matureLoad(M.CacheAddr + M.OldToNew[BaseIdx]);
  // The helper thread clears the processed loads' window counters.
  for (Addr PC : ClearPCs)
    Dlt.clearWindow(PC);

  clearOptFlag(TraceId);
}

void TridentRuntime::matureLoad(Addr LoadPC) {
  Dlt.forceMature(LoadPC);
  ++Stats.LoadsMatured;
}

void TridentRuntime::patchPrefetchSlots(const TraceMeta &M,
                                        const PrefetchGroup &G) {
  // Patch the prefetch instruction bits in place — no trace regeneration.
  for (size_t PI : G.PrefetchIdxs) {
    Addr Slot = M.PrefetchSlotAddrs[PI];
    if (Slot != 0)
      CC.at(Slot).Imm =
          PrefetchPlanner::immediateFor(M.Plan.Prefetches[PI], G.Distance);
  }
}

void TridentRuntime::applyRepair(TraceMeta &M, PrefetchGroup &G,
                                 LoadRepairState &LS, Addr LoadPC,
                                 repair::Rule Rule) {
  // The policy reads the triggering load's own DLT latency (Section 3.5.2).
  std::optional<DltSnapshot> S = Dlt.lookup(LoadPC);
  const RepairDecision D =
      Rule({LS, G.Distance, G.MaxDistance, S ? S->avgAccessLatency() : 0.0,
            seedDistance(M, LoadPC), G.exhausted()});
  TRIDENT_DBG("[trident] %s trace=%u load=0x%llx avg=%.1f dist %d -> %d "
              "(max %d, repairs left %d)\n",
              repairReasonName(D.Reason), M.Id, (unsigned long long)LoadPC,
              D.AvgAccessLatency, D.OldDistance, D.Distance, G.MaxDistance,
              D.State.RepairsLeft);
  LS = D.State;
  G.Distance = D.Distance;
  switch (D.Reason) {
  case RepairReason::Reopen:
    ++Stats.RepairsReopened;
    return; // The repair step it re-opens runs next and does the rest.
  case RepairReason::PhaseReset:
    return; // The DLT dropped its mature flags in bulk.
  case RepairReason::Mature:
    break;
  case RepairReason::RegimeRestart:
    ++Stats.RegimeShiftsDetected;
    [[fallthrough]];
  case RepairReason::Climb:
  case RepairReason::BackOff:
  case RepairReason::Settle:
    patchPrefetchSlots(M, G);
    ++Stats.RepairOptimizations;
    Stats.LastRepairDistance = D.Distance;
    break;
  }
  if (D.State.Mature) // a settle or a mature
    matureLoad(LoadPC);
  Dlt.clearWindow(LoadPC);
  clearOptFlag(M.Id);
}

void TridentRuntime::finishRepair(uint32_t TraceId, Addr LoadPC) {
  TraceMeta &M = Traces[TraceId];
  auto [G, LS] = coveredLoad(M, LoadPC);
  // Only helper finishers change a plan or settle a load, one at a time.
  TRIDENT_CHECK(G && !LS->Mature, "repair step for a load with no open repair");
  // Re-calculate the maximal prefetch distance from the trace's minimal
  // execution time (Section 3.5.2).
  G->MaxDistance = maxDistanceFor(M);
  applyRepair(M, *G, *LS, LoadPC, repair::step);
}

void TridentRuntime::finishMature(uint32_t TraceId, Addr LoadPC) {
  TraceMeta &M = Traces[TraceId];
  if (auto [G, LS] = coveredLoad(M, LoadPC); G) {
    applyRepair(M, *G, *LS, LoadPC, repair::mature);
    return;
  }
  // A trigger no group covers has no repair state: only the DLT matures.
  matureLoad(LoadPC);
  clearOptFlag(TraceId);
}

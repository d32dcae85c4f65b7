//===- Machine.cpp --------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include "sim/ResultAssembly.h"
#include "support/Check.h"

using namespace trident;

namespace {

/// Co-lane commit target per quantum: effectively unbounded (the cycle
/// boundary always stops the lane first) but small enough that
/// SmtCore::run's goal arithmetic (committed + target) cannot wrap.
constexpr uint64_t kUnboundedCommits = uint64_t(1) << 62;

/// An enabled selector needs the feedback heartbeat; resolving it into a
/// copy keeps the caller's config untouched (the memo-cache fingerprint
/// must stay stable across runSimulation).
CoreConfig primaryCoreConfig(const SimConfig &Config) {
  CoreConfig Cfg = Config.Core;
  if (Config.Selector.enabled() && Cfg.HwPfFeedbackIntervalCommits == 0)
    Cfg.HwPfFeedbackIntervalCommits = Config.Selector.IntervalCommits;
  return Cfg;
}

} // namespace

/// One co-lane: a raw core (no Trident runtime, no event bus, no control
/// plane) executing its workload against the shared memory system. Member
/// order is load-bearing: Prog/Data/CC must be alive before Image, Image
/// before Core.
struct Machine::CoLane {
  Workload W;
  Program Prog;
  DataMemory Data;
  CodeCache CC;
  CodeImage Image;
  MetaPredictor Predictor;
  SmtCore Core;
  /// Lane-local cycle at the start of the measurement window (co-lane
  /// clocks are not cleared by clearStats).
  Cycle MeasureStart = 0;

  CoLane(Workload Src, const CoreConfig &Cfg, MemorySystem &Mem)
      : W(std::move(Src)), Prog(W.Prog), Image(Prog, CC),
        Core(Cfg, Image, Data, Mem) {
    W.Init(Data);
    Core.setBranchPredictor(&Predictor);
    Core.startContext(0, Prog.entryPC());
  }

  uint64_t instructions() const { return Core.stats(0).CommittedOriginal; }
  Cycle cycles() const { return Core.now() - MeasureStart; }
};

Machine::Machine(const Workload &Work, const SimConfig &Cfg,
                 EventTracer *Tracer)
    : W(Work), Config(Cfg), Prog(W.Prog),
      // The image is filled before the memory system is built: the other
      // order raised sweep-long's peak RSS by about 0.8 MB.
      Mem((W.Init(Data), Config.Mem)), CoreCfg(primaryCoreConfig(Config)),
      Image(Prog, CC), Core(CoreCfg, Image, Data, Mem) {
  TRIDENT_CHECK(Config.MixWith.size() <= 3,
                "mix supports 1..3 co-runners, got %zu",
                Config.MixWith.size());
  TRIDENT_CHECK(Config.MixWith.empty() || CoreCfg.MemBias == 0,
                "lane 0 owns bias 0; configure co-runners via MixWith");

  // Resolve the prefetcher spec through the arsenal registry; the TLB
  // model (when on) makes page-bounded units stop streams at pages.
  Env.PageBounded = Config.Mem.Tlb.Enable;
  Env.PageBits = Config.Mem.Tlb.PageBits;
  {
    std::string PfError;
    std::unique_ptr<HwPrefetcher> Unit =
        PrefetcherRegistry::instance().create(Config.HwPf, Env, &PfError);
    TRIDENT_CHECK(Unit || PrefetcherRegistry::isNone(Config.HwPf),
                  "bad --hwpf spec '%s': %s", Config.HwPf.c_str(),
                  PfError.c_str());
    if (Unit)
      Mem.attachPrefetcher(std::move(Unit));
  }
  Core.setBranchPredictor(&Predictor);

  // The event bus: the core publishes its commit/load/branch stream into
  // it; the Trident runtime's monitors and any observability sinks
  // subscribe. Subscribe the runtime first — monitor dispatch order is
  // load-bearing, the tracer is passive and rides behind.
  Core.setEventBus(&Bus);
  if (Config.EnableTrident) {
    RuntimeConfig RC = Config.Runtime;
    RC.MemoryLatency = Config.Mem.MemoryLatency;
    RC.L1HitLatency = Config.Mem.L1.HitLatency;
    Runtime = std::make_unique<TridentRuntime>(RC, Prog, Core, CC);
    Runtime->attach(Bus);
  }
  // The control plane: constructed only when a selector policy is on, so
  // static runs build exactly the pre-control-plane machine. Subscribed
  // after the runtime's monitors (they never touch the HwPfFeedback kind,
  // but keeping one subscription order is cheap insurance) and before the
  // injector, so a fault landing on the same cycle perturbs the post-
  // decision machine.
  if (Config.Selector.enabled()) {
    Monitor = std::make_unique<PhaseMonitor>(Config.Selector, Mem, Env,
                                             Config.HwPf);
    Monitor->attach(Bus);
  }
  // Fault injection: constructed only for a non-empty plan, so fault-free
  // runs build exactly the pre-fault-injection machine. Subscribed after
  // the runtime's monitors (the injector perturbs state between events,
  // never inside the monitors' view of one) and before the tracer.
  if (!Config.Faults.empty()) {
    FaultTargets Targets;
    Targets.Mem = &Mem;
    Targets.Runtime = Runtime.get();
    Injector = std::make_unique<FaultInjector>(Config.Faults, Targets);
    Injector->attach(Bus);
  }
  // The tracer is a passive flight recorder, so it rides the deferred
  // (batched) dispatch path: the core's hot loop stages a copy per event
  // and the tracer sees kind-ordered blocks instead of costing a virtual
  // call inside the issue loop.
  if (Tracer)
    Bus.subscribeDeferred(Tracer, Tracer->mask());

  Core.startContext(0, Prog.entryPC());

  // Co-lanes on private cores over the SAME memory system. Each lane's
  // bias keeps its cache/MSHR/prefetcher footprint disjoint from every
  // other lane's in tag space while contending for the same capacity and
  // bandwidth. Bit 44 leaves the full 16 TiB workload address range below
  // untouched.
  for (size_t I = 0; I < Config.MixWith.size(); ++I) {
    CoreConfig LaneCfg = Config.Core;
    LaneCfg.MemBias = static_cast<Addr>(I + 1) << 44;
    // Co-lanes have no event bus, so the feedback channel would only burn
    // a countdown; keep it off regardless of the primary's setting.
    LaneCfg.HwPfFeedbackIntervalCommits = 0;
    CoLanes.push_back(std::make_unique<CoLane>(
        makeWorkload(Config.MixWith[I]), LaneCfg, Mem));
  }
}

Machine::~Machine() = default;

SmtCore::StopReason Machine::runUntil(uint64_t CommitGoal) {
  // A co-lane is never ahead of the boundary and the primary never lags a
  // finished round, so lane clocks stay within one quantum of each other.
  // Chunking the primary's run at the boundary does not change what it
  // computes, so a solo run takes the same loop with no co-lanes.
  SmtCore::StopReason R = SmtCore::StopReason::CommitTarget;
  while (true) {
    Boundary += kMixQuantumCycles;
    uint64_t Done = Core.stats(0).CommittedOriginal;
    if (Done < CommitGoal)
      R = Core.run(CommitGoal - Done, Boundary);
    for (std::unique_ptr<CoLane> &L : CoLanes)
      if (!L->Core.halted(0) && L->Core.now() < Boundary)
        L->Core.run(kUnboundedCommits, Boundary);
    if (Core.stats(0).CommittedOriginal >= CommitGoal ||
        R != SmtCore::StopReason::CycleLimit)
      return R;
  }
}

void Machine::warmup() {
  // Warmup: caches and predictors train — under full contention when
  // co-lanes run — with dynamic optimization disabled (Section 4.2).
  if (Config.WarmupInstructions > 0) {
    SmtCore::StopReason R = runUntil(Config.WarmupInstructions);
    TRIDENT_CHECK(R != SmtCore::StopReason::CycleLimit,
                  "warmup of %llu instructions hit the cycle cap",
                  (unsigned long long)Config.WarmupInstructions);
  }
  if (Runtime)
    Runtime->setEnabled(true);

  // Open the measurement window.
  Core.clearStats();
  Mem.clearStats();
  Bus.clearCounts();
  if (Runtime)
    Runtime->clearStats();
  // After Mem.clearStats(): the monitor's delta baselines re-zero with
  // the counters they shadow (the policy keeps its warmup learning).
  if (Monitor)
    Monitor->onMeasurementStart();
  for (std::unique_ptr<CoLane> &L : CoLanes) {
    L->Core.clearStats();
    L->MeasureStart = L->Core.now();
  }
  Start = Core.now();
}

SimResult Machine::measure() {
  SmtCore::StopReason Stop = runUntil(Config.SimInstructions);
  Cycle End = Core.now();
  // Deliver any staged partial block before sinks are read or destroyed.
  Bus.flush();
  // The measurement window runs strictly forward from the warmed-up state
  // (cycle-counter monotonicity across the warmup/measure boundary).
  TRIDENT_CHECK(End >= Start,
                "measurement window ran backwards: start %llu, end %llu",
                (unsigned long long)Start, (unsigned long long)End);

  MachineSnapshot M;
  M.W = &W;
  M.Config = &Config;
  M.CoreCfg = &CoreCfg;
  M.Core = &Core;
  M.Mem = &Mem;
  M.Bus = &Bus;
  M.Runtime = Runtime.get();
  M.Injector = Injector.get();
  M.Monitor = Monitor.get();
  M.Start = Start;
  M.End = End;
  M.Stop = Stop;
  SimResult Res = assembleSimResult(M, [&](StatRegistry &Reg) {
    // mix.* lines appear only on mix runs (only-when-on): solo exports —
    // and the legacy golden corpus — never see them.
    if (CoLanes.empty())
      return;
    Reg.setCounter("mix.lanes", 1 + CoLanes.size());
    Reg.setCounter("mix.quantum_cycles", kMixQuantumCycles);
    for (size_t I = 0; I < CoLanes.size(); ++I) {
      const std::string P = "mix.lane" + std::to_string(I + 1) + ".";
      Reg.setCounter(P + "instructions", CoLanes[I]->instructions());
      Reg.setCounter(P + "cycles", CoLanes[I]->cycles());
      Reg.setCounter(P + "halted", CoLanes[I]->Core.halted(0) ? 1 : 0);
    }
  });
  for (std::unique_ptr<CoLane> &L : CoLanes) {
    SimResult::MixLane Lane;
    Lane.Workload = L->W.Name;
    Lane.Instructions = L->instructions();
    Lane.Cycles = L->cycles();
    Res.MixLanes.push_back(std::move(Lane));
  }
  return Res;
}

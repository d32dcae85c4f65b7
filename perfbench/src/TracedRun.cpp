//===- TracedRun.cpp ------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "TracedRun.h"

#include "branch/BranchPredictor.h"
#include "control/PhaseMonitor.h"
#include "sim/ResultAssembly.h"
#include "support/Check.h"
#include "trident/CodeCache.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

using namespace trident;

namespace perfbench {

namespace {

/// The span clock: the time-stamp counter where there is one (a few ns a
/// read), else the steady clock in nanoseconds.
uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
#endif
}

/// Seconds per tick, calibrated once against the steady clock.
double secondsPerTick() {
  static const double S = [] {
    const SteadyClock::time_point W0 = SteadyClock::now();
    const uint64_t T0 = ticks();
    while (since(W0) < 0.05) {
    }
    const uint64_t T1 = ticks();
    return since(W0) / static_cast<double>(T1 - T0);
  }();
  return S;
}

/// Span accumulators of the layers timed inside SmtCore::run.
struct LayerTicks {
  uint64_t Branch = 0;
  uint64_t HwTrain = 0;
  uint64_t HwProbe = 0;
  /// Beyond-L1 fetches a prefetcher issued (memory time nested in hwpf).
  uint64_t HwBackend = 0;
  uint64_t HwCalls = 0;
  uint64_t Events = 0;
  uint64_t Control = 0;

  uint64_t nested() const {
    return Branch + HwTrain + HwProbe + HwBackend + Events + Control;
  }
};

/// Forwards a prefetcher's fills to the real backend and times them, so
/// the prefetcher's span can exclude the memory work it triggers.
class TimingBackend final : public MemoryBackend {
public:
  explicit TimingBackend(MemoryBackend &B) : Inner(B) {}
  Cycle fetchBeyondL1(Addr LineAddr, Cycle Now, AccessKind Kind) override {
    const uint64_t T0 = ticks();
    const Cycle C = Inner.fetchBeyondL1(LineAddr, Now, Kind);
    Nested += ticks() - T0;
    return C;
  }
  unsigned lineSize() const override { return Inner.lineSize(); }

  uint64_t Nested = 0;

private:
  MemoryBackend &Inner;
};

/// Times every call into the attached arsenal unit. A selector swap
/// replaces the wrapper with a raw unit, so a bandit job's hwpf spans
/// cover the time until its first swap.
class TimingPrefetcher final : public HwPrefetcher {
public:
  TimingPrefetcher(std::unique_ptr<HwPrefetcher> U, LayerTicks &T)
      : Inner(std::move(U)), Ticks(T) {}

  void trainOnMiss(Addr PC, Addr ByteAddr, Cycle Now,
                   MemoryBackend &BE) override {
    TimingBackend TB(BE);
    const uint64_t T0 = ticks();
    Inner->trainOnMiss(PC, ByteAddr, Now, TB);
    charge(Ticks.HwTrain, ticks() - T0, TB.Nested);
  }
  std::optional<Cycle> probe(Addr LineAddr, Cycle Now,
                             MemoryBackend &BE) override {
    TimingBackend TB(BE);
    const uint64_t T0 = ticks();
    std::optional<Cycle> R = Inner->probe(LineAddr, Now, TB);
    charge(Ticks.HwProbe, ticks() - T0, TB.Nested);
    return R;
  }
  bool wantsAccessTraining() const override {
    return Inner->wantsAccessTraining();
  }
  void trainOnAccess(Addr PC, Addr ByteAddr, Cycle Now) override {
    const uint64_t T0 = ticks();
    Inner->trainOnAccess(PC, ByteAddr, Now);
    charge(Ticks.HwTrain, ticks() - T0, 0);
  }
  bool wantsFillTraining() const override { return Inner->wantsFillTraining(); }
  void trainOnFill(Addr LineAddr, Cycle Ready, AccessKind Kind) override {
    const uint64_t T0 = ticks();
    Inner->trainOnFill(LineAddr, Ready, Kind);
    charge(Ticks.HwTrain, ticks() - T0, 0);
  }
  HwPfStats snapshotStats() const override { return Inner->snapshotStats(); }
  std::string name() const override { return Inner->name(); }

private:
  void charge(uint64_t &Span, uint64_t Total, uint64_t Nested) {
    Span += Total - Nested;
    Ticks.HwBackend += Nested;
    ++Ticks.HwCalls;
  }

  std::unique_ptr<HwPrefetcher> Inner;
  LayerTicks &Ticks;
};

/// The Table 1 predictor with its predict/update calls timed.
class TimingPredictor final : public BranchPredictor {
public:
  explicit TimingPredictor(LayerTicks &T) : Ticks(T) {}
  bool predict(Addr PC) const override {
    const uint64_t T0 = ticks();
    const bool P = Inner.predict(PC);
    Ticks.Branch += ticks() - T0;
    return P;
  }
  void update(Addr PC, bool Taken) override {
    const uint64_t T0 = ticks();
    Inner.update(PC, Taken);
    Ticks.Branch += ticks() - T0;
  }

private:
  MetaPredictor Inner;
  LayerTicks &Ticks;
};

/// One half of a dispatch bracket: subscribed before a component's
/// subscribers it opens the span, subscribed after them it closes it.
class Stamp final : public EventSubscriber {
public:
  Stamp(uint64_t &OpenAt, uint64_t *Span) : Open(OpenAt), Acc(Span) {}
  void onEvent(const HardwareEvent &) override {
    if (Acc)
      *Acc += ticks() - Open;
    else
      Open = ticks();
  }

private:
  uint64_t &Open;
  uint64_t *Acc;
};

/// Keeps the attached unit timed across selector swaps. The phase monitor
/// attaches a freshly built unit and publishes its SelectorDecision before
/// any further access, so swapping in a timed fresh unit of the same arm at
/// that event leaves the machine state unchanged (the identity check
/// confirms it).
class RewrapOnSwap final : public EventSubscriber {
public:
  RewrapOnSwap(MemorySystem &M, const PrefetcherEnv &E, LayerTicks &T)
      : Mem(M), Env(E), Ticks(T) {}
  void onEvent(const HardwareEvent &E) override {
    if (E.Decision.ChosenArm == E.Decision.PrevArm)
      return;
    // The monitor's arm indices refer to the sorted arsenal list.
    const PrefetcherRegistry &Reg = PrefetcherRegistry::instance();
    std::string Err;
    std::unique_ptr<HwPrefetcher> U =
        Reg.create(Reg.arsenalNames().at(E.Decision.ChosenArm), Env, &Err);
    TRIDENT_CHECK(U != nullptr, "rewrap: %s", Err.c_str());
    Mem.attachPrefetcher(
        std::make_unique<TimingPrefetcher>(std::move(U), Ticks));
  }

private:
  MemorySystem &Mem;
  PrefetcherEnv Env;
  LayerTicks &Ticks;
};

/// Captures the runtime's HotTrace candidates for trace-build replay.
class HotTraceSink final : public EventSubscriber {
public:
  void onEvent(const HardwareEvent &E) override { Cands.push_back(E.Cand); }
  std::vector<HotTraceCandidate> Cands;
};

/// One committed main-context demand load.
struct LoadRec {
  Addr PC;
  Addr EA;
  Cycle Time;
  bool Hit;
};

/// Records the main context's LoadOutcome stream, up to a cap.
class LoadRecorder final : public EventSubscriber {
public:
  LoadRecorder(std::vector<LoadRec> &Out, size_t Max) : Loads(Out), Cap(Max) {}
  void onEvent(const HardwareEvent &E) override {
    if (E.Ctx != 0 || Loads.size() >= Cap)
      return;
    const bool Hit = E.Access->Outcome == LoadOutcome::HitNone ||
                     E.Access->Outcome == LoadOutcome::HitPrefetched;
    Loads.push_back({E.PC, E.EA, E.Time, Hit});
  }

private:
  std::vector<LoadRec> &Loads;
  size_t Cap;
};

enum class Wiring { Plain, Instrumented, Recording };

/// A solo job run through the benchmark's own wiring.
struct WiredRun {
  SimResult Result;
  double BuildS = 0, InitS = 0, MachineS = 0, WarmupS = 0, MeasureS = 0,
         AssembleS = 0, TotalS = 0, ReplayS = 0;
  uint64_t ImagePages = 0;
  /// Layer spans over the measurement window (Instrumented only).
  LayerTicks Spans;
  uint64_t MeasureTicks = 0;
  std::vector<double> TraceBuildUs, PlanUs;
  std::vector<LoadRec> Loads;

  double phasesS() const {
    return BuildS + InitS + MachineS + WarmupS + MeasureS + AssembleS;
  }
};

constexpr EventKindMask kMonitorKinds = eventMaskOf(EventKind::Commit) |
                                        eventMaskOf(EventKind::Branch) |
                                        eventMaskOf(EventKind::LoadOutcome);

/// Builds and runs \p J the way runSimulation's solo path does (no fault
/// plan, no tracer), reading the clock at every phase boundary. Keep in
/// step with sim/Simulation.cpp: the identity check catches any drift.
WiredRun runWired(const BenchJob &J, Wiring Mode, size_t MaxLoads = 0) {
  const SimConfig &Config = J.Config;
  TRIDENT_CHECK(Config.MixWith.empty() && Config.Faults.empty(),
                "the wiring covers solo, fault-free jobs only");
  const bool Instr = Mode == Wiring::Instrumented;
  WiredRun Out;
  const SteadyClock::time_point JobStart = SteadyClock::now();
  {
    SteadyClock::time_point T0 = SteadyClock::now();
    Workload W = makeWorkload(J.Program);
    Out.BuildS = since(T0);

    T0 = SteadyClock::now();
    Program Prog = W.Prog;
    Out.MachineS = since(T0);
    T0 = SteadyClock::now();
    DataMemory Data;
    W.Init(Data);
    Out.InitS = since(T0);
    Out.ImagePages = Data.numPages();

    T0 = SteadyClock::now();
    LayerTicks &LT = Out.Spans;
    MemorySystem Mem(Config.Mem);
    PrefetcherEnv Env;
    Env.PageBounded = Config.Mem.Tlb.Enable;
    Env.PageBits = Config.Mem.Tlb.PageBits;
    {
      std::string PfError;
      std::unique_ptr<HwPrefetcher> Unit =
          PrefetcherRegistry::instance().create(Config.HwPf, Env, &PfError);
      TRIDENT_CHECK(Unit || PrefetcherRegistry::isNone(Config.HwPf),
                    "bad --hwpf spec '%s': %s", Config.HwPf.c_str(),
                    PfError.c_str());
      if (Unit && Instr)
        Unit = std::make_unique<TimingPrefetcher>(std::move(Unit), LT);
      if (Unit)
        Mem.attachPrefetcher(std::move(Unit));
    }
    CoreConfig CoreCfg = Config.Core;
    if (Config.Selector.enabled() && CoreCfg.HwPfFeedbackIntervalCommits == 0)
      CoreCfg.HwPfFeedbackIntervalCommits = Config.Selector.IntervalCommits;

    CodeCache CC;
    CodeImage Image(Prog, CC);
    SmtCore Core(CoreCfg, Image, Data, Mem);
    std::unique_ptr<BranchPredictor> Predictor;
    if (Instr)
      Predictor = std::make_unique<TimingPredictor>(LT);
    else
      Predictor = std::make_unique<MetaPredictor>();
    Core.setBranchPredictor(Predictor.get());
    EventBus Bus;
    Core.setEventBus(&Bus);

    // Stamps only ride kinds the wired components already subscribe to,
    // so the core publishes exactly the events runSimulation's does.
    uint64_t EvOpen = 0, CtlOpen = 0;
    Stamp EvBegin(EvOpen, nullptr), EvEnd(EvOpen, &LT.Events);
    Stamp CtlBegin(CtlOpen, nullptr), CtlEnd(CtlOpen, &LT.Control);
    HotTraceSink Sink;
    LoadRecorder Recorder(Out.Loads, MaxLoads);
    RewrapOnSwap Rewrap(Mem, Env, LT);

    RuntimeConfig RC = Config.Runtime;
    RC.MemoryLatency = Config.Mem.MemoryLatency;
    RC.L1HitLatency = Config.Mem.L1.HitLatency;
    std::unique_ptr<TridentRuntime> Runtime;
    if (Config.EnableTrident) {
      Runtime = std::make_unique<TridentRuntime>(RC, Prog, Core, CC);
      if (Instr)
        Bus.subscribe(&EvBegin, kMonitorKinds);
      Runtime->attach(Bus);
      if (Instr) {
        Bus.subscribe(&EvEnd, kMonitorKinds);
        Bus.subscribe(&Sink, eventMaskOf(EventKind::HotTrace));
      }
    }
    std::unique_ptr<PhaseMonitor> Monitor;
    if (Config.Selector.enabled()) {
      Monitor = std::make_unique<PhaseMonitor>(Config.Selector, Mem, Env,
                                               Config.HwPf);
      if (Instr)
        Bus.subscribe(&CtlBegin, eventMaskOf(EventKind::HwPfFeedback));
      Monitor->attach(Bus);
      if (Instr) {
        Bus.subscribe(&CtlEnd, eventMaskOf(EventKind::HwPfFeedback));
        Bus.subscribe(&Rewrap, eventMaskOf(EventKind::SelectorDecision));
      }
    }
    if (Mode == Wiring::Recording) {
      TRIDENT_CHECK(!Runtime, "recording runs are Trident-off");
      Bus.subscribe(&Recorder, eventMaskOf(EventKind::LoadOutcome));
    }
    Core.startContext(0, Prog.entryPC());
    Out.MachineS += since(T0);

    T0 = SteadyClock::now();
    if (Config.WarmupInstructions > 0) {
      SmtCore::StopReason R = Core.run(Config.WarmupInstructions);
      TRIDENT_CHECK(R != SmtCore::StopReason::CycleLimit,
                    "warmup of %llu instructions hit the cycle cap",
                    (unsigned long long)Config.WarmupInstructions);
    }
    if (Runtime)
      Runtime->setEnabled(true);
    Core.clearStats();
    Mem.clearStats();
    Bus.clearCounts();
    if (Runtime)
      Runtime->clearStats();
    if (Monitor)
      Monitor->onMeasurementStart();
    Out.WarmupS = since(T0);

    LT = LayerTicks();
    T0 = SteadyClock::now();
    const uint64_t K0 = ticks();
    const Cycle Start = Core.now();
    const SmtCore::StopReason Stop = Core.run(Config.SimInstructions);
    const Cycle End = Core.now();
    Bus.flush();
    Out.MeasureTicks = ticks() - K0;
    Out.MeasureS = since(T0);
    TRIDENT_CHECK(End >= Start, "measurement window ran backwards");

    T0 = SteadyClock::now();
    MachineSnapshot M;
    M.W = &W;
    M.Config = &Config;
    M.CoreCfg = &CoreCfg;
    M.Core = &Core;
    M.Mem = &Mem;
    M.Bus = &Bus;
    M.Runtime = Runtime.get();
    M.Monitor = Monitor.get();
    M.Start = Start;
    M.End = End;
    M.Stop = Stop;
    Out.Result = assembleSimResult(M);
    Out.AssembleS = since(T0);

    // Helper-optimizer replay: rebuild each captured hot trace from the
    // unpatched program, and re-emit the runtime's final plan over it.
    T0 = SteadyClock::now();
    if (Runtime) {
      TraceBuilder Builder(RC.Builder);
      PrefetchPlanner Planner(PlannerConfig{
          64, reg::FirstScratch, RC.DistanceCap,
          RC.Mode == PrefetchMode::WholeObject ||
              RC.Mode == PrefetchMode::SelfRepairing});
      for (const HotTraceCandidate &C : Sink.Cands) {
        SteadyClock::time_point B0 = SteadyClock::now();
        std::optional<Trace> Tr = Builder.build(W.Prog, C, 0);
        Out.TraceBuildUs.push_back(since(B0) * 1e6);
        const PrefetchPlan *Plan = Runtime->planFor(C.StartPC);
        if (!Tr || !Plan)
          continue;
        B0 = SteadyClock::now();
        PlanEmission E = Planner.emit(Tr->Body, *Plan);
        Out.PlanUs.push_back(since(B0) * 1e6);
        TRIDENT_CHECK(E.OldToNew.size() == Tr->Body.size(), "plan replay");
      }
    }
    Out.ReplayS = since(T0);
  }
  Out.TotalS = since(JobStart);
  return Out;
}

/// A backend that answers every fetch at memory latency: isolates an
/// arsenal unit's own cost in replay.
class FixedLatencyBackend final : public MemoryBackend {
public:
  Cycle fetchBeyondL1(Addr, Cycle Now, AccessKind) override {
    return Now + 350;
  }
  unsigned lineSize() const override { return 64; }
};

double nsPer(double Seconds, uint64_t N) {
  return N == 0 ? 0.0 : Seconds * 1e9 / static_cast<double>(N);
}

/// Replays the recorded streams into a fresh MemorySystem, a lone L1
/// Cache, and each arsenal unit on its own.
void replayStreams(const std::vector<std::vector<LoadRec>> &Streams,
                   std::map<std::string, double> &M) {
  uint64_t N = 0;
  for (const std::vector<LoadRec> &S : Streams)
    N += S.size();
  const MemSystemConfig MC = MemSystemConfig::baseline();

  SteadyClock::time_point T0 = SteadyClock::now();
  for (const std::vector<LoadRec> &S : Streams) {
    MemorySystem Mem(MC);
    for (const LoadRec &L : S)
      Mem.access(L.PC, L.EA, AccessKind::DemandLoad, L.Time);
  }
  M["mem.replay_ns_per_access"] = nsPer(since(T0), N);

  T0 = SteadyClock::now();
  for (const std::vector<LoadRec> &S : Streams) {
    Cache L1(MC.L1);
    for (const LoadRec &L : S) {
      const Addr Line = L1.lineAddr(L.EA);
      if (!L1.lookup(Line))
        L1.insert(Line, L.Time + MC.MemoryLatency, false);
    }
  }
  M["mem.l1_replay_ns_per_lookup"] = nsPer(since(T0), N);

  const PrefetcherRegistry &Reg = PrefetcherRegistry::instance();
  const PrefetcherEnv Env;
  for (const std::string &Name : Reg.arsenalNames()) {
    T0 = SteadyClock::now();
    for (const std::vector<LoadRec> &S : Streams) {
      std::string Err;
      std::unique_ptr<HwPrefetcher> U = Reg.create(Name, Env, &Err);
      TRIDENT_CHECK(U != nullptr, "arsenal unit %s: %s", Name.c_str(),
                    Err.c_str());
      FixedLatencyBackend BE;
      const bool OnAccess = U->wantsAccessTraining();
      const bool OnFill = U->wantsFillTraining();
      for (const LoadRec &L : S) {
        if (L.Hit) {
          if (OnAccess)
            U->trainOnAccess(L.PC, L.EA, L.Time);
          continue;
        }
        const Addr Line = L.EA & ~static_cast<Addr>(63);
        if (U->probe(Line, L.Time, BE))
          continue;
        U->trainOnMiss(L.PC, L.EA, L.Time, BE);
        if (OnFill)
          U->trainOnFill(Line, L.Time + MC.MemoryLatency,
                         AccessKind::DemandLoad);
      }
    }
    M["hwpf." + Name + ".replay_ns_per_access"] = nsPer(since(T0), N);
  }
}

/// Instructions recorded per program for load-stream replay.
constexpr uint64_t kRecordInstr = 300'000;
constexpr size_t kRecordMaxLoads = 100'000;

} // namespace

TracedReport runTraced(const std::vector<BenchJob> &Jobs) {
  TracedReport Rep;
  std::map<std::string, double> &M = Rep.Metrics;
  const double Spt = secondsPerTick();

  // The untraced batch, exactly as the untraced workload runs it.
  SteadyClock::time_point T0 = SteadyClock::now();
  const std::vector<std::shared_ptr<const SimResult>> Results = runBatch(Jobs);
  const double BatchWall = since(T0);

  double BusyS = 0, MixS = 0, Unattributed = 0;
  double UMeasure = 0, TMeasure = 0;
  double BuildS = 0, InitS = 0, MachineS = 0, WarmupS = 0, AssembleS = 0;
  uint64_t ImagePages = 0, SoloInstr = 0;
  LayerTicks Spans;
  uint64_t SelfTicks = 0;
  std::vector<double> BuildUs, PlanUs;
  std::set<std::string> Programs;

  for (size_t I = 0; I < Jobs.size(); ++I) {
    const BenchJob &J = Jobs[I];
    const SimResult &Ref = *Results[I];
    const std::string RefJsonl = Ref.Registry->toJsonl();
    Rep.Digests[J.Label] = resultDigest(Ref);
    Programs.insert(J.Program);
    for (const std::string &Co : J.Config.MixWith)
      Programs.insert(Co);

    if (!J.Config.MixWith.empty()) {
      // Mix jobs are timed whole, through runSimulation itself.
      T0 = SteadyClock::now();
      SimResult R = runSimulation(makeWorkload(J.Program), J.Config);
      const double S = since(T0);
      MixS += S;
      BusyS += S;
      if (resultDigest(R) != resultDigest(Ref))
        ++Rep.IdentityFailures;
      continue;
    }

    WiredRun U = runWired(J, Wiring::Plain);
    WiredRun T = runWired(J, Wiring::Instrumented);
    if (U.Result.Registry->toJsonl() != RefJsonl ||
        T.Result.Registry->toJsonl() != RefJsonl ||
        resultDigest(U.Result) != resultDigest(Ref) ||
        resultDigest(T.Result) != resultDigest(Ref)) {
      std::fprintf(stderr, "identity: %s differs from runSimulation\n",
                   J.Label.c_str());
      ++Rep.IdentityFailures;
    }
    BusyS += U.TotalS - U.ReplayS;
    BuildS += U.BuildS;
    InitS += U.InitS;
    MachineS += U.MachineS;
    WarmupS += U.WarmupS;
    AssembleS += U.AssembleS;
    UMeasure += U.MeasureS;
    ImagePages += U.ImagePages;
    TMeasure += T.MeasureS;
    Unattributed += T.TotalS - T.ReplayS - T.phasesS();
    SoloInstr += T.Result.Instructions;
    Spans.Branch += T.Spans.Branch;
    Spans.HwTrain += T.Spans.HwTrain;
    Spans.HwProbe += T.Spans.HwProbe;
    Spans.HwBackend += T.Spans.HwBackend;
    Spans.HwCalls += T.Spans.HwCalls;
    Spans.Events += T.Spans.Events;
    Spans.Control += T.Spans.Control;
    SelfTicks += T.MeasureTicks - std::min(T.MeasureTicks, T.Spans.nested());
    BuildUs.insert(BuildUs.end(), T.TraceBuildUs.begin(), T.TraceBuildUs.end());
    PlanUs.insert(PlanUs.end(), T.PlanUs.begin(), T.PlanUs.end());
  }

  auto mean = [](const std::vector<double> &V) {
    double S = 0;
    for (double X : V)
      S += X;
    return V.empty() ? 0.0 : S / static_cast<double>(V.size());
  };
  auto ratio = [](double A, double B) { return B == 0 ? 0.0 : A / B; };

  M["workloads.build_s"] = BuildS;
  M["workloads.init_s"] = InitS;
  M["workloads.image_pages"] = static_cast<double>(ImagePages);
  M["sim.machine_build_s"] = MachineS;
  M["sim.warmup_s"] = WarmupS;
  M["sim.measure_s"] = UMeasure;
  M["sim.assemble_s"] = AssembleS;
  M["sim.mix_job_s"] = MixS;
  M["sim.pool_busy_frac"] = ratio(BusyS, BatchWall);
  M["sim.trace_overhead_frac"] =
      UMeasure == 0 ? 0.0 : TMeasure / UMeasure - 1.0;
  M["sim.unattributed_s"] = Unattributed;
  M["cpu.self_s"] = static_cast<double>(SelfTicks) * Spt;
  M["cpu.ns_per_instr"] = nsPer(M["cpu.self_s"], SoloInstr);
  M["branch.predict_s"] = static_cast<double>(Spans.Branch) * Spt;
  M["hwpf.train_s"] = static_cast<double>(Spans.HwTrain) * Spt;
  M["hwpf.probe_s"] = static_cast<double>(Spans.HwProbe) * Spt;
  M["hwpf.calls"] = static_cast<double>(Spans.HwCalls);
  M["events.dispatch_s"] = static_cast<double>(Spans.Events) * Spt;
  M["control.dispatch_s"] = static_cast<double>(Spans.Control) * Spt;
  M["core.trace_build_us"] = mean(BuildUs);
  M["core.plan_us"] = mean(PlanUs);

  // Simulated counts over every job of the batch.
  uint64_t Cycles = 0, Instr = 0, Mispredicts = 0, Issued = 0, Useful = 0;
  uint64_t TriCycles = 0, HelperBusy = 0, MissesTotal = 0, MissesInTraces = 0;
  MemStats Mem;
  RuntimeStats Rt;
  SelectorStats Sel;
  std::array<uint64_t, kNumEventKinds> Published{};
  uint64_t PeakQueue = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const SimResult &R = *Results[I];
    Cycles += R.Cycles;
    Instr += R.Instructions;
    Mispredicts += R.BranchMispredicts;
    Issued += R.PfFeedback.Issued;
    Useful += R.PfFeedback.Useful;
    Mem.DemandLoads += R.Mem.DemandLoads;
    Mem.Misses += R.Mem.demandL1Misses();
    Mem.MemoryFetches += R.Mem.MemoryFetches;
    Mem.TotalExposedLatency += R.Mem.TotalExposedLatency;
    for (unsigned K = 0; K < kNumEventKinds; ++K)
      Published[K] += R.EventsPublished[K];
    if (Jobs[I].Config.EnableTrident) {
      TriCycles += R.Cycles;
      HelperBusy += R.HelperBusyCycles;
    }
    Rt.HotTraceEvents += R.Runtime.HotTraceEvents;
    Rt.TracesInstalled += R.Runtime.TracesInstalled;
    Rt.DelinquentEvents += R.Runtime.DelinquentEvents;
    Rt.InsertionOptimizations += R.Runtime.InsertionOptimizations;
    Rt.RepairOptimizations += R.Runtime.RepairOptimizations;
    Rt.LoadsMatured += R.Runtime.LoadsMatured;
    Rt.EventsDropped += R.Runtime.EventsDropped;
    PeakQueue = std::max(PeakQueue, R.Runtime.PeakPendingEvents);
    MissesTotal += R.Runtime.LoadMissesTotal;
    MissesInTraces += R.Runtime.LoadMissesInTraces;
    Sel.Epochs += R.Selector.Epochs;
    Sel.Swaps += R.Selector.Swaps;
  }
  auto d = [](uint64_t V) { return static_cast<double>(V); };
  M["cpu.cycles"] = d(Cycles);
  M["cpu.instructions"] = d(Instr);
  M["cpu.ipc"] = ratio(d(Instr), d(Cycles));
  M["branch.mispredicts"] = d(Mispredicts);
  M["mem.demand_loads"] = d(Mem.DemandLoads);
  M["mem.l1_miss_frac"] = ratio(d(Mem.Misses), d(Mem.DemandLoads));
  M["mem.memory_fetches"] = d(Mem.MemoryFetches);
  M["mem.exposed_latency_cycles"] = d(Mem.TotalExposedLatency);
  M["hwpf.issued"] = d(Issued);
  M["hwpf.useful"] = d(Useful);
  M["hwpf.accuracy"] = ratio(d(Useful), d(Issued));
  for (unsigned K = 0; K < kNumEventKinds; ++K)
    M[std::string("events.published.") +
      eventKindName(static_cast<EventKind>(K))] = d(Published[K]);
  M["events.dropped"] = d(Rt.EventsDropped);
  M["events.peak_queue"] = d(PeakQueue);
  M["trident.hot_trace_events"] = d(Rt.HotTraceEvents);
  M["trident.traces_installed"] = d(Rt.TracesInstalled);
  M["trident.miss_coverage"] = ratio(d(MissesInTraces), d(MissesTotal));
  M["dlt.delinquent_events"] = d(Rt.DelinquentEvents);
  M["core.insertions"] = d(Rt.InsertionOptimizations);
  M["core.repairs"] = d(Rt.RepairOptimizations);
  M["core.loads_matured"] = d(Rt.LoadsMatured);
  M["core.helper_busy_frac"] = ratio(d(HelperBusy), d(TriCycles));
  M["control.epochs"] = d(Sel.Epochs);
  M["control.swaps"] = d(Sel.Swaps);

  // Load streams of every program the workload runs, replayed per layer.
  std::vector<std::vector<LoadRec>> Streams;
  for (const std::string &P : Programs) {
    BenchJob Rec{"record/" + P, P, SimConfig::hwBaseline()};
    Rec.Config.WarmupInstructions = 0;
    Rec.Config.SimInstructions = kRecordInstr;
    Streams.push_back(
        std::move(runWired(Rec, Wiring::Recording, kRecordMaxLoads).Loads));
  }
  replayStreams(Streams, M);
  return Rep;
}

} // namespace perfbench

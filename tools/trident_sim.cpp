//===- trident_sim.cpp - Command-line simulator driver ---------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// A full-featured CLI over the library: pick a workload and configuration,
// run it, and get the complete statistics dump. Everything the figure
// benches do can be reproduced ad hoc from here.
//
//   trident_sim --list
//   trident_sim --workload mcf --compare
//   trident_sim --workload galgel --mode self-repairing --instr 4000000
//               --window 128 --miss-threshold 4 --verbose
//   trident_sim --workload equake --hwpf none --mode self-repairing
//   trident_sim --workload art --mode basic --tlb --no-link
//
//===----------------------------------------------------------------------===//

#include "sim/ExperimentRunner.h"
#include "sim/Simulation.h"
#include "support/Table.h"
#include "workloads/Workloads.h"
#include "workloads/fuzz/FuzzGenerator.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace trident;

namespace {

void usage(const char *Prog) {
  std::printf(
      "usage: %s [options]\n"
      "  --list                 list the 14 workloads and exit\n"
      "  --workload NAME        workload to run (required unless --list,\n"
      "                         --fuzz, or --mix); fuzz@SEED[:knobs] specs\n"
      "                         are accepted anywhere a name is\n"
      "  --fuzz SPEC            run a generated workload: SEED[:knob=v,...]\n"
      "                         with knobs wset (KB), segs, entropy (0-1000\n"
      "                         permille), branch (permille), phase (iters),\n"
      "                         streams; same seed+knobs => bit-identical\n"
      "                         program and result\n"
      "  --mix W1+W2[+W3[+W4]]  multi-programmed mix: W1 is the measured\n"
      "                         primary (full Trident wiring), the rest are\n"
      "                         raw co-runners contending for the shared\n"
      "                         memory system; names or fuzz specs\n"
      "  --mode MODE            hw | none | basic | whole-object |\n"
      "                         self-repairing   (default self-repairing;\n"
      "                         'hw' disables Trident entirely)\n"
      "  --hwpf SPEC            hardware-prefetcher spec (default sb8x8);\n"
      "                         'none' disables, 'list' enumerates the\n"
      "                         registered arsenal; knobs attach as\n"
      "                         name:k=v,k=v (e.g. dcpt:entries=64)\n"
      "  --hwpf-feedback N      publish hwpf accuracy/coverage feedback\n"
      "                         events every N commits and export the\n"
      "                         hwpf.feedback.* stats (default 0 = off)\n"
      "  --selector SPEC        phase-aware prefetcher selection (default\n"
      "                         static = off): bandit[:knobs] swaps arsenal\n"
      "                         units at epoch boundaries (knobs epoch,\n"
      "                         interval, seed, eps, ucb, ema),\n"
      "                         oracle[:knobs] replays every static unit\n"
      "                         first and pins the best\n"
      "  --instr N              committed instructions (default 2000000)\n"
      "  --warmup N             warmup instructions (default 100000)\n"
      "  --compare              also run the hw baseline and print speedup\n"
      "  --no-link              form/optimize traces but never link (5.1)\n"
      "  --tlb                  enable the data-TLB model (+ page-bounded\n"
      "                         stream buffers)\n"
      "  --seed-estimate        seed self-repair with the eq.2 estimate\n"
      "  --phase-adapt          clear mature flags on phase changes\n"
      "  --dlt-entries N        DLT size (default 1024)\n"
      "  --window N             DLT monitoring window (default 256)\n"
      "  --miss-threshold N     DLT miss threshold (default 8)\n"
      "  --distance-cap N       max prefetch distance (default 64)\n"
      "  --trace-out PATH       record hardware events into a ring buffer\n"
      "                         and write Chrome trace JSON (open it in\n"
      "                         chrome://tracing or ui.perfetto.dev)\n"
      "  --trace-capacity N     event-ring capacity (default 65536; the\n"
      "                         ring keeps the newest N events)\n"
      "  --stats-out PATH       write the full stat registry as JSONL\n"
      "                         (one {\"name\",\"type\",\"value\"} per line,\n"
      "                         sorted by name, byte-reproducible)\n"
      "  --faults PATH          inject faults from a JSON fault plan (see\n"
      "                         DESIGN.md section 11 for the schema); the\n"
      "                         run stays deterministic for a fixed plan\n"
      "  --verbose              full statistics dump\n",
      Prog);
}

/// Reads a numeric flag's value into \p Out: decimal digits only, from
/// \p Min up to the largest value \p Out holds. Anything else (a sign, a
/// suffix, an empty value, overflow) exits 2 before any machine is built.
template <typename T>
void parseNumber(const char *Flag, const char *Text, T &Out, T Min = 0) {
  const uint64_t Max = static_cast<uint64_t>(std::numeric_limits<T>::max());
  uint64_t V = 0;
  bool Ok = *Text != '\0';
  for (const char *P = Text; Ok && *P; ++P) {
    const uint64_t Digit = static_cast<unsigned char>(*P) - uint64_t{'0'};
    Ok = Digit <= 9 && V <= (Max - Digit) / 10;
    V = V * 10 + Digit;
  }
  if (!Ok || V < static_cast<uint64_t>(Min)) {
    std::fprintf(stderr, "error: %s takes a whole number from %llu to %llu, "
                         "got '%s'\n",
                 Flag, static_cast<unsigned long long>(Min),
                 static_cast<unsigned long long>(Max), Text);
    std::exit(2);
  }
  Out = static_cast<T>(V);
}

const char *onOff(bool B) { return B ? "on" : "off"; }

void printStats(const SimResult &R, bool Verbose) {
  std::printf("workload         %s\n", R.Workload.c_str());
  std::printf("config           %s\n", R.ConfigName.c_str());
  std::printf("instructions     %llu\n",
              (unsigned long long)R.Instructions);
  std::printf("cycles           %llu\n", (unsigned long long)R.Cycles);
  std::printf("IPC              %.4f\n", R.Ipc);
  // Printed outside --verbose: CI's selector smoke parses this line.
  if (R.Selector.Samples > 0 || !R.SelectorFinalUnit.empty())
    std::printf("selector         epochs=%llu swaps=%llu explorations=%llu "
                "final=%s\n",
                (unsigned long long)R.Selector.Epochs,
                (unsigned long long)R.Selector.Swaps,
                (unsigned long long)R.Selector.Explorations,
                R.SelectorFinalUnit.empty() ? "none"
                                            : R.SelectorFinalUnit.c_str());
  for (size_t I = 0; I < R.MixLanes.size(); ++I) {
    const SimResult::MixLane &L = R.MixLanes[I];
    double LaneIpc =
        L.Cycles ? double(L.Instructions) / double(L.Cycles) : 0.0;
    std::printf("mix lane %zu       %s: %llu instrs, IPC %.4f\n", I + 1,
                L.Workload.c_str(), (unsigned long long)L.Instructions,
                LaneIpc);
  }
  if (!Verbose)
    return;

  const MemStats &M = R.Mem;
  std::printf("\n-- memory system --\n");
  std::printf("demand loads     %llu\n", (unsigned long long)M.DemandLoads);
  std::printf("  hits           %llu\n", (unsigned long long)M.HitsNone);
  std::printf("  hit-prefetched %llu\n",
              (unsigned long long)M.HitsPrefetched);
  std::printf("  partial hits   %llu\n", (unsigned long long)M.PartialHits);
  std::printf("  misses         %llu\n", (unsigned long long)M.Misses);
  std::printf("  miss-due-to-pf %llu\n",
              (unsigned long long)M.MissesDueToPrefetch);
  std::printf("sw prefetches    %llu\n",
              (unsigned long long)M.SoftwarePrefetches);
  std::printf("hw prefetches    %llu\n",
              (unsigned long long)M.HardwarePrefetches);
  std::printf("memory fetches   %llu\n",
              (unsigned long long)M.MemoryFetches);
  if (!R.HwPf.Prefetcher.empty()) {
    std::printf("hwpf unit        %s\n", R.HwPf.Prefetcher.c_str());
    for (const auto &KV : R.HwPf.Counters)
      std::printf("  %-14s %llu\n", KV.first.c_str(),
                  (unsigned long long)KV.second);
  }
  std::printf("exposed lat/load %.2f cycles\n",
              M.DemandLoads
                  ? double(M.TotalExposedLatency) / double(M.DemandLoads)
                  : 0.0);
  if (R.Tlb.Lookups)
    std::printf("dtlb             %llu lookups, %llu misses, %llu "
                "prefetches dropped\n",
                (unsigned long long)R.Tlb.Lookups,
                (unsigned long long)R.Tlb.Misses,
                (unsigned long long)R.Tlb.PrefetchesDropped);

  if (R.Faults.Injected > 0) {
    std::printf("\n-- fault injection --\n");
    std::printf("faults injected  %llu (%llu reverted, %llu skipped)\n",
                (unsigned long long)R.Faults.Injected,
                (unsigned long long)R.Faults.Reverts,
                (unsigned long long)R.Faults.Skipped);
    std::printf("evicted          %llu cache lines, %llu dlt, %llu watch\n",
                (unsigned long long)R.Faults.CacheLinesEvicted,
                (unsigned long long)R.Faults.DltEntriesEvicted,
                (unsigned long long)R.Faults.WatchEntriesEvicted);
    std::printf("re-detection     %llu faults, %llu cycles total\n",
                (unsigned long long)R.Faults.DetectionEvents,
                (unsigned long long)R.Faults.DetectionCyclesTotal);
    std::printf("re-convergence   %llu faults, %llu cycles total\n",
                (unsigned long long)R.Faults.ReconvergenceEvents,
                (unsigned long long)R.Faults.ReconvergenceCyclesTotal);
  }

  const RuntimeStats &S = R.Runtime;
  if (S.CommitsTotal == 0)
    return;
  std::printf("\n-- trident runtime --\n");
  std::printf("hot-trace events %llu\n",
              (unsigned long long)S.HotTraceEvents);
  std::printf("traces installed %llu (+%llu reinstalls)\n",
              (unsigned long long)S.TracesInstalled,
              (unsigned long long)S.TraceReinstalls);
  std::printf("delinquent evts  %llu\n",
              (unsigned long long)S.DelinquentEvents);
  std::printf("insertions       %llu\n",
              (unsigned long long)S.InsertionOptimizations);
  std::printf("repairs          %llu (last distance %d)\n",
              (unsigned long long)S.RepairOptimizations,
              S.LastRepairDistance);
  std::printf("loads matured    %llu\n", (unsigned long long)S.LoadsMatured);
  std::printf("events dropped   %llu\n",
              (unsigned long long)S.EventsDropped);
  std::printf("pf instructions  %llu planned\n",
              (unsigned long long)S.PrefetchInstructionsPlanned);
  std::printf("phase changes    %llu (%llu flags cleared)\n",
              (unsigned long long)S.PhaseChangesDetected,
              (unsigned long long)S.MatureFlagsCleared);
  std::printf("commit coverage  %.1f%% of commits in traces\n",
              S.CommitsTotal
                  ? 100.0 * double(S.CommitsInTraces) / double(S.CommitsTotal)
                  : 0.0);
  std::printf("miss coverage    %.1f%% in traces, %.1f%% prefetch-covered\n",
              100.0 * S.traceMissCoverage(),
              100.0 * S.prefetchMissCoverage());
  std::printf("helper thread    active %.2f%% of cycles\n",
              100.0 * R.helperActiveFraction());
  std::printf("dlt              %llu updates, %llu windows, %llu events, "
              "%llu replacements\n",
              (unsigned long long)R.Dlt.Updates,
              (unsigned long long)R.Dlt.WindowsCompleted,
              (unsigned long long)R.Dlt.Events,
              (unsigned long long)R.Dlt.Replacements);
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName;
  std::string FuzzSpec, MixSpec;
  std::string Mode = "self-repairing";
  std::string HwPf = "sb8x8";
  std::string Selector;
  uint64_t HwPfFeedback = 0;
  uint64_t Instr = 2'000'000, Warmup = 100'000;
  bool Compare = false, Verbose = false, List = false;
  bool NoLink = false, EnableTlb = false, SeedEstimate = false,
       PhaseAdapt = false;
  unsigned DltEntries = 1024, Window = 256, MissThreshold = 8;
  int DistanceCap = 64;
  std::string TraceOut, StatsOut, FaultsPath;
  size_t TraceCapacity = 1 << 16;

  auto needValue = [&](int &I) -> const char * {
    if (I + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", argv[I]);
      std::exit(2);
    }
    return argv[++I];
  };

  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (!std::strcmp(A, "--list"))
      List = true;
    else if (!std::strcmp(A, "--workload"))
      WorkloadName = needValue(I);
    else if (!std::strcmp(A, "--fuzz"))
      FuzzSpec = needValue(I);
    else if (!std::strcmp(A, "--mix"))
      MixSpec = needValue(I);
    else if (!std::strcmp(A, "--mode"))
      Mode = needValue(I);
    else if (!std::strcmp(A, "--hwpf"))
      HwPf = needValue(I);
    else if (!std::strcmp(A, "--hwpf-feedback"))
      parseNumber(A, needValue(I), HwPfFeedback);
    else if (!std::strcmp(A, "--selector"))
      Selector = needValue(I);
    else if (!std::strcmp(A, "--instr"))
      parseNumber(A, needValue(I), Instr);
    else if (!std::strcmp(A, "--warmup"))
      parseNumber(A, needValue(I), Warmup);
    else if (!std::strcmp(A, "--compare"))
      Compare = true;
    else if (!std::strcmp(A, "--no-link"))
      NoLink = true;
    else if (!std::strcmp(A, "--tlb"))
      EnableTlb = true;
    else if (!std::strcmp(A, "--seed-estimate"))
      SeedEstimate = true;
    else if (!std::strcmp(A, "--phase-adapt"))
      PhaseAdapt = true;
    else if (!std::strcmp(A, "--dlt-entries"))
      parseNumber(A, needValue(I), DltEntries);
    else if (!std::strcmp(A, "--window"))
      parseNumber(A, needValue(I), Window);
    else if (!std::strcmp(A, "--miss-threshold"))
      parseNumber(A, needValue(I), MissThreshold);
    else if (!std::strcmp(A, "--distance-cap"))
      parseNumber(A, needValue(I), DistanceCap);
    else if (!std::strcmp(A, "--trace-out"))
      TraceOut = needValue(I);
    else if (!std::strcmp(A, "--trace-capacity"))
      parseNumber(A, needValue(I), TraceCapacity, EventTracer::MinCapacity);
    else if (!std::strcmp(A, "--stats-out"))
      StatsOut = needValue(I);
    else if (!std::strcmp(A, "--faults"))
      FaultsPath = needValue(I);
    else if (!std::strcmp(A, "--verbose"))
      Verbose = true;
    else if (!std::strcmp(A, "--help") || !std::strcmp(A, "-h")) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", A);
      usage(argv[0]);
      return 2;
    }
  }

  if (List) {
    Table T({"workload", "behaviour"});
    for (const std::string &N : workloadNames())
      T.addRow({N, makeWorkload(N).Description});
    std::printf("%s", T.render().c_str());
    return 0;
  }
  if (HwPf == "list") {
    Table T({"prefetcher", "knobs", "description"});
    for (const std::string &N : PrefetcherRegistry::instance().names()) {
      const PrefetcherRegistry::Info *Inf =
          PrefetcherRegistry::instance().lookup(N);
      T.addRow({N, Inf->Knobs.empty() ? "-" : Inf->Knobs, Inf->Summary});
    }
    std::printf("%s", T.render().c_str());
    return 0;
  }
  // A workload reference is one of the named workloads or a fuzz spec;
  // validate every reference up front so a typo fails with a crisp
  // message instead of mid-run inside the machine wiring.
  auto validRef = [](const std::string &Ref) -> bool {
    if (isFuzzSpec(Ref)) {
      uint64_t Seed;
      FuzzKnobs Knobs;
      std::string FuzzError;
      if (!parseFuzzSpec(Ref, Seed, Knobs, &FuzzError)) {
        std::fprintf(stderr, "error: bad fuzz spec '%s': %s\n", Ref.c_str(),
                     FuzzError.c_str());
        return false;
      }
      return true;
    }
    for (const std::string &N : workloadNames())
      if (N == Ref)
        return true;
    std::fprintf(stderr, "error: unknown workload '%s' (see --list)\n",
                 Ref.c_str());
    return false;
  };

  if (!FuzzSpec.empty()) {
    if (!WorkloadName.empty()) {
      std::fprintf(stderr, "error: --fuzz and --workload are exclusive\n");
      return 2;
    }
    // Accept both the bare SEED[:knobs] form and a full fuzz@ name.
    WorkloadName = isFuzzSpec(FuzzSpec) ? FuzzSpec : "fuzz@" + FuzzSpec;
  }
  std::vector<std::string> MixCoRunners;
  if (!MixSpec.empty()) {
    if (!WorkloadName.empty()) {
      std::fprintf(stderr, "error: --mix names its own primary lane; drop "
                           "--workload/--fuzz\n");
      return 2;
    }
    std::vector<std::string> Lanes;
    size_t Pos = 0;
    while (Pos <= MixSpec.size()) {
      size_t Next = MixSpec.find('+', Pos);
      if (Next == std::string::npos)
        Next = MixSpec.size();
      Lanes.push_back(MixSpec.substr(Pos, Next - Pos));
      Pos = Next + 1;
    }
    if (Lanes.size() < 2 || Lanes.size() > 4) {
      std::fprintf(stderr,
                   "error: --mix needs 2..4 '+'-separated workloads\n");
      return 2;
    }
    for (const std::string &L : Lanes)
      if (L.empty()) {
        std::fprintf(stderr, "error: empty lane in --mix spec '%s'\n",
                     MixSpec.c_str());
        return 2;
      }
    WorkloadName = Lanes.front();
    MixCoRunners.assign(Lanes.begin() + 1, Lanes.end());
  }
  if (WorkloadName.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (!validRef(WorkloadName))
    return 2;
  for (const std::string &L : MixCoRunners)
    if (!validRef(L))
      return 2;

  SimConfig C = SimConfig::hwBaseline();
  if (Mode == "hw") {
    C.EnableTrident = false;
  } else if (Mode == "none" || Mode == "basic" || Mode == "whole-object" ||
             Mode == "self-repairing") {
    C.EnableTrident = true;
    C.Runtime.Mode = Mode == "none"           ? PrefetchMode::None
                     : Mode == "basic"        ? PrefetchMode::Basic
                     : Mode == "whole-object" ? PrefetchMode::WholeObject
                                              : PrefetchMode::SelfRepairing;
  } else {
    std::fprintf(stderr, "error: unknown mode '%s'\n", Mode.c_str());
    return 2;
  }

  {
    // Validate the spec up front so a typo fails fast with the registry's
    // own message instead of mid-run inside the machine wiring.
    std::string PfError;
    PrefetcherEnv Env;
    if (!PrefetcherRegistry::instance().create(HwPf, Env, &PfError) &&
        !PrefetcherRegistry::isNone(HwPf)) {
      std::fprintf(stderr, "error: bad --hwpf spec '%s': %s\n", HwPf.c_str(),
                   PfError.c_str());
      return 2;
    }
    C.HwPf = HwPf;
  }
  C.Core.HwPfFeedbackIntervalCommits = HwPfFeedback;
  if (!Selector.empty()) {
    std::string SelError;
    if (!SelectorConfig::parse(Selector, C.Selector, &SelError)) {
      std::fprintf(stderr, "error: bad --selector spec '%s': %s\n",
                   Selector.c_str(), SelError.c_str());
      return 2;
    }
  }

  C.SimInstructions = Instr;
  C.WarmupInstructions = Warmup;
  C.Runtime.LinkTraces = !NoLink;
  C.Mem.Tlb.Enable = EnableTlb;
  C.Runtime.SelfRepairInitialEstimate = SeedEstimate;
  C.Runtime.ClearMatureOnPhaseChange = PhaseAdapt;
  C.Runtime.Dlt.NumEntries = DltEntries;
  C.Runtime.Dlt.MonitorWindow = Window;
  C.Runtime.Dlt.MissThreshold = MissThreshold;
  C.Runtime.DistanceCap = DistanceCap;
  C.MixWith = MixCoRunners;
  if (const std::string Why = C.Runtime.invalidReason(); !Why.empty()) {
    std::fprintf(stderr, "error: %s\n", Why.c_str());
    return 2;
  }

  if (!FaultsPath.empty()) {
    std::ifstream In(FaultsPath);
    if (!In) {
      std::fprintf(stderr, "error: cannot read fault plan '%s'\n",
                   FaultsPath.c_str());
      return 2;
    }
    std::ostringstream Text;
    Text << In.rdbuf();
    std::string Error;
    std::optional<FaultPlan> Plan = FaultPlan::parseJson(Text.str(), &Error);
    if (!Plan) {
      std::fprintf(stderr, "error: bad fault plan '%s': %s\n",
                   FaultsPath.c_str(), Error.c_str());
      return 2;
    }
    C.Faults = std::move(*Plan);
  }

  std::printf("trident_sim: %s, mode %s, hwpf %s, %llu instrs "
              "(tlb %s, link %s)\n",
              WorkloadName.c_str(), Mode.c_str(), HwPf.c_str(),
              (unsigned long long)Instr, onOff(EnableTlb), onOff(!NoLink));
  if (!MixCoRunners.empty()) {
    std::printf("mix co-runners:");
    for (const std::string &L : MixCoRunners)
      std::printf(" %s", L.c_str());
    std::printf("\n");
  }
  std::printf("\n");

  Workload W = makeWorkload(WorkloadName);
  if (C.Selector.Policy == SelectorPolicy::Oracle) {
    // Two-pass oracle: replay every static arsenal unit (memoized, so the
    // batch below reuses them) and pin the best before the real run.
    ExperimentRunner Resolver;
    C = resolveSelectorOracle(Resolver, W, C);
    std::printf("selector oracle: pinned unit %s\n\n",
                C.Selector.OracleUnit.c_str());
  }
  SimResult R, RB;
  if (!TraceOut.empty()) {
    // Tracing runs outside the memoizing runner: the tracer observes one
    // concrete run, never a cached result.
    EventTracer Tracer(TraceCapacity);
    R = runSimulation(W, C, &Tracer);
    if (!Tracer.writeChromeTrace(TraceOut)) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   TraceOut.c_str());
      return 1;
    }
    std::printf("event trace: %s (%llu recorded, %llu overwritten, "
                "ring %zu)\n\n",
                TraceOut.c_str(), (unsigned long long)Tracer.recorded(),
                (unsigned long long)Tracer.overwritten(), Tracer.capacity());
    if (Compare) {
      SimConfig Base = C;
      Base.EnableTrident = false;
      RB = runSimulation(W, Base);
    }
  } else {
    // Both runs (the experiment and, with --compare, its baseline) go into
    // one batch so they execute concurrently when cores are available.
    std::vector<ExperimentJob> Jobs = {ExperimentJob{W, C}};
    if (Compare) {
      SimConfig Base = C;
      Base.EnableTrident = false;
      Jobs.push_back(ExperimentJob{W, Base});
    }
    ExperimentRunner Runner;
    auto Results = Runner.runBatch(Jobs);
    R = *Results[0];
    if (Compare)
      RB = *Results[1];
  }

  printStats(R, Verbose);

  if (!StatsOut.empty()) {
    if (!R.Registry || !R.Registry->writeJsonl(StatsOut)) {
      std::fprintf(stderr, "error: cannot write stats to '%s'\n",
                   StatsOut.c_str());
      return 1;
    }
    std::printf("\nstat registry: %s (%zu entries)\n", StatsOut.c_str(),
                R.Registry->size());
  }

  if (Compare) {
    std::printf("\n-- comparison --\n");
    std::printf("baseline IPC     %.4f (%s)\n", RB.Ipc,
                RB.ConfigName.c_str());
    std::printf("speedup          %.3fx (%+.1f%%)\n", speedup(R, RB),
                100.0 * (speedup(R, RB) - 1.0));
  }
  return 0;
}

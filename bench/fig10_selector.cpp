//===- fig10_selector.cpp - Figure 10: phase-aware selector study ----------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Beyond the paper: the control-plane study. Every static arsenal unit,
// the bandit selector, and the two-pass oracle run on every workload under
// a regime-shift fault plan (staggered latency spikes and cache flushes
// that keep changing which prefetcher is right), all with the Trident
// runtime off so the hardware axis is isolated. The per-cell metric is
// exposed latency per demand load, reported as the reduction against the
// no-prefetch machine under the same fault plan.
//
// Shape checks (the PR 9 acceptance bar): the bandit should land within a
// few percent of the oracle's geo-mean reduction and beat the worst static
// units on most workloads — a selector that only matched the best static
// would be pointless, one that trails the worst would be broken.
//
// Environment knobs (on top of the BenchCommon set):
//   TRIDENT_FIG10_OUT        JSONL output path (default fig10_selector.jsonl)
//   TRIDENT_FIG10_WORKLOADS  comma list restricting the workload axis
//   TRIDENT_FIG10_BANDIT     bandit spec override (default
//                            "bandit:seed=7,eps=10,ema=600" — light
//                            exploration, fast-aging values; tuned so the
//                            regime shifts themselves drive adaptation).
//                            A spec that does not parse exits 2 before
//                            any simulation runs.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "hwpf/PrefetcherRegistry.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace trident;
using namespace trident::bench;

namespace {

/// The regime-shift schedule: alternating wide latency spikes and full
/// cache flushes early enough to land inside even TRIDENT_BENCH_QUICK
/// runs, then spaced out to keep perturbing full-budget ones. Identical
/// for every cell, so the comparison across configs is fair.
FaultPlan regimeShiftPlan() {
  FaultPlan P;
  P.Seed = 0; // hand-written
  Cycle At = 150'000;
  for (int Shift = 0; Shift < 12; ++Shift) {
    FaultAction A;
    A.Trigger = FaultTrigger::AtCycle;
    A.At = At;
    if (Shift % 2 == 0) {
      A.Kind = FaultKind::LatencySpike;
      A.ExtraMemLatency = 300;
      A.ExtraL2Latency = 20;
      A.DurationCycles = 250'000;
    } else {
      A.Kind = FaultKind::EvictCaches;
    }
    P.Actions.push_back(A);
    At += 400'000;
  }
  return P;
}

/// Exposed latency per demand load — the study's cost metric.
double exposedPerLoad(const SimResult &R) {
  return R.Mem.DemandLoads == 0
             ? 0.0
             : static_cast<double>(R.Mem.TotalExposedLatency) /
                   static_cast<double>(R.Mem.DemandLoads);
}

} // namespace

int main() {
  // The bandit spec is read once, before any simulation, so a bad override
  // costs nothing.
  SelectorConfig BanditSelector;
  {
    const char *Env = std::getenv("TRIDENT_FIG10_BANDIT");
    const std::string Text =
        Env && *Env ? Env : "bandit:seed=7,eps=10,ema=600";
    std::string Err;
    if (!SelectorConfig::parse(Text, BanditSelector, &Err)) {
      std::fprintf(stderr, "error: bad TRIDENT_FIG10_BANDIT '%s': %s\n",
                   Text.c_str(), Err.c_str());
      return 2;
    }
  }
  printHeader("Figure 10",
              "phase-aware selector vs static arsenal under regime shifts",
              "beyond the paper: runtime-guided reconfiguration (POWER7) / "
              "online selection (Pythia) bounded by a replay oracle");

  std::vector<std::string> Loads;
  {
    std::vector<std::string> Filter = envList("TRIDENT_FIG10_WORKLOADS");
    for (const std::string &N : workloadNames())
      if (Filter.empty() || contains(Filter, N))
        Loads.push_back(N);
  }
  const std::vector<std::string> Arms =
      PrefetcherRegistry::instance().arsenalNames();
  const FaultPlan Plan = regimeShiftPlan();

  auto baseConfig = [&](const std::string &Pf) {
    SimConfig C = SimConfig::hwBaseline();
    C.HwPf = Pf;
    C.Faults = Plan;
    return C;
  };

  // Pass 1: the static axis — "none" plus every arsenal unit — as one
  // parallel batch. These land in the memo cache, so the per-workload
  // oracle resolution below is pure cache hits.
  std::vector<NamedJob> StaticJobs;
  for (const std::string &Name : Loads) {
    StaticJobs.emplace_back(Name, baseConfig("none"));
    for (const std::string &Arm : Arms)
      StaticJobs.emplace_back(Name, baseConfig(Arm));
  }
  auto StaticResults = runBatch(StaticJobs);
  const size_t PerLoadStatic = 1 + Arms.size();

  // Pass 2: the adaptive axis. The oracle's pinned unit is resolved at
  // job-construction time (runBatch is not reentrant; resolution itself
  // runs batches), never from inside a worker.
  std::vector<NamedJob> AdaptiveJobs;
  for (const std::string &Name : Loads) {
    SimConfig Bandit = baseConfig("sb8x8");
    Bandit.Selector = BanditSelector;
    AdaptiveJobs.emplace_back(Name, Bandit);

    SimConfig Oracle = baseConfig("sb8x8");
    Oracle.Selector.Policy = SelectorPolicy::Oracle;
    Oracle = resolveSelectorOracle(runner(), makeWorkload(Name),
                                   withBudget(Oracle));
    AdaptiveJobs.emplace_back(Name, Oracle);
  }
  auto AdaptiveResults = runBatch(AdaptiveJobs);

  // JSONL: one record per cell.
  const JsonlOut Jsonl = openJsonl("TRIDENT_FIG10_OUT", "fig10_selector.jsonl");

  auto emit = [&](const std::string &Load, const std::string &Config,
                  const SimResult &R, double Reduction) {
    std::string Line = "{\"workload\":\"";
    jsonEscapeInto(Line, Load);
    Line += "\",\"config\":\"";
    jsonEscapeInto(Line, Config);
    Line += "\",\"final_unit\":\"";
    jsonEscapeInto(Line, R.SelectorFinalUnit.empty()
                             ? (R.HwPf.Prefetcher.empty() ? "none"
                                                          : R.HwPf.Prefetcher)
                             : R.SelectorFinalUnit);
    char Buf[320];
    std::snprintf(
        Buf, sizeof(Buf),
        "\",\"ipc\":%.6f,\"demand_loads\":%llu,\"exposed_total\":%llu,"
        "\"exposed_per_load\":%.6f,\"reduction_vs_none\":%.6f,"
        "\"epochs\":%llu,\"swaps\":%llu,\"explorations\":%llu,"
        "\"decisions\":%llu,\"faults_injected\":%llu}",
        R.Ipc, (unsigned long long)R.Mem.DemandLoads,
        (unsigned long long)R.Mem.TotalExposedLatency, exposedPerLoad(R),
        Reduction, (unsigned long long)R.Selector.Epochs,
        (unsigned long long)R.Selector.Swaps,
        (unsigned long long)R.Selector.Explorations,
        (unsigned long long)R.SelectorTrace.size(),
        (unsigned long long)R.Faults.Injected);
    Line += Buf;
    std::fprintf(Jsonl.File, "%s\n", Line.c_str());
  };

  // Per-config exposure ratios vs none (geo-mean input), plus the
  // per-workload data the shape checks need.
  std::map<std::string, std::vector<double>> Ratios;
  uint64_t BanditBeatsWorst3 = 0, BanditSwapsTotal = 0;

  Table T({"workload", "best static", "worst static", "bandit", "oracle",
           "swaps"});
  for (size_t L = 0; L < Loads.size(); ++L) {
    const SimResult &None = *StaticResults[L * PerLoadStatic];
    const double NoneExp = exposedPerLoad(None);
    auto reduction = [&](const SimResult &R) {
      return NoneExp == 0.0 ? 0.0 : 1.0 - exposedPerLoad(R) / NoneExp;
    };
    auto ratio = [&](const SimResult &R) {
      return NoneExp == 0.0 ? 1.0 : exposedPerLoad(R) / NoneExp;
    };
    emit(Loads[L], "none", None, 0.0);
    Ratios["none"].push_back(1.0);

    std::vector<double> StaticReds;
    double BestStatic = -1e9, WorstStatic = 1e9;
    for (size_t A = 0; A < Arms.size(); ++A) {
      const SimResult &R = *StaticResults[L * PerLoadStatic + 1 + A];
      const double Red = reduction(R);
      emit(Loads[L], Arms[A], R, Red);
      Ratios[Arms[A]].push_back(ratio(R));
      StaticReds.push_back(Red);
      BestStatic = std::max(BestStatic, Red);
      WorstStatic = std::min(WorstStatic, Red);
    }
    const SimResult &Bandit = *AdaptiveResults[L * 2];
    const SimResult &Oracle = *AdaptiveResults[L * 2 + 1];
    const double BanditRed = reduction(Bandit);
    const double OracleRed = reduction(Oracle);
    emit(Loads[L], "bandit", Bandit, BanditRed);
    emit(Loads[L], "oracle", Oracle, OracleRed);
    Ratios["bandit"].push_back(ratio(Bandit));
    Ratios["oracle"].push_back(ratio(Oracle));
    BanditSwapsTotal += Bandit.Selector.Swaps;

    // "Beats the worst three": strictly better than the third-worst
    // static unit's reduction on this workload.
    std::sort(StaticReds.begin(), StaticReds.end());
    const size_t Idx = std::min<size_t>(2, StaticReds.size() - 1);
    if (BanditRed > StaticReds[Idx])
      ++BanditBeatsWorst3;

    char SwapBuf[32];
    std::snprintf(SwapBuf, sizeof(SwapBuf), "%llu",
                  (unsigned long long)Bandit.Selector.Swaps);
    T.addRow({Loads[L], formatPercent(BestStatic, 1),
              formatPercent(WorstStatic, 1), formatPercent(BanditRed, 1),
              formatPercent(OracleRed, 1), SwapBuf});
  }
  closeJsonl(Jsonl);
  std::printf("selector matrix: %zu cells -> %s\n\n",
              Loads.size() * (PerLoadStatic + 2), Jsonl.Path);
  std::printf("exposed-latency reduction vs no-prefetch (same fault plan):\n");
  std::printf("%s\n", T.render().c_str());

  // Geo-mean reduction per config = 1 - geomean(exposure ratios).
  Table G({"config", "geo-mean reduction"});
  auto geoRed = [&](const std::string &Key) {
    const std::vector<double> &V = Ratios[Key];
    return V.empty() ? 0.0 : 1.0 - geometricMean(V);
  };
  for (const std::string &Arm : Arms)
    G.addRow({Arm, formatPercent(geoRed(Arm), 1)});
  G.addSeparator();
  G.addRow({"bandit", formatPercent(geoRed("bandit"), 1)});
  G.addRow({"oracle", formatPercent(geoRed("oracle"), 1)});
  std::printf("%s\n", G.render().c_str());

  const double BanditGeo = geoRed("bandit"), OracleGeo = geoRed("oracle");
  std::printf("shape check: bandit %.1f%% vs oracle %.1f%% geo-mean "
              "reduction (gap %.1f pts);\nbandit beats the worst-3 statics "
              "on %llu/%zu workloads, %llu swaps total.\n\n",
              100.0 * BanditGeo, 100.0 * OracleGeo,
              100.0 * (OracleGeo - BanditGeo),
              (unsigned long long)BanditBeatsWorst3, Loads.size(),
              (unsigned long long)BanditSwapsTotal);

  std::vector<std::shared_ptr<const SimResult>> All = StaticResults;
  All.insert(All.end(), AdaptiveResults.begin(), AdaptiveResults.end());
  printEventHealthJson(All);
  return 0;
}

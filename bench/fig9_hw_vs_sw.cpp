//===- fig9_hw_vs_sw.cpp - Figure 9: the prefetcher-arsenal matrix ---------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Reproduces Figure 9 and extends it into an arsenal matrix. The paper
// compares hardware stream buffers alone (8x8), self-repairing software
// prefetching alone, and the combination, all relative to a machine with
// *no* prefetching: software-only beats hardware-only on most benchmarks
// (~11% more on average) but hardware wins on dot, equake, and swim, and
// the combination is best.
//
// The arsenal matrix generalizes the "hardware" axis: every prefetcher in
// the registry (stream buffers, enhanced stream, DCPT, T-SKID) runs on
// every workload with the Trident runtime off and on, each cell emitted
// as one JSONL record with IPC, speedup over the no-prefetch baseline,
// and the unit's accuracy/coverage feedback.
//
// Environment knobs (on top of the BenchCommon set):
//   TRIDENT_FIG9_OUT        JSONL output path (default fig9_arsenal.jsonl)
//   TRIDENT_FIG9_WORKLOADS  comma list restricting the workload axis
//   TRIDENT_FIG9_HWPF       comma list restricting the prefetcher axis
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "hwpf/PrefetcherRegistry.h"

#include <algorithm>
#include <map>

using namespace trident;
using namespace trident::bench;

int main() {
  printHeader("Figure 9", "prefetcher arsenal x workloads x Trident on/off",
              "SW-only beats HW-only on most benchmarks (+11% avg more); "
              "HW-only wins on dot/equake/swim; combination best");

  // Axes. "none" is always present: every speedup in this figure is over
  // the no-prefetch, no-Trident machine.
  std::vector<std::string> Hwpfs = {"none"};
  {
    std::vector<std::string> Filter = envList("TRIDENT_FIG9_HWPF");
    for (const std::string &N : PrefetcherRegistry::instance().arsenalNames())
      if (Filter.empty() || contains(Filter, N))
        Hwpfs.push_back(N);
  }
  std::vector<std::string> Loads;
  {
    std::vector<std::string> Filter = envList("TRIDENT_FIG9_WORKLOADS");
    for (const std::string &N : workloadNames())
      if (Filter.empty() || contains(Filter, N))
        Loads.push_back(N);
  }

  // One flat batch: workload-major, then Trident off/on, then prefetcher.
  std::vector<NamedJob> Jobs;
  for (const std::string &Name : Loads) {
    for (int Trident = 0; Trident < 2; ++Trident) {
      for (const std::string &Pf : Hwpfs) {
        SimConfig C = Trident ? SimConfig::withMode(PrefetchMode::SelfRepairing)
                              : SimConfig::hwBaseline();
        C.HwPf = Pf;
        Jobs.emplace_back(Name, C);
      }
    }
  }
  auto Results = runBatch(Jobs);

  const size_t PerLoad = 2 * Hwpfs.size();
  auto cell = [&](size_t LoadIdx, int Trident, size_t PfIdx) {
    return Results[LoadIdx * PerLoad + size_t(Trident) * Hwpfs.size() + PfIdx];
  };

  // JSONL: one record per matrix cell.
  const JsonlOut Jsonl = openJsonl("TRIDENT_FIG9_OUT", "fig9_arsenal.jsonl");

  // Per-prefetcher speedup series for the summary table, keyed by
  // (prefetcher, trident); "none" x trident-on is the SW-only column.
  std::map<std::pair<std::string, int>, std::vector<double>> Series;

  for (size_t L = 0; L < Loads.size(); ++L) {
    const SimResult &Base = *cell(L, 0, 0); // none, Trident off
    for (int Trident = 0; Trident < 2; ++Trident) {
      for (size_t P = 0; P < Hwpfs.size(); ++P) {
        const SimResult &R = *cell(L, Trident, P);
        double Speedup = speedup(R, Base);
        Series[{Hwpfs[P], Trident}].push_back(Speedup);

        std::string Line = "{\"workload\":\"";
        jsonEscapeInto(Line, Loads[L]);
        Line += "\",\"hwpf\":\"";
        jsonEscapeInto(Line, hwPfConfigName(Hwpfs[P]));
        Line += "\",\"prefetcher\":\"";
        jsonEscapeInto(Line, R.HwPf.Prefetcher.empty() ? "none"
                                                       : R.HwPf.Prefetcher);
        char Buf[256];
        std::snprintf(Buf, sizeof(Buf),
                      "\",\"trident\":%d,\"ipc\":%.6f,"
                      "\"speedup_over_none\":%.6f,\"hw_prefetches\":%llu,"
                      "\"pf_issued\":%llu,\"pf_useful\":%llu,"
                      "\"pf_late\":%llu,\"demand_misses\":%llu,"
                      "\"accuracy\":%.6f,\"coverage\":%.6f}",
                      Trident, R.Ipc, Speedup,
                      (unsigned long long)R.Mem.HardwarePrefetches,
                      (unsigned long long)R.PfFeedback.Issued,
                      (unsigned long long)R.PfFeedback.Useful,
                      (unsigned long long)R.PfFeedback.Late,
                      (unsigned long long)R.PfFeedback.DemandMisses,
                      R.PfFeedback.accuracy(), R.PfFeedback.coverage());
        Line += Buf;
        std::fprintf(Jsonl.File, "%s\n", Line.c_str());
      }
    }
  }
  closeJsonl(Jsonl);
  std::printf("arsenal matrix: %zu cells -> %s\n\n",
              Loads.size() * PerLoad, Jsonl.Path);

  // The paper's classic four-way table, when its configurations survived
  // the axis filters.
  if (contains(Hwpfs, "sb8x8")) {
    size_t Sb = size_t(std::find(Hwpfs.begin(), Hwpfs.end(),
                                 std::string("sb8x8")) -
                       Hwpfs.begin());
    Table T({"benchmark", "HW only", "SW only", "HW+SW"});
    std::vector<double> SH, SS, SC;
    for (size_t L = 0; L < Loads.size(); ++L) {
      const SimResult &RNone = *cell(L, 0, 0);
      const SimResult &RHw = *cell(L, 0, Sb);
      const SimResult &RSw = *cell(L, 1, 0);
      const SimResult &RBoth = *cell(L, 1, Sb);
      SH.push_back(speedup(RHw, RNone));
      SS.push_back(speedup(RSw, RNone));
      SC.push_back(speedup(RBoth, RNone));
      T.addRow({Loads[L], pctOver(RHw, RNone), pctOver(RSw, RNone),
                pctOver(RBoth, RNone)});
    }
    T.addSeparator();
    T.addRow({"geo-mean", formatPercent(geometricMean(SH) - 1.0, 1),
              formatPercent(geometricMean(SS) - 1.0, 1),
              formatPercent(geometricMean(SC) - 1.0, 1)});
    std::printf("%s\n", T.render().c_str());
    std::printf("shape check: hardware should win on the simple-stride and "
                "low-coverage\nbenchmarks (swim, equake, dot); the "
                "combination should dominate both.\n\n");
  }

  // Arsenal summary: geo-mean speedup over no-pf for every prefetcher,
  // with and without the software side.
  Table A({"prefetcher", "geo-mean (Trident off)", "geo-mean (Trident on)"});
  for (const std::string &Pf : Hwpfs) {
    const std::vector<double> &Off = Series[{Pf, 0}];
    const std::vector<double> &On = Series[{Pf, 1}];
    A.addRow({hwPfConfigName(Pf),
              Off.empty() ? "-" : formatPercent(geometricMean(Off) - 1.0, 1),
              On.empty() ? "-" : formatPercent(geometricMean(On) - 1.0, 1)});
  }
  std::printf("%s\n", A.render().c_str());
  printEventHealthJson(Results);
  return 0;
}

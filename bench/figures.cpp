//===- figures.cpp - The paper's Figures 2-8 and the ablations -------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Prints the paper's Section 5 tables in order: Figure 2, Figure 3 with the
// Section 5.1 overhead, Figures 4-8 with the Section 5.4 note, and the
// Section 5.3 / 3.5.2 ablations. Each figure submits its own batch to the
// one process-wide runner, whose memo cache hands later figures the cells
// earlier figures simulated (the hardware baseline, the default
// self-repairing runs). The last line counts the results the figures read
// and the simulations that produced them.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "isa/ProgramBuilder.h"

#include <cmath>

using namespace trident;
using namespace trident::bench;

namespace {

/// Figure 2: per-benchmark IPC with no hardware prefetching, 4x4 stream
/// buffers and 8x8 stream buffers. The paper reports average speedups of
/// ~35% (4x4) and ~40% (8x8) over no prefetching; the 8x8 configuration
/// becomes the baseline for all later figures.
size_t fig2Baseline() {
  printHeader("Figure 2", "baseline IPC with hardware stream buffers",
              "4x4 buffers +35% avg over no prefetching; 8x8 +40%; "
              "8x8 adopted as the baseline");

  Table T({"benchmark", "IPC no-pf", "IPC 4x4", "IPC 8x8", "4x4 speedup",
           "8x8 speedup"});
  std::vector<double> S4, S8;

  SimConfig CN = SimConfig::hwBaseline();
  CN.HwPf = "none";
  SimConfig C4 = SimConfig::hwBaseline();
  C4.HwPf = "sb4x4";
  SimConfig C8 = SimConfig::hwBaseline();

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames()) {
    Jobs.emplace_back(Name, CN);
    Jobs.emplace_back(Name, C4);
    Jobs.emplace_back(Name, C8);
  }
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const std::string &Name = workloadNames()[I];
    const SimResult &RN = *Results[3 * I + 0];
    const SimResult &R4 = *Results[3 * I + 1];
    const SimResult &R8 = *Results[3 * I + 2];
    S4.push_back(speedup(R4, RN));
    S8.push_back(speedup(R8, RN));

    T.addRow({Name, formatDouble(RN.Ipc, 3), formatDouble(R4.Ipc, 3),
              formatDouble(R8.Ipc, 3), pctOver(R4, RN), pctOver(R8, RN)});
  }

  T.addSeparator();
  T.addRow({"geo-mean", "-", "-", "-",
            formatPercent(geometricMean(S4) - 1.0, 1),
            formatPercent(geometricMean(S8) - 1.0, 1)});
  std::printf("%s\n", T.render().c_str());
  std::printf("shape check: both prefetching configurations should beat "
              "no-pf on average,\nwith 8x8 >= 4x4.\n");
  printEventHealthJson(Results);
  return Results.size();
}

/// Section 5.1 and Figure 3, the optimizer's overhead:
///   * Table: run Trident with prefetch optimization but *without linking*
///     the optimized traces; the slowdown vs. the plain baseline is the
///     pure cost of concurrent optimization (paper: ~0.6% total).
///   * Figure 3: fraction of the program's execution cycles during which
///     the optimization helper thread is active (paper: ~2.2% on average;
///     self-repairing adds at most ~25% more helper activity).
size_t fig3Overhead() {
  printHeader("Figure 3 / Section 5.1", "dynamic optimizer overhead",
              "optimize-without-linking costs ~0.6%; helper thread active "
              "~2.2% of cycles; self-repair <= ~25% more activity");

  Table T({"benchmark", "no-link overhead", "helper active (base)",
           "helper active (self-rep)"});
  std::vector<double> Overheads, ActBase, ActSrp;

  // Optimize but never link (the Section 5.1 experiment).
  SimConfig NoLink = SimConfig::withMode(PrefetchMode::SelfRepairing);
  NoLink.Runtime.LinkTraces = false;

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames()) {
    Jobs.emplace_back(Name, SimConfig::hwBaseline());
    Jobs.emplace_back(Name, NoLink);
    // Helper-thread activity with traces linked: trace formation only
    // (mode none) vs. the full self-repairing prefetcher.
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::None));
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::SelfRepairing));
  }
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const std::string &Name = workloadNames()[I];
    const SimResult &Base = *Results[4 * I + 0];
    const SimResult &RNoLink = *Results[4 * I + 1];
    const SimResult &RNone = *Results[4 * I + 2];
    const SimResult &RSrp = *Results[4 * I + 3];
    double Ovh = 1.0 - RNoLink.Ipc / Base.Ipc;

    Overheads.push_back(Ovh);
    ActBase.push_back(RNone.helperActiveFraction());
    ActSrp.push_back(RSrp.helperActiveFraction());
    T.addRow({Name, formatPercent(Ovh, 2),
              formatPercent(RNone.helperActiveFraction(), 2),
              formatPercent(RSrp.helperActiveFraction(), 2)});
  }

  T.addSeparator();
  T.addRow({"average", formatPercent(arithmeticMean(Overheads), 2),
            formatPercent(arithmeticMean(ActBase), 2),
            formatPercent(arithmeticMean(ActSrp), 2)});
  std::printf("%s\n", T.render().c_str());
  std::printf("shape check: no-link overhead well under a few percent; "
              "helper activity a few\npercent of cycles, higher with "
              "self-repairing (extra repair events).\n");
  printEventHealthJson(Results);
  return Results.size();
}

/// Figure 4: the percentage of load misses that occur within hot traces,
/// and the percentage covered by an inserted prefetch. The paper reports
/// >85% of misses inside hot traces and ~55% potentially prefetched, with
/// dot/parser low (poor trace coverage) and gap covering nearly all of its
/// (few) hot-trace misses.
size_t fig4Coverage() {
  printHeader("Figure 4", "% of load misses in hot traces / prefetched",
              ">85% of misses inside traces; ~55% covered by prefetches; "
              "dot and parser low, gap's trace misses nearly all covered");

  Table T({"benchmark", "misses", "in hot traces", "prefetch-covered"});
  std::vector<double> InTrace, Covered;

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames())
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::SelfRepairing));
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const SimResult &R = *Results[I];
    InTrace.push_back(R.Runtime.traceMissCoverage());
    Covered.push_back(R.Runtime.prefetchMissCoverage());
    T.addRow({workloadNames()[I], std::to_string(R.Runtime.LoadMissesTotal),
              formatPercent(R.Runtime.traceMissCoverage(), 1),
              formatPercent(R.Runtime.prefetchMissCoverage(), 1)});
  }

  T.addSeparator();
  T.addRow({"average", "-", formatPercent(arithmeticMean(InTrace), 1),
            formatPercent(arithmeticMean(Covered), 1)});
  std::printf("%s\n", T.render().c_str());
  std::printf("shape check: high in-trace coverage except for the "
              "irregular benchmarks\n(dot, parser, gap's cold loop); "
              "covered <= in-trace everywhere.\n");
  printEventHealthJson(Results);
  return Results.size();
}

/// Figure 5, the headline result: speedup of software prefetching over the
/// hardware (8x8 stream buffer) baseline, for the three schemes the paper
/// compares:
///   basic         prior-work style: per-load stride prefetches at a fixed
///                 estimated distance (equation 2),
///   whole object  + same-object grouping and pointer dereference
///                 prefetching, still a fixed distance,
///   self-repair   + the adaptive distance-repair mechanism (start at 1,
///                 patch the prefetch immediates until the load stops
///                 being delinquent or matures).
///
/// The paper reports ~11% average for basic and ~23% for self-repairing,
/// with applu/facerec/fma3d gaining nothing from repair (the naive
/// estimate is already right) and dot/mcf benefiting from whole-object.
size_t fig5Speedup() {
  printHeader("Figure 5", "software prefetching speedup over HW baseline",
              "basic ~+11% avg; self-repairing ~+23% avg (about 2x the "
              "basic gain); applu/facerec/fma3d: repair adds nothing");

  Table T({"benchmark", "basic", "whole object", "self-repairing",
           "repairs", "final dist"});
  std::vector<double> SB, SW, SS;

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames()) {
    Jobs.emplace_back(Name, SimConfig::hwBaseline());
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::Basic));
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::WholeObject));
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::SelfRepairing));
  }
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const std::string &Name = workloadNames()[I];
    const SimResult &Base = *Results[4 * I + 0];
    const SimResult &RB = *Results[4 * I + 1];
    const SimResult &RW = *Results[4 * I + 2];
    const SimResult &RS = *Results[4 * I + 3];

    SB.push_back(speedup(RB, Base));
    SW.push_back(speedup(RW, Base));
    SS.push_back(speedup(RS, Base));
    T.addRow({Name, pctOver(RB, Base), pctOver(RW, Base), pctOver(RS, Base),
              std::to_string(RS.Runtime.RepairOptimizations),
              std::to_string(RS.Runtime.LastRepairDistance)});
  }

  T.addSeparator();
  T.addRow({"geo-mean", formatPercent(geometricMean(SB) - 1.0, 1),
            formatPercent(geometricMean(SW) - 1.0, 1),
            formatPercent(geometricMean(SS) - 1.0, 1), "-", "-"});
  std::printf("%s\n", T.render().c_str());
  std::printf(
      "shape check: self-repairing's average gain should be roughly twice\n"
      "basic's (paper: 23%% vs 11%%); whole-object >= basic (dot is the\n"
      "whole-object showcase); applu/facerec gain little from repair.\n");
  printEventHealthJson(Results);
  return Results.size();
}

/// Figure 6: the percentage of all dynamic loads that hit normally, hit a
/// line a prefetch brought in (first touch), partially hit an in-flight
/// prefetch, miss, or miss *because* a prefetch displaced the line. The
/// paper's two key observations: misses due to prefetching rarely occur,
/// and partial prefetch hits are a small fraction.
size_t fig6Breakdown() {
  printHeader("Figure 6", "breakdown of all dynamic loads",
              "misses-due-to-prefetch rare; low incidence of partial hits");

  Table T({"benchmark", "hits", "hit-prefetched", "partial hits", "misses",
           "miss-due-to-pf"});
  double SumPartial = 0, SumMissPf = 0;

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames())
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::SelfRepairing));
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const RuntimeStats &S = Results[I]->Runtime;
    double N = std::max<double>(1.0, static_cast<double>(S.LdTotal));
    auto Pct = [&](uint64_t X) {
      return formatPercent(static_cast<double>(X) / N, 1);
    };
    SumPartial += static_cast<double>(S.LdPartial) / N;
    SumMissPf += static_cast<double>(S.LdMissDueToPf) / N;
    T.addRow({workloadNames()[I], Pct(S.LdHitNone), Pct(S.LdHitPrefetched),
              Pct(S.LdPartial), Pct(S.LdMiss), Pct(S.LdMissDueToPf)});
  }

  size_t N = workloadNames().size();
  T.addSeparator();
  T.addRow({"average", "-", "-", formatPercent(SumPartial / static_cast<double>(N), 1), "-",
            formatPercent(SumMissPf / static_cast<double>(N), 1)});
  std::printf("%s\n", T.render().c_str());
  std::printf("shape check: the miss-due-to-prefetch column should be near "
              "zero everywhere\n(the adaptive prefetcher rarely pollutes), "
              "and partial hits a modest share.\n");
  printEventHealthJson(Results);
  return Results.size();
}

/// Figure 7: average self-repairing speedup for load monitoring window
/// sizes of 128/256/512 accesses crossed with cache-miss-rate thresholds
/// of 1/3/6/12%. The paper finds that at least 8 misses per window is an
/// adequate signal and that 3% @ 256 (the default) works best: too small a
/// threshold over-prefetches, too large misses delinquent loads.
size_t fig7SensitivityWindow() {
  printHeader("Figure 7", "sensitivity to monitoring window & miss-rate "
                          "threshold (avg over all benchmarks)",
              "3% at a 256-access window works best; 8 misses per window "
              "is an adequate delinquency signal");

  const unsigned Windows[] = {128, 256, 512};
  const double Rates[] = {0.01, 0.03, 0.06, 0.12};

  // One batch covers the whole grid: the 14 baselines, listed once for
  // all 12 configurations, plus 12x14 sweep points.
  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames())
    Jobs.emplace_back(Name, SimConfig::hwBaseline());
  for (unsigned W : Windows) {
    for (double Rate : Rates) {
      unsigned MissThreshold =
          std::max(1u, static_cast<unsigned>(std::lround(W * Rate)));
      for (const std::string &Name : workloadNames()) {
        SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
        C.Runtime.Dlt.MonitorWindow = W;
        C.Runtime.Dlt.MissThreshold = MissThreshold;
        Jobs.emplace_back(Name, C);
      }
    }
  }
  auto Results = runBatch(Jobs);

  const size_t NumWl = workloadNames().size();
  size_t Cursor = NumWl; // sweep points start after the baselines
  Table T({"window \\ rate", "1%", "3%", "6%", "12%"});
  for (unsigned W : Windows) {
    std::vector<std::string> Row = {std::to_string(W) + " accesses"};
    for (size_t R = 0; R < std::size(Rates); ++R) {
      std::vector<double> Speedups;
      for (size_t I = 0; I < NumWl; ++I)
        Speedups.push_back(speedup(*Results[Cursor++], *Results[I]));
      Row.push_back(formatPercent(geometricMean(Speedups) - 1.0, 1));
    }
    T.addRow(Row);
  }

  std::printf("%s\n", T.render().c_str());
  std::printf("shape check: a broad plateau around the paper's default "
              "(256 accesses, 3%%);\nvery small windows with tiny "
              "thresholds over-trigger, very large thresholds\nmiss "
              "delinquent loads.\n");
  printEventHealthJson(Results);
  return Results.size();
}

/// Figure 8: average self-repairing speedup for DLT sizes of
/// 256/512/1024/2048 entries. The paper finds performance only slightly
/// increases with size for most programs, but benchmarks with large
/// working sets of load PCs (dot, parser) benefit from a large DLT; 1024
/// entries suffices.
///
/// Also the Section 5.4 note: spending the DLT + watch-table SRAM on a
/// larger L1 instead yields only ~0.8%.
size_t fig8SensitivityDlt() {
  printHeader("Figure 8", "sensitivity to DLT size (entries)",
              "small gains from doubling for most benchmarks; dot/parser "
              "want a large table; 1024 entries suffice");

  const unsigned Sizes[] = {256, 512, 1024, 2048};
  const size_t NumWl = workloadNames().size();

  // Baselines, the 4x14 size sweep, and the Section 5.4 big-L1 runs all
  // go into one parallel batch.
  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames())
    Jobs.emplace_back(Name, SimConfig::hwBaseline());
  for (unsigned SI = 0; SI < 4; ++SI) {
    for (const std::string &Name : workloadNames()) {
      SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
      C.Runtime.Dlt.NumEntries = Sizes[SI];
      Jobs.emplace_back(Name, C);
    }
  }
  for (const std::string &Name : workloadNames()) {
    SimConfig C = SimConfig::hwBaseline();
    C.Mem.L1 = {"L1", 96 * 1024, 3, 64, 3};
    Jobs.emplace_back(Name, C);
  }
  auto Results = runBatch(Jobs);

  Table T({"benchmark", "256", "512", "1024", "2048"});
  std::vector<std::vector<double>> PerSize(4);

  std::vector<std::vector<std::string>> Rows;
  for (size_t I = 0; I < NumWl; ++I)
    Rows.push_back({workloadNames()[I]});

  for (unsigned SI = 0; SI < 4; ++SI) {
    for (size_t I = 0; I < NumWl; ++I) {
      double S = speedup(*Results[NumWl * (SI + 1) + I], *Results[I]);
      PerSize[SI].push_back(S);
      Rows[I].push_back(formatPercent(S - 1.0, 1));
    }
  }
  for (auto &Row : Rows)
    T.addRow(Row);
  T.addSeparator();
  std::vector<std::string> Avg = {"geo-mean"};
  for (unsigned SI = 0; SI < 4; ++SI)
    Avg.push_back(formatPercent(geometricMean(PerSize[SI]) - 1.0, 1));
  T.addRow(Avg);
  std::printf("%s\n", T.render().c_str());

  // Section 5.4: spend the monitoring SRAM on a bigger L1 instead.
  // DLT (1024 x ~200 bits) + watch table + profiler is ~32KB: model it as
  // growing the 64KB 2-way L1 to 96KB 3-way (same 512 sets).
  std::printf("Section 5.4: monitoring SRAM spent on a larger L1 instead\n");
  std::vector<double> BigL1;
  for (size_t I = 0; I < NumWl; ++I)
    BigL1.push_back(speedup(*Results[NumWl * 5 + I], *Results[I]));
  std::printf("  96KB/3-way L1 vs 64KB/2-way: %s average speedup "
              "(paper: ~0.8%%)\n",
              formatPercent(geometricMean(BigL1) - 1.0, 2).c_str());
  std::printf("  vs. +%s from using the same SRAM as a 1024-entry DLT "
              "(self-repairing).\n\n",
              formatPercent(geometricMean(PerSize[2]) - 1.0, 1).c_str());
  printEventHealthJson(Results);
  return Results.size();
}

/// A loop whose memory behaviour changes phase: it walks a small stride
/// for a while (distance converges, loads mature), then switches to a
/// large stride — matured loads would keep the stale distance forever
/// without phase-triggered clearing. The phase alternates between two
/// distinct hot loops so the executing-trace mix shifts.
Workload phasedWorkload() {
  constexpr Addr A = 0x1000'0000, Bb = 0x3000'0000;
  ProgramBuilder B;
  B.loadImm(1, A).loadImm(2, Bb).loadImm(26, 0x50000000ll);
  B.label("outer");
  B.loadImm(4, 0).loadImm(5, 40'000);
  B.label("p1"); // stride phase with an unclassifiable hash probe
  B.load(6, 1, 0);
  B.fadd(9, 9, 6);
  B.aluImm(Opcode::MulI, 11, 4, 2654435761ll);
  B.aluImm(Opcode::ShrI, 12, 11, 7);
  B.aluImm(Opcode::AndI, 12, 12, 0x00FF0FF8);
  B.alu(Opcode::Add, 13, 26, 12);
  B.load(14, 13, 0); // random probe: matures after one attempt
  B.aluImm(Opcode::AddI, 1, 1, 64);
  B.addi(4, 4, 1);
  B.blt(4, 5, "p1");
  B.loadImm(4, 0).loadImm(5, 40'000);
  B.label("p2"); // large-stride phase (different loop, different trace)
  B.load(7, 2, 0);
  B.fadd(10, 10, 7);
  B.fadd(10, 10, 7);
  B.aluImm(Opcode::AddI, 2, 2, 4160);
  B.addi(4, 4, 1);
  B.blt(4, 5, "p2");
  B.jump("outer");
  B.halt();
  Workload W;
  W.Name = "phased";
  W.Description = "alternating small/large-stride phases";
  W.Prog = B.finish();
  W.Init = [](DataMemory &) {};
  return W;
}

/// Ablations for the design choices DESIGN.md calls out:
///
///  A. Initial distance: 1 (the paper's default) vs the equation-2
///     estimate. Section 5.3: "we also examine an alternate strategy where
///     the initial prefetch distance is estimated more carefully and
///     repaired from there. We found it achieves performance almost
///     identical ... the initial value becomes irrelevant."
///
///  B. Phase adaptation (Section 3.5.2 future work): clearing mature flags
///     on a detected working-set change lets the prefetcher re-adapt when
///     a program's loads change behaviour mid-run. Demonstrated on a
///     purpose-built two-phase workload whose hot loop switches stride
///     mid-execution.
size_t ablations() {
  printHeader("Ablations", "initial-distance & phase-adaptation choices",
              "initial distance is irrelevant under repair (5.3); mature "
              "clearing on phase change is the paper's future work");

  // ---- A: initial distance 1 vs estimate, across the full suite.
  std::printf("A. self-repairing with initial distance 1 vs estimated\n");
  Table TA({"benchmark", "start at 1", "start at estimate", "delta"});
  std::vector<double> S1, SE;

  SimConfig CE = SimConfig::withMode(PrefetchMode::SelfRepairing);
  CE.Runtime.SelfRepairInitialEstimate = true;

  std::vector<NamedJob> Jobs;
  for (const std::string &Name : workloadNames()) {
    Jobs.emplace_back(Name, SimConfig::hwBaseline());
    Jobs.emplace_back(Name, SimConfig::withMode(PrefetchMode::SelfRepairing));
    Jobs.emplace_back(Name, CE);
  }
  auto Results = runBatch(Jobs);

  for (size_t I = 0; I < workloadNames().size(); ++I) {
    const std::string &Name = workloadNames()[I];
    const SimResult &Base = *Results[3 * I + 0];
    const SimResult &R1 = *Results[3 * I + 1];
    const SimResult &RE = *Results[3 * I + 2];
    S1.push_back(speedup(R1, Base));
    SE.push_back(speedup(RE, Base));
    TA.addRow({Name, pctOver(R1, Base), pctOver(RE, Base),
               formatPercent(speedup(RE, Base) - speedup(R1, Base), 1)});
  }
  TA.addSeparator();
  TA.addRow({"geo-mean", formatPercent(geometricMean(S1) - 1.0, 1),
             formatPercent(geometricMean(SE) - 1.0, 1), "-"});
  std::printf("%s\n", TA.render().c_str());
  std::printf("shape check (paper 5.3): the two columns should be nearly "
              "identical —\nrepair converges regardless of the seed.\n\n");

  // ---- B: phase-change mature clearing on the phased workload. The
  // custom workload goes straight onto the shared runner as a 3-job batch.
  std::printf("B. phase adaptation on a two-phase workload\n");
  Workload W = phasedWorkload();
  SimConfig Base = withBudget(SimConfig::hwBaseline());

  SimConfig COff = withBudget(SimConfig::withMode(PrefetchMode::SelfRepairing));

  SimConfig COn = COff;
  COn.Runtime.ClearMatureOnPhaseChange = true;
  COn.Runtime.PhaseIntervalCommits = 100'000;

  auto PhaseResults = runner().runBatch(
      {ExperimentJob{W, Base}, ExperimentJob{W, COff}, ExperimentJob{W, COn}});
  const SimResult &RBase = *PhaseResults[0];
  const SimResult &ROff = *PhaseResults[1];
  const SimResult &ROn = *PhaseResults[2];

  Table TB({"config", "IPC", "speedup", "phase changes", "flags cleared"});
  TB.addRow({"hw baseline", formatDouble(RBase.Ipc, 3), "-", "-", "-"});
  TB.addRow({"self-rep (no phase hook)", formatDouble(ROff.Ipc, 3),
             pctOver(ROff, RBase), "0", "0"});
  TB.addRow({"self-rep + phase clearing", formatDouble(ROn.Ipc, 3),
             pctOver(ROn, RBase),
             std::to_string(ROn.Runtime.PhaseChangesDetected),
             std::to_string(ROn.Runtime.MatureFlagsCleared)});
  std::printf("%s\n", TB.render().c_str());
  std::printf("shape check: with clearing enabled, phase changes are "
              "detected and matured\nloads get re-optimized; performance "
              "should be at least as good as without.\n");
  auto All = Results;
  All.insert(All.end(), PhaseResults.begin(), PhaseResults.end());
  printEventHealthJson(All);
  return All.size();
}

} // namespace

int main() {
  size_t Results = 0;
  for (size_t (*Figure)() :
       {fig2Baseline, fig3Overhead, fig4Coverage, fig5Speedup, fig6Breakdown,
        fig7SensitivityWindow, fig8SensitivityDlt, ablations})
    Results += Figure();
  std::printf("{\"figures\":{\"results\":%zu,\"simulations\":%zu}}\n",
              Results, ExperimentRunner::resultCacheSize());
  return 0;
}

//===- BenchCommon.h - Shared harness utilities for figure benches --------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure harnesses (`figures`, fig9-fig11):
/// instruction-budget env knobs, the shared parallel batch runner, and
/// table assembly. Each figure builds its full (workload, config) job list
/// up front, hands it to the process-wide ExperimentRunner — which fans the
/// independent runs across worker threads and memoizes every result, so a
/// cell an earlier figure in the same process ran is not simulated again —
/// and then assembles the same rows/series the paper reports, plus a short
/// "paper says / we measure" note.
///
/// Environment knobs:
///   TRIDENT_BENCH_INSTR  per-run committed-instruction budget
///                        (default 2,000,000; a value that is not a
///                        nonzero decimal number is ignored)
///   TRIDENT_BENCH_QUICK  =1: quarter budget (smoke-testing the harness)
///   TRIDENT_BENCH_JOBS   worker threads for the batch runner
///                        (default: all hardware threads)
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_BENCH_BENCHCOMMON_H
#define TRIDENT_BENCH_BENCHCOMMON_H

#include "sim/ExperimentRunner.h"
#include "sim/Simulation.h"
#include "support/Decimal.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace trident {
namespace bench {

inline uint64_t instrBudget() {
  uint64_t N = 2'000'000;
  if (const char *E = std::getenv("TRIDENT_BENCH_INSTR"))
    if (std::optional<uint64_t> V = parseDecimal(E); V && *V != 0)
      N = *V;
  if (const char *Q = std::getenv("TRIDENT_BENCH_QUICK"))
    if (*Q && *Q != '0')
      N /= 4;
  return N;
}

inline uint64_t warmupBudget() { return 100'000; }

/// Splits a comma-separated env value; empty result means "no filter".
inline std::vector<std::string> envList(const char *Name) {
  std::vector<std::string> Out;
  const char *E = std::getenv(Name);
  if (!E || !*E)
    return Out;
  std::string S(E);
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

inline bool contains(const std::vector<std::string> &V, const std::string &S) {
  return std::find(V.begin(), V.end(), S) != V.end();
}

/// A figure's JSONL output file and the path it was opened at.
struct JsonlOut {
  const char *Path;
  std::FILE *File;
};

/// Opens a figure's JSONL output at $\p EnvVar, or at \p DefaultPath when
/// that is unset or empty. Exits 1, naming the path, when it cannot.
inline JsonlOut openJsonl(const char *EnvVar, const char *DefaultPath) {
  const char *Path = std::getenv(EnvVar);
  if (!Path || !*Path)
    Path = DefaultPath;
  std::FILE *File = std::fopen(Path, "w");
  if (!File) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path);
    std::exit(1);
  }
  return {Path, File};
}

/// Closes a JSONL output. A failed write or flush (a full disk, say)
/// exits 1, naming the path, instead of leaving a truncated file behind
/// a success exit code.
inline void closeJsonl(const JsonlOut &Out) {
  const bool WriteFailed = std::ferror(Out.File) != 0;
  if (std::fclose(Out.File) != 0 || WriteFailed) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Out.Path);
    std::exit(1);
  }
}

/// Appends \p S to \p Out with quotes and backslashes escaped for JSON.
inline void jsonEscapeInto(std::string &Out, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
}

inline SimConfig withBudget(SimConfig C) {
  C.SimInstructions = instrBudget();
  C.WarmupInstructions = warmupBudget();
  return C;
}

/// The batch runner every figure shares: all hardware threads (or
/// $TRIDENT_BENCH_JOBS) plus the process-wide memo cache, so a
/// configuration repeated within one process — above all the hw baseline —
/// simulates exactly once.
inline ExperimentRunner &runner() {
  static ExperimentRunner R;
  return R;
}

/// A (workload name, config) pair; the building block of figure sweeps.
using NamedJob = std::pair<std::string, SimConfig>;

/// Runs every job in parallel with the standard budget applied; results
/// come back in submission order.
inline std::vector<std::shared_ptr<const SimResult>>
runBatch(const std::vector<NamedJob> &Named) {
  std::vector<ExperimentJob> Jobs;
  Jobs.reserve(Named.size());
  for (const NamedJob &J : Named)
    Jobs.push_back(ExperimentJob{makeWorkload(J.first), withBudget(J.second)});
  return runner().runBatch(Jobs);
}

/// Percent-speedup string of A over Base.
inline std::string pctOver(const SimResult &A, const SimResult &Base) {
  return formatPercent(speedup(A, Base) - 1.0, 1);
}

/// Prints one machine-readable line summarizing event-plumbing health
/// across a figure's runs: total events dropped by the bounded runtime
/// queue and the worst per-run peak occupancy. A healthy configuration
/// drops nothing; a non-zero count means MaxPendingEvents is throttling
/// the optimizer and the figure should be read with that in mind.
inline void
printEventHealthJson(const std::vector<std::shared_ptr<const SimResult>> &Rs) {
  uint64_t Dropped = 0, Peak = 0, Runs = 0;
  for (const auto &R : Rs) {
    if (!R)
      continue;
    ++Runs;
    Dropped += R->Runtime.EventsDropped;
    if (R->Runtime.PeakPendingEvents > Peak)
      Peak = R->Runtime.PeakPendingEvents;
  }
  std::printf("{\"event_health\":{\"runs\":%llu,\"events_dropped\":%llu,"
              "\"peak_event_queue_occupancy\":%llu}}\n",
              static_cast<unsigned long long>(Runs),
              static_cast<unsigned long long>(Dropped),
              static_cast<unsigned long long>(Peak));
}

/// Prints a standard figure header.
inline void printHeader(const char *Figure, const char *What,
                        const char *PaperSays) {
  std::printf("==============================================================="
              "=========\n");
  std::printf("%s: %s\n", Figure, What);
  std::printf("paper: %s\n", PaperSays);
  std::printf("budget: %llu committed instructions per run (+%llu warmup), "
              "%u worker threads\n",
              static_cast<unsigned long long>(instrBudget()),
              static_cast<unsigned long long>(warmupBudget()),
              runner().threadCount());
  std::printf("==============================================================="
              "=========\n");
}

} // namespace bench
} // namespace trident

#endif // TRIDENT_BENCH_BENCHCOMMON_H

//===- main.cpp - The benchmark's driver binary ---------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// One process per measured run; perfbench/run.py spawns it, aggregates
// the repeats, and checks digests against the stored references.
//
//   perfbench_driver batch --workload W --seed N
//       runs the workload's batch once, untraced; prints wall and CPU time,
//       simulated instructions, peak RSS and every job's result digest.
//   perfbench_driver setup --workload W --seed N
//       builds every job's workload, data image and machine and runs one
//       instruction with no warmup, serial, memo cache off.
//   perfbench_driver trace --workload W --seed N
//       the traced pass (TracedRun.h): per-layer metrics.
//
// Each mode prints one JSON object on its last line of stdout.
//
//===----------------------------------------------------------------------===//

#include "BenchJobs.h"
#include "TracedRun.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include <sys/resource.h>

using namespace trident;
using namespace perfbench;

namespace {

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto tv = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) * 1e-6;
  };
  return tv(U.ru_utime) + tv(U.ru_stime);
}

long peakRssKb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss;
}

void printDigests(const std::map<std::string, std::string> &D) {
  std::printf("\"digests\":{");
  bool First = true;
  for (const auto &[Label, Digest] : D) {
    std::printf("%s\"%s\":\"%s\"", First ? "" : ",", Label.c_str(),
                Digest.c_str());
    First = false;
  }
  std::printf("}");
}

int runBatchMode(const std::vector<BenchJob> &Jobs) {
  const double Cpu0 = cpuSeconds();
  const SteadyClock::time_point T0 = SteadyClock::now();
  const std::vector<std::shared_ptr<const SimResult>> Results = runBatch(Jobs);
  const double Wall = since(T0);
  const double Cpu = cpuSeconds() - Cpu0;

  uint64_t Instr = 0;
  std::map<std::string, std::string> Digests;
  for (size_t I = 0; I < Results.size(); ++I) {
    Digests[Jobs[I].Label] = resultDigest(*Results[I]);
    Instr += simulatedInstructions(*Results[I], Jobs[I].Config);
  }
  std::printf("{\"mode\":\"batch\",\"wall_s\":%.9f,\"cpu_s\":%.9f,"
              "\"instructions\":%llu,\"jobs\":%zu,\"maxrss_kb\":%ld,",
              Wall, Cpu, static_cast<unsigned long long>(Instr),
              Results.size(), peakRssKb());
  printDigests(Digests);
  std::printf("}\n");
  return 0;
}

int runSetupMode(std::vector<BenchJob> Jobs) {
  for (BenchJob &J : Jobs) {
    J.Config.SimInstructions = 1;
    J.Config.WarmupInstructions = 0;
  }
  const SteadyClock::time_point T0 = SteadyClock::now();
  runBatch(Jobs);
  std::printf("{\"mode\":\"setup\",\"jobs\":%zu,\"setup_s\":%.9f}\n",
              Jobs.size(), since(T0));
  return 0;
}

int runTraceMode(const std::vector<BenchJob> &Jobs) {
  TracedReport R = runTraced(Jobs);
  std::printf("{\"mode\":\"trace\",\"identity_failures\":%llu,"
              "\"metrics\":{",
              static_cast<unsigned long long>(R.IdentityFailures));
  bool First = true;
  for (const auto &[Name, Value] : R.Metrics) {
    std::printf("%s\"%s\":%.17g", First ? "" : ",", Name.c_str(), Value);
    First = false;
  }
  std::printf("},");
  printDigests(R.Digests);
  std::printf("}\n");
  return 0;
}

int usage() {
  std::fprintf(stderr, "usage: perfbench_driver batch|setup|trace "
                       "--workload NAME --seed N\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const std::string Mode = Argv[1];
  std::string Name;
  uint64_t Seed = kDefaultSeed;
  for (int I = 2; I + 1 < Argc; I += 2) {
    if (!std::strcmp(Argv[I], "--workload"))
      Name = Argv[I + 1];
    else if (!std::strcmp(Argv[I], "--seed"))
      Seed = std::strtoull(Argv[I + 1], nullptr, 10);
    else
      return usage();
  }
  std::vector<BenchJob> Jobs;
  if (!makeBenchWorkload(Name, Seed, Jobs)) {
    std::fprintf(stderr, "unknown workload '%s'\n", Name.c_str());
    return usage();
  }
  if (Mode == "batch")
    return runBatchMode(Jobs);
  if (Mode == "setup")
    return runSetupMode(std::move(Jobs));
  if (Mode == "trace")
    return runTraceMode(Jobs);
  return usage();
}

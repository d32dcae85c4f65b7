//===- BenchJobs.cpp ------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "BenchJobs.h"

#include "support/Check.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <utility>

using namespace trident;

namespace perfbench {

namespace {

/// Warmup budget of every job: the figure binaries' fixed 100k.
constexpr uint64_t kWarmup = 100'000;
/// sweep-long: long enough that measurement dominates the batch.
constexpr uint64_t kSweepInstr = 1'000'000;
/// arsenal-mix: per-job primary-lane budget.
constexpr uint64_t kMixInstr = 100'000;

SimConfig budgeted(SimConfig C, uint64_t Instr) {
  C.SimInstructions = Instr;
  C.WarmupInstructions = kWarmup;
  return C;
}

/// Fisher-Yates over \p Jobs driven by \p Seed: the seed-dependent input of
/// a fixed job set is its submission order.
void shuffle(std::vector<BenchJob> &Jobs, uint64_t Seed) {
  SplitMix64 R(Seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  for (size_t I = Jobs.size(); I > 1; --I)
    std::swap(Jobs[I - 1], Jobs[R.nextBelow(I)]);
}

/// 14 programs x {hw, basic, whole-object, self-repairing}: the Figure 5
/// sweep, in a seed-permuted order.
std::vector<BenchJob> sweepLong(uint64_t Seed) {
  const std::pair<const char *, SimConfig> Configs[] = {
      {"hw", SimConfig::hwBaseline()},
      {"basic", SimConfig::withMode(PrefetchMode::Basic)},
      {"whole-object", SimConfig::withMode(PrefetchMode::WholeObject)},
      {"self-repairing", SimConfig::withMode(PrefetchMode::SelfRepairing)},
  };
  std::vector<BenchJob> Jobs;
  for (const std::string &P : workloadNames())
    for (const auto &[Tag, C] : Configs)
      Jobs.push_back({P + "/" + Tag, P, budgeted(C, kSweepInstr)});
  shuffle(Jobs, Seed);
  return Jobs;
}

/// Seeded 2-4-lane mixes on one shared memory system, Trident off, across
/// four non-baseline arsenal units; plus one solo bandit-selector cell per
/// mix primary. Each mix's first co-runner is a fuzzed program drawn from
/// the seed, which also seeds the bandit; the named primaries, the other
/// co-runners and the fuzz working-set size are fixed, so the per-seed
/// cost and footprint stay level.
std::vector<BenchJob> arsenalMix(uint64_t Seed) {
  std::vector<BenchJob> Jobs;
  const std::vector<std::string> Units = {"enhanced-stream", "dcpt", "tskid",
                                          "sb4x4"};
  struct MixShape {
    const char *Primary;
    std::vector<std::string> Named;
  };
  const MixShape Shapes[] = {
      {"mcf", {}},           {"art", {"art"}},   {"equake", {"mcf", "swim"}},
      {"swim", {}},          {"mcf", {"equake"}}, {"art", {}},
      {"equake", {"swim", "mcf"}}, {"swim", {"art"}},
  };
  for (size_t M = 0; M < std::size(Shapes); ++M) {
    const std::string Primary = Shapes[M].Primary;
    std::vector<std::string> Co = {"fuzz@" + std::to_string(Seed * 16 + M) +
                                   ":wset=512,segs=8"};
    Co.insert(Co.end(), Shapes[M].Named.begin(), Shapes[M].Named.end());
    std::string MixTag = "mix" + std::to_string(M) + ":" + Primary;
    for (const std::string &C : Co)
      MixTag += "+" + C;
    for (const std::string &U : Units) {
      SimConfig C = budgeted(SimConfig::hwBaseline(), kMixInstr);
      C.HwPf = U;
      C.MixWith = Co;
      Jobs.push_back({MixTag + "/" + U, Primary, C});
    }
    SimConfig B = budgeted(SimConfig::hwBaseline(), kMixInstr);
    B.HwPf = "sb4x4";
    std::string Err;
    bool Ok = SelectorConfig::parse(
        "bandit:seed=" + std::to_string(Seed) + ",eps=10,ema=600", B.Selector,
        &Err);
    TRIDENT_CHECK(Ok, "bandit spec: %s", Err.c_str());
    Jobs.push_back({"bandit" + std::to_string(M) + ":" + Primary +
                          "/bandit:seed=" + std::to_string(Seed),
                    Primary, B});
  }
  return Jobs;
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

} // namespace

bool makeBenchWorkload(const std::string &Name, uint64_t Seed,
                       std::vector<BenchJob> &Out) {
  if (Name == "sweep-long")
    Out = sweepLong(Seed);
  else if (Name == "arsenal-mix")
    Out = arsenalMix(Seed);
  else
    return false;
  return true;
}

std::vector<std::shared_ptr<const SimResult>>
runBatch(const std::vector<BenchJob> &Jobs) {
  std::vector<ExperimentJob> Built;
  Built.reserve(Jobs.size());
  for (const BenchJob &J : Jobs)
    Built.push_back(ExperimentJob{makeWorkload(J.Program), J.Config});
  ExperimentRunner Runner({1, /*UseCache=*/false});
  return Runner.runBatch(Built);
}

std::string resultDigest(const SimResult &R) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "c%llu-i%llu-r%016llx-j%016llx",
                static_cast<unsigned long long>(R.Cycles),
                static_cast<unsigned long long>(R.Instructions),
                static_cast<unsigned long long>(R.RegChecksum),
                static_cast<unsigned long long>(
                    R.Registry ? fnv1a(R.Registry->toJsonl()) : 0));
  return Buf;
}

uint64_t simulatedInstructions(const SimResult &R, const SimConfig &C) {
  uint64_t N = C.WarmupInstructions + R.Instructions;
  for (const SimResult::MixLane &L : R.MixLanes)
    N += L.Instructions;
  return N;
}

} // namespace perfbench

//===- fuzz_golden_test.cpp - Golden corpus of fuzzed scenarios ------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Pins five seeded fuzz scenarios — spread across the generator's knob
// space — to committed stat snapshots, exactly like golden_stats_test does
// for the 14 named workloads. Each fuzz snapshot includes the generator's
// workload.program_hash line, so a golden match certifies BOTH that the
// generator still emits the same program for the seed AND that the machine
// still executes it to the same statistics. Two multi-programmed mixes ride
// in the same table, pinning the co-lane scheduler, the shared memory
// system and (in the four-lane row) the selector's monitor across
// revisions. Refresh intentionally via tools/update_goldens.sh
// (TRIDENT_UPDATE_GOLDENS regenerates here too).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulation.h"
#include "workloads/Workloads.h"
#include "workloads/fuzz/FuzzGenerator.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef TRIDENT_GOLDEN_DIR
#error "TRIDENT_GOLDEN_DIR must be defined by the build"
#endif

using namespace trident;

namespace {

/// One corpus scenario: a canonical workload spec and the snapshot filename
/// it pins (spec punctuation would make awkward filenames, so fuzz
/// snapshots are keyed by seed). Mix rows also name their co-runners, the
/// initial prefetcher unit and a selector spec.
struct Scenario {
  const char *Spec;
  const char *File;
  std::vector<std::string> MixWith = {};
  const char *HwPf = "sb8x8";
  const char *Selector = "";
};

/// The corpus spreads the knob space: defaults, a small working set, high
/// entropy + heavy branching, many segments with fast phase changes, and
/// many streams over a large working set. Then two mixes: mcf against art
/// (mix_determinism_test's pairing), and a fuzzed primary with three
/// co-runners under dcpt and the bandit selector.
const Scenario kCorpus[] = {
    {"fuzz@101", "fuzz_101"},
    {"fuzz@102:wset=2048", "fuzz_102"},
    {"fuzz@103:entropy=800,branch=500", "fuzz_103"},
    {"fuzz@104:segs=5,phase=1500", "fuzz_104"},
    {"fuzz@105:wset=16384,streams=10", "fuzz_105"},
    {"mcf", "mix_mcf_art", {"art"}},
    {"fuzz@106", "mix_fuzz_106",
     {"art", "fuzz@107:wset=512,segs=8", "swim"}, "dcpt", "bandit"},
};

/// Same budget and mode as golden_stats_test, so the two corpora exercise
/// the same machine shape.
SimConfig goldenConfig(const Scenario &S) {
  SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
  C.SimInstructions = 40'000;
  C.WarmupInstructions = 10'000;
  C.MixWith = S.MixWith;
  C.HwPf = S.HwPf;
  if (*S.Selector) {
    std::string Error;
    EXPECT_TRUE(SelectorConfig::parse(S.Selector, C.Selector, &Error))
        << Error;
  }
  return C;
}

std::string goldenPath(const std::string &File) {
  return std::string(TRIDENT_GOLDEN_DIR) + "/" + File + ".jsonl";
}

std::string firstDiff(const std::string &Expected, const std::string &Actual) {
  std::istringstream E(Expected), A(Actual);
  std::string LE, LA;
  for (unsigned Line = 1;; ++Line) {
    bool HaveE = static_cast<bool>(std::getline(E, LE));
    bool HaveA = static_cast<bool>(std::getline(A, LA));
    if (!HaveE && !HaveA)
      return "(no difference found line-wise; byte difference only)";
    if (LE != LA || HaveE != HaveA) {
      std::ostringstream Msg;
      Msg << "first difference at line " << Line << ":\n  golden: "
          << (HaveE ? LE : "<eof>") << "\n  actual: " << (HaveA ? LA : "<eof>");
      return Msg.str();
    }
  }
}

} // namespace

TEST(FuzzGolden, CorpusMatchesCommittedSnapshots) {
  const bool Update = std::getenv("TRIDENT_UPDATE_GOLDENS") != nullptr;
  for (const Scenario &S : kCorpus) {
    Workload W = makeWorkload(S.Spec);
    // The corpus lists canonical specs, so the resolved name round-trips;
    // a mismatch means the canonical knob order changed under the corpus.
    ASSERT_EQ(W.Name, S.Spec);
    SimResult R = runSimulation(W, goldenConfig(S));
    ASSERT_TRUE(R.Registry) << S.Spec;
    ASSERT_EQ(R.MixLanes.size(), S.MixWith.size()) << S.Spec;
    // A fuzz snapshot pins the generator output itself, not just its
    // execution: the hash must be exported and match the workload's.
    if (isFuzzSpec(S.Spec)) {
      ASSERT_TRUE(R.Registry->has("workload.program_hash")) << S.Spec;
      ASSERT_EQ(R.Registry->counter("workload.program_hash"), W.ProgramHash)
          << S.Spec;
    }
    const std::string Actual = R.Registry->toJsonl();

    if (Update) {
      std::ofstream Out(goldenPath(S.File),
                        std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(Out) << "cannot write " << goldenPath(S.File);
      Out << Actual;
      continue;
    }

    std::ifstream In(goldenPath(S.File), std::ios::binary);
    ASSERT_TRUE(In) << "missing golden snapshot " << goldenPath(S.File)
                    << " — run tools/update_goldens.sh and commit the result";
    std::ostringstream Buf;
    Buf << In.rdbuf();
    const std::string Expected = Buf.str();

    if (Expected != Actual) {
      std::filesystem::create_directories("golden_diff");
      std::ofstream Dump("golden_diff/" + std::string(S.File) + ".jsonl",
                         std::ios::binary | std::ios::trunc);
      Dump << Actual;
    }
    EXPECT_TRUE(Expected == Actual)
        << S.Spec << ": stat export drifted from tests/golden/" << S.File
        << ".jsonl (actual dumped to golden_diff/" << S.File << ".jsonl; "
        << "regen via tools/update_goldens.sh if the change is intended)\n"
        << firstDiff(Expected, Actual);
  }
}

// A quick sanity sweep over seeds outside the pinned corpus: every seed
// must yield a runnable program that commits its full budget (fuzzed
// programs loop forever by construction — they never halt early) and
// export its program hash.
TEST(FuzzGolden, FreshSeedsRunToBudget) {
  SimConfig C = SimConfig::hwBaseline();
  C.SimInstructions = 10'000;
  C.WarmupInstructions = 2'000;
  for (uint64_t Seed : {201ull, 202ull, 203ull}) {
    Workload W = makeFuzzWorkload(Seed);
    ASSERT_GT(W.Prog.size(), 0u) << Seed;
    ASSERT_NE(W.ProgramHash, 0u) << Seed;
    SimResult R = runSimulation(W, C);
    EXPECT_EQ(R.Instructions, C.SimInstructions) << Seed;
    EXPECT_FALSE(R.Halted) << Seed;
    ASSERT_TRUE(R.Registry) << Seed;
    EXPECT_EQ(R.Registry->counter("workload.program_hash"), W.ProgramHash)
        << Seed;
  }
}

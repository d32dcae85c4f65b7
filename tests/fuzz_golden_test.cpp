//===- fuzz_golden_test.cpp - Golden stat-registry corpus ------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Byte-compares the canonical StatRegistry JSONL export of a corpus of
// scenarios (at a small fixed budget) against committed snapshots in
// tests/golden/. Any unintended behaviour change anywhere in the machine
// shows up here as a counter drift long before it grows into a headline-
// figure regression. The corpus pins:
//   - the 14 named workloads;
//   - five seeded fuzz scenarios spread across the generator's knob space.
//     Each fuzz snapshot includes the generator's workload.program_hash
//     line, so a golden match certifies BOTH that the generator still
//     emits the same program for the seed AND that the machine still
//     executes it to the same statistics;
//   - two multi-programmed mixes, pinning the co-lane scheduler, the
//     shared memory system and (in the four-lane row) the selector's
//     monitor across revisions.
//
// The named-workload rows run as GoldenStats.* (ctest: golden_stats_test),
// the fuzz and mix rows as FuzzGolden.* (ctest: fuzz_golden_test); both
// share one table and one compare loop.
//
// To refresh after an *intentional* change: tools/update_goldens.sh, then
// review the diff like any other code change. The test regenerates (rather
// than compares) when TRIDENT_UPDATE_GOLDENS is set; on mismatch it dumps
// the actual export to golden_diff/ in the working directory so CI can
// upload it as an artifact.
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

/// The 14 named workloads come first. The fuzz rows spread the knob space:
/// defaults, a small working set, high entropy + heavy branching, many
/// segments with fast phase changes, and many streams over a large working
/// set. Then two mixes: mcf against art (mix_determinism_test's pairing),
/// and a fuzzed primary with three co-runners under dcpt and the bandit
/// selector.
const Scenario kCorpus[] = {
    {"applu", "applu"},     {"art", "art"},         {"dot", "dot"},
    {"equake", "equake"},   {"facerec", "facerec"}, {"fma3d", "fma3d"},
    {"galgel", "galgel"},   {"gap", "gap"},         {"mcf", "mcf"},
    {"mgrid", "mgrid"},     {"parser", "parser"},   {"swim", "swim"},
    {"vis", "vis"},         {"wupwise", "wupwise"},
    {"fuzz@101", "fuzz_101"},
    {"fuzz@102:wset=2048", "fuzz_102"},
    {"fuzz@103:entropy=800,branch=500", "fuzz_103"},
    {"fuzz@104:segs=5,phase=1500", "fuzz_104"},
    {"fuzz@105:wset=16384,streams=10", "fuzz_105"},
    {"mcf", "mix_mcf_art", {"art"}},
    {"fuzz@106", "mix_fuzz_106",
     {"art", "fuzz@107:wset=512,segs=8", "swim"}, "dcpt", "bandit"},
};

/// The snapshot budget: small enough that the corpus runs in seconds, long
/// enough that tracing, optimization, and repair all engage. Matches the
/// fault-injection identity tests so the two suites cross-check.
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

/// First line where the two exports differ, for a readable failure message
/// (the full JSONL is hundreds of lines; gtest would print all of them).
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

/// A named-workload row: one of the 14 programs, solo.
bool isNamedRow(const Scenario &S) {
  return S.MixWith.empty() && !isFuzzSpec(S.Spec);
}

/// Compares (or, under TRIDENT_UPDATE_GOLDENS, rewrites) the snapshot of
/// every corpus row for which isNamedRow() equals \p Named.
void checkCorpusRows(bool Named) {
  const bool Update = std::getenv("TRIDENT_UPDATE_GOLDENS") != nullptr;
  for (const Scenario &S : kCorpus) {
    if (isNamedRow(S) != Named)
      continue;
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

} // namespace

TEST(GoldenStats, AllWorkloadsMatchCommittedSnapshots) {
  // The named rows must cover every workload, so a new one cannot go
  // unpinned.
  std::vector<std::string> Named;
  for (const Scenario &S : kCorpus)
    if (isNamedRow(S))
      Named.push_back(S.Spec);
  ASSERT_EQ(Named, workloadNames());
  checkCorpusRows(/*Named=*/true);
}

TEST(FuzzGolden, CorpusMatchesCommittedSnapshots) {
  checkCorpusRows(/*Named=*/false);
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

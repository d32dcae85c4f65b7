//===- fuzz_golden_test.cpp - The identity harness -------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Every byte-identity check of the reproduction is a row of one table: a
// scenario crossed with a perturbation that must not change its output.
//
// Scenarios, each pinned by its committed artifact where it has one:
//   - the golden corpus (kCorpus): the 14 named workloads, five seeded fuzz
//     programs, two mixes, one mcf+swim mix per arsenal unit and three
//     longer self-repair rows, each byte-compared against its stat-registry
//     JSONL snapshot in tests/golden/. A fuzz snapshot includes the
//     generator's workload.program_hash line, so it pins the program the
//     seed generates as well as how the machine runs it;
//   - the Fig. 5 sweep (sweepColumns): the 14 workloads under the hardware
//     baseline, basic, whole-object, self-repairing and a faulted
//     self-repairing config, each pinned by one line of
//     tests/golden/sweep_identity.txt (cycles, register checksum, FNV-1a of
//     the registry JSONL). Its self-repairing cells are the corpus's named
//     rows: one scenario backs both artifacts and runs once;
//   - rows with no artifact (unpinnedRows), which only the perturbations
//     use, against their own unperturbed run.
//
// Perturbations (kPerturbations), each of which must reproduce the row's
// whole digest: workload and config names, registry JSONL, register
// checksum, per-kind publish counts, selector decision trace and final
// unit, and mix lanes.
//   - tracer: an EventTracer subscribed for the whole run;
//   - never-firing-faults: a fault plan whose one action never fires;
//   - pool: the suite's rows through one 4-thread ExperimentRunner batch,
//     memo cache off.
// Each runs its rows again in the same process, so a run that is not
// reproducible fails them too; no separate re-run is needed.
// A machine without the Trident runtime constructs the hot-path events
// only once something subscribes to them, so under the tracer and the
// injector its events.published.* counts legitimately move. Those
// passivity rows compare the digest without the publish counts.
//
// Three suites split the rows by ctest name, each checking its rows'
// artifacts and running their perturbations: GoldenStats (the named rows;
// golden_stats_test), FuzzGolden (the other corpus rows, the unpinned ones
// and mcf's hardware-baseline cell; fuzz_golden_test) and SweepIdentity
// (the rest of the sweep, plus the whole fingerprint file;
// sweep_identity_test). A new only-when-on feature adds a perturbation,
// not another loop.
//
// To refresh after an *intentional* change: tools/update_goldens.sh, then
// review the diff like any other code change. Under TRIDENT_UPDATE_GOLDENS
// the harness rewrites the artifacts instead of comparing them and runs no
// perturbation. A mismatch dumps the actual text to golden_diff/ in the
// working directory so CI can upload it as an artifact.
//
//===----------------------------------------------------------------------===//

#include "events/EventTracer.h"
#include "sim/ExperimentRunner.h"
#include "sim/Simulation.h"
#include "workloads/Workloads.h"
#include "workloads/fuzz/FuzzGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#ifndef TRIDENT_GOLDEN_DIR
#error "TRIDENT_GOLDEN_DIR must be defined by the build"
#endif

using namespace trident;

namespace {

/// The artifact budget: small enough that the table runs in seconds, long
/// enough that tracing, optimization, repair and fault recovery all engage.
constexpr uint64_t kSimInstructions = 40'000;
constexpr uint64_t kWarmupInstructions = 10'000;

/// The ctest name a row runs under.
enum class Suite { GoldenStats, FuzzGolden, SweepIdentity };

/// One corpus row: a canonical workload spec and the snapshot filename it
/// pins (spec punctuation would make awkward filenames, so fuzz snapshots
/// are keyed by seed). Mix rows also name their co-runners, the initial
/// prefetcher unit and a selector spec. The self-repair rows also set a
/// longer budget, a fault plan (FaultPlan JSON, absolute trigger cycles) or
/// a phase-detection interval (nonzero turns on ClearMatureOnPhaseChange).
/// A TLB row turns on the data TLB.
struct CorpusRow {
  const char *Spec;
  const char *File;
  std::vector<std::string> MixWith = {};
  const char *HwPf = "sb8x8";
  const char *Selector = "";
  uint64_t SimInstructions = kSimInstructions;
  const char *Faults = "";
  uint64_t PhaseIntervalCommits = 0;
  bool Tlb = false;
};

/// Re-opens and restarts mcf's climb: a long memory-latency spike and a
/// DLT eviction, then a second spike with a DLT and a cache eviction.
constexpr const char *kMcfRepairFaults = R"({"seed":0,"actions":[
 {"kind":"latency-spike","at_cycle":150000,"extra_mem":2400,"duration":200000},
 {"kind":"evict-dlt","at_cycle":350001},
 {"kind":"latency-spike","at_cycle":850000,"extra_mem":1200},
 {"kind":"evict-dlt","at_cycle":850001},
 {"kind":"evict-caches","at_cycle":850002}]})";

/// The 14 named workloads come first. The fuzz rows spread the knob space:
/// defaults, a small working set, high entropy + heavy branching, many
/// segments with fast phase changes, and many streams over a large working
/// set. Then two mixes: mcf against art, and a fuzzed primary with three
/// co-runners under dcpt and the bandit selector. Then mcf against swim
/// under each arsenal unit for the whole run: every one of them prefetches
/// thousands of lines there and serves thousands of probe hits from its
/// prefetch buffer. Last, the self-repair rows: at 40k no row re-opens a
/// settled load or restarts a climb, and only dot and fuzz@101 mature any
/// load. fuzz@101 with phase detection phase-resets a settled load only
/// after 150k instructions, and a reset load climbs again only by 700k, so
/// it runs at 150k (phase changes only) and at 700k. The TLB row is the
/// only one with the data TLB on: mcf misses it more often than it has
/// entries, so it replaces entries, and drops thousands of prefetches.
const CorpusRow kCorpus[] = {
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
    {"mcf", "mix_mcf_swim_enhanced_stream", {"swim"}, "enhanced-stream"},
    {"mcf", "mix_mcf_swim_dcpt", {"swim"}, "dcpt"},
    {"mcf", "mix_mcf_swim_tskid", {"swim"}, "tskid"},
    {"mcf", "repair_mcf_faults", {}, "sb8x8", "", 150'000, kMcfRepairFaults},
    {"fuzz@101", "repair_fuzz_101_phase", {}, "sb8x8", "", 150'000, "",
     10'000},
    {"fuzz@101", "repair_fuzz_101_phase_long", {}, "sb8x8", "", 700'000, "",
     10'000},
    {"mcf", "tlb_mcf", {}, "sb8x8", "", kSimInstructions, "", 0, true},
};

SimConfig budgeted(SimConfig C) {
  C.SimInstructions = kSimInstructions;
  C.WarmupInstructions = kWarmupInstructions;
  return C;
}

void parseSelector(const char *Spec, SimConfig &C) {
  std::string Error;
  EXPECT_TRUE(SelectorConfig::parse(Spec, C.Selector, &Error)) << Error;
}

SimConfig corpusConfig(const CorpusRow &R) {
  SimConfig C = budgeted(SimConfig::withMode(PrefetchMode::SelfRepairing));
  C.SimInstructions = R.SimInstructions;
  C.MixWith = R.MixWith;
  C.HwPf = R.HwPf;
  if (*R.Selector)
    parseSelector(R.Selector, C);
  if (*R.Faults) {
    std::string Error;
    std::optional<FaultPlan> Plan = FaultPlan::parseJson(R.Faults, &Error);
    EXPECT_TRUE(Plan.has_value()) << Error;
    if (Plan)
      C.Faults = *Plan;
  }
  if (R.PhaseIntervalCommits != 0) {
    C.Runtime.ClearMatureOnPhaseChange = true;
    C.Runtime.PhaseIntervalCommits = R.PhaseIntervalCommits;
  }
  C.Mem.Tlb.Enable = R.Tlb;
  return C;
}

/// A named-workload row: one of the 14 programs, solo, unfaulted and
/// without a TLB.
bool isNamedRow(const CorpusRow &R) {
  return R.MixWith.empty() && !isFuzzSpec(R.Spec) && !*R.Faults && !R.Tlb;
}

FaultAction faultAt(FaultKind Kind, Cycle At) {
  FaultAction A;
  A.Trigger = FaultTrigger::AtCycle;
  A.At = At;
  A.Kind = Kind;
  return A;
}

FaultAction spikeAt(Cycle At, unsigned ExtraMem, Cycle Duration) {
  FaultAction A = faultAt(FaultKind::LatencySpike, At);
  A.ExtraMemLatency = ExtraMem;
  A.DurationCycles = Duration;
  return A;
}

/// The sweep's faulted column: a self-repairing run whose environment
/// degrades mid-flight. At this budget (a few hundred thousand cycles)
/// every action fires on at least the memory-bound workloads.
SimConfig faultedConfig() {
  SimConfig C = budgeted(SimConfig::withMode(PrefetchMode::SelfRepairing));
  C.Faults.Actions = {spikeAt(20'000, 300, 40'000),
                      faultAt(FaultKind::EvictDlt, 60'000),
                      faultAt(FaultKind::InvalidateTraces, 90'000),
                      faultAt(FaultKind::EvictCaches, 130'000)};
  return C;
}

/// One column of sweep_identity.txt.
struct SweepColumn {
  const char *Name;
  SimConfig Config;
  /// Only the pool perturbs it: the corpus rows already run the other
  /// perturbations on the Trident machine at this budget.
  bool PoolOnly;
};

/// The columns in file order. The hardware baseline has no Trident at
/// all, so it is the pure-hardware path the JSONL snapshots never see.
/// Nothing subscribes to its Commit events, so the tracer and the injector
/// are their first subscribers; mcf's cell runs in tier 1 for that.
const std::vector<SweepColumn> &sweepColumns() {
  static const std::vector<SweepColumn> Columns = {
      {"hwBaseline", budgeted(SimConfig::hwBaseline()), false},
      {"basic", budgeted(SimConfig::withMode(PrefetchMode::Basic)), true},
      {"wholeObject",
       budgeted(SimConfig::withMode(PrefetchMode::WholeObject)), true},
      {"selfRepairing",
       budgeted(SimConfig::withMode(PrefetchMode::SelfRepairing)), false},
      {"faulted", faultedConfig(), true},
  };
  return Columns;
}

/// A scenario: the one run that a row's artifacts and perturbations are
/// compared against.
struct Scenario {
  /// Names the row in failure messages and golden_diff/ dumps.
  std::string Label;
  std::string Spec;
  SimConfig Config;
  /// The committed JSONL snapshot it backs (without ".jsonl"), or "".
  std::string File;
  /// The sweep_identity.txt column it backs, or nullptr.
  const char *Column = nullptr;
  Suite Home = Suite::FuzzGolden;
  bool PoolOnly = false;
};

/// A memory regime that keeps shifting: every 250k cycles from cycle 100k,
/// alternately a 150k-cycle latency spike and a cache flush.
FaultPlan regimeShifts() {
  FaultPlan P;
  for (Cycle At = 100'000; At < 2'000'000; At += 500'000) {
    P.Actions.push_back(spikeAt(At, 250, 150'000));
    P.Actions.push_back(faultAt(FaultKind::EvictCaches, At + 250'000));
  }
  return P;
}

/// Rows with no committed artifact. The bandit selector on the hardware
/// baseline under regime shifts makes 37 epoch decisions at this budget,
/// with 7 swaps and 4 explorations; no corpus row explores.
std::vector<Scenario> unpinnedRows() {
  SimConfig C = SimConfig::hwBaseline();
  C.SimInstructions = 150'000;
  C.WarmupInstructions = 30'000;
  C.Faults = regimeShifts();
  parseSelector("bandit:seed=7,epoch=4,interval=1000", C);
  return {{"mcf_bandit_regime_shifts", "mcf", C, "", nullptr,
           Suite::FuzzGolden, false}};
}

/// The scenario table: the corpus, the sweep cells the corpus does not
/// already run (mcf's hardware baseline with the tier-1 rows, the rest in
/// the slow suite), then the unpinned rows.
const std::vector<Scenario> &scenarios() {
  static const std::vector<Scenario> All = [] {
    std::vector<Scenario> S;
    for (const CorpusRow &R : kCorpus)
      S.push_back({R.File, R.Spec, corpusConfig(R), R.File, nullptr,
                   isNamedRow(R) ? Suite::GoldenStats : Suite::FuzzGolden});
    for (const std::string &Name : workloadNames())
      for (const SweepColumn &Col : sweepColumns()) {
        const uint64_t Key = configFingerprint(Col.Config);
        auto Same = std::find_if(S.begin(), S.end(), [&](const Scenario &X) {
          return X.Spec == Name && configFingerprint(X.Config) == Key;
        });
        if (Same != S.end()) {
          Same->Column = Col.Name;
          continue;
        }
        const std::string Label = Name + "_" + Col.Name;
        S.push_back({Label, Name, Col.Config, "", Col.Name,
                     Label == "mcf_hwBaseline" ? Suite::FuzzGolden
                                               : Suite::SweepIdentity,
                     Col.PoolOnly});
      }
    for (Scenario &U : unpinnedRows())
      S.push_back(std::move(U));
    return S;
  }();
  return All;
}

/// The unperturbed run of \p S, simulated once per process.
const SimResult &baseRun(const Scenario &S) {
  static std::vector<std::optional<SimResult>> Runs(scenarios().size());
  std::optional<SimResult> &R = Runs[&S - scenarios().data()];
  if (!R)
    R = runSimulation(makeWorkload(S.Spec), S.Config);
  return *R;
}

/// Everything a perturbation must reproduce, one fact per line so that a
/// mismatch names what moved. Without \p PublishCounts it leaves out the
/// per-kind publish counts, for the passivity rows.
std::string digest(const SimResult &R, bool PublishCounts) {
  std::ostringstream Os;
  Os << "workload " << R.Workload << "\nconfig " << R.ConfigName << '\n';
  std::istringstream Registry(R.Registry ? R.Registry->toJsonl()
                                         : "<no registry>\n");
  for (std::string Line; std::getline(Registry, Line);)
    if (PublishCounts || Line.find("\"events.published.") == std::string::npos)
      Os << Line << '\n';
  Os << "checksum " << R.RegChecksum << '\n';
  for (unsigned K = 0; PublishCounts && K < kNumEventKinds; ++K)
    Os << "published " << eventKindName(static_cast<EventKind>(K)) << ' '
       << R.EventsPublished[K] << '\n';
  for (const SelectorDecisionRecord &D : R.SelectorTrace)
    Os << "decision " << D.Epoch << ' ' << D.ChosenArm << ' ' << D.PrevArm
       << '\n';
  Os << "final-unit " << R.SelectorFinalUnit << '\n';
  for (const SimResult::MixLane &L : R.MixLanes)
    Os << "lane " << L.Workload << ' ' << L.Instructions << ' ' << L.Cycles
       << '\n';
  return Os.str();
}

using Results = std::vector<SimResult>;
using Rows = std::vector<const Scenario *>;

Results withTracer(const Rows &Rs) {
  Results Out;
  for (const Scenario *S : Rs) {
    EventTracer Tracer(1 << 12);
    Out.push_back(runSimulation(makeWorkload(S->Spec), S->Config, &Tracer));
    EXPECT_GT(Tracer.recorded(), 0u) << S->Label << ": the tracer saw nothing";
  }
  return Out;
}

Results withNeverFiringFaults(const Rows &Rs) {
  Results Out;
  for (const Scenario *S : Rs) {
    SimConfig C = S->Config;
    C.Faults.Actions.push_back(spikeAt(~static_cast<Cycle>(0), 300, 0));
    Out.push_back(runSimulation(makeWorkload(S->Spec), C));
  }
  return Out;
}

Results throughPool(const Rows &Rs) {
  std::vector<ExperimentJob> Jobs;
  for (const Scenario *S : Rs)
    Jobs.push_back(ExperimentJob{makeWorkload(S->Spec), S->Config});
  // Threads = 0 resolves through TRIDENT_BENCH_JOBS, the path the bench
  // drivers take.
  ::setenv("TRIDENT_BENCH_JOBS", "4", 1);
  ExperimentRunner Runner({/*Threads=*/0, /*UseCache=*/false});
  ::unsetenv("TRIDENT_BENCH_JOBS");
  EXPECT_EQ(Runner.threadCount(), 4u);
  Results Out;
  for (const std::shared_ptr<const SimResult> &R : Runner.runBatch(Jobs))
    Out.push_back(*R);
  return Out;
}

/// A change that must not move a row's digest.
struct Perturbation {
  const char *Name;
  /// It subscribes to the event bus, so on a machine without the Trident
  /// runtime it moves the hot-path kinds' publish counts.
  bool Subscribes;
  /// It covers the sweep's pool-only cells too.
  bool EveryRow;
  /// Runs \p Rs under the perturbation, one result per row.
  Results (*Run)(const Rows &Rs);
};

const Perturbation kPerturbations[] = {
    {"tracer", true, false, withTracer},
    {"never-firing-faults", true, false, withNeverFiringFaults},
    {"pool", false, true, throughPool},
};

bool updating() { return std::getenv("TRIDENT_UPDATE_GOLDENS") != nullptr; }

/// The first few lines where two texts differ, for a readable failure
/// message (a registry export is hundreds of lines; gtest would print all
/// of them).
std::string diffLines(const std::string &Expected, const std::string &Actual) {
  std::istringstream E(Expected), A(Actual);
  std::ostringstream Msg;
  unsigned Shown = 0;
  std::string LE, LA;
  for (unsigned Line = 1; Shown < 4; ++Line) {
    const bool HaveE = static_cast<bool>(std::getline(E, LE));
    const bool HaveA = static_cast<bool>(std::getline(A, LA));
    if (!HaveE && !HaveA)
      break;
    if (HaveE && HaveA && LE == LA)
      continue;
    Msg << "line " << Line << ":\n  expected: " << (HaveE ? LE : "<eof>")
        << "\n  actual:   " << (HaveA ? LA : "<eof>") << '\n';
    ++Shown;
  }
  return Shown ? Msg.str() : "(no line differs; byte difference only)";
}

/// The one compare: on a mismatch, dumps \p Actual to golden_diff/\p Dump
/// and fails with \p What and the first differing lines.
void expectSame(const std::string &What, const std::string &Expected,
                const std::string &Actual, const std::string &Dump) {
  if (Expected == Actual)
    return;
  std::filesystem::create_directories("golden_diff");
  std::ofstream("golden_diff/" + Dump, std::ios::binary | std::ios::trunc)
      << Actual;
  ADD_FAILURE() << What << " (actual dumped to golden_diff/" << Dump << ")\n"
                << diffLines(Expected, Actual);
}

/// Compares (or, under TRIDENT_UPDATE_GOLDENS, rewrites) the committed
/// artifact tests/golden/\p File.
void checkArtifact(const std::string &Row, const std::string &File,
                   const std::string &Actual) {
  const std::string Path = std::string(TRIDENT_GOLDEN_DIR) + "/" + File;
  if (updating()) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    EXPECT_TRUE(Out) << "cannot write " << Path;
    Out << Actual;
    return;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing " << Path
                  << " — run tools/update_goldens.sh and commit the result";
  std::ostringstream Expected;
  Expected << In.rdbuf();
  expectSame(Row + ": drifted from tests/golden/" + File +
                 " (regen via tools/update_goldens.sh only if the change is "
                 "intended)",
             Expected.str(), Actual, File);
}

/// What every unperturbed run must show besides its artifacts.
void checkBaseRun(const Scenario &S, const SimResult &R) {
  const Workload W = makeWorkload(S.Spec);
  // The table lists canonical specs, so the resolved name round-trips; a
  // mismatch means the canonical knob order changed under the table.
  EXPECT_EQ(W.Name, S.Spec);
  ASSERT_TRUE(R.Registry) << S.Label;
  EXPECT_EQ(R.MixLanes.size(), S.Config.MixWith.size()) << S.Label;
  if (isFuzzSpec(S.Spec)) {
    ASSERT_TRUE(R.Registry->has("workload.program_hash")) << S.Label;
    EXPECT_EQ(R.Registry->counter("workload.program_hash"), W.ProgramHash)
        << S.Label;
  }
  // The control plane is only-when-on: with the selector off a run
  // carries no selector state at all, and with it on the selector decides,
  // so its perturbations compare a trace that is there.
  if (!S.Config.Selector.enabled()) {
    EXPECT_TRUE(R.SelectorTrace.empty()) << S.Label;
    EXPECT_TRUE(R.SelectorFinalUnit.empty()) << S.Label;
    EXPECT_EQ(R.Registry->toJsonl().find("\"selector."), std::string::npos)
        << S.Label;
  } else {
    EXPECT_FALSE(R.SelectorTrace.empty()) << S.Label;
  }
  // Without the Trident runtime or a fault plan nothing subscribes to
  // Commit, so the machine never constructs one.
  if (!S.Config.EnableTrident && S.Config.Faults.Actions.empty()) {
    EXPECT_EQ(R.EventsPublished[static_cast<size_t>(EventKind::Commit)], 0u)
        << S.Label;
  }
}

/// sweep_identity.txt as the tree computes it.
std::string sweepFingerprints() {
  std::ostringstream Out;
  Out << "# sweep_identity fingerprints: workload config cycles regchecksum "
         "fnv1a(registry jsonl)\n"
      << "# budget: sim=" << kSimInstructions
      << " warmup=" << kWarmupInstructions << "\n";
  for (const std::string &Name : workloadNames())
    for (const SweepColumn &Col : sweepColumns())
      for (const Scenario &S : scenarios()) {
        if (S.Spec != Name || !S.Column || std::strcmp(S.Column, Col.Name))
          continue;
        const SimResult &R = baseRun(S);
        const std::string Jsonl = R.Registry ? R.Registry->toJsonl() : "";
        // FNV-1a keeps the committed file one line per cell.
        uint64_t Hash = 1469598103934665603ull;
        for (unsigned char C : Jsonl)
          Hash = (Hash ^ C) * 1099511628211ull;
        char Line[256];
        std::snprintf(Line, sizeof(Line),
                      "%s %s cycles=%llu checksum=%016llx registry=%016llx\n",
                      Name.c_str(), Col.Name,
                      static_cast<unsigned long long>(R.Cycles),
                      static_cast<unsigned long long>(R.RegChecksum),
                      static_cast<unsigned long long>(Hash));
        Out << Line;
      }
  return Out.str();
}

/// The one loop: checks (or rewrites) the artifacts of \p Home's rows,
/// then runs every perturbation that covers them.
void checkSuite(Suite Home) {
  Rows Rs;
  for (const Scenario &S : scenarios())
    if (S.Home == Home)
      Rs.push_back(&S);

  for (const Scenario *S : Rs) {
    const SimResult &R = baseRun(*S);
    checkBaseRun(*S, R);
    if (!S->File.empty() && R.Registry)
      checkArtifact(S->Label, S->File + ".jsonl", R.Registry->toJsonl());
  }
  if (Home == Suite::SweepIdentity)
    checkArtifact("the Fig. 5 sweep", "sweep_identity.txt",
                  sweepFingerprints());
  if (updating())
    return;

  for (const Perturbation &P : kPerturbations) {
    Rows Covered;
    for (const Scenario *S : Rs)
      if (P.EveryRow || !S->PoolOnly)
        Covered.push_back(S);
    const Results Got = P.Run(Covered);
    ASSERT_EQ(Got.size(), Covered.size()) << P.Name;
    for (size_t I = 0; I < Covered.size(); ++I) {
      const Scenario &S = *Covered[I];
      const bool Counts = !P.Subscribes || S.Config.EnableTrident;
      expectSame(S.Label + " under " + P.Name, digest(baseRun(S), Counts),
                 digest(Got[I], Counts), S.Label + "." + P.Name + ".digest");
    }
  }
}

} // namespace

TEST(GoldenStats, RowsHoldTheirIdentity) {
  // The named rows must cover every workload, so a new one cannot go
  // unpinned, and they are the sweep's self-repairing column.
  std::vector<std::string> Named;
  for (const Scenario &S : scenarios())
    if (S.Home == Suite::GoldenStats) {
      Named.push_back(S.Spec);
      EXPECT_STREQ(S.Column, "selfRepairing") << S.Label;
    }
  ASSERT_EQ(Named, workloadNames());
  checkSuite(Suite::GoldenStats);
}

TEST(FuzzGolden, RowsHoldTheirIdentity) { checkSuite(Suite::FuzzGolden); }

TEST(SweepIdentity, RowsHoldTheirIdentity) {
  checkSuite(Suite::SweepIdentity);
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

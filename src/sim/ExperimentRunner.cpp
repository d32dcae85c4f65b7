//===- ExperimentRunner.cpp -----------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "sim/ExperimentRunner.h"
#include "support/Check.h"
#include "support/Decimal.h"

#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <unordered_map>

using namespace trident;

//===----------------------------------------------------------------------===//
// Config fingerprinting
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a accumulator. Every field is folded in byte-by-byte, so field
/// order matters and any single-bit change perturbs the hash.
class Fnv1a {
public:
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      addByte(static_cast<uint8_t>(V >> (8 * I)));
  }
  void add(int64_t V) { add(static_cast<uint64_t>(V)); }
  void add(int V) { add(static_cast<int64_t>(V)); }
  void add(unsigned V) { add(static_cast<uint64_t>(V)); }
  void add(bool V) { add(static_cast<uint64_t>(V ? 1 : 0)); }
  void add(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V));
    std::memcpy(&Bits, &V, sizeof(Bits));
    add(Bits);
  }
  void add(const std::string &S) {
    add(static_cast<uint64_t>(S.size()));
    for (char C : S)
      addByte(static_cast<uint8_t>(C));
  }
  uint64_t hash() const { return H; }

private:
  void addByte(uint8_t B) {
    H = (H ^ B) * 1099511628211ull;
  }
  uint64_t H = 1469598103934665603ull;
};

template <typename T> constexpr bool IsVector = false;
template <typename T, typename A>
constexpr bool IsVector<std::vector<T, A>> = true;

/// Folds \p V into \p F: a listed struct row by row in list order, an
/// enum as its value widened to uint64_t, a vector as its length and then
/// each element, and anything else through the Fnv1a::add overloads.
template <typename T> void fold(Fnv1a &F, const T &V) {
  if constexpr (HasFields<T>)
    forEachField<T>([&](const auto &Row) { fold(F, V.*Row.Member); });
  else if constexpr (std::is_enum_v<T>)
    F.add(static_cast<uint64_t>(V));
  else if constexpr (IsVector<T>) {
    F.add(static_cast<uint64_t>(V.size()));
    for (const auto &E : V)
      fold(F, E);
  } else
    F.add(V);
}

} // namespace

uint64_t trident::configFingerprint(const SimConfig &C) {
  Fnv1a F;
  fold(F, C);
  return F.hash();
}

//===----------------------------------------------------------------------===//
// Oracle selector resolution
//===----------------------------------------------------------------------===//

SimConfig trident::resolveSelectorOracle(ExperimentRunner &R,
                                         const Workload &W,
                                         const SimConfig &Config) {
  if (Config.Selector.Policy != SelectorPolicy::Oracle ||
      !Config.Selector.OracleUnit.empty())
    return Config;
  // First pass: every static arsenal unit over the same workload/config
  // (selector off — these are exactly the static cells a sweep like fig10
  // also runs, so the memo cache makes this pass nearly free there).
  const std::vector<std::string> Arms =
      PrefetcherRegistry::instance().arsenalNames();
  std::vector<ExperimentJob> Jobs;
  Jobs.reserve(Arms.size());
  for (const std::string &Arm : Arms) {
    SimConfig C = Config;
    C.Selector = SelectorConfig();
    C.HwPf = Arm;
    Jobs.push_back(ExperimentJob{W, C});
  }
  std::vector<std::shared_ptr<const SimResult>> Results = R.runBatch(Jobs);
  // Pick the unit minimizing total exposed latency — the metric the
  // selector rewards. Strict < keeps ties on the first (lexicographically
  // smallest) arm, so resolution is deterministic.
  size_t Best = 0;
  for (size_t I = 1; I < Results.size(); ++I)
    if (Results[I]->Mem.TotalExposedLatency <
        Results[Best]->Mem.TotalExposedLatency)
      Best = I;
  SimConfig Resolved = Config;
  Resolved.Selector.OracleUnit = Arms[Best];
  return Resolved;
}

//===----------------------------------------------------------------------===//
// Process-wide memo cache
//===----------------------------------------------------------------------===//

namespace {

struct ResultCache {
  std::mutex Mu;
  // trident-analyze: guarded-by(Mu)
  std::unordered_map<std::string, std::shared_ptr<const SimResult>> Map;

  static ResultCache &instance() {
    static ResultCache C;
    return C;
  }
};

std::string cacheKey(const std::string &WorkloadName, uint64_t Fingerprint) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Fingerprint));
  std::string Key;
  Key.reserve(WorkloadName.size() + 1 + 16);
  Key.append(WorkloadName);
  Key.push_back('\0');
  Key.append(Buf);
  return Key;
}

} // namespace

void ExperimentRunner::clearResultCache() {
  ResultCache &C = ResultCache::instance();
  std::lock_guard<std::mutex> L(C.Mu);
  C.Map.clear();
}

size_t ExperimentRunner::resultCacheSize() {
  ResultCache &C = ResultCache::instance();
  std::lock_guard<std::mutex> L(C.Mu);
  return C.Map.size();
}

//===----------------------------------------------------------------------===//
// Thread pool
//===----------------------------------------------------------------------===//

unsigned ExperimentRunner::defaultThreadCount() {
  if (const char *E = std::getenv("TRIDENT_BENCH_JOBS"))
    if (std::optional<uint64_t> V =
            parseDecimal(E, std::numeric_limits<unsigned>::max());
        V && *V != 0)
      return static_cast<unsigned>(*V);
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

ExperimentRunner::ExperimentRunner(ExperimentRunnerOptions Opts)
    : NumThreads(Opts.Threads == 0 ? defaultThreadCount() : Opts.Threads),
      UseCache(Opts.UseCache) {
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ExperimentRunner::~ExperimentRunner() {
  {
    std::lock_guard<std::mutex> L(Mu);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void ExperimentRunner::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> L(Mu);
      WorkAvailable.wait(
          L, [this] { return ShuttingDown || NextTask < Tasks.size(); });
      if (NextTask >= Tasks.size()) {
        if (ShuttingDown)
          return;
        continue;
      }
      Task = Tasks[NextTask++];
    }
    Task();
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Completed;
    }
    BatchDone.notify_all();
  }
}

std::vector<std::shared_ptr<const SimResult>>
ExperimentRunner::runBatch(const std::vector<ExperimentJob> &Jobs) {
  std::vector<std::shared_ptr<const SimResult>> Results(Jobs.size());
  if (Jobs.empty())
    return Results;

  // Coalesce duplicate (workload, config) keys: each unique key simulates
  // once, and every submission slot that shares the key shares the result
  // object. Keys already in the process cache do not simulate at all.
  struct Group {
    size_t FirstJob;
    std::vector<size_t> Slots;
    std::string Key;
  };
  std::vector<Group> ToRun;
  if (UseCache) {
    ResultCache &C = ResultCache::instance();
    std::unordered_map<std::string, size_t> KeyToGroup;
    std::lock_guard<std::mutex> L(C.Mu);
    for (size_t I = 0; I < Jobs.size(); ++I) {
      std::string Key =
          cacheKey(Jobs[I].W.Name, configFingerprint(Jobs[I].Config));
      if (auto Hit = C.Map.find(Key); Hit != C.Map.end()) {
        Results[I] = Hit->second;
        continue;
      }
      auto [It, Inserted] = KeyToGroup.try_emplace(Key, ToRun.size());
      if (Inserted)
        ToRun.push_back(Group{I, {I}, std::move(Key)});
      else
        ToRun[It->second].Slots.push_back(I);
    }
  } else {
    for (size_t I = 0; I < Jobs.size(); ++I)
      ToRun.push_back(Group{I, {I}, std::string()});
  }

  if (ToRun.empty())
    return Results;

  // Dispatch one task per unique key to the pool. Workers claim tasks in
  // index order off the shared cursor — no stealing, no reordering of the
  // result slots, and each task owns a complete machine instance.
  std::vector<std::shared_ptr<const SimResult>> GroupResults(ToRun.size());
  std::vector<std::function<void()>> Batch;
  Batch.reserve(ToRun.size());
  for (size_t G = 0; G < ToRun.size(); ++G) {
    const ExperimentJob &Job = Jobs[ToRun[G].FirstJob];
    Batch.push_back([this, &Job, &GroupResults, &ToRun, G] {
      // Fingerprint stability: a memo key must describe the simulation it
      // caches. If running the simulation perturbed the config (aliasing,
      // a stray const_cast), every later cache hit on this key would
      // silently return results for a different experiment.
      const uint64_t FingerprintBefore =
          UseCache ? configFingerprint(Job.Config) : 0;
      auto R = std::make_shared<const SimResult>(
          runSimulation(Job.W, Job.Config));
      GroupResults[G] = R;
      if (UseCache) {
        TRIDENT_CHECK(configFingerprint(Job.Config) == FingerprintBefore,
                      "config fingerprint changed across runSimulation for "
                      "workload '%s'; the memo cache key is unstable",
                      Job.W.Name.c_str());
        ResultCache &C = ResultCache::instance();
        std::lock_guard<std::mutex> L(C.Mu);
        C.Map.emplace(ToRun[G].Key, std::move(R));
      }
    });
  }

  {
    std::lock_guard<std::mutex> L(Mu);
    TRIDENT_CHECK(NextTask >= Tasks.size(),
                  "runBatch is not reentrant (task %zu of %zu still queued)",
                  NextTask, Tasks.size());
    Tasks = std::move(Batch);
    NextTask = 0;
    Completed = 0;
  }
  WorkAvailable.notify_all();

  {
    std::unique_lock<std::mutex> L(Mu);
    BatchDone.wait(L, [this] { return Completed == Tasks.size(); });
    Tasks.clear();
    NextTask = 0;
    Completed = 0;
  }

  for (size_t G = 0; G < ToRun.size(); ++G)
    for (size_t Slot : ToRun[G].Slots)
      Results[Slot] = GroupResults[G];
  return Results;
}

std::shared_ptr<const SimResult> ExperimentRunner::run(const Workload &W,
                                                       const SimConfig &Config) {
  return runBatch({ExperimentJob{W, Config}}).front();
}

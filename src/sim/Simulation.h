//===- Simulation.h - Experiment configuration and results -----*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One experiment: a machine configuration (SMT core, memory system,
/// optional hardware prefetcher, the Trident runtime with the
/// self-repairing prefetcher, co-runners), what a run of it measured, and
/// runSimulation, which builds the machine (sim/Machine.h) and runs one
/// workload under one configuration, reproducing the paper's methodology
/// (Section 4): warm up with monitoring disabled, then measure a fixed
/// budget of committed *original* instructions.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SIM_SIMULATION_H
#define TRIDENT_SIM_SIMULATION_H

#include "control/PrefetcherSelector.h"
#include "core/TridentRuntime.h"
#include "events/EventTracer.h"
#include "support/StatRegistry.h"
#include "faults/FaultInjector.h"
#include "hwpf/PrefetcherRegistry.h"
#include "workloads/Workloads.h"

#include <vector>

#include <array>
#include <memory>
#include <string>

namespace trident {

/// Display name for a prefetcher spec: "no-hwpf" for the explicit
/// no-prefetcher configuration, the spec string verbatim otherwise.
std::string hwPfConfigName(const std::string &Spec);

struct SimConfig {
  CoreConfig Core = CoreConfig::baseline();
  MemSystemConfig Mem = MemSystemConfig::baseline();
  /// Hardware-prefetcher spec, resolved through PrefetcherRegistry:
  /// "none", a registered name ("sb8x8", "enhanced-stream", "dcpt",
  /// "tskid", ...), or name:knob=value,... (see trident_sim --hwpf list).
  std::string HwPf = "sb8x8";
  /// Enable the Trident runtime at all (false = raw hardware baseline).
  bool EnableTrident = false;
  RuntimeConfig Runtime = RuntimeConfig::baseline();
  /// Warmup instructions (monitoring/optimization disabled; Section 4.2).
  uint64_t WarmupInstructions = 200'000;
  /// Measured committed original instructions.
  uint64_t SimInstructions = 2'000'000;
  /// Fault-injection schedule (empty = no injector is constructed and the
  /// run is bit-identical to a pre-fault-injection build). Trigger cycles
  /// are absolute, warmup included.
  FaultPlan Faults;
  /// Phase-aware prefetcher selection (src/control). Static (the default)
  /// builds no control plane at all, so runs are byte-identical to a
  /// pre-control-plane build; bandit/oracle swap arsenal units at epoch
  /// boundaries. An enabled selector with a zero core feedback interval
  /// runs the core at Selector.IntervalCommits (the selector's heartbeat)
  /// without mutating this config.
  SelectorConfig Selector;
  /// Multi-programmed mix: names of 1..3 co-runner workloads (resolved
  /// through makeWorkload, so fuzz specs work) co-scheduled with the
  /// primary on private cores that share this config's memory system —
  /// cache capacity, MSHRs, bus bandwidth, and the hardware prefetcher.
  /// Empty (the default) runs the solo path, bit-identical to builds that
  /// predate mixes. See sim/Machine.h and DESIGN.md §16.
  std::vector<std::string> MixWith;

  /// The paper's baseline: 8x8 stream buffers, no software prefetching.
  static SimConfig hwBaseline();
  /// Trident with a given prefetch mode on top of the hw baseline.
  static SimConfig withMode(PrefetchMode Mode);
};

struct SimResult {
  std::string Workload;
  std::string ConfigName;
  uint64_t Instructions = 0;
  uint64_t Cycles = 0;
  double Ipc = 0.0;
  MemStats Mem;
  RuntimeStats Runtime;
  DltStats Dlt;
  TlbStats Tlb;
  /// The attached prefetcher's named-counter snapshot (name empty, no
  /// counters when the config ran without one). Counter names are
  /// per-prefetcher; the legacy stream-buffer set keeps its historical
  /// names, so default-config registry exports are unchanged.
  HwPfStats HwPf;
  /// Uniform prefetcher-effectiveness counters (accuracy/coverage inputs),
  /// maintained by the memory system for any attached unit.
  HwPfFeedback PfFeedback;
  Cycle HelperBusyCycles = 0;
  uint64_t BranchMispredicts = 0;
  /// Fault-injection accounting (all zero when no plan was configured).
  FaultStats Faults;
  /// Control-plane accounting (all zero when the selector was static).
  SelectorStats Selector;
  /// The selector's epoch-boundary decision sequence over the measurement
  /// window — the determinism artifact: identical seeds must reproduce
  /// this byte-for-byte under serial and parallel runners.
  std::vector<SelectorDecisionRecord> SelectorTrace;
  /// Arsenal unit attached when the run ended ("" without a selector or
  /// when the run ended unit-less).
  std::string SelectorFinalUnit;
  /// Per-co-runner progress over the measurement window (empty for solo
  /// runs). The primary lane's numbers are the top-level fields above —
  /// a mix result reads exactly like a solo result plus this appendix.
  struct MixLane {
    std::string Workload;
    uint64_t Instructions = 0;
    Cycle Cycles = 0;
  };
  std::vector<MixLane> MixLanes;
  /// FNV-style hash of the main context's final register file — used by
  /// tests to check that dynamic optimization never changes semantics.
  uint64_t RegChecksum = 0;
  /// True when the program ran to its Halt before the instruction budget.
  bool Halted = false;

  /// Per-kind event-bus publish counts over the measurement window. The
  /// hot-path kinds (Commit, LoadOutcome, Branch) are only constructed
  /// when something subscribed to them, so their counts reflect the
  /// machine only when the Trident runtime (or another subscriber) was
  /// attached; the filtered kinds are published unconditionally.
  std::array<uint64_t, kNumEventKinds> EventsPublished{};

  /// The machine's full named-statistics snapshot (cpu.*, mem.*, hwpf.*,
  /// dlt.*, trident.*, events.*), taken at the end of the measurement
  /// window. Shared so memoized results stay cheap to copy.
  std::shared_ptr<const StatRegistry> Registry;

  double helperActiveFraction() const {
    return Cycles == 0 ? 0.0
                       : static_cast<double>(HelperBusyCycles) /
                             static_cast<double>(Cycles);
  }
};

/// Runs \p W under \p Config and returns the measured result. When
/// \p Tracer is given it is subscribed to the machine's event bus for the
/// whole run (warmup included); the tracer is strictly passive, so the
/// measured result is bit-identical with and without it.
SimResult runSimulation(const Workload &W, const SimConfig &Config,
                        EventTracer *Tracer = nullptr);

/// Convenience: speedup of \p A over baseline \p Base (IPC ratio).
inline double speedup(const SimResult &A, const SimResult &Base) {
  return Base.Ipc == 0.0 ? 0.0 : A.Ipc / Base.Ipc;
}

} // namespace trident

#endif // TRIDENT_SIM_SIMULATION_H

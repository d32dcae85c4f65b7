//===- Machine.h - One machine: wiring and stepping ------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the whole machine for one run and steps it through the paper's
/// methodology (Section 4): warm up with monitoring disabled, then measure
/// a fixed budget of committed *original* instructions. Solo runs and
/// multi-programmed mixes (DESIGN.md §16) are the same machine; a solo run
/// simply has no co-lanes.
///
/// Lane model: the primary lane is an SMT core with the full wiring —
/// branch predictor, event bus, Trident runtime, selector control plane,
/// fault injector, tracer — over one memory system with its hardware
/// prefetcher. Co-lanes (SimConfig::MixWith, 0..3 of them) are raw cores
/// running their workload against the SAME memory system with no runtime
/// and no event bus; they exist to generate contention, not measurements.
/// Each co-lane gets a disjoint CoreConfig::MemBias so same-numbered
/// addresses in different programs never alias in the shared caches.
///
/// Stepping: quantum round-robin on a global cycle boundary. Each round
/// the boundary advances by kMixQuantumCycles; the primary runs first
/// (toward its warmup/measurement commit goal, capped at the boundary),
/// then each co-lane catches up to the boundary. Everything is
/// deterministic: same seed and config ⇒ bit-identical SimResult,
/// decision trace, and registry export.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SIM_MACHINE_H
#define TRIDENT_SIM_MACHINE_H

#include "branch/BranchPredictor.h"
#include "control/PhaseMonitor.h"
#include "sim/Simulation.h"
#include "trident/CodeCache.h"

#include <memory>
#include <vector>

namespace trident {

/// Co-scheduling quantum in cycles. Lanes later in a round queue behind
/// bus/MSHR reservations the earlier lanes already made up to the
/// boundary, so large quanta skew bandwidth toward the primary; 1000
/// cycles interleaves fairly at modest host cost. Mix runs export it as
/// mix.quantum_cycles.
constexpr Cycle kMixQuantumCycles = 1'000;

class Machine {
public:
  /// Builds the machine for \p Work under \p Cfg; both must outlive it.
  /// When \p Tracer is given it is subscribed to the primary's event bus
  /// for the whole run (warmup included); the tracer is strictly passive,
  /// so the measured result is bit-identical with and without it.
  Machine(const Workload &Work, const SimConfig &Cfg,
          EventTracer *Tracer = nullptr);
  ~Machine();
  Machine(const Machine &) = delete;
  Machine &operator=(const Machine &) = delete;

  /// Runs the warmup budget with dynamic optimization disabled (Section
  /// 4.2), then enables the runtime, clears every counter and opens the
  /// measurement window.
  void warmup();
  /// Runs the measurement budget and assembles the result.
  SimResult measure();

  /// The primary lane's core and event bus, for harnesses that step the
  /// core themselves after warmup().
  SmtCore &core() { return Core; }
  EventBus &bus() { return Bus; }

private:
  struct CoLane;

  /// Steps every lane, one quantum per round, until the primary has
  /// committed \p CommitGoal original instructions or stopped early.
  SmtCore::StopReason runUntil(uint64_t CommitGoal);

  const Workload &W;
  const SimConfig &Config;
  // Member order is load-bearing: Prog, Data and CC must be alive before
  // Image, Image before Core. Data is initialized before Mem is built.
  Program Prog; // private copy: Trident patches it
  DataMemory Data;
  MemorySystem Mem;
  /// Outlives the monitor, which rebuilds units with it at every swap.
  PrefetcherEnv Env;
  /// The core config the primary runs with (selector heartbeat resolved).
  CoreConfig CoreCfg;
  CodeCache CC;
  CodeImage Image;
  SmtCore Core;
  MetaPredictor Predictor;
  EventBus Bus;
  std::unique_ptr<TridentRuntime> Runtime;
  std::unique_ptr<PhaseMonitor> Monitor;
  std::unique_ptr<FaultInjector> Injector;
  std::vector<std::unique_ptr<CoLane>> CoLanes;
  /// The shared round-robin cycle boundary.
  Cycle Boundary = 0;
  /// Primary-lane cycle at which the measurement window opened.
  Cycle Start = 0;
};

} // namespace trident

#endif // TRIDENT_SIM_MACHINE_H

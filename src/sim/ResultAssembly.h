//===- ResultAssembly.h - Shared SimResult/registry assembly ---*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared tail of a simulation run: reading the machine back into a
/// SimResult and snapshotting the named-statistics registry. Both the
/// machine (sim/Machine, solo and mix runs alike) and perfbench's traced
/// driver end in exactly this code, so the only-when-on export contracts —
/// faults.* only when something fired, selector.* only when the control
/// plane was built, conditional event kinds — live in one place and
/// cannot drift between the two.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SIM_RESULTASSEMBLY_H
#define TRIDENT_SIM_RESULTASSEMBLY_H

#include "control/PhaseMonitor.h"
#include "cpu/SmtCore.h"
#include "sim/Simulation.h"

#include <functional>

namespace trident {

/// Everything assembleSimResult reads. Pointers may be null exactly where
/// runSimulation may not have built the component (runtime, injector,
/// monitor, tracer-only buses never appear here — the bus is required).
struct MachineSnapshot {
  const Workload *W = nullptr;
  const SimConfig *Config = nullptr;
  /// The core config the machine actually ran with (selector-heartbeat
  /// resolution may differ from Config->Core).
  const CoreConfig *CoreCfg = nullptr;
  SmtCore *Core = nullptr;
  MemorySystem *Mem = nullptr;
  EventBus *Bus = nullptr;
  TridentRuntime *Runtime = nullptr;
  FaultInjector *Injector = nullptr;
  PhaseMonitor *Monitor = nullptr;
  Cycle Start = 0;
  Cycle End = 0;
  SmtCore::StopReason Stop = SmtCore::StopReason::CommitTarget;
};

/// Assembles the measured SimResult and its registry snapshot from \p M.
/// \p Extra, when given, may add run-shape-specific lines (the machine's
/// mix.* block) before the registry is frozen into the result;
/// the JSONL export sorts by name, so late additions cannot perturb the
/// byte order of the common lines.
SimResult
assembleSimResult(const MachineSnapshot &M,
                  const std::function<void(StatRegistry &)> &Extra = nullptr);

} // namespace trident

#endif // TRIDENT_SIM_RESULTASSEMBLY_H

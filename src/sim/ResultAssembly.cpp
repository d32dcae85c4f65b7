//===- ResultAssembly.cpp -------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "sim/ResultAssembly.h"

#include "support/Check.h"
#include "workloads/fuzz/FuzzGenerator.h"

using namespace trident;

SimResult
trident::assembleSimResult(const MachineSnapshot &M,
                           const std::function<void(StatRegistry &)> &Extra) {
  const Workload &W = *M.W;
  const SimConfig &Config = *M.Config;
  const CoreConfig &CoreCfg = *M.CoreCfg;
  SmtCore &Core = *M.Core;
  MemorySystem &Mem = *M.Mem;

  SimResult Res;
  Res.Workload = W.Name;
  Res.ConfigName = Config.EnableTrident
                       ? std::string("trident-") +
                             prefetchModeName(Config.Runtime.Mode)
                       : hwPfConfigName(Config.HwPf);
  if (Config.Selector.enabled()) {
    // Two appends: GCC 12's -O3 -Wrestrict misfires on `+= "+" + name`.
    Res.ConfigName += '+';
    Res.ConfigName += Config.Selector.shortName();
  }
  if (!Config.MixWith.empty()) {
    Res.ConfigName += "+mix(";
    for (size_t I = 0; I < Config.MixWith.size(); ++I) {
      if (I > 0)
        Res.ConfigName += "+";
      Res.ConfigName += Config.MixWith[I];
    }
    Res.ConfigName += ")";
  }
  Res.Instructions = Core.stats(0).CommittedOriginal;
  TRIDENT_CHECK(M.Stop != SmtCore::StopReason::CommitTarget ||
                    Res.Instructions >= Config.SimInstructions,
                "run stopped at the commit target with only %llu of %llu "
                "instructions committed",
                (unsigned long long)Res.Instructions,
                (unsigned long long)Config.SimInstructions);
  Res.Cycles = M.End - M.Start;
  Res.Ipc = Res.Cycles == 0
                ? 0.0
                : static_cast<double>(Res.Instructions) /
                      static_cast<double>(Res.Cycles);
  Res.Mem = Mem.stats();
  if (M.Runtime) {
    Res.Runtime = M.Runtime->stats();
    Res.Dlt = M.Runtime->dlt().stats();
  }
  if (const HwPrefetcher *Pf = Mem.prefetcher())
    Res.HwPf = Pf->snapshotStats();
  Res.PfFeedback = Mem.feedback();
  if (const Tlb *T = Mem.dtlb())
    Res.Tlb = T->stats();
  Res.HelperBusyCycles = Core.helperBusyCycles();
  Res.BranchMispredicts = Core.stats(0).BranchMispredicts;
  if (M.Injector)
    Res.Faults = M.Injector->stats();
  if (M.Monitor) {
    Res.Selector = M.Monitor->stats();
    Res.SelectorTrace = M.Monitor->trace();
    Res.SelectorFinalUnit = M.Monitor->currentUnitName();
  }
  Res.Halted = M.Stop == SmtCore::StopReason::Halted;
  uint64_t H = 1469598103934665603ull;
  for (unsigned R = 0; R < reg::NumRegs; ++R) {
    // Exclude optimizer scratch registers: they are runtime-owned.
    if (R >= reg::FirstScratch)
      continue;
    H = (H ^ Core.getReg(0, R)) * 1099511628211ull;
  }
  Res.RegChecksum = H;
  Res.EventsPublished = M.Bus->publishedCounts();

  // Snapshot the whole machine into the named-statistics registry.
  auto Reg = std::make_shared<StatRegistry>();
  Reg->setCounter("core.instructions", Res.Instructions);
  Reg->setCounter("core.cycles", Res.Cycles);
  Reg->setReal("core.ipc", Res.Ipc);
  Reg->setCounter("core.helper_busy_cycles", Res.HelperBusyCycles);
  Reg->setCounter("core.halted", Res.Halted ? 1 : 0);
  for (unsigned I = 0; I < Config.Core.NumContexts; ++I)
    Reg->setCounters("cpu.ctx" + std::to_string(I) + ".", Core.stats(I));
  Reg->setCounters("mem.", Res.Mem);
  Reg->setCounters("tlb.", Res.Tlb);
  for (const auto &[Name, Value] : Res.HwPf.Counters)
    Reg->setCounter("hwpf." + Name, Value);
  // The feedback block is opt-in (the sampling knob): the default export
  // set — and therefore the golden corpus — is untouched unless a config
  // explicitly turns the channel on.
  if (CoreCfg.HwPfFeedbackIntervalCommits > 0 && Mem.prefetcher()) {
    Reg->setCounters("hwpf.feedback.", Res.PfFeedback);
    Reg->setReal("hwpf.feedback.accuracy", Res.PfFeedback.accuracy());
    Reg->setReal("hwpf.feedback.coverage", Res.PfFeedback.coverage());
  }
  for (unsigned K = 0; K < kNumEventKinds; ++K) {
    // Kinds newer than the original eight export conditionally, so runs
    // that never publish them stay byte-identical to the golden corpus.
    if (K >= kNumCoreEventKinds && Res.EventsPublished[K] == 0)
      continue;
    Reg->setCounter(std::string("events.published.") +
                        eventKindName(static_cast<EventKind>(K)),
                    Res.EventsPublished[K]);
  }
  if (M.Runtime) {
    Reg->setCounters("trident.", Res.Runtime);
    Reg->setReal("trident.trace_miss_coverage",
                 Res.Runtime.traceMissCoverage());
    Reg->setReal("trident.prefetch_miss_coverage",
                 Res.Runtime.prefetchMissCoverage());
    Reg->setCounters("dlt.", Res.Dlt);
    const EventQueue &Q = M.Runtime->eventQueue();
    Reg->setCounter("trident.event_queue.capacity", Q.capacity());
    Reg->setCounter("trident.event_queue.dropped", Q.dropped());
    Reg->setCounter("trident.event_queue.peak_occupancy", Q.peakOccupancy());
    Reg->setHistogram("trident.event_queue.occupancy", Q.occupancyHistogram());
  }
  // "faults." lines appear only when something actually fired: a plan
  // that never triggers exports byte-identically to a fault-free run
  // (the disabled-injector identity contract).
  if (M.Injector && Res.Faults.Injected > 0)
    Reg->setCounters("faults.", Res.Faults);
  // "selector." lines appear only when the control plane was built, the
  // same only-when-on pattern: static runs export byte-identically to a
  // pre-control-plane build.
  if (M.Monitor)
    Reg->setCounters("selector.", Res.Selector);
  // Fuzzed scenarios export their generator hash so golden corpora and
  // cross-run identity checks pin the exact program, not just its stats.
  // Named (non-fuzz) workloads export nothing new, keeping the legacy
  // golden corpus byte-identical.
  if (isFuzzSpec(W.Name))
    Reg->setCounter("workload.program_hash", W.ProgramHash);
  if (Extra)
    Extra(*Reg);
  Res.Registry = std::move(Reg);
  return Res;
}

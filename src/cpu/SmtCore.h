//===- SmtCore.h - Two-context SMT timing model ----------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline processor of Table 1: a 4-wide SMT core with two hardware
/// contexts, a 256-entry ROB, per-class issue limits (4 int / 2 FP / 2
/// mem), a 20-stage pipeline (modeled as the branch misprediction redirect
/// penalty), and non-blocking caches.
///
/// Timing model (documented substitution, see DESIGN.md): per-context
/// in-order issue gated by a register scoreboard; loads do not block until
/// a dependent instruction needs the value, so independent misses overlap
/// up to the MSHR and ROB limits. Context 0 (the main program) has issue
/// priority; context 1 runs the Trident helper thread, modeled as a
/// *work stub* — a stream of single-cycle instructions whose length comes
/// from the optimizer cost model — so optimization steals real issue
/// bandwidth and shows up in overhead measurements (Fig. 3, Section 5.1).
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_CPU_SMTCORE_H
#define TRIDENT_CPU_SMTCORE_H

#include "branch/BranchPredictor.h"
#include "cpu/CodeSpace.h"
#include "events/EventBus.h"
#include "mem/DataMemory.h"
#include "mem/MemorySystem.h"
#include "support/Fields.h"

#include <array>
#include <string>
#include <vector>

namespace trident {

struct CoreConfig {
  unsigned IssueWidth = 4;
  unsigned RobSize = 256;
  unsigned IntIssueLimit = 4;
  unsigned FpIssueLimit = 2;
  unsigned MemIssueLimit = 2;
  /// Redirect penalty on a branch misprediction (20-stage pipeline).
  unsigned MispredictPenalty = 20;
  unsigned NumContexts = 2;
  /// When nonzero, publish an EventKind::HwPfFeedback sample of the
  /// memory system's prefetcher-effectiveness counters every this many
  /// committed main-context instructions. 0 (default) disables the
  /// channel entirely, keeping event streams and stat exports
  /// bit-identical to builds that predate it.
  uint64_t HwPfFeedbackIntervalCommits = 0;
  /// Address bias applied to every PC and data address this core presents
  /// to the *shared* memory system (cache tags, MSHRs, prefetcher
  /// training) — never to DataMemory, whose contents stay unbiased. The
  /// mix scheduler gives each co-scheduled lane a disjoint bias so two
  /// programs built on the same nominal memory map contend for cache
  /// capacity and bandwidth without aliasing each other's lines. 0 (the
  /// default, and always lane 0) adds nothing, so solo runs are
  /// bit-identical to builds that predate the field.
  Addr MemBias = 0;

  static CoreConfig baseline() { return CoreConfig(); }
  static constexpr auto fields() {
    using C = CoreConfig;
    return std::tuple(
        Field{"issue_width", &C::IssueWidth}, Field{"rob_size", &C::RobSize},
        Field{"int_issue_limit", &C::IntIssueLimit},
        Field{"fp_issue_limit", &C::FpIssueLimit},
        Field{"mem_issue_limit", &C::MemIssueLimit},
        Field{"mispredict_penalty", &C::MispredictPenalty},
        Field{"num_contexts", &C::NumContexts},
        Field{"hwpf_feedback_interval_commits",
              &C::HwPfFeedbackIntervalCommits},
        Field{"mem_bias", &C::MemBias});
  }
};

/// Non-allocating completion callback for helper stubs: a plain function
/// pointer plus an opaque context, so launching a stub on the hot path
/// never constructs a heap-backed closure (the runtime's captures exceed
/// any std::function small-buffer optimization).
struct StubCallback {
  void (*Fn)(void *, Cycle) = nullptr;
  void *Ctx = nullptr;

  explicit operator bool() const { return Fn != nullptr; }
  void operator()(Cycle C) const { Fn(Ctx, C); }
};

/// Per-context execution statistics.
struct ContextStats {
  /// Committed instructions of the *original* program (Synthetic excluded),
  /// the numerator of reported IPC (Section 4.1).
  uint64_t CommittedOriginal = 0;
  /// All issued instructions, including optimizer-inserted ones.
  uint64_t IssuedTotal = 0;
  uint64_t BranchesExecuted = 0;
  uint64_t BranchMispredicts = 0;
  uint64_t StubInstructions = 0;

  /// Registry names, under "cpu.ctx<N>.".
  static constexpr auto fields() {
    return std::tuple(
        Field{"committed_original", &ContextStats::CommittedOriginal},
        Field{"issued_total", &ContextStats::IssuedTotal},
        Field{"branches_executed", &ContextStats::BranchesExecuted},
        Field{"branch_mispredicts", &ContextStats::BranchMispredicts},
        Field{"stub_instructions", &ContextStats::StubInstructions});
  }
};

class SmtCore {
public:
  /// Why a run() call returned.
  enum class StopReason { CommitTarget, Halted, CycleLimit };

  SmtCore(const CoreConfig &Config, CodeSpace &Code, DataMemory &Data,
          MemorySystem &Mem);

  /// Optional branch predictor; without one, branches are oracle-predicted.
  void setBranchPredictor(BranchPredictor *BP) { Predictor = BP; }
  /// Optional event bus the core publishes its commit/load/branch stream
  /// into. The bus's active mask is cached at run() entry, so subscribe
  /// everything before calling run().
  void setEventBus(EventBus *B) { Bus = B; }

  /// Begins executing the program context \p Ctx at \p PC.
  void startContext(unsigned Ctx, Addr PC);

  uint64_t getReg(unsigned Ctx, unsigned Reg) const;

  /// Runs the helper-thread stub on \p Ctx: after \p StartupDelay cycles
  /// (the paper charges 2000 cycles to spawn the helper thread,
  /// Section 4.3), \p Instructions single-cycle operations issue at lower
  /// priority; \p OnDone fires at the cycle the stub finishes. Only one
  /// stub may be active per context.
  void startStub(unsigned Ctx, uint64_t Instructions, Cycle StartupDelay,
                 StubCallback OnDone);
  bool stubActive(unsigned Ctx) const;

  /// Advances simulation until context 0 has committed \p TargetCommits
  /// more original instructions, halts, or \p CycleLimit elapses.
  StopReason run(uint64_t TargetCommits,
                 Cycle CycleLimit = ~static_cast<Cycle>(0));

  Cycle now() const { return Now; }
  bool halted(unsigned Ctx) const { return Ctxs[Ctx].Halted; }
  Addr pc(unsigned Ctx) const { return Ctxs[Ctx].PC; }
  const ContextStats &stats(unsigned Ctx) const { return Ctxs[Ctx].Stats; }
  /// Cycles during which the helper context had stub work outstanding.
  Cycle helperBusyCycles() const { return HelperBusy; }

  /// Clears statistics (after warmup) without touching machine state.
  void clearStats();

private:
  struct Context {
    bool Active = false;
    bool Halted = false;
    Addr PC = 0;
    std::array<uint64_t, reg::NumRegs> Regs{};
    std::array<Cycle, reg::NumRegs> RegReady{};
    Cycle FetchStallUntil = 0;
    // Helper-stub state.
    bool StubMode = false;
    uint64_t StubRemaining = 0;
    StubCallback StubDone;
    ContextStats Stats;
  };

  /// Per-cycle issue budgets.
  struct IssueBudget {
    unsigned Total;
    unsigned Int;
    unsigned Fp;
    unsigned Mem;
  };

  /// Attempts to issue the next instruction of \p C; returns true if one
  /// issued. On a structural/data stall, records the wake-up time in
  /// \p Wake (the earliest cycle the context could progress).
  bool tryIssue(unsigned CtxIdx, Context &C, IssueBudget &B, Cycle &Wake);

  /// Executes \p I functionally and computes timing; returns completion.
  /// \p EffNow is the cycle the instruction's effects take place — equal to
  /// the issue cycle except for deferred synthetic prefetch code.
  Cycle executeInstruction(unsigned CtxIdx, Context &C, const Instruction &I,
                           Addr PC, Cycle EffNow);

  uint64_t readReg(const Context &C, unsigned R) const {
    return R == reg::Zero ? 0 : C.Regs[R];
  }
  void writeReg(Context &C, unsigned R, uint64_t V, Cycle Ready);

  /// Drops matured completion times from the ROB heap. The no-op case
  /// (nothing matured — the overwhelmingly common one) stays inline; the
  /// popping loop lives out of line in purgeRobSlow().
  void purgeRob() {
    if (!Rob.empty() && Rob.front() <= Now)
      purgeRobSlow();
  }
  void purgeRobSlow();
  bool robFull() const { return Rob.size() >= Config.RobSize; }
  Cycle robEarliest() const { return Rob.front(); }

  CoreConfig Config;
  CodeSpace &Code;
  DataMemory &Data;
  MemorySystem &Mem;
  BranchPredictor *Predictor = nullptr;
  EventBus *Bus = nullptr;
  /// Bus->activeMask() cached at run() entry. Every publish site in the
  /// issue loop tests one bit of this mask — a single well-predicted
  /// branch per potential event — instead of chasing the Bus pointer and
  /// its subscriber lists when nobody is listening.
  EventKindMask PubMask = 0;
  /// HwPfFeedback sampling, resolved at run() entry: 0 unless the config
  /// interval is set AND someone subscribed to the kind, so the commit
  /// path pays one predictable branch when the channel is off.
  uint64_t FeedbackEvery = 0;
  uint64_t FeedbackCountdown = 0;

  std::vector<Context> Ctxs;
  Cycle Now = 0;
  Cycle HelperBusy = 0;
  // Completion times of in-flight instructions: a flat binary min-heap
  // (std::push_heap/pop_heap over a vector reserved to RobSize at
  // construction), so ROB pressure never regrows storage mid-run.
  std::vector<Cycle> Rob;
  // Stub completions to fire after the current cycle's issue loop; the
  // context index rides along so the completion can publish a HelperDone
  // event attributed to the right hardware context.
  struct StubCompletion {
    uint8_t Ctx;
    StubCallback Fn;
  };
  std::vector<StubCompletion> PendingStubDone;
  /// Scratch the run loop swaps PendingStubDone into before firing, so a
  /// completion can start a new stub without invalidating the iteration
  /// and no fresh vector is constructed per completion cycle.
  std::vector<StubCompletion> FiringStubDone;
};

} // namespace trident

#endif // TRIDENT_CPU_SMTCORE_H

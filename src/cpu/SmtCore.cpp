//===- SmtCore.cpp --------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// trident-lint: hot-path (per-access simulation inner loop; no O(n) erase
// scans)
//
//===----------------------------------------------------------------------===//

#include "cpu/SmtCore.h"
#include "support/Check.h"

#include <algorithm>
#include <functional>


using namespace trident;

CodeSpace::~CodeSpace() = default;

SmtCore::SmtCore(const CoreConfig &Cfg, CodeSpace &CodeSp, DataMemory &DataMem,
                 MemorySystem &MemSys)
    : Config(Cfg), Code(CodeSp), Data(DataMem), Mem(MemSys) {
  TRIDENT_CHECK(Config.NumContexts >= 1, "need at least one context");
  Ctxs.resize(Config.NumContexts);
  // Pre-size every hot-path container once: the cycle loop must not touch
  // the allocator (asserted by alloc_count_test).
  Rob.reserve(Config.RobSize);
  PendingStubDone.reserve(2 * Config.NumContexts);
  FiringStubDone.reserve(2 * Config.NumContexts);
}

void SmtCore::startContext(unsigned Ctx, Addr PC) {
  TRIDENT_CHECK(Ctx < Ctxs.size(), "context index out of range");
  Context &C = Ctxs[Ctx];
  TRIDENT_CHECK(!C.StubMode, "context is running a helper stub");
  C.Active = true;
  C.Halted = false;
  C.PC = PC;
  C.RegReady.fill(0);
}

uint64_t SmtCore::getReg(unsigned Ctx, unsigned Reg) const {
  TRIDENT_DCHECK(Ctx < Ctxs.size() && Reg < reg::NumRegs,
                 "bad register read: ctx %u reg %u (have %zu ctxs, %u regs)",
                 Ctx, Reg, Ctxs.size(), reg::NumRegs);
  return Reg == reg::Zero ? 0 : Ctxs[Ctx].Regs[Reg];
}

void SmtCore::startStub(unsigned Ctx, uint64_t Instructions,
                        Cycle StartupDelay, StubCallback OnDone) {
  TRIDENT_CHECK(Ctx < Ctxs.size(), "context index out of range");
  Context &C = Ctxs[Ctx];
  TRIDENT_CHECK(!C.StubMode, "stub already active on this context");
  TRIDENT_CHECK(!C.Active, "context is running a program");
  C.StubMode = true;
  C.StubRemaining = Instructions;
  C.StubDone = OnDone;
  C.FetchStallUntil = Now + StartupDelay;
  if (Instructions == 0 && StartupDelay == 0) {
    // Degenerate: completes at the current cycle.
    C.StubMode = false;
    if (C.StubDone)
      PendingStubDone.push_back({static_cast<uint8_t>(Ctx), C.StubDone});
    C.StubDone = {};
  }
}

bool SmtCore::stubActive(unsigned Ctx) const {
  TRIDENT_CHECK(Ctx < Ctxs.size(), "context index out of range");
  return Ctxs[Ctx].StubMode;
}

void SmtCore::clearStats() {
  for (Context &C : Ctxs)
    C.Stats = ContextStats();
  HelperBusy = 0;
}

void SmtCore::writeReg(Context &C, unsigned R, uint64_t V, Cycle Ready) {
  if (R == reg::Zero)
    return;
  C.Regs[R] = V;
  C.RegReady[R] = Ready;
}

void SmtCore::purgeRobSlow() {
  while (!Rob.empty() && Rob.front() <= Now) {
    std::pop_heap(Rob.begin(), Rob.end(), std::greater<Cycle>());
    Rob.pop_back();
  }
}

Cycle SmtCore::executeInstruction(unsigned CtxIdx, Context &C,
                                  const Instruction &I, Addr PC,
                                  Cycle EffNow) {
  Cycle Done = EffNow + executionLatency(I.Op);
  Addr NextPC = PC + 1;

  switch (I.Op) {
  case Opcode::Nop:
    break;
  case Opcode::Halt:
    C.Halted = true;
    C.Active = false;
    break;

  case Opcode::Add:
    writeReg(C, I.Rd, readReg(C, I.Rs1) + readReg(C, I.Rs2), Done);
    break;
  case Opcode::Sub:
    writeReg(C, I.Rd, readReg(C, I.Rs1) - readReg(C, I.Rs2), Done);
    break;
  case Opcode::And:
    writeReg(C, I.Rd, readReg(C, I.Rs1) & readReg(C, I.Rs2), Done);
    break;
  case Opcode::Or:
    writeReg(C, I.Rd, readReg(C, I.Rs1) | readReg(C, I.Rs2), Done);
    break;
  case Opcode::Xor:
    writeReg(C, I.Rd, readReg(C, I.Rs1) ^ readReg(C, I.Rs2), Done);
    break;
  case Opcode::Shl:
    writeReg(C, I.Rd, readReg(C, I.Rs1) << (readReg(C, I.Rs2) & 63), Done);
    break;
  case Opcode::Shr:
    writeReg(C, I.Rd, readReg(C, I.Rs1) >> (readReg(C, I.Rs2) & 63), Done);
    break;
  case Opcode::Mul:
    writeReg(C, I.Rd, readReg(C, I.Rs1) * readReg(C, I.Rs2), Done);
    break;

  case Opcode::AddI:
    writeReg(C, I.Rd,
             readReg(C, I.Rs1) + static_cast<uint64_t>(I.Imm), Done);
    break;
  case Opcode::SubI:
    writeReg(C, I.Rd,
             readReg(C, I.Rs1) - static_cast<uint64_t>(I.Imm), Done);
    break;
  case Opcode::AndI:
    writeReg(C, I.Rd, readReg(C, I.Rs1) & static_cast<uint64_t>(I.Imm), Done);
    break;
  case Opcode::OrI:
    writeReg(C, I.Rd, readReg(C, I.Rs1) | static_cast<uint64_t>(I.Imm), Done);
    break;
  case Opcode::XorI:
    writeReg(C, I.Rd, readReg(C, I.Rs1) ^ static_cast<uint64_t>(I.Imm), Done);
    break;
  case Opcode::ShlI:
    writeReg(C, I.Rd, readReg(C, I.Rs1) << (I.Imm & 63), Done);
    break;
  case Opcode::ShrI:
    writeReg(C, I.Rd, readReg(C, I.Rs1) >> (I.Imm & 63), Done);
    break;
  case Opcode::MulI:
    writeReg(C, I.Rd,
             readReg(C, I.Rs1) * static_cast<uint64_t>(I.Imm), Done);
    break;

  case Opcode::LoadImm:
    writeReg(C, I.Rd, static_cast<uint64_t>(I.Imm), Done);
    break;
  case Opcode::Move:
    writeReg(C, I.Rd, readReg(C, I.Rs1), Done);
    break;

  // FP ops are modeled as integer adds with FP latency: the experiments
  // depend on timing, not on FP values.
  case Opcode::FAdd:
  case Opcode::FMul:
  case Opcode::FDiv:
    writeReg(C, I.Rd, readReg(C, I.Rs1) + readReg(C, I.Rs2), Done);
    break;

  case Opcode::Load:
  case Opcode::NFLoad: {
    Addr EA = readReg(C, I.Rs1) + static_cast<uint64_t>(I.Imm);
    uint64_t V = Data.read64(EA);
    // Synthetic dereference loads access the cache as prefetches: they
    // warm the hierarchy but are not demand loads of the program.
    AccessKind Kind =
        I.Synthetic ? AccessKind::SoftwarePrefetch : AccessKind::DemandLoad;
    AccessResult R =
        Mem.access(PC + Config.MemBias, EA + Config.MemBias, Kind, EffNow);
    Done = R.ReadyCycle;
    writeReg(C, I.Rd, V, Done);
    if ((PubMask & eventMaskOf(EventKind::LoadOutcome)) && !I.Synthetic)
      Bus->publish(HardwareEvent::loadOutcome(CtxIdx, PC, I, EA, R, EffNow));
    break;
  }
  case Opcode::Store: {
    Addr EA = readReg(C, I.Rs1) + static_cast<uint64_t>(I.Imm);
    Data.write64(EA, readReg(C, I.Rs2));
    // Stores retire through the store buffer; the pipeline does not wait
    // for the fill, but the fill still consumes MSHRs/bus bandwidth.
    AccessResult R = Mem.access(PC + Config.MemBias, EA + Config.MemBias,
                                AccessKind::DemandStore, EffNow);
    (void)R;
    Done = EffNow + 1;
    break;
  }
  case Opcode::Prefetch: {
    Addr EA = readReg(C, I.Rs1) + static_cast<uint64_t>(I.Imm);
    Mem.access(PC + Config.MemBias, EA + Config.MemBias,
               AccessKind::SoftwarePrefetch, EffNow);
    Done = EffNow + 1;
    break;
  }

  case Opcode::Beq:
  case Opcode::Bne:
  case Opcode::Blt:
  case Opcode::Bge: {
    int64_t A = static_cast<int64_t>(readReg(C, I.Rs1));
    int64_t B = static_cast<int64_t>(readReg(C, I.Rs2));
    bool Taken = false;
    switch (I.Op) {
    case Opcode::Beq:
      Taken = A == B;
      break;
    case Opcode::Bne:
      Taken = A != B;
      break;
    case Opcode::Blt:
      Taken = A < B;
      break;
    default:
      Taken = A >= B;
      break;
    }
    ++C.Stats.BranchesExecuted;
    bool Predicted = Taken;
    if (Predictor) {
      Predicted = Predictor->predict(PC);
      Predictor->update(PC, Taken);
    }
    if (Predicted != Taken) {
      ++C.Stats.BranchMispredicts;
      C.FetchStallUntil = Now + Config.MispredictPenalty;
    }
    if (Taken)
      NextPC = static_cast<Addr>(I.Imm);
    if (PubMask & eventMaskOf(EventKind::Branch))
      Bus->publish(HardwareEvent::branch(CtxIdx, PC, I, Taken, NextPC, Now));
    break;
  }
  case Opcode::Jump:
    NextPC = static_cast<Addr>(I.Imm);
    ++C.Stats.BranchesExecuted;
    if (PubMask & eventMaskOf(EventKind::Branch))
      Bus->publish(
          HardwareEvent::branch(CtxIdx, PC, I, /*Taken=*/true, NextPC, Now));
    break;

  case Opcode::NumOpcodes:
    TRIDENT_UNREACHABLE("invalid opcode");
    break;
  }

  C.PC = NextPC;
  return Done;
}

bool SmtCore::tryIssue(unsigned CtxIdx, Context &C, IssueBudget &B,
                       Cycle &Wake) {
  auto noteWake = [&](Cycle W) {
    if (W > Now && W < Wake)
      Wake = W;
  };

  if (B.Total == 0)
    return false;

  // Helper stub: dependency-free single-cycle work.
  if (C.StubMode) {
    if (C.FetchStallUntil > Now) {
      noteWake(C.FetchStallUntil);
      return false;
    }
    if (B.Int == 0)
      return false;
    --B.Total;
    --B.Int;
    if (C.StubRemaining == 0) {
      // Startup-only stub: nothing left to issue.
      C.StubMode = false;
      if (C.StubDone)
        PendingStubDone.push_back({static_cast<uint8_t>(CtxIdx), C.StubDone});
      C.StubDone = {};
      return false;
    }
    --C.StubRemaining;
    ++C.Stats.StubInstructions;
    ++C.Stats.IssuedTotal;
    if (C.StubRemaining == 0) {
      C.StubMode = false;
      if (C.StubDone)
        PendingStubDone.push_back({static_cast<uint8_t>(CtxIdx), C.StubDone});
      C.StubDone = {};
    }
    return true;
  }

  if (!C.Active || C.Halted)
    return false;
  if (C.FetchStallUntil > Now) {
    noteWake(C.FetchStallUntil);
    return false;
  }

  const Instruction &I = Code.fetch(C.PC);

  // Structural: per-class issue port.
  ExecClass EC = execClass(I.Op);
  unsigned *ClassBudget = nullptr;
  switch (EC) {
  case ExecClass::IntAlu:
  case ExecClass::Branch: // branches share integer issue ports
  case ExecClass::None:
    ClassBudget = &B.Int;
    break;
  case ExecClass::FpAlu:
    ClassBudget = &B.Fp;
    break;
  case ExecClass::Mem:
    ClassBudget = &B.Mem;
    break;
  }
  if (*ClassBudget == 0)
    return false;

  // Data: operands must be ready (in-order issue past this point would
  // reorder the dependence graph). Exception: *synthetic* instructions
  // (optimizer-inserted prefetch code) never block the pipeline — an OoO
  // core lets them wait in the scheduler while younger program
  // instructions proceed. They issue now and take effect when their
  // operands arrive (DeferUntil).
  Cycle OperandReady = 0;
  if (I.readsRs1())
    OperandReady = std::max(OperandReady, C.RegReady[I.Rs1]);
  if (I.readsRs2())
    OperandReady = std::max(OperandReady, C.RegReady[I.Rs2]);
  Cycle DeferUntil = Now;
  if (OperandReady > Now) {
    if (!I.Synthetic) {
      noteWake(OperandReady);
      return false;
    }
    DeferUntil = OperandReady;
  }

  // Capacity: ROB occupancy. Eager purging keeps the heap shallow, so
  // the pops that do happen sift through a handful of entries instead of
  // a full 128-deep heap; the common nothing-matured case is the inline
  // two-load check in purgeRob().
  purgeRob();
  if (robFull()) {
    noteWake(robEarliest());
    return false;
  }

  --B.Total;
  --*ClassBudget;

  Addr PC = C.PC;
  Cycle Done = executeInstruction(CtxIdx, C, I, PC, DeferUntil);
  TRIDENT_DCHECK(Done >= DeferUntil,
                 "instruction completes before it issues (done %llu < issue "
                 "%llu, pc 0x%llx)",
                 (unsigned long long)Done, (unsigned long long)DeferUntil,
                 (unsigned long long)PC);
  Rob.push_back(Done);
  std::push_heap(Rob.begin(), Rob.end(), std::greater<Cycle>());
  TRIDENT_DCHECK(Rob.size() <= Config.RobSize,
                 "ROB occupancy %zu exceeds capacity %u", Rob.size(),
                 Config.RobSize);

  ++C.Stats.IssuedTotal;
  if (!I.Synthetic) {
    C.Stats.CommittedOriginal += 1 + I.ExtraCommits;
    // Periodic prefetcher-effectiveness sample (off unless configured AND
    // subscribed; see FeedbackEvery). Main context only, so the sampling
    // clock is the reported instruction count.
    if (FeedbackEvery != 0 && CtxIdx == 0) {
      if (FeedbackCountdown <= 1u + I.ExtraCommits) {
        Bus->publish(HardwareEvent::hwPfFeedback(Mem.feedback(), Now));
        FeedbackCountdown = FeedbackEvery;
      } else {
        FeedbackCountdown -= 1u + I.ExtraCommits;
      }
    }
  }
  if (PubMask & eventMaskOf(EventKind::Commit))
    Bus->publish(HardwareEvent::commit(CtxIdx, PC, I, Now));
  return true;
}

SmtCore::StopReason SmtCore::run(uint64_t TargetCommits, Cycle CycleLimit) {
  Context &Main = Ctxs[0];
  const uint64_t Goal = Main.Stats.CommittedOriginal + TargetCommits;

  // Hoist the bus null-check out of the per-commit hot path: sample the
  // subscriber mask once, so each publish site below is one bit-test.
  PubMask = Bus ? Bus->activeMask() : 0;
  FeedbackEvery = (PubMask & eventMaskOf(EventKind::HwPfFeedback))
                      ? Config.HwPfFeedbackIntervalCommits
                      : 0;
  if (FeedbackEvery != 0 && FeedbackCountdown == 0)
    FeedbackCountdown = FeedbackEvery;

  while (true) {
    if (Main.Stats.CommittedOriginal >= Goal)
      return StopReason::CommitTarget;
    if (Main.Halted)
      return StopReason::Halted;
    if (Now >= CycleLimit)
      return StopReason::CycleLimit;

    IssueBudget B{Config.IssueWidth, Config.IntIssueLimit, Config.FpIssueLimit,
                  Config.MemIssueLimit};
    Cycle Wake = ~static_cast<Cycle>(0);
    bool AnyIssued = false;
    bool AnyStub = false;

    // Context 0 (the program) has priority; helper contexts take leftovers.
    for (unsigned CtxIdx = 0; CtxIdx < Ctxs.size(); ++CtxIdx) {
      Context &C = Ctxs[CtxIdx];
      AnyStub |= C.StubMode;
      while (tryIssue(CtxIdx, C, B, Wake)) {
        AnyIssued = true;
        if (CtxIdx == 0 && Main.Stats.CommittedOriginal >= Goal)
          break;
      }
      AnyStub |= C.StubMode;
    }

    // Fire stub completions outside the issue loop (they may patch code or
    // start new stubs).
    if (!PendingStubDone.empty()) {
      // Swap into the member scratch (both keep their capacity): firing a
      // completion may start a new stub, which pushes onto the — now
      // empty — pending list without invalidating this iteration.
      FiringStubDone.clear();
      FiringStubDone.swap(PendingStubDone);
      // Published unconditionally (stub completions are rare, and this
      // keeps the publish counters independent of which sinks subscribe).
      for (StubCompletion &SC : FiringStubDone) {
        if (Bus)
          Bus->publish(HardwareEvent::helperDone(SC.Ctx, Now));
        SC.Fn(Now);
      }
      AnyStub = true; // completion cycle counts as helper activity
    }

    // Advance time. When nothing could issue, skip directly to the next
    // wake-up point (long miss stalls simulate in O(1)).
    Cycle Prev = Now;
    if (AnyIssued) {
      ++Now;
    } else {
      if (Wake == ~static_cast<Cycle>(0)) {
        // Nothing will ever wake this machine up (e.g. all contexts
        // halted); report a halt to the caller.
        return StopReason::Halted;
      }
      // Cycle-counter monotonicity: noteWake only records strictly-future
      // cycles, so a skip-ahead must move time forward. A violation here
      // means some unit reported an event in the past and the whole
      // timing feedback loop (trace timing vs. miss latency) is suspect.
      TRIDENT_CHECK(Wake > Now,
                    "time skip is not monotonic: wake %llu <= now %llu",
                    (unsigned long long)Wake, (unsigned long long)Now);
      Now = Wake;
    }
    if (AnyStub)
      HelperBusy += Now - Prev;
  }
}

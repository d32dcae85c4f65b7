//===- TraceBuilder.cpp ---------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "trident/TraceBuilder.h"
#include "support/Check.h"

#include <algorithm>
#include <array>
#include <optional>

using namespace trident;

static Opcode invertBranch(Opcode Op) {
  switch (Op) {
  case Opcode::Beq:
    return Opcode::Bne;
  case Opcode::Bne:
    return Opcode::Beq;
  case Opcode::Blt:
    return Opcode::Bge;
  case Opcode::Bge:
    return Opcode::Blt;
  default:
    TRIDENT_UNREACHABLE("not a conditional branch");
    return Op;
  }
}

std::optional<Trace> TraceBuilder::build(const Program &Prog,
                                         const HotTraceCandidate &Candidate,
                                         uint32_t Id) const {
  if (!Prog.contains(Candidate.StartPC))
    return std::nullopt;

  Trace T;
  T.Id = Id;
  T.OrigStart = Candidate.StartPC;
  T.Bitmap = Candidate.Bitmap;
  T.NumBranches = Candidate.NumBranches;

  Addr PC = Candidate.StartPC;
  unsigned BitsUsed = 0;
  unsigned JumpChain = 0;
  unsigned PendingCredit = 0; // commit credit from streamlined-away jumps

  auto push = [&](Instruction Ins) {
    if (!Ins.Synthetic && PendingCredit) {
      Ins.ExtraCommits =
          static_cast<uint8_t>(std::min(250u, PendingCredit));
      PendingCredit -= Ins.ExtraCommits;
    }
    T.Body.push_back(Ins);
  };

  while (true) {
    if (!T.Body.empty() && PC == Candidate.StartPC) {
      // The hot path closed back on the loop head. Jump to the *original*
      // start PC: it is patched to enter the (latest) trace, so
      // re-optimized versions take over automatically.
      Instruction J = makeJump(Candidate.StartPC);
      J.Synthetic = true;
      T.Body.push_back(J);
      T.ClosesLoop = true;
      break;
    }
    if (!Prog.contains(PC)) {
      // Path left the program image; cannot happen for well-formed
      // programs, bail out defensively.
      return std::nullopt;
    }

    const Instruction &I = Prog.at(PC);

    if (I.Op == Opcode::Jump) {
      Addr Target = static_cast<Addr>(I.Imm);
      if (Target == PC || ++JumpChain > 64)
        return std::nullopt; // Degenerate self-loop.
      PC = Target;     // Streamlined away...
      ++PendingCredit; // ...but it still counts as committed.
      continue;
    }
    JumpChain = 0;

    if (I.isConditionalBranch()) {
      if (BitsUsed >= Candidate.NumBranches) {
        // No more path information: end the trace with an exit to the
        // branch itself in original code.
        Instruction J = makeJump(PC);
        J.Synthetic = true;
        T.Body.push_back(J);
        break;
      }
      bool Taken = (Candidate.Bitmap >> BitsUsed) & 1;
      ++BitsUsed;
      Instruction B = I;
      B.OrigPC = PC;
      if (Taken) {
        // Hot path takes the branch: invert it so the trace falls through
        // and the side exit goes to the original fall-through.
        B.Op = invertBranch(I.Op);
        B.Imm = static_cast<int64_t>(PC + 1);
        push(B);
        PC = static_cast<Addr>(I.Imm);
      } else {
        // Hot path falls through; the branch target is the side exit.
        push(B);
        PC = PC + 1;
      }
    } else if (I.Op == Opcode::Halt) {
      Instruction H = I;
      H.OrigPC = PC;
      push(H);
      break;
    } else {
      Instruction C = I;
      C.OrigPC = PC;
      push(C);
      PC = PC + 1;
    }

    if (T.Body.size() >= Config.MaxLength) {
      Instruction J = makeJump(PC);
      J.Synthetic = true;
      T.Body.push_back(J);
      break;
    }
  }

  if (T.Body.size() < 2)
    return std::nullopt;

  // Peephole: a loop that closes via [inverted-branch -> side exit;
  // jump OrigStart] re-forms as [original-branch -> OrigStart; jump side
  // exit], so the common (looping) path takes one branch and the jump only
  // executes on loop exit. The install step retargets the OrigStart
  // reference at the trace's own head.
  if (T.ClosesLoop && T.Body.size() >= 2) {
    Instruction &J = T.Body.back();
    Instruction &Br = T.Body[T.Body.size() - 2];
    if (J.Op == Opcode::Jump && J.Synthetic &&
        static_cast<Addr>(J.Imm) == T.OrigStart &&
        Br.isConditionalBranch()) {
      Addr SideExit = static_cast<Addr>(Br.Imm);
      Br.Op = invertBranch(Br.Op);
      Br.Imm = static_cast<int64_t>(T.OrigStart);
      J.Imm = static_cast<int64_t>(SideExit);
    }
  }

  if (Config.RunClassicalOpts)
    runClassicalOpts(T.Body);
  return T;
}

namespace {

/// Forward dataflow state for the classical optimizations. Register and
/// memory version counters make "no intervening redefinition / store"
/// checks O(1), and everything is conservative: we only rewrite an
/// instruction into one computing the identical register result, so side
/// exits observe unchanged machine state.
struct OptState {
  struct RegInfo {
    uint64_t Version = 0;
    bool IsConst = false;
    int64_t ConstVal = 0;
  };
  struct AvailValue {
    unsigned Base = 0;
    uint64_t BaseVersion = 0;
    int64_t Offset = 0;
    uint64_t MemVersion = 0;
    unsigned ValueReg = 0;
    uint64_t ValueVersion = 0;
    bool FromStore = false;
  };

  std::array<RegInfo, reg::NumRegs> Regs;
  std::vector<AvailValue> Avail;
  uint64_t MemVersion = 0;

  void killReg(unsigned R, bool Const = false, int64_t CV = 0) {
    if (R == reg::Zero)
      return;
    ++Regs[R].Version;
    Regs[R].IsConst = Const;
    Regs[R].ConstVal = CV;
  }

  bool isConst(unsigned R, int64_t &V) const {
    if (R == reg::Zero) {
      V = 0;
      return true;
    }
    if (!Regs[R].IsConst)
      return false;
    V = Regs[R].ConstVal;
    return true;
  }

  /// Finds a register still holding the value of memory[Base+Offset].
  const AvailValue *findAvail(unsigned Base, int64_t Offset) const {
    for (const AvailValue &A : Avail) {
      if (A.Base != Base || A.Offset != Offset)
        continue;
      if (A.BaseVersion != Regs[A.Base].Version)
        continue;
      if (A.MemVersion != MemVersion)
        continue;
      if (A.ValueVersion != Regs[A.ValueReg].Version)
        continue;
      return &A;
    }
    return nullptr;
  }

  void addAvail(unsigned Base, int64_t Offset, unsigned ValueReg,
                bool FromStore) {
    if (ValueReg == reg::Zero)
      return;
    Avail.push_back({Base, Regs[Base].Version, Offset, MemVersion, ValueReg,
                     Regs[ValueReg].Version, FromStore});
  }
};

bool isPow2(int64_t V) { return V > 0 && (V & (V - 1)) == 0; }

int64_t log2of(int64_t V) {
  int64_t L = 0;
  while ((int64_t(1) << L) < V)
    ++L;
  return L;
}

} // namespace

ClassicalOptStats
TraceBuilder::runClassicalOpts(std::vector<Instruction> &Body) {
  ClassicalOptStats Stats;
  OptState S;

  for (Instruction &I : Body) {
    switch (I.Op) {
    case Opcode::LoadImm:
      S.killReg(I.Rd, /*Const=*/true, I.Imm);
      continue;

    case Opcode::Move: {
      int64_t CV;
      if (S.isConst(I.Rs1, CV)) {
        Instruction NewI = makeLoadImm(I.Rd, CV);
        NewI.OrigPC = I.OrigPC;
        NewI.Synthetic = I.Synthetic;
        I = NewI;
        ++Stats.ConstantsFolded;
        S.killReg(I.Rd, true, CV);
      } else {
        S.killReg(I.Rd);
      }
      continue;
    }

    case Opcode::AddI:
    case Opcode::SubI:
    case Opcode::MulI:
    case Opcode::AndI:
    case Opcode::OrI:
    case Opcode::XorI:
    case Opcode::ShlI:
    case Opcode::ShrI: {
      // Strength reduction: multiply by a power of two becomes a shift.
      if (I.Op == Opcode::MulI && isPow2(I.Imm)) {
        I.Op = Opcode::ShlI;
        I.Imm = log2of(I.Imm);
        ++Stats.StrengthReduced;
      }
      int64_t CV;
      if (S.isConst(I.Rs1, CV)) {
        int64_t R = 0;
        bool Fold = true;
        switch (I.Op) {
        case Opcode::AddI:
          R = CV + I.Imm;
          break;
        case Opcode::SubI:
          R = CV - I.Imm;
          break;
        case Opcode::MulI:
          R = CV * I.Imm;
          break;
        case Opcode::AndI:
          R = CV & I.Imm;
          break;
        case Opcode::OrI:
          R = CV | I.Imm;
          break;
        case Opcode::XorI:
          R = CV ^ I.Imm;
          break;
        case Opcode::ShlI:
          R = static_cast<int64_t>(static_cast<uint64_t>(CV)
                                   << (I.Imm & 63));
          break;
        case Opcode::ShrI:
          R = static_cast<int64_t>(static_cast<uint64_t>(CV) >>
                                   (I.Imm & 63));
          break;
        default:
          Fold = false;
          break;
        }
        if (Fold) {
          Instruction NewI = makeLoadImm(I.Rd, R);
          NewI.OrigPC = I.OrigPC;
          NewI.Synthetic = I.Synthetic;
          I = NewI;
          ++Stats.ConstantsFolded;
          S.killReg(I.Rd, true, R);
          continue;
        }
      }
      S.killReg(I.Rd);
      continue;
    }

    case Opcode::Load:
    case Opcode::NFLoad: {
      // Redundant load removal / store-to-load forwarding: if a register
      // provably still holds this memory value, convert to a MOVE. This is
      // also how Trident's "store/load pair to MOVE" legacy optimization
      // falls out (Section 3.2).
      if (const OptState::AvailValue *A = S.findAvail(I.Rs1, I.Imm)) {
        unsigned Src = A->ValueReg;
        if (A->FromStore)
          ++Stats.StoreLoadPairsForwarded;
        else
          ++Stats.RedundantLoadsRemoved;
        Instruction NewI = makeMove(I.Rd, Src);
        NewI.OrigPC = I.OrigPC;
        NewI.Synthetic = I.Synthetic;
        I = NewI;
        int64_t CV;
        if (S.isConst(Src, CV))
          S.killReg(I.Rd, true, CV);
        else
          S.killReg(I.Rd);
        continue;
      }
      unsigned Base = I.Rs1;
      int64_t Off = I.Imm;
      S.killReg(I.Rd);
      S.addAvail(Base, Off, I.Rd, /*FromStore=*/false);
      continue;
    }

    case Opcode::Store:
      ++S.MemVersion; // Conservative: a store may alias anything.
      S.addAvail(I.Rs1, I.Imm, I.Rs2, /*FromStore=*/true);
      continue;

    case Opcode::Beq:
    case Opcode::Bne:
    case Opcode::Blt:
    case Opcode::Bge: {
      // Redundant branch removal (Section 3.2): a side-exit branch whose
      // condition is provably false on the trace path never fires and can
      // be deleted. (A provably-true branch would mean the trace path is
      // impossible; keep it — the trace will simply always exit.)
      int64_t A, Cv;
      if (S.isConst(I.Rs1, A) && S.isConst(I.Rs2, Cv)) {
        bool Taken = false;
        switch (I.Op) {
        case Opcode::Beq:
          Taken = A == Cv;
          break;
        case Opcode::Bne:
          Taken = A != Cv;
          break;
        case Opcode::Blt:
          Taken = A < Cv;
          break;
        default:
          Taken = A >= Cv;
          break;
        }
        if (!Taken) {
          I.Op = Opcode::Nop; // erased below
          ++Stats.RedundantBranchesRemoved;
        }
      }
      continue;
    }

    case Opcode::Prefetch:
    case Opcode::Nop:
    case Opcode::Halt:
    case Opcode::Jump:
      continue; // No register effects.

    default:
      // Reg-reg ALU / FP: fold when both operands constant.
      int64_t A, B;
      if (execClass(I.Op) == ExecClass::IntAlu && S.isConst(I.Rs1, A) &&
          S.isConst(I.Rs2, B)) {
        int64_t R = 0;
        bool Fold = true;
        switch (I.Op) {
        case Opcode::Add:
          R = A + B;
          break;
        case Opcode::Sub:
          R = A - B;
          break;
        case Opcode::And:
          R = A & B;
          break;
        case Opcode::Or:
          R = A | B;
          break;
        case Opcode::Xor:
          R = A ^ B;
          break;
        case Opcode::Mul:
          R = A * B;
          break;
        default:
          Fold = false;
          break;
        }
        if (Fold) {
          Instruction NewI = makeLoadImm(I.Rd, R);
          NewI.OrigPC = I.OrigPC;
          NewI.Synthetic = I.Synthetic;
          I = NewI;
          ++Stats.ConstantsFolded;
          S.killReg(I.Rd, true, R);
          continue;
        }
      }
      if (I.writesRd())
        S.killReg(I.Rd);
      continue;
    }
  }

  // Erase the branches nulled out above (nop removal is itself a legal
  // trace optimization). The removed instructions' commit credit moves to
  // a surviving non-synthetic neighbour so original-IPC accounting holds.
  if (Stats.RedundantBranchesRemoved > 0) {
    std::vector<Instruction> Kept;
    Kept.reserve(Body.size());
    unsigned Credit = 0;
    for (const Instruction &I : Body) {
      if (I.Op == Opcode::Nop) {
        Credit += 1u + I.ExtraCommits;
        continue;
      }
      Kept.push_back(I);
      Instruction &K = Kept.back();
      if (!K.Synthetic && Credit) {
        unsigned Take = std::min(250u - K.ExtraCommits, Credit);
        K.ExtraCommits = static_cast<uint8_t>(K.ExtraCommits + Take);
        Credit -= Take;
      }
    }
    // Any residual credit (pathological all-synthetic tail) lands on the
    // last surviving non-synthetic instruction.
    if (Credit)
      for (auto It = Kept.rbegin(); It != Kept.rend(); ++It)
        if (!It->Synthetic) {
          It->ExtraCommits = static_cast<uint8_t>(
              std::min<unsigned>(250, It->ExtraCommits + Credit));
          break;
        }
    Body = std::move(Kept);
  }
  return Stats;
}

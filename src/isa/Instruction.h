//===- Instruction.h - One decoded machine instruction ---------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A decoded instruction. The simulator is a decoded-instruction machine:
/// "patching instruction bits" (how the paper's self-repairing optimizer
/// updates a prefetch distance in place, Section 3.5.1) is modeled as
/// rewriting the \c Imm field of the Prefetch instruction inside the code
/// cache.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_ISA_INSTRUCTION_H
#define TRIDENT_ISA_INSTRUCTION_H

#include "isa/Opcode.h"
#include "support/Types.h"

#include <array>
#include <cstdint>
#include <string>

namespace trident {

struct Instruction {
  Opcode Op = Opcode::Nop;
  uint8_t Rd = 0;
  uint8_t Rs1 = 0;
  uint8_t Rs2 = 0;
  /// Immediate: ALU operand, load/store/prefetch displacement, or absolute
  /// branch target.
  int64_t Imm = 0;

  /// True when the instruction was inserted by the dynamic optimizer
  /// (prefetches, non-faulting dereference loads). Synthetic instructions
  /// are executed and consume resources but are excluded from committed
  /// instruction counts so IPC corresponds to the original program
  /// (Section 4.1 of the paper).
  bool Synthetic = false;

  /// For instructions living in the code cache: the address of the original
  /// binary instruction this one was copied from (0 for synthetic ones).
  Addr OrigPC = 0;

  /// Commit credit for original instructions the optimizer *removed*
  /// (streamlined jumps, redundant branches/nops): the paper requires IPC
  /// to count "the number of instructions the original code would have
  /// executed" (Section 4.1), so eliminated instructions still commit,
  /// carried by a surviving neighbour.
  uint8_t ExtraCommits = 0;

  bool isLoad() const { return trident::isLoad(Op); }
  bool isMemAccess() const { return trident::isMemAccess(Op); }
  bool isBranch() const { return trident::isBranch(Op); }
  bool isConditionalBranch() const { return trident::isConditionalBranch(Op); }
  bool writesRd() const { return trident::writesRd(Op); }
  bool readsRs1() const { return trident::readsRs1(Op); }
  bool readsRs2() const { return trident::readsRs2(Op); }

  bool operator==(const Instruction &) const = default;

  /// Packed binary encoding: word 0 carries the scalar fields (opcode,
  /// registers, flags), word 1 the immediate bits, word 2 the original
  /// PC. decode() inverts it exactly — the property tests fuzz the
  /// round-trip. This is the wire format a persisted code cache or trace
  /// file would use; the simulator itself keeps instructions decoded.
  std::array<uint64_t, 3> encode() const;
  static Instruction decode(const std::array<uint64_t, 3> &Words);
};

/// Renders "opcode rd, rs1, rs2/imm" assembly-ish text, e.g.
/// "ld r5, 16(r3)" or "beq r1, r2, 0x1040".
std::string toString(const Instruction &I);

// Factory helpers used by the assembler, tests, and the optimizer.

Instruction makeNop();
Instruction makeHalt();
Instruction makeAlu(Opcode Op, unsigned Rd, unsigned Rs1, unsigned Rs2);
Instruction makeAluImm(Opcode Op, unsigned Rd, unsigned Rs1, int64_t Imm);
Instruction makeLoadImm(unsigned Rd, int64_t Imm);
Instruction makeMove(unsigned Rd, unsigned Rs1);
Instruction makeLoad(unsigned Rd, unsigned Base, int64_t Offset);
Instruction makeNFLoad(unsigned Rd, unsigned Base, int64_t Offset);
Instruction makeStore(unsigned Base, int64_t Offset, unsigned ValueReg);
Instruction makePrefetch(unsigned Base, int64_t Offset);
Instruction makeBranch(Opcode Op, unsigned Rs1, unsigned Rs2, Addr Target);
Instruction makeJump(Addr Target);

} // namespace trident

#endif // TRIDENT_ISA_INSTRUCTION_H

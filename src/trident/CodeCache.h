//===- CodeCache.h - Trace memory + binary patching ------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Code Cache holds optimized hot traces at high instruction addresses;
/// Trident "inserts the trace into a memory buffer, called the Code Cache,
/// and patches the original binary to redirect execution to use the hot
/// trace" (Section 3.2). Re-optimized traces are installed fresh and the
/// entry patch is redirected, so a thread automatically starts using the
/// new trace at its next loop-head visit. Self-repair patches prefetch
/// instruction bits in place via at().
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_TRIDENT_CODECACHE_H
#define TRIDENT_TRIDENT_CODECACHE_H

#include "cpu/CodeSpace.h"
#include "isa/Program.h"
#include "support/Check.h"

#include <unordered_map>
#include <vector>

namespace trident {

// trident-analyze: not-a-hw-table(the Code Cache is a software memory buffer
// in the optimizer's address space, not a fixed SRAM; Section 3.2)
class CodeCache {
public:
  /// Traces live at and above this address; anything below is the original
  /// program image.
  static constexpr Addr Base = 0x4000'0000;

  /// Copies \p Body into the cache and returns its start address.
  /// \p TraceId tags every slot for O(1) commit-stream attribution.
  Addr install(const std::vector<Instruction> &Body, uint32_t TraceId);

  bool contains(Addr PC) const {
    return PC >= Base && PC < Base + Slots.size();
  }

  const Instruction &at(Addr PC) const {
    TRIDENT_DCHECK(contains(PC), "PC 0x%llx outside code cache",
                   (unsigned long long)PC);
    return Slots[PC - Base];
  }

  /// Mutable access — this is how the self-repairing optimizer rewrites a
  /// prefetch instruction's distance without regenerating the trace.
  Instruction &at(Addr PC) {
    TRIDENT_DCHECK(contains(PC), "PC 0x%llx outside code cache",
                   (unsigned long long)PC);
    return Slots[PC - Base];
  }

  /// TraceId owning the slot at \p PC.
  uint32_t traceIdAt(Addr PC) const {
    TRIDENT_DCHECK(contains(PC), "PC 0x%llx outside code cache",
                   (unsigned long long)PC);
    return SlotTraceIds[PC - Base];
  }

  size_t sizeInstructions() const { return Slots.size(); }

private:
  std::vector<Instruction> Slots;
  std::vector<uint32_t> SlotTraceIds;
};

/// Saves-and-patches instructions in the original binary. Used to link a
/// hot trace (replace the loop-head instruction with a jump into the code
/// cache) and to back out of traces.
class BinaryPatcher {
public:
  explicit BinaryPatcher(Program &P) : Prog(P) {}

  /// Replaces the instruction at \p At with a jump to \p Target, saving the
  /// original for restore(). Re-patching an already patched address keeps
  /// the *original* saved instruction.
  void patchJump(Addr At, Addr Target);

  /// Restores the saved original instruction at \p At.
  void restore(Addr At);

  bool isPatched(Addr At) const { return Saved.count(At) != 0; }

private:
  Program &Prog;
  std::unordered_map<Addr, Instruction> Saved;
};

/// Unified instruction fetch over (patched) program + code cache.
class CodeImage final : public CodeSpace {
public:
  CodeImage(Program &P, CodeCache &CCRef) : Prog(P), CC(CCRef) {}

  const Instruction &fetch(Addr PC) const override {
    if (CC.contains(PC))
      return CC.at(PC);
    return Prog.at(PC);
  }

private:
  Program &Prog;
  CodeCache &CC;
};

} // namespace trident

#endif // TRIDENT_TRIDENT_CODECACHE_H

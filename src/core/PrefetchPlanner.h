//===- PrefetchPlanner.h - Classify loads & plan prefetches ----*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis half of the paper's dynamic prefetch optimizer
/// (Section 3.4):
///
///  * identify every delinquent load in a hot trace via the DLT (including
///    partial-window classification),
///  * classify each as Stride (single simple arithmetic recurrence of the
///    base register in the trace, or DLT-stride-predictable), Pointer
///    (destination register used as a base register before modification),
///    or neither,
///  * group loads sharing a live base register into Same-Object groups,
///  * plan prefetch instructions: per stride group one prefetch at the
///    minimum offset plus additional prefetches for members more than a
///    cache line away (skipped members trigger one extra block), with
///    the distance folded into the immediate as
///    `prefetch (offset + stride*distance)(base)`;
///    pointer members get a non-faulting dereference pair.
///
/// The plan is the durable artifact: re-optimization re-emits the trace
/// body from the base body plus the (extended) plan, and self-repair
/// patches the planned instructions' immediates in place.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_CORE_PREFETCHPLANNER_H
#define TRIDENT_CORE_PREFETCHPLANNER_H

#include "core/RepairPolicy.h"
#include "dlt/DelinquentLoadTable.h"
#include "isa/Instruction.h"

#include <cstdint>
#include <vector>

namespace trident {

enum class LoadClass : uint8_t { Unclassified, Stride, Pointer };

/// One delinquent load found in a trace, with classification inputs.
struct DelinquentLoad {
  unsigned BodyIdx = 0; ///< Index into the trace base body.
  Addr PC = 0;          ///< Code-cache PC it was monitored under.
  LoadClass Class = LoadClass::Unclassified;
  int64_t Stride = 0;        ///< Valid when Class == Stride.
  bool StrideFromDlt = false;
  unsigned BaseReg = 0;
  uint64_t BaseVersion = 0; ///< SSA-ish version of the base at the use.
  int64_t Offset = 0;
  double AvgMissLatency = 0.0;
};

/// One planned insertion: a prefetch instruction, or a non-faulting
/// dereference load followed by one or more prefetches off its result.
struct PlannedPrefetch {
  enum class Kind : uint8_t {
    StridePf,     ///< prefetch (BaseComponent + Stride*D)(BaseReg)
    PointerDeref, ///< nfload rt,(BaseComponent + Stride*D)(BaseReg);
                  ///< prefetch (o)(rt) for each o in DerefOffsets
  };
  Kind K = Kind::StridePf;
  unsigned InsertBeforeIdx = 0; ///< Base-body index to insert before.
  unsigned BaseReg = 0;
  int64_t BaseComponent = 0; ///< Offset component of the immediate.
  int64_t Stride = 0;        ///< Per-iteration stride (0 = not distance-scaled).
  /// PointerDeref: second-level prefetch offsets (the next object's lines).
  std::vector<int64_t> DerefOffsets;
  unsigned GroupId = 0;
};

/// A same-object group sharing one repairable distance (repairing "all
/// the object prefetch distances as a group", Section 3.4.1).
struct PrefetchGroup {
  unsigned Id = 0;
  bool Repairable = false; ///< Stride groups only.
  int Distance = 1;
  int MaxDistance = 1;
  std::vector<unsigned> CoveredLoadIdxs; ///< Base-body indices covered.
  std::vector<LoadRepairState> PerLoad;  ///< Parallel to CoveredLoadIdxs.
  std::vector<size_t> PrefetchIdxs;      ///< Into PrefetchPlan::Prefetches.

  /// True once every covered load has spent its repair budget.
  bool exhausted() const {
    for (const LoadRepairState &S : PerLoad)
      if (!S.Mature)
        return false;
    return true;
  }

  LoadRepairState *stateFor(unsigned BodyIdx) {
    for (size_t I = 0; I < CoveredLoadIdxs.size(); ++I)
      if (CoveredLoadIdxs[I] == BodyIdx)
        return &PerLoad[I];
    return nullptr;
  }
};

struct PrefetchPlan {
  std::vector<PlannedPrefetch> Prefetches;
  std::vector<PrefetchGroup> Groups;
  /// Base-body indices of delinquent loads the planner could not cover;
  /// the runtime matures them.
  std::vector<unsigned> UncoverableLoadIdxs;

  bool covers(unsigned BodyIdx) const;
  PrefetchGroup *groupCovering(unsigned BodyIdx);
};

/// Result of emitting a base body + plan into an installable trace body.
struct PlanEmission {
  std::vector<Instruction> NewBody;
  /// Base-body index -> new-body index (for every base instruction).
  std::vector<unsigned> OldToNew;
  /// Per planned prefetch: new-body index of its *patchable* instruction
  /// (the prefetch itself, or the nfload of a deref pair).
  std::vector<unsigned> PatchSlots;
};

struct PlannerConfig {
  unsigned LineSize = 64;
  /// Scratch register for pointer dereference pairs (reserved for the
  /// optimizer; see isa/Opcode.h).
  unsigned ScratchReg = reg::FirstScratch;
  /// Upper bound on any prefetch distance.
  int DistanceCap = 64;
  /// Enable same-object grouping & pointer dereference prefetching
  /// (off for the paper's "basic" scheme).
  bool WholeObject = true;
};

class PrefetchPlanner {
public:
  explicit PrefetchPlanner(const PlannerConfig &Cfg = {}) : Config(Cfg) {}

  /// Finds and classifies all delinquent loads of a trace. Analysis runs
  /// over the *base* body (no synthetic instructions); \p InstalledPCs
  /// maps each base-body index to the code-cache PC the instruction is
  /// currently installed at (where the DLT monitored it).
  std::vector<DelinquentLoad>
  identifyDelinquentLoads(const std::vector<Instruction> &BaseBody,
                          const std::vector<Addr> &InstalledPCs,
                          const DelinquentLoadTable &Dlt) const;

  /// Classification only (exposed for tests): fills Class/Stride/Base
  /// fields of \p DL given the base trace body.
  void classify(const std::vector<Instruction> &BaseBody, DelinquentLoad &DL,
                const DelinquentLoadTable &Dlt) const;

  /// Extends \p Plan with directives for the loads in \p Loads that are
  /// not covered yet. \p InitialDistance seeds new groups. Returns the
  /// number of newly covered loads.
  unsigned plan(const std::vector<Instruction> &BaseBody,
                const std::vector<DelinquentLoad> &Loads, PrefetchPlan &Plan,
                int InitialDistance) const;

  /// Materializes BaseBody + Plan into an installable body. All inserted
  /// instructions are Synthetic.
  PlanEmission emit(const std::vector<Instruction> &BaseBody,
                    const PrefetchPlan &Plan) const;

  /// The immediate a planned prefetch carries at distance \p D.
  static int64_t immediateFor(const PlannedPrefetch &P, int D) {
    return P.BaseComponent + P.Stride * D;
  }

  const PlannerConfig &config() const { return Config; }

private:
  /// Computes, for every body index, the version of each register before
  /// that instruction executes (version = number of prior writes).
  static std::vector<uint8_t> regWriteCounts(
      const std::vector<Instruction> &Body, unsigned Reg);

  PlannerConfig Config;
};

} // namespace trident

#endif // TRIDENT_CORE_PREFETCHPLANNER_H

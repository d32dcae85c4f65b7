//===- core_test.cpp - Unit tests for the planner and the repair policy ---===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "core/PrefetchPlanner.h"
#include "core/RepairPolicy.h"
#include "dlt/DelinquentLoadTable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

using namespace trident;

namespace {

DltConfig testDlt() {
  DltConfig C;
  C.NumEntries = 64;
  C.Assoc = 2;
  C.MonitorWindow = 16;
  C.MissThreshold = 4;
  C.LatencyThreshold = 12;
  return C;
}

/// Makes PC's entry delinquent (full window, 100% misses at latency 300)
/// with the given address stride so classification sees it.
void makeDelinquent(DelinquentLoadTable &T, Addr PC, int64_t Stride = 64,
                    Addr Base = 0x100000) {
  for (unsigned I = 0; I < 16; ++I)
    T.update(PC, Base + I * Stride, true, 300);
}

/// Installed PC for base-body index I (identity mapping at base 0x40000000).
std::vector<Addr> identityPCs(size_t N) {
  std::vector<Addr> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = 0x40000000 + I;
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Classification (Section 3.4.1)
//===----------------------------------------------------------------------===//

TEST(Classifier, StrideViaTraceRecurrence) {
  // ld r5, 0(r2); addi r2, r2, 64 — classic stride loop.
  std::vector<Instruction> Body = {
      makeLoad(5, 2, 0),
      makeAluImm(Opcode::AddI, 2, 2, 64),
      makeBranch(Opcode::Blt, 2, 3, 0x10),
  };
  DelinquentLoadTable T(testDlt());
  PrefetchPlanner P;
  DelinquentLoad DL;
  DL.BodyIdx = 0;
  DL.PC = 0x40000000;
  P.classify(Body, DL, T);
  EXPECT_EQ(DL.Class, LoadClass::Stride);
  EXPECT_EQ(DL.Stride, 64);
  EXPECT_FALSE(DL.StrideFromDlt);
}

TEST(Classifier, SubIRecurrenceGivesNegativeStride) {
  std::vector<Instruction> Body = {
      makeLoad(5, 2, 0),
      makeAluImm(Opcode::SubI, 2, 2, 8),
  };
  DelinquentLoadTable T(testDlt());
  PrefetchPlanner P;
  DelinquentLoad DL;
  DL.BodyIdx = 0;
  P.classify(Body, DL, T);
  EXPECT_EQ(DL.Class, LoadClass::Stride);
  EXPECT_EQ(DL.Stride, -8);
}

TEST(Classifier, MultipleWritersBlockRecurrence) {
  std::vector<Instruction> Body = {
      makeLoad(5, 2, 0),
      makeAluImm(Opcode::AddI, 2, 2, 64),
      makeAluImm(Opcode::AddI, 2, 2, 8), // second writer
  };
  DelinquentLoadTable T(testDlt());
  PrefetchPlanner P;
  DelinquentLoad DL;
  DL.BodyIdx = 0;
  DL.PC = 0x40000000;
  P.classify(Body, DL, T);
  EXPECT_NE(DL.Class, LoadClass::Stride);
}

TEST(Classifier, StrideViaDltObservation) {
  // Pointer-looking code whose addresses the DLT saw striding (regular
  // allocation): hardware observation wins (Section 3.3).
  std::vector<Instruction> Body = {
      makeLoad(2, 2, 0), // self-chase
  };
  DelinquentLoadTable T(testDlt());
  makeDelinquent(T, 0x40000000, /*Stride=*/128);
  // Confidence needs 15 consecutive equal strides; add more updates.
  for (unsigned I = 16; I < 40; ++I)
    T.update(0x40000000, 0x100000 + I * 128, true, 300);
  PrefetchPlanner P;
  DelinquentLoad DL;
  DL.BodyIdx = 0;
  DL.PC = 0x40000000;
  P.classify(Body, DL, T);
  EXPECT_EQ(DL.Class, LoadClass::Stride);
  EXPECT_EQ(DL.Stride, 128);
  EXPECT_TRUE(DL.StrideFromDlt);
}

TEST(Classifier, SelfChasingPointer) {
  std::vector<Instruction> Body = {
      makeLoad(2, 2, 0), // p = p->next
      makeAlu(Opcode::FAdd, 5, 6, 7),
  };
  DelinquentLoadTable T(testDlt());
  PrefetchPlanner P;
  DelinquentLoad DL;
  DL.BodyIdx = 0;
  DL.PC = 0x40000000;
  P.classify(Body, DL, T);
  EXPECT_EQ(DL.Class, LoadClass::Pointer);
}

TEST(Classifier, PointerViaLaterUseAsBase) {
  std::vector<Instruction> Body = {
      makeLoad(3, 2, 0),  // rd=r3 ...
      makeLoad(5, 3, 16), // ... used as base here
  };
  DelinquentLoadTable T(testDlt());
  PrefetchPlanner P;
  DelinquentLoad DL;
  DL.BodyIdx = 0;
  DL.PC = 0x40000000;
  P.classify(Body, DL, T);
  EXPECT_EQ(DL.Class, LoadClass::Pointer);
}

TEST(Classifier, RedefinitionBeforeUseBlocksPointer) {
  std::vector<Instruction> Body = {
      makeLoad(3, 2, 0),
      makeLoadImm(3, 0), // r3 overwritten before any base use
      makeLoad(5, 3, 16),
  };
  DelinquentLoadTable T(testDlt());
  PrefetchPlanner P;
  DelinquentLoad DL;
  DL.BodyIdx = 0;
  DL.PC = 0x40000000;
  P.classify(Body, DL, T);
  EXPECT_EQ(DL.Class, LoadClass::Unclassified);
}

TEST(Classifier, WraparoundUseInNextIteration) {
  // The dest feeds a load earlier in the (looping) body. The base r2 has
  // no recurrence, so the stride rules do not pre-empt the pointer rule.
  std::vector<Instruction> Body = {
      makeLoad(5, 3, 8),  // uses r3 from the previous iteration
      makeLoad(3, 2, 0),  // defines r3 (pointer, used after wrap)
      makeAluImm(Opcode::AddI, 4, 4, 1),
  };
  DelinquentLoadTable T(testDlt());
  PrefetchPlanner P;
  DelinquentLoad DL;
  DL.BodyIdx = 1;
  DL.PC = 0x40000001;
  P.classify(Body, DL, T);
  EXPECT_EQ(DL.Class, LoadClass::Pointer);
}

TEST(Classifier, StridePreemptsPointerWhenBaseStrides) {
  // Same shape, but the base register recurs: the paper classifies the
  // load as Stride first (Section 3.4.1 checks Stride before Pointer).
  std::vector<Instruction> Body = {
      makeLoad(5, 3, 8),
      makeLoad(3, 2, 0),
      makeAluImm(Opcode::AddI, 2, 2, 8),
  };
  DelinquentLoadTable T(testDlt());
  PrefetchPlanner P;
  DelinquentLoad DL;
  DL.BodyIdx = 1;
  DL.PC = 0x40000001;
  P.classify(Body, DL, T);
  EXPECT_EQ(DL.Class, LoadClass::Stride);
  EXPECT_EQ(DL.Stride, 8);
}

//===----------------------------------------------------------------------===//
// Identification
//===----------------------------------------------------------------------===//

TEST(Planner, IdentifiesOnlyDelinquentLoads) {
  std::vector<Instruction> Body = {
      makeLoad(5, 2, 0),                  // delinquent
      makeLoad(6, 2, 8),                  // healthy
      makeAluImm(Opcode::AddI, 2, 2, 64),
  };
  DelinquentLoadTable T(testDlt());
  makeDelinquent(T, 0x40000000);
  PrefetchPlanner P;
  std::vector<DelinquentLoad> L =
      P.identifyDelinquentLoads(Body, identityPCs(Body.size()), T);
  ASSERT_EQ(L.size(), 1u);
  EXPECT_EQ(L[0].BodyIdx, 0u);
  EXPECT_EQ(L[0].Class, LoadClass::Stride);
}

//===----------------------------------------------------------------------===//
// Same-object planning (Section 3.4.2)
//===----------------------------------------------------------------------===//

namespace {
/// fma3d-style object walk: loads at several offsets of one striding base.
std::vector<Instruction> objectWalkBody() {
  return {
      makeLoad(5, 2, 0),   // 0: line 0
      makeLoad(6, 2, 8),   // 1: line 0 (skipped)
      makeLoad(7, 2, 72),  // 2: line 1
      makeLoad(8, 2, 96),  // 3: line 1 (skipped)
      makeAluImm(Opcode::AddI, 2, 2, 128),
      makeBranch(Opcode::Blt, 2, 3, 0x10),
  };
}
} // namespace

TEST(Planner, SameObjectGroupWithLineSkipping) {
  std::vector<Instruction> Body = objectWalkBody();
  DelinquentLoadTable T(testDlt());
  for (unsigned I = 0; I < 4; ++I)
    makeDelinquent(T, 0x40000000 + I, 128, 0x100000 + Body[I].Imm);
  PrefetchPlanner P;
  std::vector<DelinquentLoad> L =
      P.identifyDelinquentLoads(Body, identityPCs(Body.size()), T);
  ASSERT_EQ(L.size(), 4u);
  PrefetchPlan Plan;
  unsigned Covered = P.plan(Body, L, Plan, /*InitialDistance=*/1);
  EXPECT_EQ(Covered, 4u);
  ASSERT_EQ(Plan.Groups.size(), 1u); // one same-object group
  const PrefetchGroup &G = Plan.Groups[0];
  EXPECT_TRUE(G.Repairable);
  EXPECT_EQ(G.CoveredLoadIdxs.size(), 4u);
  // Prefetches: min offset 0, then 72 (>= line away), then one extra block
  // at 136 because loads were skipped (Section 3.4.2).
  ASSERT_EQ(Plan.Prefetches.size(), 3u);
  EXPECT_EQ(Plan.Prefetches[0].BaseComponent, 0);
  EXPECT_EQ(Plan.Prefetches[1].BaseComponent, 72);
  EXPECT_EQ(Plan.Prefetches[2].BaseComponent, 136);
  for (const PlannedPrefetch &Pf : Plan.Prefetches) {
    EXPECT_EQ(Pf.Stride, 128);
    EXPECT_EQ(Pf.K, PlannedPrefetch::Kind::StridePf);
  }
}

TEST(Planner, BasicModeDoesNotGroup) {
  std::vector<Instruction> Body = objectWalkBody();
  DelinquentLoadTable T(testDlt());
  for (unsigned I = 0; I < 4; ++I)
    makeDelinquent(T, 0x40000000 + I, 128, 0x100000 + Body[I].Imm);
  PlannerConfig C;
  C.WholeObject = false;
  PrefetchPlanner P(C);
  std::vector<DelinquentLoad> L =
      P.identifyDelinquentLoads(Body, identityPCs(Body.size()), T);
  PrefetchPlan Plan;
  P.plan(Body, L, Plan, 1);
  EXPECT_EQ(Plan.Groups.size(), 4u); // one group per load
  EXPECT_EQ(Plan.Prefetches.size(), 4u);
}

TEST(Planner, DistanceScalesImmediate) {
  PlannedPrefetch P;
  P.BaseComponent = 16;
  P.Stride = 128;
  EXPECT_EQ(PrefetchPlanner::immediateFor(P, 1), 144);
  EXPECT_EQ(PrefetchPlanner::immediateFor(P, 10), 1296);
}

TEST(Planner, UnclassifiableLoadsAreUncoverable) {
  std::vector<Instruction> Body = {
      makeLoad(5, 2, 0), // base r2 never written, random addresses
  };
  DelinquentLoadTable T(testDlt());
  // Random addresses: no stride confidence.
  uint64_t A = 0x1000;
  for (unsigned I = 0; I < 16; ++I) {
    A = A * 6364136223846793005ull + 1;
    T.update(0x40000000, A & 0xFFFFF8, true, 300);
  }
  PrefetchPlanner P;
  std::vector<DelinquentLoad> L =
      P.identifyDelinquentLoads(Body, identityPCs(1), T);
  ASSERT_EQ(L.size(), 1u);
  PrefetchPlan Plan;
  unsigned Covered = P.plan(Body, L, Plan, 1);
  EXPECT_EQ(Covered, 0u);
  ASSERT_EQ(Plan.UncoverableLoadIdxs.size(), 1u);
  EXPECT_TRUE(Plan.covers(0)); // "covered" in the sense of resolved
  EXPECT_EQ(Plan.groupCovering(0), nullptr);
}

TEST(Planner, PlanExtensionIsIncremental) {
  std::vector<Instruction> Body = objectWalkBody();
  DelinquentLoadTable T(testDlt());
  makeDelinquent(T, 0x40000000, 128, 0x100000);
  PrefetchPlanner P;
  PrefetchPlan Plan;
  std::vector<DelinquentLoad> L1 =
      P.identifyDelinquentLoads(Body, identityPCs(Body.size()), T);
  P.plan(Body, L1, Plan, 1);
  size_t GroupsAfterFirst = Plan.Groups.size();
  // A second planning pass over the same loads adds nothing.
  unsigned Covered = P.plan(Body, L1, Plan, 1);
  EXPECT_EQ(Covered, 0u);
  EXPECT_EQ(Plan.Groups.size(), GroupsAfterFirst);
  // A new delinquent load extends the plan without disturbing group 0.
  makeDelinquent(T, 0x40000002, 128, 0x100048);
  std::vector<DelinquentLoad> L2 =
      P.identifyDelinquentLoads(Body, identityPCs(Body.size()), T);
  unsigned Covered2 = P.plan(Body, L2, Plan, 1);
  EXPECT_GE(Covered2, 1u);
}

//===----------------------------------------------------------------------===//
// Pointer prefetching (Section 3.4.3)
//===----------------------------------------------------------------------===//

TEST(Planner, PurePointerChaseGetsDerefPair) {
  std::vector<Instruction> Body = {
      makeLoad(2, 2, 0),  // p = p->next (shuffled: no stride)
      makeLoad(5, 2, 8),  // field, line 0
      makeLoad(6, 2, 72), // field, line 1
  };
  DelinquentLoadTable T(testDlt());
  // Random addresses so nothing is stride-predictable.
  uint64_t A = 0x100000;
  for (unsigned I = 0; I < 16; ++I) {
    A = A * 2862933555777941757ull + 3037000493ull;
    T.update(0x40000001, (A & 0xFFFF80) + 8, true, 300);
    T.update(0x40000002, (A & 0xFFFF80) + 72, true, 300);
  }
  PrefetchPlanner P;
  std::vector<DelinquentLoad> L =
      P.identifyDelinquentLoads(Body, identityPCs(Body.size()), T);
  ASSERT_EQ(L.size(), 2u); // the two fields (the chase itself hits)
  PrefetchPlan Plan;
  unsigned Covered = P.plan(Body, L, Plan, 1);
  EXPECT_EQ(Covered, 2u);
  ASSERT_EQ(Plan.Groups.size(), 1u);
  EXPECT_FALSE(Plan.Groups[0].Repairable);
  ASSERT_EQ(Plan.Prefetches.size(), 1u);
  const PlannedPrefetch &Pf = Plan.Prefetches[0];
  EXPECT_EQ(Pf.K, PlannedPrefetch::Kind::PointerDeref);
  EXPECT_EQ(Pf.InsertBeforeIdx, 1u); // right after the chasing load
  EXPECT_EQ(Pf.BaseReg, 2u);
  EXPECT_EQ(Pf.BaseComponent, 0); // the link offset
  // Deref offsets line-cover {0(link), 8, 72}: line 0 plus 72.
  ASSERT_GE(Pf.DerefOffsets.size(), 2u);
  EXPECT_EQ(Pf.DerefOffsets[0], 0);
  EXPECT_EQ(Pf.DerefOffsets[1], 72);
}

TEST(Planner, EmissionInsertsSyntheticInstructions) {
  std::vector<Instruction> Body = objectWalkBody();
  DelinquentLoadTable T(testDlt());
  for (unsigned I = 0; I < 4; ++I)
    makeDelinquent(T, 0x40000000 + I, 128, 0x100000 + Body[I].Imm);
  PrefetchPlanner P;
  std::vector<DelinquentLoad> L =
      P.identifyDelinquentLoads(Body, identityPCs(Body.size()), T);
  PrefetchPlan Plan;
  P.plan(Body, L, Plan, /*InitialDistance=*/2);
  PlanEmission E = P.emit(Body, Plan);

  EXPECT_EQ(E.NewBody.size(), Body.size() + Plan.Prefetches.size());
  // Original instructions preserved in order.
  for (size_t I = 0; I < Body.size(); ++I)
    EXPECT_EQ(E.NewBody[E.OldToNew[I]].Op, Body[I].Op);
  // Patch slots point at synthetic prefetches with distance-2 immediates.
  ASSERT_EQ(E.PatchSlots.size(), Plan.Prefetches.size());
  for (size_t PI = 0; PI < Plan.Prefetches.size(); ++PI) {
    const Instruction &Ins = E.NewBody[E.PatchSlots[PI]];
    EXPECT_TRUE(Ins.Synthetic);
    EXPECT_EQ(Ins.Op, Opcode::Prefetch);
    EXPECT_EQ(Ins.Imm,
              PrefetchPlanner::immediateFor(Plan.Prefetches[PI], 2));
    EXPECT_EQ(Ins.Rs1, 2); // the group's base register
  }
}

TEST(Planner, DerefPairEmission) {
  std::vector<Instruction> Body = {
      makeLoad(2, 2, 0),
      makeLoad(5, 2, 8),
  };
  PrefetchPlan Plan;
  PrefetchGroup G;
  G.Id = 0;
  G.CoveredLoadIdxs = {1};
  G.PerLoad.resize(1);
  PlannedPrefetch Pf;
  Pf.K = PlannedPrefetch::Kind::PointerDeref;
  Pf.InsertBeforeIdx = 1;
  Pf.BaseReg = 2;
  Pf.BaseComponent = 0;
  Pf.DerefOffsets = {0, 72};
  G.PrefetchIdxs = {0};
  Plan.Prefetches.push_back(Pf);
  Plan.Groups.push_back(G);

  PrefetchPlanner P;
  PlanEmission E = P.emit(Body, Plan);
  // Body: [chase, nfld, pf, pf, field].
  ASSERT_EQ(E.NewBody.size(), 5u);
  EXPECT_EQ(E.NewBody[1].Op, Opcode::NFLoad);
  EXPECT_EQ(E.NewBody[1].Rd, reg::FirstScratch);
  EXPECT_EQ(E.NewBody[2].Op, Opcode::Prefetch);
  EXPECT_EQ(E.NewBody[2].Rs1, reg::FirstScratch);
  EXPECT_EQ(E.NewBody[2].Imm, 0);
  EXPECT_EQ(E.NewBody[3].Imm, 72);
  EXPECT_EQ(E.PatchSlots[0], 1u); // the nfload carries the distance
}

TEST(Planner, GroupStateHelpers) {
  PrefetchGroup G;
  G.CoveredLoadIdxs = {3, 7};
  G.PerLoad.resize(2);
  ASSERT_NE(G.stateFor(3), nullptr);
  ASSERT_NE(G.stateFor(7), nullptr);
  EXPECT_EQ(G.stateFor(5), nullptr);
  EXPECT_FALSE(G.exhausted());
  G.PerLoad[0].Mature = true;
  EXPECT_FALSE(G.exhausted());
  G.PerLoad[1].Mature = true;
  EXPECT_TRUE(G.exhausted());
}

//===----------------------------------------------------------------------===//
// RepairPolicy: the self-repairing distance, one row per Section 3.5 rule
//===----------------------------------------------------------------------===//

namespace {

/// The repair rule as the paper words it (Section 3.5.2), kept here as the
/// reference the policy's stabilisers are read against: +1 per event up
/// to the maximal distance, -1 whenever the latency rose since the last
/// event, and no hysteresis, settle-on-best or restart.
struct PaperLiteralPolicy {
  double Last = -1.0;
  int step(int Distance, int MaxDistance, double Latency) {
    const int Move = Last >= 0.0 && Latency > Last ? -1 : +1;
    Last = Latency;
    return std::clamp(Distance + Move, 1, MaxDistance);
  }
};

/// A closed-loop row: at each delinquent-load event the load observes
/// Curve(distance) + Drift[event] at the distance the policy chose at the
/// previous event. Both policies start at distance 1.
struct ClimbRow {
  const char *Rule;
  int MaxDistance;
  double (*Curve)(int Distance);
  std::vector<double> Drift; ///< Per event, in order; missing entries = 0.
  int Events;
  /// repair::step's distance after each event, until the load settles.
  std::vector<int> Path;
  /// One letter per event: Climb, Back-off, Regime restart, Settle.
  const char *Reasons;
  /// The paper-literal rule's distance after each of the Events events.
  std::vector<int> LiteralPath;
};

double observed(const ClimbRow &R, int Distance, size_t Event) {
  return R.Curve(Distance) + (Event < R.Drift.size() ? R.Drift[Event] : 0.0);
}

char reasonLetter(RepairReason R) {
  switch (R) {
  case RepairReason::Climb:
    return 'C';
  case RepairReason::BackOff:
    return 'B';
  case RepairReason::RegimeRestart:
    return 'R';
  case RepairReason::Settle:
    return 'S';
  default:
    return '?'; // step() makes no other decision
  }
}

RepairInputs inputs(const LoadRepairState &S, int Distance, int MaxDistance,
                    double Latency, bool GroupSettled = false) {
  return {S, Distance, MaxDistance, Latency, repair::StartDistance,
          GroupSettled};
}

/// Max 8 unless a row says otherwise, so the budget is 16 events.
const ClimbRow kClimbRows[] = {
    {"seed 1, +1 per event, clamp at max, settle on the best", 8,
     [](int D) { return 400.0 - 10.0 * D; }, {}, 16,
     {2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}, "CCCCCCCCCCCCCCCS",
     {2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}},
    // Past the optimum at 4 the latency clearly rises: back off, and keep
    // backing off only while a decrement clearly helps.
    {"a clear rise backs off, a repeated decrement needs a clear fall", 8,
     [](int D) { return 100.0 + 40.0 * std::abs(D - 4); }, {}, 16,
     {2, 3, 4, 5, 4, 3, 4, 5, 4, 3, 4, 5, 4, 3, 4, 4}, "CCCCBBCCBBCCBBCS",
     {2, 3, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5}},
    {"clamps at 1", 8, [](int D) { return 100.0 + 50.0 * D; }, {}, 16,
     {2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 1}, "CBBCBBCBBCBBCBBS",
     {2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1}},
    // The sixth step (2 x max) moves to 3, then settles on 2, the best.
    {"the budget is exactly 2 x max steps, then settle on the best", 3,
     [](int D) { return D == 2 ? 100.0 : D == 3 ? 200.0 : 300.0; }, {}, 6,
     {2, 3, 2, 1, 2, 2}, "CCBBCS", {2, 3, 2, 3, 2, 3}},
    // At event 5 the latency collapses from 720 to 100: back to the seed
    // with the budget topped up to 16, none of it spent on the restart.
    {"regime restart", 8, [](int D) { return 800.0 - 20.0 * D; },
     {0, 0, 0, 0, -600, -600, -600, -600, -600, -600, -600, -600, -600, -600,
      -600, -600, -600, -600, -600, -600, -600},
     21, {2, 3, 4, 5, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8},
     "CCCCRCCCCCCCCCCCCCCCS",
     {2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}},
    // At event 5 the load reads 0 (no DLT entry): no restart, but the
    // observation counts, so the climb settles back on distance 5.
    {"no restart when the observation is 0, which still counts as best", 8,
     [](int D) { return 800.0 - 20.0 * D; }, {0, 0, 0, 0, -700}, 16,
     {2, 3, 4, 5, 6, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 5}, "CCCCCBCCCCCCCCCS",
     {2, 3, 4, 5, 6, 5, 4, 3, 2, 1, 1, 2, 3, 4, 5, 6}},
    // DESIGN.md section 5: from the seventh event the latency drifts up by
    // one cycle per event. The literal rule reads each drift as a rise and
    // cascades 7 -> 1 in six events; the hysteresis holds this rule at 8
    // and it settles on 5, the first distance that reached the floor.
    {"paper-literal cascade on drift", 8,
     [](int D) { return std::max(100.0, 600.0 - 100.0 * D); },
     {0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 16,
     {2, 3, 4, 5, 6, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 5}, "CCCCCCCCCCCCCCCS",
     {2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1, 1, 1, 1, 1}},
};

void expectState(const LoadRepairState &Got, const LoadRepairState &Want) {
  EXPECT_EQ(Got.RepairsLeft, Want.RepairsLeft);
  EXPECT_EQ(Got.LastAvgAccessLatency, Want.LastAvgAccessLatency);
  EXPECT_EQ(Got.LastMove, Want.LastMove);
  EXPECT_EQ(Got.BestAvgAccessLatency, Want.BestAvgAccessLatency);
  EXPECT_EQ(Got.BestDistance, Want.BestDistance);
  EXPECT_EQ(Got.Mature, Want.Mature);
}

/// A load that settled on distance 5 (best 90 cycles, last 120, last
/// move down, budget spent).
const LoadRepairState kSettled{0, 120.0, -1, 90.0, 5, true};

/// A one-decision row: the rule, its inputs, and the expected decision.
struct TransitionRow {
  const char *Rule;
  repair::Rule Decide;
  RepairInputs In;
  RepairReason Reason;
  int Distance;
  LoadRepairState State;
};

const TransitionRow kTransitionRows[] = {
    {"re-open re-seeds a group whose every load had settled", repair::reopen,
     inputs(kSettled, 5, 8, 300.0, /*GroupSettled=*/true),
     RepairReason::Reopen, 1, {16, -1.0, +1, -1.0, 1, false}},
    {"re-open keeps the distance another load is still climbing",
     repair::reopen, inputs(kSettled, 5, 8, 300.0, /*GroupSettled=*/false),
     RepairReason::Reopen, 5, {16, -1.0, +1, -1.0, 5, false}},
    {"phase reset keeps the best, with a budget of max, not 2 x max",
     repair::phaseReset, inputs(kSettled, 5, 8, 300.0),
     RepairReason::PhaseReset, 5, {8, -1.0, -1, 90.0, 5, false}},
    {"phase reset keeps a larger budget left",
     repair::phaseReset, inputs({12, 120.0, -1, 90.0, 5, true}, 5, 8, 300.0),
     RepairReason::PhaseReset, 5, {12, -1.0, -1, 90.0, 5, false}},
    {"mature only marks the load", repair::mature,
     inputs(repair::begin(8), 3, 8, 300.0), RepairReason::Mature, 3,
     {16, -1.0, +1, -1.0, 1, true}},
};

} // namespace

TEST(RepairPolicy, BeginGivesABudgetOfTwiceTheMaximalDistance) {
  expectState(repair::begin(8), {16, -1.0, +1, -1.0, 1, false});
  EXPECT_EQ(repair::StartDistance, 1);
}

TEST(RepairPolicy, ClosedLoopRows) {
  for (const ClimbRow &R : kClimbRows) {
    SCOPED_TRACE(R.Rule);
    LoadRepairState S = repair::begin(R.MaxDistance);
    int D = repair::StartDistance;
    std::vector<int> Path;
    std::string Reasons;
    for (int E = 0; E < R.Events && !S.Mature; ++E) {
      const RepairDecision Dec =
          repair::step(inputs(S, D, R.MaxDistance, observed(R, D, E)));
      EXPECT_EQ(Dec.OldDistance, D);
      S = Dec.State;
      D = Dec.Distance;
      Path.push_back(D);
      Reasons += reasonLetter(Dec.Reason);
    }
    EXPECT_EQ(Path, R.Path);
    EXPECT_EQ(Reasons, R.Reasons);

    PaperLiteralPolicy Literal;
    std::vector<int> LiteralPath;
    D = repair::StartDistance;
    for (int E = 0; E < R.Events; ++E) {
      D = Literal.step(D, R.MaxDistance, observed(R, D, E));
      LiteralPath.push_back(D);
    }
    EXPECT_EQ(LiteralPath, R.LiteralPath);
  }
}

TEST(RepairPolicy, TransitionRows) {
  for (const TransitionRow &R : kTransitionRows) {
    SCOPED_TRACE(R.Rule);
    const RepairDecision D = R.Decide(R.In);
    EXPECT_EQ(D.Reason, R.Reason);
    EXPECT_EQ(D.OldDistance, R.In.Distance);
    EXPECT_EQ(D.Distance, R.Distance);
    expectState(D.State, R.State);
  }
}

TEST(RepairPolicy, ReasonNamesAreDistinct) {
  std::vector<std::string> Names;
  for (RepairReason R :
       {RepairReason::Climb, RepairReason::BackOff,
        RepairReason::RegimeRestart, RepairReason::Settle,
        RepairReason::Reopen, RepairReason::PhaseReset, RepairReason::Mature})
    Names.push_back(repairReasonName(R));
  std::sort(Names.begin(), Names.end());
  EXPECT_EQ(std::unique(Names.begin(), Names.end()), Names.end());
  EXPECT_EQ(std::count(Names.begin(), Names.end(), "<bad>"), 0);
}

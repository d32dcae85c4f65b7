//===- Tskid.cpp ----------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "hwpf/Tskid.h"
#include "support/Check.h"

#include <algorithm>

using namespace trident;

std::string TskidConfig::invalidReason() const {
  return knobRangeReason("tskid", *this);
}

TskidPrefetcher::TskidPrefetcher(const TskidConfig &Cfg)
    : Config(checkedConfig(Cfg)), Triggers(Config.NumEntries),
      Recent(Config.RecentMissDepth), Pending(Config.PendingDepth),
      Buffer(Config.BufferCapacity) {}

std::string TskidPrefetcher::name() const { return "tskid"; }

unsigned TskidPrefetcher::numPending() const {
  unsigned N = 0;
  for (const PendingPrefetch &P : Pending)
    N += P.Valid;
  return N;
}

HwPfStats TskidPrefetcher::snapshotStats() const {
  return HwPfStats::of(name(), Stats);
}

void TskidPrefetcher::drainPending(Cycle Now, MemoryBackend &BE) {
  if (Now < NextDue)
    return;
  Cycle Next = NeverDue;
  for (PendingPrefetch &P : Pending) {
    if (!P.Valid)
      continue;
    if (P.IssueAt > Now) {
      Next = std::min(Next, P.IssueAt);
      continue;
    }
    P.Valid = false;
    if (Buffer.fetch(P.LineAddr, Now, BE))
      ++Stats.LinesPrefetched;
  }
  NextDue = Next;
}

void TskidPrefetcher::schedule(Addr LineAddr, Cycle IssueAt, Cycle Now,
                               MemoryBackend &BE) {
  if (IssueAt <= Now) {
    // Due immediately (short skid): no timing value in queueing.
    if (Buffer.fetch(LineAddr, Now, BE))
      ++Stats.LinesPrefetched;
    return;
  }
  ++Stats.DelayedIssues;
  // Reuse a free slot; otherwise displace the entry due furthest in the
  // future (the least timely prediction).
  PendingPrefetch *Victim = &Pending[0];
  for (PendingPrefetch &P : Pending) {
    if (!P.Valid) {
      Victim = &P;
      break;
    }
    if (P.IssueAt > Victim->IssueAt)
      Victim = &P;
  }
  Victim->Valid = true;
  Victim->LineAddr = LineAddr;
  Victim->IssueAt = IssueAt;
  NextDue = std::min(NextDue, IssueAt);
}

void TskidPrefetcher::trainOnFill(Addr /*LineAddr*/, Cycle /*Ready*/,
                                  AccessKind /*Kind*/) {
  // Fill observations only feed the stats channel today; the learned skid
  // already encodes arrival timing. Kept as the cache-fill hook user so
  // the contract is exercised end-to-end.
  ++Stats.FillsObserved;
}

void TskidPrefetcher::trainOnMiss(Addr PC, Addr ByteAddr, Cycle Now,
                                  MemoryBackend &BE) {
  drainPending(Now, BE);
  const uint64_t Block = ByteAddr / BE.lineSize();

  // Learn: associate this (target) miss with the oldest recent miss from
  // a different PC — the candidate trigger — recording line delta and the
  // observed skid between the two misses.
  const RecentMiss *Trigger = nullptr;
  for (const RecentMiss &M : Recent) {
    if (!M.Valid || M.PC == PC)
      continue;
    if (!Trigger || M.At < Trigger->At)
      Trigger = &M;
  }
  if (Trigger && Now > Trigger->At) {
    TriggerEntry &T = Triggers[Trigger->PC % Config.NumEntries];
    if (!T.Valid || T.TriggerPC != Trigger->PC)
      ++Stats.TriggersLearned;
    T.Valid = true;
    T.TriggerPC = Trigger->PC;
    T.BlockDelta =
        static_cast<int64_t>(Block) - static_cast<int64_t>(Trigger->Block);
    T.Skid = Now - Trigger->At;
  }

  // Predict: if this PC is a known trigger, schedule the target's line
  // for the learned time instead of firing immediately.
  const TriggerEntry &T = Triggers[PC % Config.NumEntries];
  if (T.Valid && T.TriggerPC == PC && T.BlockDelta != 0) {
    int64_t Target = static_cast<int64_t>(Block) + T.BlockDelta;
    if (Target > 0) {
      Addr LineAddr = static_cast<uint64_t>(Target) * BE.lineSize();
      Cycle Due = T.Skid > Config.MinSkidCycles ? Now + T.Skid : Now;
      Cycle IssueAt = Due > Config.LeadCycles ? Due - Config.LeadCycles : Now;
      schedule(LineAddr, IssueAt, Now, BE);
    }
  }

  // Record this miss in the recent ring (the trigger candidate pool).
  Recent[RecentHand] = {true, PC, Block, Now};
  RecentHand = (RecentHand + 1) % Config.RecentMissDepth;
}

std::optional<Cycle> TskidPrefetcher::probe(Addr LineAddr, Cycle Now,
                                            MemoryBackend &BE) {
  drainPending(Now, BE);
  std::optional<Cycle> Ready = Buffer.take(LineAddr);
  if (Ready)
    ++Stats.ProbeHits;
  else
    ++Stats.ProbeMisses;
  return Ready;
}

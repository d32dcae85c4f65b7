//===- events_test.cpp - Event bus / queue / observability tests ----------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// Covers the event subsystem from unit level (queue drop semantics, bus
// dispatch contract, name table, registry determinism, tracer ring) up to
// the opt-in prefetcher-feedback channel on a whole machine. That a
// subscribed tracer changes nothing about a run is the identity harness's
// tracer perturbation (fuzz_golden_test).
//
//===----------------------------------------------------------------------===//

#include "core/TridentRuntime.h"
#include "events/EventBus.h"
#include "events/EventQueue.h"
#include "events/EventTracer.h"
#include "isa/ProgramBuilder.h"
#include "mem/DataMemory.h"
#include "mem/MemorySystem.h"
#include "support/StatRegistry.h"
#include "sim/Simulation.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace trident;

namespace {

HardwareEvent markAt(Addr PC) {
  return HardwareEvent::traceMark(EventKind::TraceEntry, /*TraceId=*/7, PC,
                                  /*Now=*/PC);
}

//===----------------------------------------------------------------------===//
// EventQueue
//===----------------------------------------------------------------------===//

TEST(EventQueue, FifoOrderPreserved) {
  EventQueue Q(8);
  for (Addr PC = 100; PC < 105; ++PC)
    EXPECT_TRUE(Q.tryPush(markAt(PC)));
  EXPECT_EQ(Q.size(), 5u);
  for (Addr PC = 100; PC < 105; ++PC)
    EXPECT_EQ(Q.pop().PC, PC);
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.dropped(), 0u);
}

TEST(EventQueue, OverflowDropsIncomingDeterministically) {
  // Drop policy: the *incoming* event drops; queued work is never
  // cancelled. So after overflow the survivors are exactly the oldest
  // Capacity pushes, in push order.
  EventQueue Q(2);
  EXPECT_TRUE(Q.tryPush(markAt(1)));
  EXPECT_TRUE(Q.tryPush(markAt(2)));
  EXPECT_FALSE(Q.tryPush(markAt(3)));
  EXPECT_FALSE(Q.tryPush(markAt(4)));
  EXPECT_EQ(Q.dropped(), 2u);
  EXPECT_EQ(Q.size(), 2u);
  EXPECT_EQ(Q.pop().PC, 1u);
  // A slot freed up: the next push is admitted again.
  EXPECT_TRUE(Q.tryPush(markAt(5)));
  EXPECT_EQ(Q.pop().PC, 2u);
  EXPECT_EQ(Q.pop().PC, 5u);
  EXPECT_EQ(Q.dropped(), 2u);
  EXPECT_EQ(Q.peakOccupancy(), 2u);
}

TEST(EventQueue, ZeroCapacityDropsEverything) {
  EventQueue Q(0);
  for (int I = 0; I < 3; ++I)
    EXPECT_FALSE(Q.tryPush(markAt(I)));
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.dropped(), 3u);
  EXPECT_EQ(Q.peakOccupancy(), 0u);
}

TEST(EventQueue, OccupancySampledPrePush) {
  EventQueue Q(4);
  Q.tryPush(markAt(1)); // sampled at occupancy 0
  Q.tryPush(markAt(2)); // sampled at occupancy 1
  Q.tryPush(markAt(3)); // sampled at occupancy 2
  const Histogram &H = Q.occupancyHistogram();
  EXPECT_EQ(H.total(), 3u);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(2), 1u);
}

TEST(EventQueue, ClearStatsKeepsQueuedEvents) {
  EventQueue Q(1);
  Q.tryPush(markAt(9));
  Q.tryPush(markAt(10)); // dropped
  EXPECT_EQ(Q.dropped(), 1u);
  Q.clearStats();
  EXPECT_EQ(Q.dropped(), 0u);
  EXPECT_EQ(Q.occupancyHistogram().total(), 0u);
  // Peak restarts at the current occupancy, and the queued event survives.
  EXPECT_EQ(Q.peakOccupancy(), 1u);
  EXPECT_EQ(Q.pop().PC, 9u);
}

//===----------------------------------------------------------------------===//
// EventBus
//===----------------------------------------------------------------------===//

struct OrderRecorder final : EventSubscriber {
  int Id;
  std::vector<int> &Log;
  OrderRecorder(int WhoId, std::vector<int> &SharedLog)
      : Id(WhoId), Log(SharedLog) {}
  void onEvent(const HardwareEvent &) override { Log.push_back(Id); }
};

TEST(EventBus, DispatchOrderEqualsSubscriptionOrder) {
  EventBus Bus;
  std::vector<int> Log;
  OrderRecorder A(1, Log), B(2, Log), C(3, Log);
  Bus.subscribe(&A, eventMaskOf(EventKind::TraceEntry));
  Bus.subscribe(&B, eventMaskOf(EventKind::TraceEntry));
  Bus.subscribe(&C, eventMaskOf(EventKind::TraceExit));
  Bus.publish(markAt(1));
  EXPECT_EQ(Log, (std::vector<int>{1, 2}));
  Log.clear();
  Bus.publish(HardwareEvent::traceMark(EventKind::TraceExit, 7, 1, 1));
  EXPECT_EQ(Log, (std::vector<int>{3}));
}

TEST(EventBus, MaskFilteringAndActiveUnion) {
  EventBus Bus;
  EXPECT_EQ(Bus.activeMask(), 0u);
  std::vector<int> Log;
  OrderRecorder A(1, Log);
  Bus.subscribe(&A, eventMaskOf(EventKind::Commit) |
                        eventMaskOf(EventKind::HelperDone));
  EXPECT_EQ(Bus.activeMask(), eventMaskOf(EventKind::Commit) |
                                  eventMaskOf(EventKind::HelperDone));
  EXPECT_TRUE(Bus.anyFor(EventKind::Commit));
  EXPECT_FALSE(Bus.anyFor(EventKind::Branch));
  // Publishing an unsubscribed kind still counts, but delivers nowhere.
  Bus.publish(markAt(1));
  EXPECT_TRUE(Log.empty());
  EXPECT_EQ(Bus.published(EventKind::TraceEntry), 1u);
  Bus.publish(HardwareEvent::helperDone(0, 5));
  EXPECT_EQ(Log.size(), 1u);
  Bus.clearCounts();
  EXPECT_EQ(Bus.published(EventKind::TraceEntry), 0u);
  EXPECT_EQ(Bus.numSubscribers(EventKind::Commit), 1u);
  EXPECT_EQ(Bus.numSubscribers(EventKind::Branch), 0u);
}

TEST(EventBus, RuntimeIsOneSubscriberPerMonitoredKind) {
  // The runtime subscribes once and orders its monitors in code.
  ProgramBuilder PB;
  PB.halt();
  Program Prog = PB.finish();
  DataMemory Data;
  MemorySystem Mem(MemSystemConfig::baseline());
  CodeCache CC;
  CodeImage Image(Prog, CC);
  SmtCore Core(CoreConfig::baseline(), Image, Data, Mem);
  TridentRuntime Runtime(RuntimeConfig::baseline(), Prog, Core, CC);
  EventBus Bus;
  Runtime.attach(Bus);
  const EventKind Monitored[] = {EventKind::Commit, EventKind::Branch,
                                 EventKind::LoadOutcome};
  EventKindMask Mask = 0;
  for (EventKind K : Monitored) {
    EXPECT_EQ(Bus.numSubscribers(K), 1u) << eventKindName(K);
    Mask |= eventMaskOf(K);
  }
  EXPECT_EQ(Bus.activeMask(), Mask);
}

//===----------------------------------------------------------------------===//
// Event name table
//===----------------------------------------------------------------------===//

TEST(EventNames, EveryKindHasUniqueName) {
  std::set<std::string> Seen;
  for (unsigned K = 0; K < kNumEventKinds; ++K) {
    std::string Name = eventKindName(static_cast<EventKind>(K));
    EXPECT_FALSE(Name.empty());
    EXPECT_NE(Name, "<bad>") << "kind " << K << " missing a name";
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate name " << Name;
  }
  EXPECT_STREQ(eventKindName(EventKind::NumKinds), "<bad>");
}

//===----------------------------------------------------------------------===//
// StatRegistry
//===----------------------------------------------------------------------===//

TEST(StatRegistry, LookupAndOverwrite) {
  StatRegistry R;
  R.setCounter("a.count", 5);
  R.setReal("a.ipc", 1.25);
  EXPECT_TRUE(R.has("a.count"));
  EXPECT_FALSE(R.has("missing"));
  EXPECT_EQ(R.counter("a.count"), 5u);
  EXPECT_DOUBLE_EQ(R.real("a.ipc"), 1.25);
  R.setCounter("a.count", 9);
  EXPECT_EQ(R.counter("a.count"), 9u);
  EXPECT_EQ(R.size(), 2u);
  // Type-mismatched lookups return the zero of the asked-for type.
  EXPECT_EQ(R.counter("a.ipc"), 0u);
  EXPECT_DOUBLE_EQ(R.real("a.count"), 0.0);
}

TEST(StatRegistry, JsonlByteIdenticalAcrossInsertionOrder) {
  Histogram H(1.0, 3);
  H.addSample(0);
  H.addSample(2);

  StatRegistry A;
  A.setCounter("zeta", 1);
  A.setReal("alpha.x", 0.1);
  A.setHistogram("mid.h", H);
  A.setCounter("alpha.a", 42);

  StatRegistry B;
  B.setCounter("alpha.a", 42);
  B.setHistogram("mid.h", H);
  B.setCounter("zeta", 1);
  B.setReal("alpha.x", 0.1);

  EXPECT_EQ(A.toJsonl(), B.toJsonl());

  auto Sorted = A.sortedEntries();
  ASSERT_EQ(Sorted.size(), 4u);
  EXPECT_EQ(Sorted[0]->Name, "alpha.a");
  EXPECT_EQ(Sorted[1]->Name, "alpha.x");
  EXPECT_EQ(Sorted[2]->Name, "mid.h");
  EXPECT_EQ(Sorted[3]->Name, "zeta");
}

TEST(StatRegistry, JsonlLineShapes) {
  StatRegistry R;
  R.setCounter("c", 7);
  R.setReal("r", 0.5);
  std::string J = R.toJsonl();
  EXPECT_NE(J.find("{\"name\":\"c\",\"type\":\"counter\",\"value\":7}"),
            std::string::npos);
  EXPECT_NE(J.find("{\"name\":\"r\",\"type\":\"real\",\"value\":0.5}"),
            std::string::npos);
  // One object per line, every line brace-delimited.
  size_t Lines = 0;
  for (size_t Pos = 0; (Pos = J.find('\n', Pos)) != std::string::npos; ++Pos)
    ++Lines;
  EXPECT_EQ(Lines, 2u);
}

//===----------------------------------------------------------------------===//
// Deferred (batched) dispatch
//===----------------------------------------------------------------------===//

/// Records (Kind, PC) pairs so batch ordering is observable.
struct KindPcRecorder final : EventSubscriber {
  std::vector<std::pair<EventKind, Addr>> Log;
  void onEvent(const HardwareEvent &E) override {
    Log.emplace_back(E.Kind, E.PC);
  }
};

TEST(EventBusDeferred, NothingDeliveredUntilFlush) {
  EventBus Bus;
  KindPcRecorder R;
  Bus.subscribeDeferred(&R, kAllEventsMask);
  // Deferred-only subscription still raises the active mask (publishers
  // gate event construction on it).
  EXPECT_EQ(Bus.activeMask(), kAllEventsMask);
  Bus.publish(markAt(1));
  Bus.publish(markAt(2));
  EXPECT_TRUE(R.Log.empty());
  EXPECT_EQ(Bus.staged(), 2u);
  // Counted at publish entry, before any delivery happens.
  EXPECT_EQ(Bus.published(EventKind::TraceEntry), 2u);
  Bus.flush();
  ASSERT_EQ(R.Log.size(), 2u);
  EXPECT_EQ(Bus.staged(), 0u);
  EXPECT_EQ(R.Log[0].second, 1u);
  EXPECT_EQ(R.Log[1].second, 2u);
}

TEST(EventBusDeferred, FlushDeliversKindOrderBatchesArrivalOrderWithin) {
  EventBus Bus;
  KindPcRecorder R;
  Bus.subscribeDeferred(&R, kAllEventsMask);
  // Interleave two kinds; Commit enumerates before TraceEntry.
  Instruction I;
  Bus.publish(HardwareEvent::traceMark(EventKind::TraceEntry, 7, 10, 10));
  Bus.publish(HardwareEvent::commit(0, 20, I, 20));
  Bus.publish(HardwareEvent::traceMark(EventKind::TraceEntry, 7, 11, 11));
  Bus.publish(HardwareEvent::commit(0, 21, I, 21));
  Bus.flush();
  ASSERT_EQ(R.Log.size(), 4u);
  EXPECT_EQ(R.Log[0], (std::pair<EventKind, Addr>{EventKind::Commit, 20}));
  EXPECT_EQ(R.Log[1], (std::pair<EventKind, Addr>{EventKind::Commit, 21}));
  EXPECT_EQ(R.Log[2],
            (std::pair<EventKind, Addr>{EventKind::TraceEntry, 10}));
  EXPECT_EQ(R.Log[3],
            (std::pair<EventKind, Addr>{EventKind::TraceEntry, 11}));
}

TEST(EventBusDeferred, BlockFillTriggersAutomaticFlush) {
  EventBus Bus;
  KindPcRecorder R;
  Bus.subscribeDeferred(&R, kAllEventsMask);
  for (size_t I = 0; I < EventBus::kStagingBlock - 1; ++I)
    Bus.publish(markAt(static_cast<Addr>(I)));
  EXPECT_TRUE(R.Log.empty());
  Bus.publish(markAt(999)); // fills the block
  EXPECT_EQ(R.Log.size(), EventBus::kStagingBlock);
  EXPECT_EQ(Bus.staged(), 0u);
}

TEST(EventBusDeferred, StagedEventsDeepCopyInsnAndAccess) {
  // The publisher's Instruction/AccessResult live on its stack; a staged
  // event must survive their death and mutation.
  EventBus Bus;
  struct Checker final : EventSubscriber {
    unsigned Seen = 0;
    void onEvent(const HardwareEvent &E) override {
      ++Seen;
      ASSERT_NE(E.Insn, nullptr);
      EXPECT_EQ(E.Insn->Op, Opcode::Load);
      EXPECT_EQ(E.Insn->Imm, 40);
      ASSERT_NE(E.Access, nullptr);
      EXPECT_EQ(E.Access->ReadyCycle, 123u);
    }
  } C;
  Bus.subscribeDeferred(&C, eventMaskOf(EventKind::LoadOutcome));
  {
    Instruction I;
    I.Op = Opcode::Load;
    I.Imm = 40;
    AccessResult A;
    A.ReadyCycle = 123;
    Bus.publish(HardwareEvent::loadOutcome(0, 5, I, 0x1000, A, 50));
    // Clobber the publisher storage before the flush.
    I.Imm = -1;
    A.ReadyCycle = 0;
  }
  Bus.flush();
  EXPECT_EQ(C.Seen, 1u);
}

TEST(EventBusDeferred, SyncSubscribersUnaffectedByDeferredPeers) {
  EventBus Bus;
  KindPcRecorder Sync, Deferred;
  Bus.subscribe(&Sync, kAllEventsMask);
  Bus.subscribeDeferred(&Deferred, kAllEventsMask);
  Bus.publish(markAt(3));
  EXPECT_EQ(Sync.Log.size(), 1u); // immediate, as ever
  EXPECT_TRUE(Deferred.Log.empty());
  Bus.flush();
  EXPECT_EQ(Deferred.Log.size(), 1u);
  EXPECT_EQ(Bus.published(EventKind::TraceEntry), 1u); // one publish, not two
}

//===----------------------------------------------------------------------===//
// EventTracer
//===----------------------------------------------------------------------===//

TEST(EventTracer, RingKeepsNewestOldestFirst) {
  EventTracer T(/*Capacity=*/4);
  EventBus Bus;
  Bus.subscribe(&T, T.mask());
  for (Addr PC = 0; PC < 10; ++PC)
    Bus.publish(markAt(PC));
  EXPECT_EQ(T.recorded(), 10u);
  EXPECT_EQ(T.overwritten(), 6u);
  EXPECT_EQ(T.size(), 4u);
  auto Snap = T.snapshot();
  ASSERT_EQ(Snap.size(), 4u);
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(Snap[I].PC, 6u + I); // oldest survivor first
    EXPECT_EQ(Snap[I].Extra, 7u);  // the trace id rode along
  }
  T.clear();
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.recorded(), 0u);
}

TEST(EventTracer, MaskLimitsWhatIsRecorded) {
  EventTracer T(8, eventMaskOf(EventKind::TraceExit));
  EventBus Bus;
  Bus.subscribe(&T, T.mask());
  Bus.publish(markAt(1)); // TraceEntry: filtered out by subscription
  Bus.publish(HardwareEvent::traceMark(EventKind::TraceExit, 3, 2, 9));
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T.snapshot()[0].Kind, EventKind::TraceExit);
}

TEST(EventTracer, ChromeTraceJsonWellFormed) {
  EventTracer T(4);
  EventBus Bus;
  Bus.subscribe(&T, T.mask());
  Bus.publish(markAt(1));
  std::string J = T.chromeTraceJson();
  EXPECT_EQ(J.front(), '{');
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"trace-entry\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"i\""), std::string::npos);
  // Braces and brackets balance (cheap structural sanity; the CI smoke
  // step runs a real JSON parser over an exported file).
  long Brace = 0, Bracket = 0;
  for (char C : J) {
    Brace += C == '{' ? 1 : C == '}' ? -1 : 0;
    Bracket += C == '[' ? 1 : C == ']' ? -1 : 0;
    EXPECT_GE(Brace, 0);
    EXPECT_GE(Bracket, 0);
  }
  EXPECT_EQ(Brace, 0);
  EXPECT_EQ(Bracket, 0);
}

//===----------------------------------------------------------------------===//
// Whole machine: the feedback channel is opt-in
//===----------------------------------------------------------------------===//

TEST(EventBusEndToEnd, HwPfFeedbackPublishesOnlyWhenIntervalSet) {
  // The feedback channel is opt-in: with the interval at its default of 0
  // no HwPfFeedback event is ever published (even with a subscribed
  // tracer), so existing event streams and stat exports stay identical.
  Workload W = makeWorkload("mcf");
  SimConfig C = SimConfig::hwBaseline();
  C.SimInstructions = 40'000;
  C.WarmupInstructions = 10'000;

  EventTracer Off(1 << 12);
  SimResult ROff = runSimulation(W, C, &Off);
  EXPECT_EQ(ROff.EventsPublished[size_t(EventKind::HwPfFeedback)], 0u);

  C.Core.HwPfFeedbackIntervalCommits = 1'000;
  EventTracer On(1 << 12);
  SimResult ROn = runSimulation(W, C, &On);
  EXPECT_GT(ROn.EventsPublished[size_t(EventKind::HwPfFeedback)], 0u);
  // Roughly one event per interval of committed instructions.
  EXPECT_LE(ROn.EventsPublished[size_t(EventKind::HwPfFeedback)],
            ROn.Instructions / 1'000 + 1);
  // The tracer recorded them with the issued-count payload.
  unsigned Seen = 0;
  for (const auto &Rec : On.snapshot())
    if (Rec.Kind == EventKind::HwPfFeedback)
      ++Seen;
  EXPECT_GT(Seen, 0u);
  // And the opt-in stat block appears only on the configured run.
  ASSERT_TRUE(ROff.Registry && ROn.Registry);
  EXPECT_EQ(ROff.Registry->toJsonl().find("hwpf.feedback."),
            std::string::npos);
  EXPECT_NE(ROn.Registry->toJsonl().find("hwpf.feedback."),
            std::string::npos);
  // The cumulative counters the events carry come from the same channel
  // the result snapshot reports.
  EXPECT_GT(ROn.PfFeedback.Issued, 0u);
}

} // namespace

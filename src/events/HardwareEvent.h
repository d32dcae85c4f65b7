//===- HardwareEvent.h - Typed hardware-event records ----------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event vocabulary of the machine. The paper's whole framework is
/// event-driven: hardware monitors filter the commit stream down to a
/// handful of delinquent-load / hot-trace events that the helper thread
/// consumes. This header gives every such signal a typed record so the
/// rest of the system — the EventBus that fans them out, the EventQueue
/// that buffers the filtered ones, and the observability sinks (tracer,
/// stat registry) — can speak one language.
///
/// Kinds fall into two tiers:
///
///  * fine-grained monitor feed, published by SmtCore every time the
///    corresponding microarchitectural thing happens: Commit, LoadOutcome,
///    Branch, HelperDone;
///  * filtered optimization events, published by the Trident runtime when
///    a monitor's filter fires: HotTrace, DelinquentLoad, plus the
///    TraceEntry/TraceExit excursion markers derived from the watch
///    table's trace tracking.
///
/// Every kind MUST have an entry in eventKindName()'s switch — the
/// compiler's -Wswitch enforces it at build time (an error under
/// TRIDENT_WERROR), and events_test's EventNames.EveryKindHasUniqueName
/// fails on a kind left "<bad>" or sharing another kind's name.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_EVENTS_HARDWAREEVENT_H
#define TRIDENT_EVENTS_HARDWAREEVENT_H

#include "isa/Instruction.h"
#include "mem/CacheTypes.h"
#include "support/Types.h"

#include <cstdint>

namespace trident {

enum class EventKind : uint8_t {
  Commit,         ///< A committed instruction (any context).
  LoadOutcome,    ///< A committed demand load with its timed cache outcome.
  Branch,         ///< A committed control transfer with resolved direction.
  TraceEntry,     ///< Main context entered a code-cache trace body.
  TraceExit,      ///< Main context left a trace for original code.
  HotTrace,       ///< Profiler filter fired: a stable hot path was captured.
  DelinquentLoad, ///< DLT filter fired: a hot-trace load keeps missing.
  HelperDone,     ///< The helper-thread work stub ran to completion.
  HwPfFeedback,   ///< Periodic hardware-prefetcher effectiveness sample.
  SelectorDecision, ///< Control plane picked a prefetcher for the next epoch.
  NumKinds,       ///< Sentinel; not a real event.
};

inline constexpr unsigned kNumEventKinds =
    static_cast<unsigned>(EventKind::NumKinds);

/// The original eight kinds whose events.published.* stat lines are
/// exported unconditionally (the golden corpus pins them). Kinds added
/// after the corpus was frozen export their line only when nonzero, so
/// configurations that never publish them stay bit-identical to older
/// builds. Append-only: new kinds go after this boundary.
inline constexpr unsigned kNumCoreEventKinds =
    static_cast<unsigned>(EventKind::HwPfFeedback);

/// Human/export name of an event kind. Keep in sync with EventKind: every
/// enumerator needs a `case EventKind::X:` here, which -Wswitch and
/// EventNames.EveryKindHasUniqueName check (so no `default:`).
inline const char *eventKindName(EventKind K) {
  switch (K) {
  case EventKind::Commit:
    return "commit";
  case EventKind::LoadOutcome:
    return "load-outcome";
  case EventKind::Branch:
    return "branch";
  case EventKind::TraceEntry:
    return "trace-entry";
  case EventKind::TraceExit:
    return "trace-exit";
  case EventKind::HotTrace:
    return "hot-trace";
  case EventKind::DelinquentLoad:
    return "delinquent-load";
  case EventKind::HelperDone:
    return "helper-done";
  case EventKind::HwPfFeedback:
    return "hwpf-feedback";
  case EventKind::SelectorDecision:
    return "selector-decision";
  case EventKind::NumKinds:
    break;
  }
  return "<bad>";
}

/// Bitmask over event kinds; subscribers use it to select what they see.
using EventKindMask = uint32_t;

inline constexpr EventKindMask eventMaskOf(EventKind K) {
  return EventKindMask{1} << static_cast<unsigned>(K);
}

inline constexpr EventKindMask kAllEventsMask =
    (EventKindMask{1} << kNumEventKinds) - 1;

/// A detected hot trace: start PC plus the conditional-branch direction
/// bitmap along the hot path (bit i = direction of the i-th conditional
/// branch after the start PC; 1 = taken). The payload of a HotTrace event
/// (Section 3.2: "a starting PC followed by a branch direction bitmap").
struct HotTraceCandidate {
  Addr StartPC = 0;
  uint16_t Bitmap = 0;
  uint8_t NumBranches = 0;
};

/// Compact by-value payload of a HwPfFeedback event: the four HwPfFeedback
/// counters saturated to 32 bits. Sized to fit the HotTraceCandidate union
/// slot so adding the feedback channel left sizeof(HardwareEvent) alone —
/// the bus, the bounded queue, and the tracer ring all copy events by
/// value on the per-commit hot path, and the stat-registry export reads
/// the full 64-bit counters from MemorySystem directly, so nothing wider
/// is ever needed here. Saturation only matters past 4.3e9 of one counter
/// within a single run, two orders of magnitude beyond the largest
/// configured instruction budget.
/// Members carry no initializers (the factory always assigns all four)
/// so the type stays trivially default-constructible — a requirement for
/// sharing the union slot below.
struct HwPfFeedbackSample {
  uint32_t Issued;
  uint32_t Useful;
  uint32_t Late;
  uint32_t DemandMisses;

  static uint32_t saturate(uint64_t V) {
    return V > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(V);
  }
};

/// Payload of a SelectorDecision event: one epoch-boundary decision of the
/// phase-aware control plane (src/control). Arm indices refer to the
/// selector's sorted arsenal list; kNoArm marks "no arsenal unit attached"
/// (the state before the first decision when the run started without one).
/// Like HwPfFeedbackSample it shares the union slot below, so members
/// carry no initializers (the factory assigns all three) to stay trivially
/// default-constructible.
struct SelectorDecisionRecord {
  uint32_t Epoch;
  uint16_t ChosenArm;
  uint16_t PrevArm;

  static constexpr uint16_t kNoArm = 0xFFFF;

  friend bool operator==(const SelectorDecisionRecord &A,
                         const SelectorDecisionRecord &B) {
    return A.Epoch == B.Epoch && A.ChosenArm == B.ChosenArm &&
           A.PrevArm == B.PrevArm;
  }
};

/// One hardware event. A tagged record rather than a class hierarchy: the
/// hot path constructs these on the stack per commit, so the layout is
/// flat and the kind-specific fields simply go unused for other kinds.
///
/// Pointer fields (Insn, Access) alias the publisher's storage and are
/// valid only for the duration of the publish; sinks that retain events
/// (the tracer's ring, the runtime's pending queue) must copy out the
/// scalars they need. The queued kinds (HotTrace, DelinquentLoad) use no
/// pointer fields, so queueing them is safe by construction.
struct HardwareEvent {
  EventKind Kind = EventKind::Commit;
  uint8_t Ctx = 0;
  Addr PC = 0;
  Cycle Time = 0;

  const Instruction *Insn = nullptr;   ///< Commit / LoadOutcome / Branch.
  const AccessResult *Access = nullptr; ///< LoadOutcome only.
  Addr EA = 0;           ///< LoadOutcome: effective addr; Branch: target.
  bool Taken = false;    ///< Branch only.
  uint32_t TraceId = 0;  ///< TraceEntry/Exit, DelinquentLoad.
  /// Kind-exclusive payloads share one slot: a HotTrace event never
  /// carries feedback and vice versa, and both variants are trivially
  /// copyable, so the union keeps the event at its pre-arsenal size.
  union {
    HotTraceCandidate Cand{}; ///< HotTrace only.
    HwPfFeedbackSample PfFb;  ///< HwPfFeedback only (by value: queue-safe).
    SelectorDecisionRecord Decision; ///< SelectorDecision only (by value).
  };

  static HardwareEvent commit(unsigned Ctx, Addr PC, const Instruction &I,
                              Cycle Now) {
    HardwareEvent E;
    E.Kind = EventKind::Commit;
    E.Ctx = static_cast<uint8_t>(Ctx);
    E.PC = PC;
    E.Time = Now;
    E.Insn = &I;
    return E;
  }

  static HardwareEvent loadOutcome(unsigned Ctx, Addr PC,
                                   const Instruction &I, Addr EA,
                                   const AccessResult &R, Cycle Now) {
    HardwareEvent E;
    E.Kind = EventKind::LoadOutcome;
    E.Ctx = static_cast<uint8_t>(Ctx);
    E.PC = PC;
    E.Time = Now;
    E.Insn = &I;
    E.Access = &R;
    E.EA = EA;
    return E;
  }

  static HardwareEvent branch(unsigned Ctx, Addr PC, const Instruction &I,
                              bool Taken, Addr Target, Cycle Now) {
    HardwareEvent E;
    E.Kind = EventKind::Branch;
    E.Ctx = static_cast<uint8_t>(Ctx);
    E.PC = PC;
    E.Time = Now;
    E.Insn = &I;
    E.Taken = Taken;
    E.EA = Target;
    return E;
  }

  static HardwareEvent traceMark(EventKind K, uint32_t TraceId, Addr PC,
                                 Cycle Now) {
    HardwareEvent E;
    E.Kind = K;
    E.PC = PC;
    E.Time = Now;
    E.TraceId = TraceId;
    return E;
  }

  static HardwareEvent hotTrace(const HotTraceCandidate &C, Cycle Now) {
    HardwareEvent E;
    E.Kind = EventKind::HotTrace;
    E.PC = C.StartPC;
    E.Time = Now;
    E.Cand = C;
    return E;
  }

  static HardwareEvent delinquentLoad(Addr LoadPC, uint32_t TraceId,
                                      Cycle Now) {
    HardwareEvent E;
    E.Kind = EventKind::DelinquentLoad;
    E.PC = LoadPC;
    E.Time = Now;
    E.TraceId = TraceId;
    return E;
  }

  static HardwareEvent helperDone(unsigned Ctx, Cycle Now) {
    HardwareEvent E;
    E.Kind = EventKind::HelperDone;
    E.Ctx = static_cast<uint8_t>(Ctx);
    E.Time = Now;
    return E;
  }

  static HardwareEvent selectorDecision(const SelectorDecisionRecord &D,
                                        Cycle Now) {
    HardwareEvent E;
    E.Kind = EventKind::SelectorDecision;
    E.Time = Now;
    E.Decision = D;
    return E;
  }

  static HardwareEvent hwPfFeedback(const HwPfFeedback &Fb, Cycle Now) {
    HardwareEvent E;
    E.Kind = EventKind::HwPfFeedback;
    E.Time = Now;
    E.PfFb = {HwPfFeedbackSample::saturate(Fb.Issued),
              HwPfFeedbackSample::saturate(Fb.Useful),
              HwPfFeedbackSample::saturate(Fb.Late),
              HwPfFeedbackSample::saturate(Fb.DemandMisses)};
    return E;
  }
};

} // namespace trident

#endif // TRIDENT_EVENTS_HARDWAREEVENT_H

//===- EventBus.h - Multi-subscriber hardware-event dispatch ---*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bus that replaces the old single hard-wired CoreListener hook.
/// SmtCore publishes typed HardwareEvents into the bus; any number of
/// subscribers — the Trident runtime's monitor structures (branch
/// profiler, watch table, DLT), the ring-buffered event tracer, future
/// prefetch backends — receive exactly the kinds they asked for.
///
/// Dispatch contract (load-bearing for bit-identical reproduction):
///
///  * Per kind, subscribers are invoked in subscription order. The
///    Trident runtime is one subscriber, subscribed first, and orders its
///    own monitors in code (watch-table excursion tracking before
///    profiler training).
///  * publish() is synchronous and reentrant: a subscriber may publish
///    further events (the runtime turns a Commit into a HotTrace event),
///    but must not subscribe/unsubscribe during a dispatch.
///  * The bus itself adds no timing: events describe the machine, they
///    never advance it.
///
/// Hot-path note: publishers should gate event construction on
/// activeMask() (one branch per potential event) so a bus with no
/// subscribers for a kind costs a single predictable-not-taken branch.
/// SmtCore caches the mask at run() entry for exactly this reason.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_EVENTS_EVENTBUS_H
#define TRIDENT_EVENTS_EVENTBUS_H

#include "events/HardwareEvent.h"
#include "support/Check.h"

#include <array>
#include <cstdint>
#include <vector>

namespace trident {

/// A sink on the bus. Implementations dispatch on E.Kind (they only ever
/// see kinds they subscribed to).
class EventSubscriber {
public:
  virtual ~EventSubscriber();
  virtual void onEvent(const HardwareEvent &E) = 0;
};

class EventBus {
public:
  /// Staged events per deferred-dispatch block. Sized so a block spans a
  /// few hundred commits: the flush loop then tests each kind's
  /// subscriber list once per block instead of once per event.
  static constexpr size_t kStagingBlock = 256;

  /// Registers \p S for every kind set in \p Mask. Per kind, dispatch
  /// order equals subscription order. Must not be called from inside a
  /// publish() dispatch.
  void subscribe(EventSubscriber *S, EventKindMask Mask) {
    TRIDENT_CHECK(S != nullptr, "null subscriber");
    for (unsigned K = 0; K < kNumEventKinds; ++K)
      if (Mask & (EventKindMask{1} << K))
        ByKind[K].push_back(S); // trident-analyze: alloc-ok(subscription setup)
    Active |= Mask & kAllEventsMask;
  }

  /// Registers \p S for *deferred* batched dispatch of the kinds in
  /// \p Mask. Staged events are deep copies (Insn/Access snapshotted by
  /// value) delivered at the next flush() — when the staging block fills
  /// or the owner flushes explicitly — in kind-order batches: for each
  /// kind in EventKind order, every staged event of that kind in arrival
  /// order, to each deferred subscriber in subscription order. Strictly
  /// for passive sinks (tracing/observability): deferred subscribers see
  /// events after the machine has moved on and must not mutate anything.
  void subscribeDeferred(EventSubscriber *S, EventKindMask Mask) {
    TRIDENT_CHECK(S != nullptr, "null subscriber");
    for (unsigned K = 0; K < kNumEventKinds; ++K)
      if (Mask & (EventKindMask{1} << K))
        DeferredByKind[K].push_back(S); // trident-analyze: alloc-ok(setup)
    DeferredMask |= Mask & kAllEventsMask;
    Active |= Mask & kAllEventsMask;
    if (Staged.capacity() < kStagingBlock)
      Staged.reserve(kStagingBlock);
  }

  /// Union of every subscriber's kind mask. Publishers test this before
  /// constructing an event.
  EventKindMask activeMask() const { return Active; }
  bool anyFor(EventKind K) const { return (Active & eventMaskOf(K)) != 0; }

  /// Synchronously delivers \p E to every subscriber of its kind, in
  /// subscription order, and counts the publish. Deferred subscribers of
  /// the kind get a staged copy instead; the count covers both.
  void publish(const HardwareEvent &E) {
    const auto K = static_cast<size_t>(E.Kind);
    TRIDENT_DCHECK(K < kNumEventKinds, "publishing a bad event kind %zu", K);
    ++Published[K];
    for (EventSubscriber *S : ByKind[K])
      S->onEvent(E);
    if (DeferredMask & (EventKindMask{1} << K))
      stage(E);
  }

  /// Delivers every staged event to the deferred subscribers (kind-order
  /// batches, see subscribeDeferred) and empties the staging block. The
  /// owner must flush before reading a deferred sink's state (e.g. the
  /// tracer ring at snapshot time).
  void flush() {
    if (Staged.empty())
      return;
    TRIDENT_DCHECK(!Flushing, "reentrant EventBus flush");
    Flushing = true;
    for (unsigned K = 0; K < kNumEventKinds; ++K) {
      const std::vector<EventSubscriber *> &Subs = DeferredByKind[K];
      if (Subs.empty())
        continue;
      for (StagedEvent &SE : Staged) {
        if (static_cast<unsigned>(SE.E.Kind) != K)
          continue;
        HardwareEvent E = SE.E;
        if (SE.HasInsn)
          E.Insn = &SE.Insn;
        if (SE.HasAccess)
          E.Access = &SE.Access;
        for (EventSubscriber *S : Subs)
          S->onEvent(E);
      }
    }
    Staged.clear();
    Flushing = false;
  }

  /// Staged-but-undelivered events (introspection for tests).
  size_t staged() const { return Staged.size(); }

  /// Publishes counted since construction or the last clearCounts().
  const std::array<uint64_t, kNumEventKinds> &publishedCounts() const {
    return Published;
  }
  uint64_t published(EventKind K) const {
    return Published[static_cast<size_t>(K)];
  }

  /// Resets the publish counters (measurement-window boundary); the
  /// subscriber lists are untouched.
  void clearCounts() { Published.fill(0); }

  size_t numSubscribers(EventKind K) const {
    return ByKind[static_cast<size_t>(K)].size();
  }

private:
  /// A staged event for deferred dispatch. HardwareEvent's Insn/Access
  /// pointers alias publisher stack storage valid only during publish(),
  /// so the stage snapshots the pointees by value and flush() re-points
  /// a local copy of the event at them.
  struct StagedEvent {
    HardwareEvent E;
    Instruction Insn;
    AccessResult Access;
    bool HasInsn = false;
    bool HasAccess = false;
  };

  void stage(const HardwareEvent &E) {
    StagedEvent &SE = Staged.emplace_back(); // reserved: never reallocates
    SE.E = E;
    if (E.Insn) {
      SE.Insn = *E.Insn;
      SE.E.Insn = nullptr;
      SE.HasInsn = true;
    }
    if (E.Access) {
      SE.Access = *E.Access;
      SE.E.Access = nullptr;
      SE.HasAccess = true;
    }
    if (Staged.size() >= kStagingBlock)
      flush();
  }

  std::array<std::vector<EventSubscriber *>, kNumEventKinds> ByKind;
  std::array<std::vector<EventSubscriber *>, kNumEventKinds> DeferredByKind;
  std::array<uint64_t, kNumEventKinds> Published{};
  std::vector<StagedEvent> Staged;
  EventKindMask Active = 0;
  EventKindMask DeferredMask = 0;
  bool Flushing = false;
};

} // namespace trident

#endif // TRIDENT_EVENTS_EVENTBUS_H

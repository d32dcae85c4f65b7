//===- EventQueue.h - Bounded filtered-event queue -------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bounded hardware queue between the monitor filters and the helper
/// thread. The paper's monitors deliberately over-filter so that "only a
/// few events" reach the software; this queue models the finite buffer
/// that holds them until the helper thread is free, with the drop policy
/// real hardware would have: when the queue is full the *incoming* event
/// is dropped (the oldest pending work is never cancelled), which keeps
/// drop order deterministic.
///
/// Absorbs what used to be TridentRuntime's private Event/Pending/
/// MaxPendingEvents machinery, and adds the drop accounting the old code
/// could not export: drop count, peak occupancy, and an occupancy
/// histogram sampled at every enqueue attempt.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_EVENTS_EVENTQUEUE_H
#define TRIDENT_EVENTS_EVENTQUEUE_H

#include "events/HardwareEvent.h"
#include "support/Check.h"
#include "support/Statistics.h"

#include <algorithm>
#include <deque>

namespace trident {

class EventQueue {
public:
  /// \p MaxPending may be 0: every event drops (the pathological
  /// configuration integration tests exercise).
  explicit EventQueue(size_t MaxPending)
      : Max(MaxPending),
        Occupancy(/*BucketWidth=*/1.0,
                  /*NumBuckets=*/static_cast<unsigned>(
                      std::max<size_t>(MaxPending, 1))) {}

  /// Enqueues \p E unless the queue is full or a fault-injected forced
  /// drop is pending. Returns false on a drop (the event is discarded and
  /// the drop counter advances). Samples occupancy (pre-push) either way.
  bool tryPush(const HardwareEvent &E) {
    Occupancy.addSample(static_cast<double>(Q.size()));
    if (ForcedDrops > 0) {
      --ForcedDrops;
      ++NumInjectedDrops;
      ++NumDropped;
      return false;
    }
    if (Q.size() >= Max) {
      ++NumDropped;
      return false;
    }
    Q.push_back(E);
    Peak = std::max(Peak, Q.size());
    return true;
  }

  bool empty() const { return Q.empty(); }
  size_t size() const { return Q.size(); }
  size_t capacity() const { return Max; }

  /// Removes and returns the oldest pending event (FIFO).
  HardwareEvent pop() {
    TRIDENT_CHECK(!Q.empty(), "pop from an empty event queue");
    HardwareEvent E = Q.front();
    Q.pop_front();
    return E;
  }

  uint64_t dropped() const { return NumDropped; }
  size_t peakOccupancy() const { return Peak; }

  // Fault-injection hooks (src/faults). Both default off; the zero-fault
  // path is bit-identical to a queue without them. -----------------------

  /// Forces the next \p N enqueue attempts to drop (injected backpressure,
  /// accumulating across calls). Forced drops count in both dropped() and
  /// injectedDrops().
  void scheduleForcedDrops(uint64_t N) { ForcedDrops += N; }
  uint64_t pendingForcedDrops() const { return ForcedDrops; }
  uint64_t injectedDrops() const { return NumInjectedDrops; }

  /// Stalls (or resumes) dispatch: while stalled the owner must not pop,
  /// so events delay in place and overflow drops normally. A fault
  /// condition, not accounting — clearStats() leaves it alone.
  void setStalled(bool S) { Stalled = S; }
  bool stalled() const { return Stalled; }

  /// Occupancy distribution, sampled at each enqueue attempt (bucket
  /// width 1, one bucket per slot plus overflow).
  const Histogram &occupancyHistogram() const { return Occupancy; }

  /// Resets the accounting (drop count, peak, histogram) without touching
  /// queued events — the measurement-window boundary. Peak restarts at
  /// the current occupancy. Fault conditions (pending forced drops, the
  /// stall flag) and fault accounting survive: injected faults span
  /// measurement boundaries.
  void clearStats() {
    NumDropped = 0;
    Peak = Q.size();
    Occupancy = Histogram(
        1.0, static_cast<unsigned>(std::max<size_t>(Max, 1)));
  }

private:
  size_t Max;
  std::deque<HardwareEvent> Q;
  uint64_t NumDropped = 0;
  size_t Peak = 0;
  Histogram Occupancy;
  uint64_t ForcedDrops = 0;
  uint64_t NumInjectedDrops = 0;
  bool Stalled = false;
};

} // namespace trident

#endif // TRIDENT_EVENTS_EVENTQUEUE_H

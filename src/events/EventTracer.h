//===- EventTracer.h - Ring-buffered event trace sink ----------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An observability sink on the event bus: records the most recent N
/// events into a fixed ring buffer and exports them as Chrome trace JSON
/// (load chrome://tracing or https://ui.perfetto.dev and drop the file).
/// Timestamps are simulated cycles, contexts map to trace "threads".
///
/// The tracer is strictly passive — it copies scalars out of each event
/// and mutates nothing — so attaching it cannot perturb a run. A ctest
/// suite asserts exactly that (bit-identical SimResult with and without a
/// tracer) across all 14 workloads.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_EVENTS_EVENTTRACER_H
#define TRIDENT_EVENTS_EVENTTRACER_H

#include "events/EventBus.h"

#include <string>
#include <vector>

namespace trident {

class EventTracer final : public EventSubscriber {
public:
  /// One recorded event: the scalar projection of a HardwareEvent (the
  /// Insn/Access pointers are only valid during publish, so the ring
  /// keeps what the exporter needs and nothing more).
  struct Record {
    EventKind Kind = EventKind::Commit;
    uint8_t Ctx = 0;
    Addr PC = 0;
    Addr Arg = 0;    ///< EA / branch target / candidate start PC.
    Cycle Time = 0;
    uint64_t Extra = 0; ///< Outcome / taken / trace id / bitmap (by kind).
  };

  /// The smallest ring the tracer accepts.
  static constexpr size_t MinCapacity = 1;

  /// Ring of \p Capacity records; when full, the oldest record is
  /// overwritten (a trace of the *end* of the run, like a flight
  /// recorder). \p Mask selects the kinds recorded.
  explicit EventTracer(size_t Capacity = 1 << 16,
                       EventKindMask Mask = kAllEventsMask);

  EventKindMask mask() const { return Mask; }
  size_t capacity() const { return Cap; }
  /// Records currently held (<= capacity).
  size_t size() const;
  /// Total events offered to the ring.
  uint64_t recorded() const { return NumRecorded; }
  /// Records lost to ring wrap-around.
  uint64_t overwritten() const;

  // EventSubscriber.
  void onEvent(const HardwareEvent &E) override;

  /// Held records, oldest first.
  std::vector<Record> snapshot() const;

  /// The full Chrome-trace JSON document (one instant event per record).
  std::string chromeTraceJson() const;
  /// Writes chromeTraceJson() to \p Path; returns false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

  void clear();

private:
  size_t Cap;
  EventKindMask Mask;
  std::vector<Record> Ring; ///< Grows to Cap, then wraps at Head.
  size_t Head = 0;          ///< Next slot to write once the ring is full.
  uint64_t NumRecorded = 0;
};

} // namespace trident

#endif // TRIDENT_EVENTS_EVENTTRACER_H

//===- SaturatingCounter.h - Bounded up/down counters ----------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction of Zhang, Calder, Tullsen,
// "A Self-Repairing Prefetcher in an Event-Driven Dynamic Optimization
// Framework", CGO 2006.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small saturating counters used by branch predictors, the branch profiler,
/// and the DLT stride-confidence field (which increments by 1 and decrements
/// by 7, per Section 3.3 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SUPPORT_SATURATINGCOUNTER_H
#define TRIDENT_SUPPORT_SATURATINGCOUNTER_H

#include <algorithm>
#include <cstdint>

namespace trident {

/// An integer counter clamped to [0, Max], stored in one byte: a
/// predictor's table of 2-bit counters costs one byte per entry.
///
/// \tparam Max inclusive upper bound (e.g. 15 for a 4-bit counter).
template <int Max> class SaturatingCounter {
  static_assert(Max > 0 && Max <= 255, "the value is stored in one byte");

public:
  SaturatingCounter() = default;
  explicit SaturatingCounter(int Initial) : Value(clamp(Initial)) {}

  /// Adds \p Delta (may be negative), clamping to [0, Max].
  void add(int Delta) { Value = clamp(Value + Delta); }

  void increment() { add(1); }
  void decrement() { add(-1); }

  /// Resets the counter to \p NewValue (default 0).
  void reset(int NewValue = 0) { Value = clamp(NewValue); }

  int value() const { return Value; }
  bool isSaturated() const { return Value == Max; }
  bool isZero() const { return Value == 0; }

  /// True in the "upper half" of the range; the usual taken/strong test for
  /// 2-bit predictor counters.
  bool isSet() const { return Value > Max / 2; }

  static constexpr int max() { return Max; }

private:
  static uint8_t clamp(int V) {
    return static_cast<uint8_t>(std::min(Max, std::max(0, V)));
  }

  uint8_t Value = 0;
};

/// 2-bit predictor counter (states 0..3, predict-taken when >= 2).
using TwoBitCounter = SaturatingCounter<3>;

/// 4-bit counter (0..15) used by the DLT stride confidence and the branch
/// profiler's per-entry execution counter (Table 2).
using FourBitCounter = SaturatingCounter<15>;

} // namespace trident

#endif // TRIDENT_SUPPORT_SATURATINGCOUNTER_H

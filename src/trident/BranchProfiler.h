//===- BranchProfiler.h - Hardware hot-trace detection ---------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trident's generic branch profiler (Table 2: 256 entries, 4-way
/// associative, a 4-bit counter per entry, and three standalone 16-bit
/// direction bitmaps). It counts visits to backward-branch targets (loop
/// heads); when a counter saturates, a capture unit records the directions
/// of the next conditional branches until execution returns to the start
/// PC — three times. Three identical captures identify a stable hot path,
/// and the profiler raises a hot-trace event carrying "a starting PC
/// followed by a branch direction bitmap" (Section 3.2).
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_TRIDENT_BRANCHPROFILER_H
#define TRIDENT_TRIDENT_BRANCHPROFILER_H

#include "events/HardwareEvent.h"
#include "isa/Instruction.h"
#include "support/Fields.h"
#include "support/LruTable.h"
#include "support/SaturatingCounter.h"

#include <cstdint>
#include <optional>
#include <unordered_set>

namespace trident {

struct BranchProfilerConfig {
  unsigned NumEntries = 256;
  unsigned Assoc = 4;
  /// Bits per direction bitmap ("three standalone 16-bit bitmaps").
  unsigned BitmapBits = 16;
  /// Identical capture rounds required before an event fires.
  unsigned Rounds = 3;
  /// Abandon a capture that runs longer than this many committed
  /// instructions without closing the loop.
  unsigned MaxCaptureCommits = 4096;

  static constexpr auto fields() {
    using C = BranchProfilerConfig;
    return std::tuple(Field{"num_entries", &C::NumEntries},
                      Field{"assoc", &C::Assoc},
                      Field{"bitmap_bits", &C::BitmapBits},
                      Field{"rounds", &C::Rounds},
                      Field{"max_capture_commits", &C::MaxCaptureCommits});
  }
};

// HotTraceCandidate — the payload of the profiler's hot-trace event —
// lives in events/HardwareEvent.h with the rest of the event vocabulary.

class BranchProfiler {
public:
  explicit BranchProfiler(const BranchProfilerConfig &Config = {});

  /// Feed every committed instruction of the *original* program region
  /// (the runtime excludes code-cache commits). May complete a capture
  /// round and return a hot-trace candidate.
  std::optional<HotTraceCandidate> onCommit(Addr PC);

  /// Feed committed control transfers. \p Conditional distinguishes
  /// conditional branches (whose directions the capture records) from
  /// unconditional jumps (which only contribute backward-edge detection).
  void onBranch(Addr PC, bool Conditional, bool Taken, Addr Target);

  /// Suppresses future events for \p StartPC (the runtime calls this once
  /// a trace is linked for it).
  void suppress(Addr StartPC) { Suppressed.insert(StartPC); }
  void unsuppress(Addr StartPC) { Suppressed.erase(StartPC); }

  const BranchProfilerConfig &config() const { return Config; }
  bool captureInProgress() const { return Cap.Armed || Cap.Recording; }

private:
  struct CaptureState {
    bool Armed = false;     ///< Waiting for StartPC to commit.
    bool Recording = false; ///< Between StartPC commits.
    Addr StartPC = 0;
    uint16_t Bits = 0;
    uint8_t NumBits = 0;
    unsigned Commits = 0;
    unsigned Round = 0;
    uint16_t RoundBits[8] = {};
    uint8_t RoundLens[8] = {};
  };

  /// The execution counter of loop head \p PC, allocated if absent.
  FourBitCounter &counterOf(Addr PC) {
    return Counters.touchOrInsert(PC).Value;
  }
  void abortCapture();

  BranchProfilerConfig Config;
  LruTable<Addr, FourBitCounter> Counters;
  CaptureState Cap;
  std::unordered_set<Addr> Suppressed;
};

} // namespace trident

#endif // TRIDENT_TRIDENT_BRANCHPROFILER_H

//===- BranchProfiler.cpp -------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "trident/BranchProfiler.h"
#include "support/Check.h"

using namespace trident;

/// \p C, once it is known to build a profiler.
static const BranchProfilerConfig &validated(const BranchProfilerConfig &C) {
  TRIDENT_CHECK(C.Assoc >= 1 && C.NumEntries % C.Assoc == 0,
                "%u entries must divide evenly into %u-way sets",
                C.NumEntries, C.Assoc);
  const unsigned Sets = C.NumEntries / C.Assoc;
  TRIDENT_CHECK(Sets != 0 && (Sets & (Sets - 1)) == 0,
                "set count %u must be a power of two", Sets);
  TRIDENT_CHECK(C.Rounds >= 1 && C.Rounds <= 8,
                "%u capture rounds outside 1..8", C.Rounds);
  TRIDENT_CHECK(C.BitmapBits <= 16,
                "bitmaps are 16 bits wide (asked for %u)", C.BitmapBits);
  return C;
}

BranchProfiler::BranchProfiler(const BranchProfilerConfig &Cfg)
    : Config(validated(Cfg)),
      Counters(Config.NumEntries / Config.Assoc, Config.Assoc) {}

void BranchProfiler::abortCapture() {
  // Let the loop retry later: decay the counter rather than zeroing it.
  FourBitCounter &C = counterOf(Cap.StartPC);
  C.reset(C.max() / 2);
  Cap = CaptureState();
}

std::optional<HotTraceCandidate> BranchProfiler::onCommit(Addr PC) {
  if (!Cap.Armed && !Cap.Recording)
    return std::nullopt;

  if (Cap.Armed) {
    if (PC != Cap.StartPC)
      return std::nullopt;
    // Start the first recording round.
    Cap.Armed = false;
    Cap.Recording = true;
    Cap.Bits = 0;
    Cap.NumBits = 0;
    Cap.Commits = 0;
    Cap.Round = 0;
    return std::nullopt;
  }

  // Recording.
  if (++Cap.Commits > Config.MaxCaptureCommits) {
    abortCapture();
    return std::nullopt;
  }
  if (PC != Cap.StartPC)
    return std::nullopt;

  // Loop closed: one round complete.
  Cap.RoundBits[Cap.Round] = Cap.Bits;
  Cap.RoundLens[Cap.Round] = Cap.NumBits;
  ++Cap.Round;

  // Rounds must agree with the first one.
  if (Cap.RoundBits[Cap.Round - 1] != Cap.RoundBits[0] ||
      Cap.RoundLens[Cap.Round - 1] != Cap.RoundLens[0]) {
    abortCapture();
    return std::nullopt;
  }

  if (Cap.Round >= Config.Rounds) {
    HotTraceCandidate C;
    C.StartPC = Cap.StartPC;
    C.Bitmap = Cap.RoundBits[0];
    C.NumBranches = Cap.RoundLens[0];
    counterOf(Cap.StartPC).reset();
    Cap = CaptureState();
    return C;
  }

  // Next round.
  Cap.Bits = 0;
  Cap.NumBits = 0;
  Cap.Commits = 0;
  return std::nullopt;
}

void BranchProfiler::onBranch(Addr PC, bool Conditional, bool Taken,
                              Addr Target) {
  // Record directions while capturing.
  if (Cap.Recording && Conditional) {
    if (Cap.NumBits >= Config.BitmapBits) {
      // Path too long for the capture hardware: give up on this loop.
      counterOf(Cap.StartPC).reset();
      Cap = CaptureState();
    } else {
      if (Taken)
        Cap.Bits = static_cast<uint16_t>(Cap.Bits | (1u << Cap.NumBits));
      ++Cap.NumBits;
    }
  }

  // Backward taken edges identify loop heads.
  if (!Taken || Target > PC)
    return;
  if (Suppressed.count(Target))
    return;
  FourBitCounter &C = counterOf(Target);
  C.increment();
  if (C.isSaturated() && !Cap.Armed && !Cap.Recording) {
    Cap.Armed = true;
    Cap.StartPC = Target;
  }
}

//===- EnhancedStream.cpp -------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "hwpf/EnhancedStream.h"
#include "support/Check.h"

using namespace trident;

/// |V| as an unsigned value, defined for INT64_MIN too.
static uint64_t magnitude(int64_t V) {
  return V < 0 ? 0 - static_cast<uint64_t>(V) : static_cast<uint64_t>(V);
}

std::string EnhancedStreamConfig::invalidReason() const {
  if (RegionLines == 0)
    return "enhanced-stream knob 'region' must be nonzero";
  return knobRangeReason("enhanced-stream", *this);
}

EnhancedStreamPrefetcher::EnhancedStreamPrefetcher(
    const EnhancedStreamConfig &Cfg)
    : Config(checkedConfig(Cfg)), Trainers(1, Config.NumTrainingEntries),
      Streams(Config.NumStreams), Buffer(Config.NumStreams * Config.Depth) {}

std::string EnhancedStreamPrefetcher::name() const {
  return "enhanced-stream";
}

unsigned EnhancedStreamPrefetcher::numActiveStreams() const {
  unsigned N = 0;
  for (const StreamEntry &S : Streams)
    N += S.Valid;
  return N;
}

HwPfStats EnhancedStreamPrefetcher::snapshotStats() const {
  return HwPfStats::of(name(), Stats);
}

void EnhancedStreamPrefetcher::advance(StreamEntry &S, unsigned Lines,
                                       Cycle Now, MemoryBackend &BE) {
  const uint64_t LS = BE.lineSize();
  for (unsigned I = 0; I < Lines; ++I) {
    // A negative-stride stream that would step below address zero has run
    // off the bottom of memory: retire it.
    if (S.Stride < 0 &&
        S.NextBlock < static_cast<uint64_t>(-S.Stride)) {
      S.Valid = false;
      return;
    }
    Addr LineAddr = S.NextBlock * LS;
    Cycle Ready = BE.fetchBeyondL1(LineAddr, Now, AccessKind::HardwarePrefetch);
    Buffer.insert(LineAddr, Ready);
    S.NextBlock = static_cast<uint64_t>(
        static_cast<int64_t>(S.NextBlock) + S.Stride);
    ++S.Length;
    ++Stats.LinesPrefetched;
  }
  S.LastUse = TrainClock;
}

EnhancedStreamPrefetcher::StreamEntry *EnhancedStreamPrefetcher::streamVictim() {
  // Free slot first; then a dead stream (short and idle — the table-
  // pollution case the enhancement targets); finally plain LRU.
  StreamEntry *Lru = &Streams[0];
  for (StreamEntry &S : Streams) {
    if (!S.Valid)
      return &S;
    if (S.LastUse < Lru->LastUse)
      Lru = &S;
  }
  for (StreamEntry &S : Streams) {
    if (S.Length < Config.DeadMinLength &&
        TrainClock - S.LastUse > Config.DeadIdleEvents) {
      ++Stats.DeadStreamsRemoved;
      return &S;
    }
  }
  return Lru;
}

void EnhancedStreamPrefetcher::confirmStream(const Trainer &T, Cycle Now,
                                             MemoryBackend &BE) {
  StreamEntry *S = streamVictim();
  S->Valid = true;
  S->Stride = T.Direction > 0 ? T.Stride : -T.Stride;
  S->NextBlock = static_cast<uint64_t>(
      static_cast<int64_t>(T.LastBlock) + S->Stride);
  S->Length = 0;
  S->LastUse = TrainClock;
  ++Stats.Allocations;
  advance(*S, Config.Degree, Now, BE);
}

void EnhancedStreamPrefetcher::trainRegion(uint64_t Block, Cycle Now,
                                           MemoryBackend &BE) {
  const uint64_t RegionBase = Block - Block % Config.RegionLines;
  Trainer *T = Trainers.touch(RegionBase);
  if (!T) {
    // New region under training, over a free trainer or else the LRU one.
    Trainer &New = Trainers.insert(RegionBase).Value;
    New.LastBlock = Block;
    New.MissCount = 1;
    return;
  }
  int64_t Delta =
      static_cast<int64_t>(Block) - static_cast<int64_t>(T->LastBlock);
  if (Delta == 0)
    return;
  if (T->Direction == 0) {
    // Second consistent miss fixes the direction and block stride.
    T->Direction = Delta > 0 ? 1 : -1;
    T->Stride = Delta > 0 ? Delta : -Delta;
    T->LastBlock = Block;
    T->MissCount = 2;
  } else if (Delta == (T->Direction > 0 ? T->Stride : -T->Stride)) {
    T->LastBlock = Block;
    ++T->MissCount;
  } else {
    // Noise-tolerant training: a miss that breaks the observed direction
    // or stride is dropped without resetting the trainer, so one stray
    // access cannot kill a forming stream.
    ++Stats.NoiseRejected;
    return;
  }
  if (T->MissCount >= Config.ConfirmMisses) {
    confirmStream(*T, Now, BE);
    Trainers.erase(RegionBase);
  }
}

void EnhancedStreamPrefetcher::trainOnMiss(Addr /*PC*/, Addr ByteAddr,
                                           Cycle Now, MemoryBackend &BE) {
  ++TrainClock; // monotonic timestamp: training events, not cycles
  const uint64_t Block = ByteAddr / BE.lineSize();
  // A miss at (or one stride past) a confirmed stream's head means the
  // stream is running behind the demand: advance it instead of retraining
  // the region.
  for (StreamEntry &S : Streams) {
    if (!S.Valid || S.Stride == 0)
      continue;
    uint64_t Ahead = static_cast<uint64_t>(
        static_cast<int64_t>(S.NextBlock) + S.Stride);
    if (Block == S.NextBlock || Block == Ahead) {
      S.NextBlock = static_cast<uint64_t>(
          static_cast<int64_t>(Block) + S.Stride);
      advance(S, Config.Degree, Now, BE);
      return;
    }
  }
  trainRegion(Block, Now, BE);
}

std::optional<Cycle> EnhancedStreamPrefetcher::probe(Addr LineAddr, Cycle Now,
                                                     MemoryBackend &BE) {
  std::optional<Cycle> Ready = Buffer.take(LineAddr);
  if (!Ready) {
    ++Stats.ProbeMisses;
    return std::nullopt;
  }
  ++Stats.ProbeHits;
  // Top up the stream this line belongs to: the consumed block sits
  // within Depth strides behind the stream head.
  const uint64_t Block = LineAddr / BE.lineSize();
  for (StreamEntry &S : Streams) {
    if (!S.Valid || S.Stride == 0)
      continue;
    int64_t Behind =
        static_cast<int64_t>(S.NextBlock) - static_cast<int64_t>(Block);
    // Behind = K * Stride with K in [1, Depth] needs Behind on Stride's
    // side of zero and |Stride| <= |Behind| <= Depth * |Stride|. Test that
    // first (the 128-bit product cannot overflow); then K lies in range,
    // and only the streams that pass pay the divide.
    const uint64_t MagBehind = magnitude(Behind);
    const uint64_t MagStride = magnitude(S.Stride);
    if ((Behind < 0) != (S.Stride < 0) || MagBehind < MagStride ||
        MagBehind > static_cast<unsigned __int128>(MagStride) * Config.Depth)
      continue;
    if (Behind % S.Stride == 0) {
      advance(S, 1, Now, BE);
      break;
    }
  }
  return Ready;
}

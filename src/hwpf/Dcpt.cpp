//===- Dcpt.cpp -----------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "hwpf/Dcpt.h"
#include "support/Check.h"

using namespace trident;

std::string DcptConfig::invalidReason() const {
  return knobRangeReason("dcpt", *this);
}

DcptPrefetcher::DcptPrefetcher(const DcptConfig &Cfg)
    : Config(checkedConfig(Cfg)), Table(Config.NumEntries),
      DeltaStore(static_cast<size_t>(Config.NumEntries) * Config.NumDeltas),
      Buffer(Config.BufferCapacity) {}

std::string DcptPrefetcher::name() const { return "dcpt"; }

HwPfStats DcptPrefetcher::snapshotStats() const {
  return HwPfStats::of(name(), Stats);
}

void DcptPrefetcher::reset(Entry &E, Addr PC, uint64_t Block) {
  E.Valid = true;
  E.Tag = PC;
  E.LastBlock = Block;
  E.LastPrefetchBlock = 0;
  E.Head = 0;
  E.Count = 0;
}

void DcptPrefetcher::trainOnMiss(Addr PC, Addr ByteAddr, Cycle Now,
                                 MemoryBackend &BE) {
  const uint64_t LS = BE.lineSize();
  const uint64_t Block = ByteAddr / LS;
  const size_t Index = PC % Config.NumEntries;
  Entry &E = Table[Index];
  if (!E.Valid || E.Tag != PC) {
    reset(E, PC, Block);
    return;
  }
  int64_t Delta64 =
      static_cast<int64_t>(Block) - static_cast<int64_t>(E.LastBlock);
  if (Delta64 == 0)
    return;
  // Deltas are stored narrow (the hardware budget the DPC entry argues
  // for); an out-of-range jump restarts the history.
  if (Delta64 > INT32_MAX || Delta64 < INT32_MIN) {
    reset(E, PC, Block);
    return;
  }
  const unsigned N = Config.NumDeltas;
  int32_t *const Ring = &DeltaStore[Index * N];
  Ring[E.Head] = static_cast<int32_t>(Delta64);
  E.Head = E.Head + 1 == N ? 0 : E.Head + 1;
  if (E.Count < N)
    ++E.Count;
  E.LastBlock = Block;
  if (E.Count < 2)
    return;
  // The delta Age places after the oldest one in the history.
  auto At = [&](unsigned Age) {
    return Ring[ringSlot(E.Head, E.Count, Age, N)];
  };

  // Correlate: find the most recent earlier occurrence of the newest
  // delta pair (d[n-1], d[n]) in the history.
  const int32_t DPrev = At(E.Count - 2);
  const int32_t DLast = At(E.Count - 1);
  int MatchEnd = -1; // index (from oldest) of the pair's second element
  for (int I = static_cast<int>(E.Count) - 3; I >= 1; --I) {
    if (At(I - 1) == DPrev && At(I) == DLast) {
      MatchEnd = I;
      break;
    }
  }
  if (MatchEnd < 0)
    return;
  ++Stats.PatternMatches;

  // Replay the deltas that followed the match from the current block.
  uint64_t Predicted = Block;
  unsigned Issued = 0;
  for (unsigned I = MatchEnd + 1;
       I < E.Count && Issued < Config.Degree; ++I) {
    int64_t D = At(I);
    if (D < 0 && Predicted < static_cast<uint64_t>(-D))
      break; // replay ran off the bottom of memory
    Predicted = static_cast<uint64_t>(static_cast<int64_t>(Predicted) + D);
    // Skip blocks already covered by the previous replay of this entry
    // (DCPT's in-flight dedup) or still sitting in the buffer.
    if (Predicted == E.LastPrefetchBlock ||
        !Buffer.fetch(Predicted * LS, Now, BE))
      continue;
    E.LastPrefetchBlock = Predicted;
    ++Stats.LinesPrefetched;
    ++Issued;
  }
}

std::optional<Cycle> DcptPrefetcher::probe(Addr LineAddr, Cycle /*Now*/,
                                           MemoryBackend & /*BE*/) {
  std::optional<Cycle> Ready = Buffer.take(LineAddr);
  if (Ready)
    ++Stats.ProbeHits;
  else
    ++Stats.ProbeMisses;
  return Ready;
}

//===- StreamBuffer.cpp ---------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "hwpf/StreamBuffer.h"
#include "support/Check.h"

#include <cstdio>
#include <cstdlib>

using namespace trident;

std::string StreamBufferConfig::invalidReason() const {
  if (HistoryEntries & (HistoryEntries - 1))
    return "stream-buffer knob 'history' must be a power of two, got " +
           std::to_string(HistoryEntries);
  return knobRangeReason("stream-buffer", *this);
}

StreamBufferUnit::StreamBufferUnit(const StreamBufferConfig &Cfg)
    : Config(checkedConfig(Cfg)), Predictor(Config.HistoryEntries) {
  Buffers.resize(Config.NumBuffers);
  for (Buffer &B : Buffers)
    B.Ring.resize(Config.Depth);
}

std::string StreamBufferUnit::name() const {
  return "stream-buffers-" + std::to_string(Config.NumBuffers) + "x" +
         std::to_string(Config.Depth);
}

HwPfStats StreamBufferUnit::snapshotStats() const {
  return HwPfStats::of(name(), Stats);
}

unsigned StreamBufferUnit::numActiveBuffers() const {
  unsigned N = 0;
  for (const Buffer &B : Buffers)
    N += B.Valid;
  return N;
}

bool StreamBufferUnit::coveredByExistingStream(Addr LineAddr) const {
  for (const Buffer &B : Buffers) {
    if (!B.Valid || !B.mayContain(LineAddr))
      continue;
    for (uint32_t I = 0; I < B.Count; ++I)
      if (B.at(I).LineAddr == LineAddr)
        return true;
  }
  return false;
}

void StreamBufferUnit::refill(Buffer &B, Cycle Now, MemoryBackend &BE) {
  const unsigned LineSize = BE.lineSize();
  unsigned Guard = 0;
  // A buffer keeps only a couple of fills in flight at a time (it ramps to
  // its full depth over successive hits rather than bursting 8 fetches the
  // moment it is allocated) — so losing a buffer to LRU stealing costs the
  // ramp again, which is what makes >8 concurrent streams expensive.
  unsigned NewFetches = 0;
  while (B.Count < Config.Depth && NewFetches < MaxFetchesPerRefill &&
         Guard++ < 4 * Config.Depth) {
    Addr Line = B.NextAddr & ~static_cast<Addr>(LineSize - 1);
    if (Config.StopAtPageBoundary &&
        (Line >> Config.PageBits) != B.PrimeVpn)
      break; // streams do not run past their page
    B.NextAddr = static_cast<Addr>(static_cast<int64_t>(B.NextAddr) + B.Stride);
    // Sub-line strides revisit the same line; only fetch new lines.
    if (B.Count != 0 && B.backEntry().LineAddr == Line)
      continue;
    Cycle Ready = BE.fetchBeyondL1(Line, Now, AccessKind::HardwarePrefetch);
    B.push({Line, Ready});
    ++Stats.LinesPrefetched;
    ++NewFetches;
  }
}

void StreamBufferUnit::trainOnMiss(Addr PC, Addr ByteAddr, Cycle Now,
                                   MemoryBackend &BE) {
  Predictor.train(PC, ByteAddr);

  std::optional<int64_t> Stride = Predictor.predict(PC);
  if (Config.RequireConfidence && !Stride)
    return;
  if (!Stride)
    Stride = static_cast<int64_t>(BE.lineSize());

  const unsigned LineSize = BE.lineSize();
  Addr MissLine = ByteAddr & ~static_cast<Addr>(LineSize - 1);
  // Avoid allocating a second buffer for a stream that is already covered.
  Addr NextLine = static_cast<Addr>(static_cast<int64_t>(ByteAddr) + *Stride) &
                  ~static_cast<Addr>(LineSize - 1);
  if (coveredByExistingStream(NextLine) || coveredByExistingStream(MissLine))
    return;
  // If a buffer allocated by this PC is already tracking this stream,
  // leave it alone (re-allocating on every in-flight miss would reset its
  // ramp); re-prime it only when the stream genuinely jumped. "Tracking"
  // means the buffer's next-fetch address is at most one stride behind the
  // miss and not absurdly far ahead (software prefetches legitimately
  // consume entries several iterations before the demand arrives).
  Buffer *Victim = nullptr;
  for (Buffer &B : Buffers) {
    if (!B.Valid || B.AllocPC != PC)
      continue;
    if (B.Stride == *Stride) {
      int64_t Steps = addrDelta(ByteAddr, B.NextAddr) / *Stride;
      if (Steps <= 1 && Steps >= -8 * static_cast<int64_t>(Config.Depth))
        return; // still tracking this stream
    }
    Victim = &B; // stream jumped: re-prime
    break;
  }
  // Else allocate a free buffer, or steal the LRU one (when more streams
  // are live than buffers exist, they thrash — the behaviour that
  // motivates per-load software prefetching in the paper).
  if (!Victim)
    for (Buffer &B : Buffers)
      if (!B.Valid) {
        Victim = &B;
        break;
      }
  if (!Victim) {
    Victim = &Buffers[0];
    for (Buffer &B : Buffers)
      if (B.LastUse < Victim->LastUse)
        Victim = &B;
  }

  static const bool DebugSb = [] {
    const char *V = std::getenv("TRIDENT_DEBUG_SB");
    return V && *V && *V != '0';
  }();
  if (DebugSb)
    std::fprintf(stderr,
                 "[sb] alloc pc=0x%llx addr=0x%llx stride=%lld victimPC=0x%llx"
                 " victimNext=0x%llx victimStride=%lld valid=%d\n",
                 (unsigned long long)PC, (unsigned long long)ByteAddr,
                 (long long)*Stride, (unsigned long long)Victim->AllocPC,
                 (unsigned long long)Victim->NextAddr,
                 (long long)Victim->Stride, Victim->Valid);

  Victim->Valid = true;
  Victim->Stride = *Stride;
  Victim->AllocPC = PC;
  Victim->PrimeVpn = ByteAddr >> Config.PageBits;
  Victim->NextAddr =
      static_cast<Addr>(static_cast<int64_t>(ByteAddr) + *Stride);
  Victim->LastUse = ++UseClock;
  Victim->clearEntries();
  ++Stats.Allocations;
  refill(*Victim, Now, BE);
}

std::optional<Cycle> StreamBufferUnit::probe(Addr LineAddr, Cycle Now,
                                             MemoryBackend &BE) {
  for (Buffer &B : Buffers) {
    if (!B.Valid || !B.mayContain(LineAddr))
      continue;
    for (uint32_t I = 0; I < B.Count; ++I) {
      if (B.at(I).LineAddr != LineAddr)
        continue;
      Cycle Ready = B.at(I).Ready;
      // Consume up to and including the hit entry, then run ahead.
      B.popFront(I + 1);
      B.LastUse = ++UseClock;
      refill(B, Now, BE);
      ++Stats.ProbeHits;
      return Ready;
    }
  }
  ++Stats.ProbeMisses;
  return std::nullopt;
}

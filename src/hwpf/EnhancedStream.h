//===- EnhancedStream.h - Noise-tolerant region stream prefetcher -*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enhanced stream prefetcher after Liu et al., "Enhancements for Accurate
/// and Timely Streaming Prefetcher" (JILP 2011): region-based (not
/// PC-based) stream identification, training on misses only with a
/// three-miss confirmation, noise-tolerant training (a miss that breaks
/// the stream's direction is ignored rather than resetting the trainer),
/// unidirectional streams with block-granularity strides, and dead-stream
/// removal (short, inactive streams are evicted first so one-shot regions
/// cannot pollute the stream table). Timestamps are a monotonic training
/// counter, never wall-clock cycles.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_HWPF_ENHANCEDSTREAM_H
#define TRIDENT_HWPF_ENHANCEDSTREAM_H

#include "hwpf/PrefetchBuffer.h"
#include "hwpf/PrefetcherRegistry.h"
#include "support/LruTable.h"

#include <string>
#include <vector>

namespace trident {

struct EnhancedStreamConfig {
  /// Trainer entries (one per region being watched for a stream).
  unsigned NumTrainingEntries = 16;
  /// Confirmed streams tracked at once.
  unsigned NumStreams = 8;
  /// Lines fetched ahead of the stream head per advance.
  unsigned Degree = 2;
  /// Prefetched lines buffered per stream (total buffer capacity is
  /// NumStreams * Depth).
  unsigned Depth = 4;
  /// Region size in lines for stream identification (power of two).
  unsigned RegionLines = 64;
  /// Consistent misses before a stream is confirmed.
  unsigned ConfirmMisses = 3;
  /// A stream idle for this many training events with fewer than
  /// DeadMinLength prefetched lines is dead and evicted first.
  unsigned DeadIdleEvents = 64;
  unsigned DeadMinLength = 4;

  /// Upper bound of the trainer and stream counts, Degree and Depth.
  static constexpr unsigned MaxSize = 1024;
  static constexpr Knob<EnhancedStreamConfig> Knobs[] = {
      {"trainers", &EnhancedStreamConfig::NumTrainingEntries, 1, MaxSize},
      {"streams", &EnhancedStreamConfig::NumStreams, 1, MaxSize},
      {"degree", &EnhancedStreamConfig::Degree, 1, MaxSize},
      {"depth", &EnhancedStreamConfig::Depth, 0, MaxSize},
      {"region", &EnhancedStreamConfig::RegionLines},
      {"confirm", &EnhancedStreamConfig::ConfirmMisses}};

  static EnhancedStreamConfig baseline() { return EnhancedStreamConfig(); }
  /// Why no unit can be built from this config, or "" when one can. The
  /// constructor CHECKs it; the registry returns it as the spec error.
  std::string invalidReason() const;
};

/// Enhanced-stream's counters.
struct EnhancedStreamStats {
  uint64_t Allocations = 0;
  uint64_t ProbeHits = 0;
  uint64_t ProbeMisses = 0;
  uint64_t LinesPrefetched = 0;
  uint64_t NoiseRejected = 0;
  uint64_t DeadStreamsRemoved = 0;

  /// Counter names, under "hwpf.".
  static constexpr auto fields() {
    using S = EnhancedStreamStats;
    return std::tuple(Field{"allocations", &S::Allocations},
                      Field{"probe_hits", &S::ProbeHits},
                      Field{"probe_misses", &S::ProbeMisses},
                      Field{"lines_prefetched", &S::LinesPrefetched},
                      Field{"noise_rejected", &S::NoiseRejected},
                      Field{"dead_streams_removed", &S::DeadStreamsRemoved});
  }
};

class EnhancedStreamPrefetcher final : public HwPrefetcher {
public:
  explicit EnhancedStreamPrefetcher(const EnhancedStreamConfig &Config);

  // HwPrefetcher interface.
  void trainOnMiss(Addr PC, Addr ByteAddr, Cycle Now,
                   MemoryBackend &BE) override;
  std::optional<Cycle> probe(Addr LineAddr, Cycle Now,
                             MemoryBackend &BE) override;
  HwPfStats snapshotStats() const override;
  std::string name() const override;

  const EnhancedStreamConfig &config() const { return Config; }
  /// Number of live confirmed streams — for tests.
  unsigned numActiveStreams() const;

private:
  /// Trainer state for one region (pre-confirmation), keyed by the
  /// region-aligned block number.
  struct Trainer {
    uint64_t LastBlock = 0;
    unsigned MissCount = 0;
    int Direction = 0;   ///< 0 = unknown, +1 / -1 once observed
    int64_t Stride = 0;  ///< blocks, magnitude >= 1
  };

  /// One confirmed, unidirectional stream.
  struct StreamEntry {
    bool Valid = false;
    uint64_t NextBlock = 0; ///< next block to prefetch
    int64_t Stride = 0;     ///< signed blocks per advance
    uint64_t LastUse = 0;   ///< monotonic training timestamp
    unsigned Length = 0;    ///< lines prefetched so far
  };

  void trainRegion(uint64_t Block, Cycle Now, MemoryBackend &BE);
  void confirmStream(const Trainer &T, Cycle Now, MemoryBackend &BE);
  void advance(StreamEntry &S, unsigned Lines, Cycle Now, MemoryBackend &BE);
  StreamEntry *streamVictim();

  EnhancedStreamConfig Config;
  /// Both tables are sized once from the config and never regrow. The
  /// trainers are one fully associative LRU set.
  LruTable<uint64_t, Trainer> Trainers;
  std::vector<StreamEntry> Streams;
  PrefetchBuffer Buffer;
  /// Monotonic training-event counter (the paper's timestamp source).
  uint64_t TrainClock = 0;
  EnhancedStreamStats Stats;
};

} // namespace trident

#endif // TRIDENT_HWPF_ENHANCEDSTREAM_H

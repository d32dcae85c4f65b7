//===- CacheTypes.h - Shared memory-system types ---------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration records and access descriptors shared across the memory
/// subsystem. The load-outcome classification mirrors Figure 6 of the paper:
/// hits, first-touch hits on prefetched lines, partial hits on in-flight
/// prefetches, ordinary misses, and misses caused by prefetch displacement.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_MEM_CACHETYPES_H
#define TRIDENT_MEM_CACHETYPES_H

#include "isa/Instruction.h"
#include "support/Fields.h"
#include "support/Types.h"

#include <cstdint>
#include <string>

namespace trident {

/// Geometry and latency of one cache level.
struct CacheConfig {
  std::string Name = "cache";
  uint64_t SizeBytes = 64 * 1024;
  unsigned Assoc = 2;
  unsigned LineSize = 64;
  unsigned HitLatency = 3;

  uint64_t numSets() const { return SizeBytes / (uint64_t(Assoc) * LineSize); }
  static constexpr auto fields() {
    return std::tuple(Field{"name", &CacheConfig::Name},
                      Field{"size_bytes", &CacheConfig::SizeBytes},
                      Field{"assoc", &CacheConfig::Assoc},
                      Field{"line_size", &CacheConfig::LineSize},
                      Field{"hit_latency", &CacheConfig::HitLatency});
  }
};

/// Who initiated a memory access; determines training, stat accounting, and
/// whether a register is waiting on the result.
enum class AccessKind : uint8_t {
  DemandLoad,
  DemandStore,
  SoftwarePrefetch, ///< Optimizer-inserted Prefetch instruction.
  HardwarePrefetch, ///< Stream-buffer initiated fill.
};

inline bool isPrefetchKind(AccessKind K) {
  return K == AccessKind::SoftwarePrefetch || K == AccessKind::HardwarePrefetch;
}

/// Figure-6 style classification of one demand load.
enum class LoadOutcome : uint8_t {
  HitNone,          ///< Plain cache hit (incl. later touches of pf lines).
  HitPrefetched,    ///< First demand touch of a line a prefetch brought in.
  PartialHit,       ///< Data still in flight from a prefetch; partly hidden.
  Miss,             ///< Ordinary miss.
  MissDueToPrefetch ///< Missed because a prefetch displaced the line.
};

/// Aggregate effectiveness counters for the attached hardware prefetcher,
/// maintained uniformly by MemorySystem (not by the prefetcher itself) so
/// every arsenal member is measured with identical semantics:
///
///  * Issued — hardware-prefetch line fills sent down the L2/L3/memory path;
///  * Useful — demand accesses whose data a prefetch had fully hidden
///    (first-touch hits on prefetched lines, timely buffer hits);
///  * Late — demand accesses that found their prefetch still in flight
///    (partially hidden latency);
///  * DemandMisses — demand L1 misses no prefetch covered at all.
///
/// accuracy() and coverage() are the standard derived metrics. The struct
/// is also the payload of EventKind::HwPfFeedback (copied by value).
struct HwPfFeedback {
  uint64_t Issued = 0;
  uint64_t Useful = 0;
  uint64_t Late = 0;
  uint64_t DemandMisses = 0;

  /// Registry names, under "hwpf.feedback." (exported beside accuracy()
  /// and coverage() when the sampling knob is on).
  static constexpr auto fields() {
    return std::tuple(Field{"issued", &HwPfFeedback::Issued},
                      Field{"useful", &HwPfFeedback::Useful},
                      Field{"late", &HwPfFeedback::Late},
                      Field{"demand_misses", &HwPfFeedback::DemandMisses});
  }

  /// Fraction of issued prefetches a demand access consumed (fully or
  /// partially). Can exceed 1 transiently if a line is re-touched after
  /// re-prefetch; in practice bounded by issue accounting.
  double accuracy() const {
    return Issued == 0 ? 0.0
                       : static_cast<double>(Useful + Late) /
                             static_cast<double>(Issued);
  }

  /// Fraction of would-be demand misses a prefetch covered.
  double coverage() const {
    uint64_t Covered = Useful + Late;
    uint64_t Total = Covered + DemandMisses;
    return Total == 0 ? 0.0
                      : static_cast<double>(Covered) /
                            static_cast<double>(Total);
  }
};

/// Result of a timed memory access.
struct AccessResult {
  /// Cycle at which the loaded data is available to dependents.
  Cycle ReadyCycle = 0;
  /// Level that served the access: 1..3 = cache level, 4 = memory,
  /// 0 = stream buffer.
  unsigned Level = 1;
  LoadOutcome Outcome = LoadOutcome::HitNone;
  bool StreamBufferHit = false;

  unsigned latency(Cycle Now) const {
    return static_cast<unsigned>(ReadyCycle - Now);
  }
};

} // namespace trident

#endif // TRIDENT_MEM_CACHETYPES_H

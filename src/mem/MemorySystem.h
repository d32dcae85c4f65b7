//===- MemorySystem.h - Timed 3-level hierarchy + prefetcher ---*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The timed memory subsystem of the baseline processor (Table 1):
/// L1 64KB/2-way/3cy, L2 512KB/8-way/11cy, L3 4MB/16-way/35cy, 350-cycle
/// memory, a shared memory bus with per-line occupancy, and MSHRs bounding
/// outstanding misses. A pluggable hardware prefetcher (the stream-buffer
/// unit from src/hwpf) is probed on L1 misses and trained on demand misses,
/// mirroring the paper's baseline "hardware stream buffer prefetching
/// guided by a stride predictor".
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_MEM_MEMORYSYSTEM_H
#define TRIDENT_MEM_MEMORYSYSTEM_H

#include "mem/Cache.h"
#include "mem/CacheTypes.h"
#include "mem/Tlb.h"
#include "support/Fields.h"

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace trident {

/// Interface the hardware prefetcher uses to fetch lines through the L2/L3/
/// memory path with correct timing and bus occupancy.
class MemoryBackend {
public:
  virtual ~MemoryBackend();

  /// Fetches \p LineAddr from beyond the L1 (checking L2, then L3, then
  /// memory; filling the levels it passes) and returns the cycle the data
  /// is ready.
  virtual Cycle fetchBeyondL1(Addr LineAddr, Cycle Now, AccessKind Kind) = 0;

  /// Line size of the hierarchy in bytes.
  virtual unsigned lineSize() const = 0;
};

/// Generic named-counter snapshot of one hardware prefetcher. Every
/// arsenal member reports its internals through this one shape so
/// SimResult and the stat registry stay prefetcher-agnostic: the unit
/// names its counters in its stats struct's field list, the sim layer just
/// prefixes and exports them. The registry sorts by name, so insertion
/// order here is not load-bearing.
struct HwPfStats {
  /// The reporting unit's name() (empty = no prefetcher attached).
  std::string Prefetcher;
  std::vector<std::pair<std::string, uint64_t>> Counters;

  /// The snapshot of unit \p Name: one counter per row of the field list
  /// of \p Stats.
  template <HasFields S> static HwPfStats of(std::string Name, const S &Stats) {
    HwPfStats Out;
    Out.Prefetcher = std::move(Name);
    forEachField<S>([&](const auto &F) {
      Out.Counters.emplace_back(F.Name, Stats.*F.Member);
    });
    return Out;
  }

  /// Value of counter \p Name, or 0 when the unit does not report it.
  uint64_t get(const std::string &Name) const;
};

/// Abstract hardware prefetcher — the arsenal contract (see
/// src/hwpf/PrefetcherRegistry.h for the name -> factory registry).
///
/// Training hooks, from hottest to coldest:
///  * trainOnAccess — every demand access that HIT in the L1 with data
///    present. Opt-in via wantsAccessTraining() so the default arsenal
///    pays nothing on the hit path.
///  * trainOnMiss — every demand access that missed in the L1 (including
///    partial hits on in-flight fills), after the probe failed or was
///    skipped. The main allocation/training point; the prefetcher may
///    issue fills via \p BE.
///  * trainOnFill — a demand (or software-prefetch) miss allocated an L1
///    line fill. Opt-in via wantsFillTraining(); lets timing-aware units
///    observe when lines actually arrive.
///
/// Issue path: probe() is consulted on every L1 miss before the fill goes
/// to L2. Feedback: MemorySystem maintains HwPfFeedback uniformly for any
/// attached unit; per-unit internals are reported via snapshotStats().
// trident-analyze: not-a-hw-table(abstract interface; concrete units
// declare their own bounded tables)
class HwPrefetcher {
public:
  virtual ~HwPrefetcher();

  /// Called for every demand access that missed in the L1, after the probe
  /// failed; the prefetcher may allocate streams and issue fills via \p BE.
  virtual void trainOnMiss(Addr PC, Addr ByteAddr, Cycle Now,
                           MemoryBackend &BE) = 0;

  /// Asks whether the prefetcher holds (or is fetching) \p LineAddr. On a
  /// hit the prefetcher consumes the entry, advances the stream (issuing
  /// further fills via \p BE), and returns the cycle the line's data is
  /// available.
  virtual std::optional<Cycle> probe(Addr LineAddr, Cycle Now,
                                     MemoryBackend &BE) = 0;

  /// Opt-in for trainOnAccess. Sampled once at attach time — must be a
  /// constant property of the unit, not a mode that changes mid-run.
  virtual bool wantsAccessTraining() const { return false; }

  /// Demand access that hit in the L1 with data present (the complement
  /// of trainOnMiss). Only invoked when wantsAccessTraining().
  virtual void trainOnAccess(Addr PC, Addr ByteAddr, Cycle Now);

  /// Opt-in for trainOnFill. Sampled once at attach time.
  virtual bool wantsFillTraining() const { return false; }

  /// A demand or software-prefetch miss allocated an L1 fill for
  /// \p LineAddr completing at \p Ready. Only invoked when
  /// wantsFillTraining().
  virtual void trainOnFill(Addr LineAddr, Cycle Ready, AccessKind Kind);

  /// Named-counter snapshot of the unit's internals. Default: name only,
  /// no counters.
  virtual HwPfStats snapshotStats() const;

  virtual std::string name() const = 0;
};

/// Aggregate configuration of the memory subsystem.
struct MemSystemConfig {
  CacheConfig L1{"L1", 64 * 1024, 2, 64, 3};
  CacheConfig L2{"L2", 512 * 1024, 8, 64, 11};
  CacheConfig L3{"L3", 4 * 1024 * 1024, 16, 64, 35};
  unsigned MemoryLatency = 350;
  /// Cycles one line transfer occupies the memory bus (bandwidth model).
  unsigned BusOccupancy = 6;
  /// Maximum outstanding line fills (demand + prefetch combined).
  unsigned NumMSHRs = 32;
  /// Latency to move a line from a stream buffer into the L1.
  unsigned StreamBufferTransferLatency = 11;
  /// Optional data-TLB model (off in the Table 1 baseline).
  TlbConfig Tlb;

  /// The paper's Table 1 baseline.
  static MemSystemConfig baseline() { return MemSystemConfig(); }
  static constexpr auto fields() {
    using C = MemSystemConfig;
    return std::tuple(
        Field{"l1", &C::L1}, Field{"l2", &C::L2}, Field{"l3", &C::L3},
        Field{"memory_latency", &C::MemoryLatency},
        Field{"bus_occupancy", &C::BusOccupancy},
        Field{"num_mshrs", &C::NumMSHRs},
        Field{"stream_buffer_transfer_latency",
              &C::StreamBufferTransferLatency},
        Field{"tlb", &C::Tlb});
  }
};

/// Demand/prefetch traffic statistics (feeds Figures 2, 6, 9).
struct MemStats {
  uint64_t DemandLoads = 0;
  uint64_t HitsNone = 0;
  uint64_t HitsPrefetched = 0;
  uint64_t PartialHits = 0;
  uint64_t Misses = 0;
  uint64_t MissesDueToPrefetch = 0;
  uint64_t StreamBufferHits = 0;
  uint64_t SoftwarePrefetches = 0;
  uint64_t HardwarePrefetches = 0;
  uint64_t MemoryFetches = 0;
  /// Sum over demand loads of (ReadyCycle - issue cycle) beyond the L1 hit
  /// latency; the aggregate exposed-latency metric.
  uint64_t TotalExposedLatency = 0;

  uint64_t demandL1Misses() const {
    return PartialHits + Misses + MissesDueToPrefetch;
  }

  /// Registry names, under "mem.".
  static constexpr auto fields() {
    return std::tuple(
        Field{"demand_loads", &MemStats::DemandLoads},
        Field{"hits_none", &MemStats::HitsNone},
        Field{"hits_prefetched", &MemStats::HitsPrefetched},
        Field{"partial_hits", &MemStats::PartialHits},
        Field{"misses", &MemStats::Misses},
        Field{"misses_due_to_prefetch", &MemStats::MissesDueToPrefetch},
        Field{"stream_buffer_hits", &MemStats::StreamBufferHits},
        Field{"software_prefetches", &MemStats::SoftwarePrefetches},
        Field{"hardware_prefetches", &MemStats::HardwarePrefetches},
        Field{"memory_fetches", &MemStats::MemoryFetches},
        Field{"total_exposed_latency", &MemStats::TotalExposedLatency});
  }
};

/// The full timed memory system.
class MemorySystem final : public MemoryBackend {
public:
  explicit MemorySystem(const MemSystemConfig &Config);

  /// Installs (or clears) the hardware prefetcher. Ownership transfers.
  /// Safe mid-run between accesses: MSHR/bus state and the HwPfFeedback
  /// referee counters are owned here and survive the swap; only the
  /// outgoing unit's private buffers are dropped. Must not be called from
  /// inside access() (checked).
  void attachPrefetcher(std::unique_ptr<HwPrefetcher> Pf);
  HwPrefetcher *prefetcher() { return Pf.get(); }

  /// Performs one timed access. \p PC is the accessing instruction's
  /// address (used for prefetcher training), \p ByteAddr the data address.
  AccessResult access(Addr PC, Addr ByteAddr, AccessKind Kind, Cycle Now);

  // MemoryBackend interface.
  Cycle fetchBeyondL1(Addr LineAddr, Cycle Now, AccessKind Kind) override;
  unsigned lineSize() const override { return Config.L1.LineSize; }

  const MemSystemConfig &config() const { return Config; }
  const MemStats &stats() const { return Stats; }
  /// Uniform prefetcher-effectiveness counters (all zero when no
  /// prefetcher is attached; see HwPfFeedback).
  const HwPfFeedback &feedback() const { return Fb; }
  void clearStats() {
    Stats = MemStats();
    Fb = HwPfFeedback();
  }

  // Fault-injection hooks (src/faults). Guarded by one flag so the
  // zero-fault timing path is bit-identical to a system without them. ----

  /// Adds \p ExtraMem cycles to memory fetches and \p ExtraL2 cycles to
  /// L2/L3 hits for line addresses overlapping [\p Lo, \p Hi] (inclusive
  /// byte range). A second call replaces the active fault.
  void injectLatencyFault(Addr Lo, Addr Hi, unsigned ExtraMem,
                          unsigned ExtraL2);
  void clearLatencyFault();
  bool latencyFaultActive() const { return FaultActive; }

  /// Invalidates every line overlapping [\p Lo, \p Hi] in all three
  /// levels; returns the number of lines evicted.
  uint64_t evictRange(Addr Lo, Addr Hi);

  /// The data TLB, or nullptr when disabled.
  const Tlb *dtlb() const { return Dtlb.get(); }

private:
  /// Delays \p IssueCycle until an MSHR is free and registers the fill.
  Cycle allocateMshr(Cycle IssueCycle, Cycle Ready);

  MemSystemConfig Config;
  Cache L1;
  Cache L2;
  Cache L3;
  std::unique_ptr<Tlb> Dtlb;
  std::unique_ptr<HwPrefetcher> Pf;
  /// wants*Training() sampled once at attach time so the hot paths pay a
  /// plain bool test instead of a virtual call per access.
  bool PfTrainsOnAccess = false;
  bool PfTrainsOnFill = false;
  /// True while access() is on the stack; attachPrefetcher checks it so a
  /// mid-run swap can never destroy the unit currently being trained
  /// (checked builds only — no hot-path cost in release).
  bool InAccess = false;
  MemStats Stats;
  HwPfFeedback Fb;

  /// Injected latency fault (see injectLatencyFault); inactive by default
  /// so the hot path pays one predictable-not-taken branch.
  bool FaultActive = false;
  Addr FaultLo = 0;
  Addr FaultHi = 0;
  unsigned FaultExtraMem = 0;
  unsigned FaultExtraL2 = 0;

  /// Cycle the memory bus frees up.
  Cycle BusNextFree = 0;
  /// Ready cycles of outstanding fills (bounded by NumMSHRs), kept as a
  /// binary min-heap so the hot path retires completed fills and finds
  /// the earliest completion in O(log MSHRs) instead of scanning.
  std::vector<Cycle> OutstandingFills;
};

} // namespace trident

#endif // TRIDENT_MEM_MEMORYSYSTEM_H

//===- Tlb.h - Data TLB model ----------------------------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An optional data-TLB model (off in the Table 1 baseline, which —
/// like the paper — does not discuss translation). When enabled it adds
/// two effects real machines have and the baseline model omits:
///
///  * demand accesses that miss the TLB pay a page-walk latency;
///  * software prefetches that miss the TLB are *dropped* (the common
///    non-faulting prefetch semantics), and the hardware stream buffers
///    stop at page boundaries — which is precisely what makes
///    large-stride streams (galgel-like column walks) hard for
///    hardware prefetching on real machines.
///
/// Exposed as `MemSystemConfig::Tlb` (`trident_sim --tlb`) and exercised by
/// the `tlb_mcf` identity row, mem_test and sim_test.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_MEM_TLB_H
#define TRIDENT_MEM_TLB_H

#include "isa/Instruction.h"
#include "support/Fields.h"
#include "support/LruTable.h"
#include "support/Types.h"

#include <cstdint>

namespace trident {

struct TlbConfig {
  bool Enable = false;
  unsigned NumEntries = 64;
  unsigned Assoc = 4;
  unsigned PageBits = 12; ///< 4KB pages.
  unsigned WalkLatency = 30;

  static constexpr auto fields() {
    return std::tuple(Field{"enable", &TlbConfig::Enable},
                      Field{"num_entries", &TlbConfig::NumEntries},
                      Field{"assoc", &TlbConfig::Assoc},
                      Field{"page_bits", &TlbConfig::PageBits},
                      Field{"walk_latency", &TlbConfig::WalkLatency});
  }
};

struct TlbStats {
  uint64_t Lookups = 0;
  uint64_t Misses = 0;
  uint64_t PrefetchesDropped = 0;

  /// Registry names, under "tlb.".
  static constexpr auto fields() {
    return std::tuple(
        Field{"lookups", &TlbStats::Lookups},
        Field{"misses", &TlbStats::Misses},
        Field{"prefetches_dropped", &TlbStats::PrefetchesDropped});
  }
};

/// Set-associative TLB with LRU replacement. Translation itself is an
/// identity map (the simulator is physically addressed); only the timing
/// and the prefetch-drop policy matter.
class Tlb {
public:
  explicit Tlb(const TlbConfig &Config);

  /// Looks up the page of \p ByteAddr; on a miss, installs the entry.
  /// Returns true on a hit (no walk needed).
  bool access(Addr ByteAddr);

  /// Probe without side effects.
  bool present(Addr ByteAddr) const {
    return Entries.find(vpnOf(ByteAddr)) != nullptr;
  }

  const TlbConfig &config() const { return Config; }
  const TlbStats &stats() const { return Stats; }
  void noteDroppedPrefetch() { ++Stats.PrefetchesDropped; }

private:
  /// Translation is the identity map: an entry is only its page number.
  struct NoPayload {};

  uint64_t vpnOf(Addr A) const { return A >> Config.PageBits; }

  TlbConfig Config;
  LruTable<uint64_t, NoPayload> Entries;
  TlbStats Stats;
};

} // namespace trident

#endif // TRIDENT_MEM_TLB_H

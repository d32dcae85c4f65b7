//===- DataMemory.h - Sparse functional data memory ------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-addressable sparse memory backing the functional execution of
/// workloads. Pages materialize zero-filled on first touch, which also gives
/// non-faulting loads (Section 3.4.3) their "never traps" semantics for
/// free: any address reads as zero until written.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_MEM_DATAMEMORY_H
#define TRIDENT_MEM_DATAMEMORY_H

#include "isa/Instruction.h"

#include <array>
#include <cstring>
#include <vector>

namespace trident {

class DataMemory {
public:
  static constexpr size_t PageBits = 12;
  static constexpr size_t PageSize = size_t(1) << PageBits;

  DataMemory();
  /// Returns every slab to the process-wide free list.
  ~DataMemory();
  DataMemory(const DataMemory &) = delete;
  DataMemory &operator=(const DataMemory &) = delete;

  /// Reads a 64-bit little-endian value; unwritten memory reads as zero.
  /// Not safe to call concurrently: it updates the translation cache.
  uint64_t read64(Addr A) const;

  /// Writes a 64-bit little-endian value, materializing pages as needed.
  void write64(Addr A, uint64_t Value);

  /// Number of materialized 4KB pages (footprint introspection for tests).
  size_t numPages() const { return NumPages; }

  /// FNV-1a over every materialized page's VPN (8 bytes, little-endian)
  /// and contents, in ascending VPN order: an identity for a data image
  /// that does not depend on the order its pages were written in.
  uint64_t contentHash() const;

private:
  using Page = std::array<uint8_t, PageSize>;
  /// Pages per allocation slab (1 MB of data memory).
  static constexpr size_t SlabPages = 256;
  struct Slab;
  struct SlabPool;

  const Page *findPage(Addr A) const;
  Page &getOrCreatePage(Addr A);
  Page *allocPage();
  void grow();

  // Open-addressing VPN -> page table with slab-allocated page storage:
  // a streaming workload materializes pages steadily, and per-page
  // unordered_map nodes would make the cycle loop allocate. The flat
  // table probes linearly over packed keys; the allocator is touched
  // only on a table doubling or a slab the free list cannot supply (both
  // amortized far below once per measurement window).
  std::vector<uint64_t> Keys; ///< VPN + 1; 0 marks an empty slot
  std::vector<Page *> Slots;
  size_t NumPages = 0;
  /// One-entry translation cache in front of the table. Pages never move
  /// (grow() rehashes pointers only), so an entry stays valid for the
  /// memory's lifetime.
  mutable uint64_t CachedKey = 0;
  mutable Page *CachedPage = nullptr;
  Slab *Slabs = nullptr; ///< owned slabs, newest first
  size_t SlabUsed = SlabPages; ///< forces a slab on first materialization
};

} // namespace trident

#endif // TRIDENT_MEM_DATAMEMORY_H

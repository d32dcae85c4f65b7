//===- DataMemory.h - Sparse functional data memory ------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-addressable sparse memory backing the functional execution of
/// workloads. Any address reads as zero until written, which also gives
/// non-faulting loads (Section 3.4.3) their "never traps" semantics for
/// free. A workload image is declared rather than written (declareWords),
/// and only a write materializes a page: zero-filled, then filled with
/// every declared word that overlaps it, then written. A read of a page
/// that does not exist computes its bytes from the declarations and
/// allocates nothing, so set-up and host memory cost nothing for the
/// pages a run only reads.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_MEM_DATAMEMORY_H
#define TRIDENT_MEM_DATAMEMORY_H

#include "isa/Instruction.h"

#include <array>
#include <cstring>
#include <functional>
#include <utility>
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

  /// Reads a 64-bit little-endian value; memory nobody wrote or declared
  /// reads as zero. A read never materializes a page. Not safe to call
  /// concurrently: it updates the translation cache.
  uint64_t read64(Addr A);

  /// Writes a 64-bit little-endian value, materializing pages as needed.
  void write64(Addr A, uint64_t Value);

  /// Declares \p Count words: word I at \p Base + I * \p Stride holds
  /// \p Value(I), byte for byte what a write64 loop issued now would
  /// store. Pages that already exist take their words at once. Every
  /// other page the words overlap reads them from the declaration, and
  /// takes them when a write materializes it, after the words of earlier
  /// declarations. Table capacity and slab room for all those pages are
  /// reserved here, so materializing them never allocates; the slabs no
  /// write uses stay untouched. \p Stride is at least 8, so one
  /// declaration's words never overlap each other.
  void declareWords(Addr Base, uint64_t Count, uint64_t Stride,
                    std::function<uint64_t(uint64_t)> Value);

  /// Number of materialized 4KB pages: the pages writes have touched.
  size_t numPages() const { return NumPages; }

  /// FNV-1a over every materialized or declared page's VPN (8 bytes,
  /// little-endian) and contents, in ascending VPN order: an identity for
  /// a data image that does not depend on the order its pages were
  /// written in, nor on which pages have materialized. A declared page
  /// that has not materialized is hashed from a scratch fill.
  uint64_t contentHash() const;

private:
  using Page = std::array<uint8_t, PageSize>;
  /// Pages per allocation slab (1 MB of data memory).
  static constexpr size_t SlabPages = 256;
  struct Slab;
  struct SlabPool;

  /// One declareWords call. Its words span the bytes [Base, End).
  struct Declaration {
    Addr Base;
    Addr End;
    uint64_t Count;
    uint64_t Stride;
    std::function<uint64_t(uint64_t)> Value;
    uint64_t firstVpn() const { return Base >> PageBits; }
    uint64_t lastVpn() const { return (End - 1) >> PageBits; }
  };

  /// The page holding \p A, or null when it has not materialized.
  Page *lookupPage(Addr A);
  /// The page holding \p A, materialized if it is absent.
  Page &writablePage(Addr A);
  /// Table slot holding \p Key, or the empty slot where it would go.
  size_t slotOf(uint64_t Key) const;
  Page *findPage(uint64_t Key) const {
    size_t I = slotOf(Key);
    return Keys[I] == Key ? Slots[I] : nullptr;
  }
  /// Grows the table and takes spare slabs until \p Pages more pages fit.
  void reserve(size_t Pages);
  Page *allocPage();
  void grow();

  /// Index range [first, second) of \p D's words that overlap page \p Vpn.
  static std::pair<uint64_t, uint64_t> wordsOn(const Declaration &D,
                                               uint64_t Vpn);
  /// Writes \p D's words that overlap page \p Vpn into \p P.
  static void applyWords(const Declaration &D, uint64_t Vpn, Page &P);
  /// True when one of \p D's words has a byte on page \p Vpn.
  static bool overlaps(const Declaration &D, uint64_t Vpn);
  bool declares(uint64_t Vpn) const;
  /// Writes every declaration's words on page \p Vpn, in declaration order.
  void fillDeclared(uint64_t Vpn, Page &P) const;
  /// The 8 bytes at \p A as the declarations alone give them, later
  /// declarations over earlier ones; bytes no word covers read as zero.
  uint64_t readDeclared(Addr A) const;

  // Open-addressing VPN -> page table with slab-allocated page storage:
  // a streaming workload materializes pages steadily, and per-page
  // unordered_map nodes would make the cycle loop allocate. The flat
  // table probes linearly over packed keys; the allocator is touched
  // only on a table doubling or a slab the free list cannot supply (both
  // amortized far below once per measurement window).
  std::vector<uint64_t> Keys; ///< VPN + 1; 0 marks an empty slot
  std::vector<Page *> Slots;
  size_t NumPages = 0;
  /// One-entry translation cache in front of the table. It may remember
  /// an absent page (a null CachedPage) until a write materializes it.
  /// Pages never move (grow() rehashes pointers only), so a present entry
  /// stays valid for the memory's lifetime.
  uint64_t CachedKey = 0;
  Page *CachedPage = nullptr;
  /// Owned slabs in hand-out order. Current hands out pages; the slabs
  /// after it are spare room reserve() has taken.
  Slab *Slabs = nullptr;
  Slab *LastSlab = nullptr;
  Slab *Current = nullptr;
  size_t SlabUsed = SlabPages; ///< pages Current has handed out
  size_t FreePages = 0; ///< pages the owned slabs have not handed out yet
  std::vector<Declaration> Decls;
  /// Declared pages that have not materialized yet (an upper bound: a
  /// page two declarations share counts twice). reserve() keeps room for
  /// them, so a write into one never allocates.
  size_t Reserved = 0;
};

} // namespace trident

#endif // TRIDENT_MEM_DATAMEMORY_H

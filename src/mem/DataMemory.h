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
/// and only a write materializes a page. A read of a page that does not
/// exist computes its bytes from the declarations and allocates nothing,
/// so set-up and host memory cost nothing for the pages a run only reads.
///
/// A page comes in two kinds. A write to an absent page materializes it
/// *sparse*: a 512-byte record of a 64-byte mask of the page's 512 words
/// plus up to 56 stored words in word order. A stored word holds all 8
/// of its bytes; every other word still reads through the declarations.
/// The write that would store a 57th word promotes the page to *dense*:
/// a whole 4 KB page, zero-filled, then filled with every declared word
/// that overlaps it in declaration order, then with the stored words. A
/// program that writes one field per node holds 32 words a page in a
/// record; one that sweeps an array turns its pages dense.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_MEM_DATAMEMORY_H
#define TRIDENT_MEM_DATAMEMORY_H

#include "isa/Instruction.h"

#include <array>
#include <cstdint>
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
  /// An unaligned or page-straddling write stores both words it touches.
  void write64(Addr A, uint64_t Value);

  /// Declares \p Count words: word I at \p Base + I * \p Stride holds
  /// \p Value(I), byte for byte what a write64 loop issued now would
  /// store. Pages that already exist take their words at once: a dense
  /// page all of them, a sparse page the bytes of the words it stores.
  /// Every other word the declaration overlaps reads from it, and a page
  /// takes them when it turns dense, after the words of earlier
  /// declarations. Table capacity and slab room are reserved here, a
  /// record for every absent page the words overlap and a dense page for
  /// every absent or sparse one, so neither materializing nor promoting
  /// those pages allocates; the slabs no write uses stay untouched.
  /// \p Stride is at least 8, so one declaration's words never overlap
  /// each other.
  void declareWords(Addr Base, uint64_t Count, uint64_t Stride,
                    std::function<uint64_t(uint64_t)> Value);

  /// Number of materialized 4KB pages, sparse or dense: the pages writes
  /// have touched.
  size_t numPages() const { return NumPages; }

  /// FNV-1a over every materialized or declared page's VPN (8 bytes,
  /// little-endian) and contents, in ascending VPN order: an identity for
  /// a data image that does not depend on the order its pages were
  /// written in, nor on which pages have materialized or in which kind.
  /// A page that is not dense is hashed from a scratch fill.
  uint64_t contentHash() const;

private:
  using Page = std::array<uint8_t, PageSize>;
  static constexpr size_t PageWords = PageSize / 8;
  /// Words a sparse page stores before it turns dense, so that a record
  /// costs one eighth of a page.
  static constexpr size_t RecordWords = 56;
  /// A sparse page. While the record is on the free list, its first word
  /// slot holds the next free record.
  struct Record {
    uint64_t Mask[PageWords / 64]; ///< bit I: the page stores word I
    uint64_t Words[RecordWords];   ///< the stored words, in word order
  };
  static constexpr size_t RecordsPerPage = PageSize / sizeof(Record);
  static_assert(RecordsPerPage == 8, "a record is 512 bytes");
  /// Pages per allocation slab (1 MB of data memory).
  static constexpr size_t SlabPages = 256;
  struct Slab;
  struct SlabPool;

  /// A table entry: a dense page, or a sparse page's record with the low
  /// bit set (both are 8-byte aligned). A null entry is an absent page.
  class PageRef {
  public:
    PageRef() = default;
    explicit PageRef(Page *P) : Bits(reinterpret_cast<uintptr_t>(P)) {}
    explicit PageRef(Record *S) : Bits(reinterpret_cast<uintptr_t>(S) | 1) {}
    explicit operator bool() const { return Bits != 0; }
    Page *dense() const {
      return Bits & 1 ? nullptr : reinterpret_cast<Page *>(Bits);
    }
    Record *sparse() const {
      return Bits & 1 ? reinterpret_cast<Record *>(Bits - 1) : nullptr;
    }

  private:
    uintptr_t Bits = 0;
  };

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

  /// The page holding \p A, or a null entry when it has not materialized.
  PageRef lookupPage(Addr A);
  /// Table slot holding \p Key, or the empty slot where it would go.
  size_t slotOf(uint64_t Key) const;
  PageRef findPage(uint64_t Key) const {
    size_t I = slotOf(Key);
    return Keys[I] == Key ? Slots[I] : PageRef();
  }
  /// Points \p Vpn's table slot and the translation cache at \p R.
  void setPage(uint64_t Vpn, PageRef R);

  /// The aligned word at \p W, read through \p R, the page holding it.
  uint64_t readWord(PageRef R, Addr W) const;
  /// The 8 bytes of the aligned word at \p W, ready for a store: its page
  /// is materialized or promoted as needed, and a word a sparse page did
  /// not store yet starts from the declarations.
  uint8_t *writableWord(Addr W);
  /// Materializes absent page \p Vpn as an empty sparse page.
  Record &materialize(uint64_t Vpn);
  /// Turns sparse page \p Vpn, held in \p S, into a dense page.
  Page &promote(uint64_t Vpn, Record &S);
  /// Whether \p S stores word \p I of its page.
  static bool stores(const Record &S, size_t I) {
    return S.Mask[I / 64] >> (I % 64) & 1;
  }
  /// Where word \p I sits in S.Words: the number of stored words below it.
  static size_t rankOf(const Record &S, size_t I);

  /// Grows the table and takes spare slabs until \p Records more records
  /// (each also a table entry) and \p Pages more dense pages fit.
  void reserve(size_t Records, size_t Pages);
  /// The next slab page no page or record uses yet, uncleared.
  Page *takeSlabPage();
  Page *allocPage();
  Record *allocRecord();
  void freeRecord(Record *S);
  void grow();

  /// Index range [first, second) of \p D's words that overlap page \p Vpn.
  static std::pair<uint64_t, uint64_t> wordsOn(const Declaration &D,
                                               uint64_t Vpn);
  /// Writes \p D's words that overlap page \p Vpn into \p P.
  static void applyWords(const Declaration &D, uint64_t Vpn, Page &P);
  /// Lays \p D's bytes in [\p A, \p A + 8) over those of \p V.
  static uint64_t overlay(const Declaration &D, Addr A, uint64_t V);
  /// True when one of \p D's words has a byte on page \p Vpn.
  static bool overlaps(const Declaration &D, uint64_t Vpn);
  bool declares(uint64_t Vpn) const;
  /// Writes page \p Vpn's contents into \p P, which reads as zero: every
  /// declaration's words on it in declaration order, then the words \p S
  /// stores when it is not null.
  void fillPage(uint64_t Vpn, const Record *S, Page &P) const;
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
  std::vector<PageRef> Slots;
  size_t NumPages = 0;
  /// One-entry translation cache in front of the table. It may remember
  /// an absent page (a null CachedPage) until a write materializes it,
  /// and a sparse page until a write promotes it; both writes update it.
  /// Pages and records never move (grow() rehashes entries only), so an
  /// entry stays valid until its page changes kind.
  uint64_t CachedKey = 0;
  PageRef CachedPage;
  /// Owned slabs in hand-out order. Current hands out pages, dense or
  /// carved into records; the slabs after it are spare room reserve()
  /// has taken.
  Slab *Slabs = nullptr;
  Slab *LastSlab = nullptr;
  Slab *Current = nullptr;
  size_t SlabUsed = SlabPages; ///< pages Current has handed out
  size_t FreePages = 0; ///< pages the owned slabs have not handed out yet
  /// Records no sparse page holds: those of promoted pages and the rest
  /// of each carved page. Under ASan each is poisoned while it is here.
  Record *FreeRecords = nullptr;
  size_t NumFreeRecords = 0;
  std::vector<Declaration> Decls;
  /// Upper bounds (a page two declarations share counts twice) on the
  /// declared pages that are absent, which still need a record, and on
  /// those that are absent or sparse, which still need a dense page.
  /// reserve() keeps room for both, so a write into one never allocates.
  size_t ReservedRecords = 0;
  size_t ReservedPages = 0;
};

} // namespace trident

#endif // TRIDENT_MEM_DATAMEMORY_H

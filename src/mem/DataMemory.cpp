//===- DataMemory.cpp -----------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "mem/DataMemory.h"

#include "support/Check.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(P, N) ((void)(P), (void)(N))
#define ASAN_UNPOISON_MEMORY_REGION(P, N) ((void)(P), (void)(N))
#endif

using namespace trident;

/// 1 MB of pages plus the link that threads a slab onto its owner's list
/// or the free list. Pages are left uninitialized here and cleared one at
/// a time as they are handed out, or carved into records.
struct DataMemory::Slab {
  Slab *Next = nullptr;
  alignas(Record) Page Pages[SlabPages];
};

/// Process-wide free list of slabs. A destroyed DataMemory returns its
/// slabs here instead of to the allocator, so the next image is built in
/// pages the process has already faulted in, and the footprint only ever
/// refills the high-water mark an earlier memory set. Leaked on purpose:
/// it outlives every DataMemory, including those destroyed at exit.
struct DataMemory::SlabPool {
  std::mutex Mu;
  // trident-analyze: guarded-by(Mu)
  Slab *Free = nullptr;

  static SlabPool &instance() {
    static SlabPool &P = *new SlabPool;
    return P;
  }

  /// Pops a free slab, or allocates one when the list is empty.
  Slab *take() {
    {
      std::lock_guard<std::mutex> L(Mu);
      if (Slab *S = Free) {
        Free = S->Next;
        S->Next = nullptr;
        return S;
      }
    }
    return new Slab;
  }
};

static size_t hashKey(uint64_t Key) {
  Key *= 0x9E3779B97F4A7C15ull; // Fibonacci hashing; VPNs are near-sequential
  return static_cast<size_t>(Key ^ (Key >> 29));
}

DataMemory::DataMemory() {
  Keys.assign(1024, 0);
  Slots.assign(1024, PageRef());
}

DataMemory::~DataMemory() {
  if (!Slabs)
    return;
  // Poisoned while free: a read through a destroyed memory's page reports
  // under ASan instead of reading whatever image recycles the page.
  for (Slab *S = Slabs; S; S = S->Next)
    ASAN_POISON_MEMORY_REGION(S->Pages, sizeof(S->Pages));
  // In hand-out order, spare slabs last: the next memory hands out pages
  // this one faulted in before any it never touched.
  SlabPool &Pool = SlabPool::instance();
  std::lock_guard<std::mutex> L(Pool.Mu);
  LastSlab->Next = Pool.Free;
  Pool.Free = Slabs;
}

size_t DataMemory::slotOf(uint64_t Key) const {
  const size_t Mask = Keys.size() - 1;
  size_t I = hashKey(Key) & Mask;
  while (Keys[I] != 0 && Keys[I] != Key)
    I = (I + 1) & Mask;
  return I;
}

DataMemory::PageRef DataMemory::lookupPage(Addr A) {
  const uint64_t Key = (A >> PageBits) + 1;
  if (Key != CachedKey) {
    CachedKey = Key;
    CachedPage = findPage(Key);
  }
  return CachedPage;
}

void DataMemory::setPage(uint64_t Vpn, PageRef R) {
  const size_t I = slotOf(Vpn + 1);
  Keys[I] = Vpn + 1;
  Slots[I] = R;
  CachedKey = Vpn + 1;
  CachedPage = R;
}

size_t DataMemory::rankOf(const Record &S, size_t I) {
  size_t K = static_cast<size_t>(
      std::popcount(S.Mask[I / 64] & ((uint64_t(1) << (I % 64)) - 1)));
  for (size_t M = 0; M < I / 64; ++M)
    K += static_cast<size_t>(std::popcount(S.Mask[M]));
  return K;
}

/// Calls \p F(I, Word) for each word I that \p S stores, in word order.
template <typename RecordT, typename Fn>
static void forEachStored(RecordT &S, Fn F) {
  size_t K = 0;
  for (size_t M = 0; M < std::size(S.Mask); ++M)
    for (uint64_t Bits = S.Mask[M]; Bits != 0; Bits &= Bits - 1)
      F(64 * M + static_cast<size_t>(std::countr_zero(Bits)), S.Words[K++]);
}

DataMemory::Record &DataMemory::materialize(uint64_t Vpn) {
  if (declares(Vpn) && ReservedRecords > 0)
    --ReservedRecords;
  reserve(ReservedRecords + 1, ReservedPages); // a no-op for a declared page
  Record *S = allocRecord();
  ++NumPages;
  setPage(Vpn, PageRef(S));
  return *S;
}

DataMemory::Page &DataMemory::promote(uint64_t Vpn, Record &S) {
  if (declares(Vpn) && ReservedPages > 0)
    --ReservedPages;
  reserve(ReservedRecords, ReservedPages + 1); // a no-op for a declared page
  Page *P = allocPage();
  fillPage(Vpn, &S, *P);
  freeRecord(&S);
  setPage(Vpn, PageRef(P));
  return *P;
}

uint8_t *DataMemory::writableWord(Addr W) {
  const size_t I = (W & (PageSize - 1)) / 8;
  const PageRef R = lookupPage(W);
  if (Page *P = R.dense())
    return P->data() + 8 * I;
  Record &S = R ? *R.sparse() : materialize(W >> PageBits);
  const size_t K = rankOf(S, I);
  if (!stores(S, I)) {
    size_t N = 0;
    for (uint64_t M : S.Mask)
      N += static_cast<size_t>(std::popcount(M));
    if (N == RecordWords)
      return promote(W >> PageBits, S).data() + 8 * I;
    std::memmove(&S.Words[K + 1], &S.Words[K], (N - K) * sizeof(uint64_t));
    S.Words[K] = readDeclared(W);
    S.Mask[I / 64] |= uint64_t(1) << (I % 64);
  }
  return reinterpret_cast<uint8_t *>(&S.Words[K]);
}

uint64_t DataMemory::readWord(PageRef R, Addr W) const {
  const size_t I = (W & (PageSize - 1)) / 8;
  if (const Page *P = R.dense()) {
    uint64_t V;
    std::memcpy(&V, P->data() + 8 * I, 8);
    return V;
  }
  if (const Record *S = R.sparse(); S && stores(*S, I))
    return S->Words[rankOf(*S, I)];
  return readDeclared(W);
}

uint64_t DataMemory::read64(Addr A) {
  // Fast path: a dense page holds all 8 bytes.
  const size_t Off = A & (PageSize - 1);
  const PageRef R = lookupPage(A);
  if (const Page *P = R.dense(); P && Off + 8 <= PageSize) {
    uint64_t V;
    std::memcpy(&V, P->data() + Off, 8);
    return V;
  }
  const unsigned Shift = 8 * (A & 7);
  if (Shift == 0)
    return readWord(R, A);
  // Unaligned: the two words it touches, each read through its own page.
  // The first word starts on A's page.
  const Addr W = A - (A & 7);
  const uint64_t Low = readWord(R, W) >> Shift;
  return Low | readWord(lookupPage(W + 8), W + 8) << (64 - Shift);
}

void DataMemory::write64(Addr A, uint64_t Value) {
  const unsigned Shift = 8 * (A & 7);
  if (Shift == 0) {
    std::memcpy(writableWord(A), &Value, 8);
    return;
  }
  // Unaligned: each word it touches keeps the bytes the write misses.
  auto merge = [](uint8_t *P, uint64_t Bytes, uint64_t Keep) {
    uint64_t V;
    std::memcpy(&V, P, 8);
    V = (V & Keep) | Bytes;
    std::memcpy(P, &V, 8);
  };
  const Addr W = A - (A & 7);
  merge(writableWord(W), Value << Shift, ~(~uint64_t(0) << Shift));
  merge(writableWord(W + 8), Value >> (64 - Shift),
        ~(~uint64_t(0) >> (64 - Shift)));
}

void DataMemory::reserve(size_t Records, size_t Pages) {
  // Keep the load factor under 3/4 so probe chains stay short.
  while ((NumPages + Records) * 4 > Keys.size() * 3)
    grow();
  const size_t Carved =
      Records > NumFreeRecords
          ? (Records - NumFreeRecords + RecordsPerPage - 1) / RecordsPerPage
          : 0;
  while (FreePages < Pages + Carved) {
    Slab *S = SlabPool::instance().take();
    (Slabs ? LastSlab->Next : Slabs) = S;
    LastSlab = S;
    FreePages += SlabPages;
  }
}

DataMemory::Page *DataMemory::takeSlabPage() {
  TRIDENT_DCHECK(FreePages > 0, "reserve() must leave room for every page");
  if (SlabUsed == SlabPages) {
    Current = Current ? Current->Next : Slabs;
    SlabUsed = 0;
  }
  --FreePages;
  Page *P = &Current->Pages[SlabUsed++];
  ASAN_UNPOISON_MEMORY_REGION(P, sizeof(Page));
  return P;
}

DataMemory::Page *DataMemory::allocPage() {
  Page *P = takeSlabPage();
  P->fill(0);
  return P;
}

DataMemory::Record *DataMemory::allocRecord() {
  if (!FreeRecords) {
    // Carve a slab page into records, handed out in address order.
    uint8_t *P = takeSlabPage()->data();
    for (size_t I = RecordsPerPage; I-- > 0;)
      freeRecord(new (P + I * sizeof(Record)) Record);
  }
  Record *S = FreeRecords;
  ASAN_UNPOISON_MEMORY_REGION(S, sizeof(Record));
  std::memcpy(&FreeRecords, S->Words, sizeof(FreeRecords));
  --NumFreeRecords;
  std::memset(S->Mask, 0, sizeof(S->Mask));
  return S;
}

void DataMemory::freeRecord(Record *S) {
  std::memcpy(S->Words, &FreeRecords, sizeof(FreeRecords));
  // Poisoned while free: a read through a stale pointer to the record
  // reports under ASan instead of reading the page that reuses it.
  ASAN_POISON_MEMORY_REGION(S, sizeof(Record));
  FreeRecords = S;
  ++NumFreeRecords;
}

void DataMemory::grow() {
  std::vector<uint64_t> OldKeys(Keys.size() * 2, 0);
  std::vector<PageRef> OldSlots(Slots.size() * 2);
  OldKeys.swap(Keys);
  OldSlots.swap(Slots);
  for (size_t From = 0; From < OldKeys.size(); ++From) {
    if (OldKeys[From] == 0)
      continue;
    size_t I = slotOf(OldKeys[From]);
    Keys[I] = OldKeys[From];
    Slots[I] = OldSlots[From];
  }
}

//===----------------------------------------------------------------------===//
// Declared words
//===----------------------------------------------------------------------===//

std::pair<uint64_t, uint64_t> DataMemory::wordsOn(const Declaration &D,
                                                  uint64_t Vpn) {
  // Word I covers [Base + I*Stride, +8); the page covers [P0, P0+PageSize).
  const Addr P0 = Vpn << PageBits;
  const uint64_t Lo = P0 < D.Base + 8 ? 0 : (P0 - 8 - D.Base) / D.Stride + 1;
  uint64_t Hi = 0;
  if (P0 + PageSize > D.Base) {
    const uint64_t Span = P0 + PageSize - D.Base;
    Hi = std::min(D.Count, Span / D.Stride + (Span % D.Stride != 0));
  }
  return {Lo, Hi};
}

void DataMemory::applyWords(const Declaration &D, uint64_t Vpn, Page &P) {
  const Addr P0 = Vpn << PageBits;
  const auto [Lo, Hi] = wordsOn(D, Vpn);
  for (uint64_t I = Lo; I < Hi; ++I) {
    const Addr W = D.Base + I * D.Stride;
    const uint64_t V = D.Value(I);
    if (W >= P0 && W - P0 + 8 <= PageSize) {
      std::memcpy(P.data() + (W - P0), &V, 8);
      continue;
    }
    // A word straddling the page boundary: keep the bytes on this page.
    for (unsigned B = 0; B < 8; ++B)
      if (W + B - P0 < PageSize)
        P[W + B - P0] = static_cast<uint8_t>(V >> (8 * B));
  }
}

bool DataMemory::overlaps(const Declaration &D, uint64_t Vpn) {
  if (Vpn < D.firstVpn() || Vpn > D.lastVpn())
    return false;
  const auto [Lo, Hi] = wordsOn(D, Vpn);
  return Lo < Hi;
}

bool DataMemory::declares(uint64_t Vpn) const {
  return std::any_of(Decls.begin(), Decls.end(),
                     [Vpn](const Declaration &D) { return overlaps(D, Vpn); });
}

void DataMemory::fillPage(uint64_t Vpn, const Record *S, Page &P) const {
  for (const Declaration &D : Decls)
    if (Vpn >= D.firstVpn() && Vpn <= D.lastVpn())
      applyWords(D, Vpn, P);
  if (S)
    forEachStored(*S, [&P](size_t I, const uint64_t &Word) {
      std::memcpy(P.data() + 8 * I, &Word, 8);
    });
}

uint64_t DataMemory::overlay(const Declaration &D, Addr A, uint64_t V) {
  // Lays word W, whose byte 0 sits at A + Shift (Shift in -7..7), over the
  // bytes of V it covers. Stride >= 8 leaves at most two such words.
  auto place = [](uint64_t Into, uint64_t W, int Shift) {
    const uint64_t Mask = Shift >= 0 ? ~uint64_t(0) << (8 * Shift)
                                     : ~uint64_t(0) >> (-8 * Shift);
    const uint64_t Bytes = Shift >= 0 ? W << (8 * Shift) : W >> (-8 * Shift);
    return (Into & ~Mask) | (Bytes & Mask);
  };
  const uint64_t Off = A - D.Base;
  if (Off >= D.End - D.Base) {
    // A lies outside the words; word 0 may still start in [A, A + 8).
    if (D.Base - A < 8)
      V = place(V, D.Value(0), static_cast<int>(D.Base - A));
    return V;
  }
  const uint64_t I = Off / D.Stride;
  const uint64_t R = Off % D.Stride;
  if (R == 0)
    return D.Value(I);
  if (R < 8)
    V = place(V, D.Value(I), -static_cast<int>(R));
  if (D.Stride - R < 8 && I + 1 < D.Count)
    V = place(V, D.Value(I + 1), static_cast<int>(D.Stride - R));
  return V;
}

uint64_t DataMemory::readDeclared(Addr A) const {
  uint64_t V = 0;
  for (const Declaration &D : Decls)
    V = overlay(D, A, V);
  return V;
}

void DataMemory::declareWords(Addr Base, uint64_t Count, uint64_t Stride,
                              std::function<uint64_t(uint64_t)> Value) {
  TRIDENT_CHECK(Stride >= 8, "declared words overlap: stride %llu",
                static_cast<unsigned long long>(Stride));
  if (Count == 0)
    return;
  // The last word must end below the top page, so page arithmetic on the
  // declaration never wraps.
  const uint64_t Limit = UINT64_MAX - PageSize - 8;
  TRIDENT_CHECK(Base <= Limit && (Count - 1) <= (Limit - Base) / Stride,
                "declared words run past the address space");
  Declaration D{Base, Base + (Count - 1) * Stride + 8, Count, Stride,
                std::move(Value)};
  size_t Absent = 0, Sparse = 0;
  for (uint64_t Vpn = D.firstVpn(); Vpn <= D.lastVpn(); ++Vpn) {
    if (!overlaps(D, Vpn))
      continue;
    const PageRef R = findPage(Vpn + 1);
    if (Page *P = R.dense()) {
      applyWords(D, Vpn, *P);
    } else if (Record *S = R.sparse()) {
      // The words S stores take the declaration's bytes, as a dense page
      // would; the others read through it.
      const Addr P0 = Vpn << PageBits;
      forEachStored(*S, [&](size_t I, uint64_t &Word) {
        Word = overlay(D, P0 + 8 * I, Word);
      });
      ++Sparse;
    } else {
      ++Absent;
    }
  }
  Decls.push_back(std::move(D));
  ReservedRecords += Absent;
  ReservedPages += Absent + Sparse;
  reserve(ReservedRecords, ReservedPages);
}

uint64_t DataMemory::contentHash() const {
  std::vector<uint64_t> Vpns;
  Vpns.reserve(NumPages);
  for (uint64_t Key : Keys)
    if (Key != 0)
      Vpns.push_back(Key - 1);
  for (const Declaration &D : Decls)
    for (uint64_t Vpn = D.firstVpn(); Vpn <= D.lastVpn(); ++Vpn)
      if (overlaps(D, Vpn))
        Vpns.push_back(Vpn);
  std::sort(Vpns.begin(), Vpns.end());
  Vpns.erase(std::unique(Vpns.begin(), Vpns.end()), Vpns.end());
  uint64_t H = 0xcbf29ce484222325ull;
  auto fold = [&H](uint8_t B) { H = (H ^ B) * 1099511628211ull; };
  Page Scratch;
  for (uint64_t Vpn : Vpns) {
    const PageRef R = findPage(Vpn + 1);
    const Page *P = R.dense();
    if (!P) {
      Scratch.fill(0);
      fillPage(Vpn, R.sparse(), Scratch);
      P = &Scratch;
    }
    for (int I = 0; I < 8; ++I)
      fold(static_cast<uint8_t>(Vpn >> (8 * I)));
    for (uint8_t B : *P)
      fold(B);
  }
  return H;
}

//===- DataMemory.cpp -----------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "mem/DataMemory.h"

#include "support/Check.h"

#include <algorithm>
#include <cstdint>
#include <mutex>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(P, N) ((void)(P), (void)(N))
#define ASAN_UNPOISON_MEMORY_REGION(P, N) ((void)(P), (void)(N))
#endif

using namespace trident;

/// 1 MB of pages plus the link that threads a slab onto its owner's list
/// or the free list. Pages are left uninitialized here and cleared one at
/// a time as they are handed out.
struct DataMemory::Slab {
  Slab *Next = nullptr;
  Page Pages[SlabPages];
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
  Slots.assign(1024, nullptr);
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

DataMemory::Page *DataMemory::lookupPage(Addr A) {
  const uint64_t Key = (A >> PageBits) + 1;
  if (Key != CachedKey) {
    const size_t I = slotOf(Key);
    CachedKey = Key;
    CachedPage = Keys[I] == Key ? Slots[I] : nullptr;
  }
  return CachedPage;
}

DataMemory::Page &DataMemory::writablePage(Addr A) {
  if (Page *P = lookupPage(A))
    return *P;
  // Materialize: zero-fill, then the declared words, in declaration order.
  const uint64_t Vpn = A >> PageBits;
  const bool Declared = declares(Vpn);
  if (Declared && Reserved > 0)
    --Reserved;
  reserve(Reserved + 1); // a no-op for a declared page
  const size_t I = slotOf(Vpn + 1);
  Page *P = allocPage();
  if (Declared)
    fillDeclared(Vpn, *P);
  Keys[I] = Vpn + 1;
  Slots[I] = P;
  ++NumPages;
  CachedKey = Vpn + 1;
  CachedPage = P;
  return *P;
}

uint64_t DataMemory::read64(Addr A) {
  // Fast path: the access stays within one page.
  size_t Off = A & (PageSize - 1);
  if (Off + 8 <= PageSize) {
    const Page *P = lookupPage(A);
    if (!P)
      return readDeclared(A);
    uint64_t V;
    std::memcpy(&V, P->data() + Off, 8);
    return V;
  }
  // Page-straddling access: the declared bytes, then any existing page's.
  uint64_t V = readDeclared(A);
  for (unsigned I = 0; I < 8; ++I) {
    if (const Page *P = lookupPage(A + I)) {
      const uint64_t B = (*P)[(A + I) & (PageSize - 1)];
      V = (V & ~(uint64_t(0xFF) << (8 * I))) | B << (8 * I);
    }
  }
  return V;
}

void DataMemory::write64(Addr A, uint64_t Value) {
  size_t Off = A & (PageSize - 1);
  if (Off + 8 <= PageSize) {
    std::memcpy(writablePage(A).data() + Off, &Value, 8);
    return;
  }
  for (unsigned I = 0; I < 8; ++I)
    writablePage(A + I)[(A + I) & (PageSize - 1)] =
        static_cast<uint8_t>(Value >> (8 * I));
}

void DataMemory::reserve(size_t Pages) {
  // Keep the load factor under 3/4 so probe chains stay short.
  while ((NumPages + Pages) * 4 > Keys.size() * 3)
    grow();
  while (FreePages < Pages) {
    Slab *S = SlabPool::instance().take();
    (Slabs ? LastSlab->Next : Slabs) = S;
    LastSlab = S;
    FreePages += SlabPages;
  }
}

DataMemory::Page *DataMemory::allocPage() {
  TRIDENT_DCHECK(FreePages > 0, "reserve() must leave room for every page");
  if (SlabUsed == SlabPages) {
    Current = Current ? Current->Next : Slabs;
    SlabUsed = 0;
  }
  --FreePages;
  Page *P = &Current->Pages[SlabUsed++];
  ASAN_UNPOISON_MEMORY_REGION(P, sizeof(Page));
  P->fill(0);
  return P;
}

void DataMemory::grow() {
  std::vector<uint64_t> OldKeys(Keys.size() * 2, 0);
  std::vector<Page *> OldSlots(Slots.size() * 2, nullptr);
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

void DataMemory::fillDeclared(uint64_t Vpn, Page &P) const {
  for (const Declaration &D : Decls)
    if (Vpn >= D.firstVpn() && Vpn <= D.lastVpn())
      applyWords(D, Vpn, P);
}

uint64_t DataMemory::readDeclared(Addr A) const {
  // Lays word W, whose byte 0 sits at A + Shift (Shift in -7..7), over the
  // bytes of V it covers. Stride >= 8 leaves at most two such words.
  auto overlay = [](uint64_t V, uint64_t W, int Shift) {
    const uint64_t Mask = Shift >= 0 ? ~uint64_t(0) << (8 * Shift)
                                     : ~uint64_t(0) >> (-8 * Shift);
    const uint64_t Bytes = Shift >= 0 ? W << (8 * Shift) : W >> (-8 * Shift);
    return (V & ~Mask) | (Bytes & Mask);
  };
  uint64_t V = 0;
  for (const Declaration &D : Decls) {
    const uint64_t Off = A - D.Base;
    if (Off >= D.End - D.Base) {
      // A lies outside the words; word 0 may still start in [A, A + 8).
      if (D.Base - A < 8)
        V = overlay(V, D.Value(0), static_cast<int>(D.Base - A));
      continue;
    }
    const uint64_t I = Off / D.Stride;
    const uint64_t R = Off % D.Stride;
    if (R == 0) {
      V = D.Value(I);
      continue;
    }
    if (R < 8)
      V = overlay(V, D.Value(I), -static_cast<int>(R));
    if (D.Stride - R < 8 && I + 1 < D.Count)
      V = overlay(V, D.Value(I + 1), static_cast<int>(D.Stride - R));
  }
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
  size_t Absent = 0;
  for (uint64_t Vpn = D.firstVpn(); Vpn <= D.lastVpn(); ++Vpn) {
    if (!overlaps(D, Vpn))
      continue;
    if (Page *P = findPage(Vpn + 1))
      applyWords(D, Vpn, *P);
    else
      ++Absent;
  }
  Decls.push_back(std::move(D));
  Reserved += Absent;
  reserve(Reserved);
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
    const Page *P = findPage(Vpn + 1);
    if (!P) {
      Scratch.fill(0);
      fillDeclared(Vpn, Scratch);
      P = &Scratch;
    }
    for (int I = 0; I < 8; ++I)
      fold(static_cast<uint8_t>(Vpn >> (8 * I)));
    for (uint8_t B : *P)
      fold(B);
  }
  return H;
}

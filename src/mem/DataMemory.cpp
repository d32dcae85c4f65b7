//===- DataMemory.cpp -----------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "mem/DataMemory.h"

#include <algorithm>
#include <mutex>
#include <utility>

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
  Slab *Last = Slabs;
  for (Slab *S = Slabs; S; S = S->Next) {
    ASAN_POISON_MEMORY_REGION(S->Pages, sizeof(S->Pages));
    Last = S;
  }
  SlabPool &Pool = SlabPool::instance();
  std::lock_guard<std::mutex> L(Pool.Mu);
  Last->Next = Pool.Free;
  Pool.Free = Slabs;
}

const DataMemory::Page *DataMemory::findPage(Addr A) const {
  const uint64_t Key = (A >> PageBits) + 1;
  if (Key == CachedKey)
    return CachedPage;
  const size_t Mask = Keys.size() - 1;
  for (size_t I = hashKey(Key) & Mask;; I = (I + 1) & Mask) {
    if (Keys[I] == Key) {
      CachedKey = Key;
      CachedPage = Slots[I];
      return CachedPage;
    }
    if (Keys[I] == 0)
      return nullptr;
  }
}

uint64_t DataMemory::read64(Addr A) const {
  // Fast path: the access stays within one page.
  size_t Off = A & (PageSize - 1);
  if (Off + 8 <= PageSize) {
    const Page *P = findPage(A);
    if (!P)
      return 0;
    uint64_t V;
    std::memcpy(&V, P->data() + Off, 8);
    return V;
  }
  // Page-straddling access: assemble byte by byte.
  uint64_t V = 0;
  for (unsigned I = 0; I < 8; ++I) {
    const Page *P = findPage(A + I);
    uint8_t B = P ? (*P)[(A + I) & (PageSize - 1)] : 0;
    V |= static_cast<uint64_t>(B) << (8 * I);
  }
  return V;
}

void DataMemory::write64(Addr A, uint64_t Value) {
  size_t Off = A & (PageSize - 1);
  if (Off + 8 <= PageSize) {
    Page &P = getOrCreatePage(A);
    std::memcpy(P.data() + Off, &Value, 8);
    return;
  }
  for (unsigned I = 0; I < 8; ++I) {
    Page &P = getOrCreatePage(A + I);
    P[(A + I) & (PageSize - 1)] = static_cast<uint8_t>(Value >> (8 * I));
  }
}

DataMemory::Page *DataMemory::allocPage() {
  if (SlabUsed == SlabPages) {
    SlabPool &Pool = SlabPool::instance();
    Slab *S = nullptr;
    {
      std::lock_guard<std::mutex> L(Pool.Mu);
      S = Pool.Free;
      if (S)
        Pool.Free = S->Next;
    }
    if (!S)
      S = new Slab;
    S->Next = Slabs;
    Slabs = S;
    SlabUsed = 0;
  }
  Page *P = &Slabs->Pages[SlabUsed++];
  ASAN_UNPOISON_MEMORY_REGION(P, sizeof(Page));
  P->fill(0);
  return P;
}

void DataMemory::grow() {
  std::vector<uint64_t> OldKeys(Keys.size() * 2, 0);
  std::vector<Page *> OldSlots(Slots.size() * 2, nullptr);
  OldKeys.swap(Keys);
  OldSlots.swap(Slots);
  const size_t Mask = Keys.size() - 1;
  for (size_t From = 0; From < OldKeys.size(); ++From) {
    if (OldKeys[From] == 0)
      continue;
    size_t I = hashKey(OldKeys[From]) & Mask;
    while (Keys[I] != 0)
      I = (I + 1) & Mask;
    Keys[I] = OldKeys[From];
    Slots[I] = OldSlots[From];
  }
}

DataMemory::Page &DataMemory::getOrCreatePage(Addr A) {
  const uint64_t Key = (A >> PageBits) + 1;
  if (Key == CachedKey)
    return *CachedPage;
  size_t Mask = Keys.size() - 1;
  size_t I = hashKey(Key) & Mask;
  while (Keys[I] != 0) {
    if (Keys[I] == Key) {
      CachedKey = Key;
      CachedPage = Slots[I];
      return *CachedPage;
    }
    I = (I + 1) & Mask;
  }
  // Keep the load factor under 3/4 so probe chains stay short.
  if ((NumPages + 1) * 4 > Keys.size() * 3) {
    grow();
    Mask = Keys.size() - 1;
    I = hashKey(Key) & Mask;
    while (Keys[I] != 0)
      I = (I + 1) & Mask;
  }
  Page *P = allocPage();
  Keys[I] = Key;
  Slots[I] = P;
  ++NumPages;
  CachedKey = Key;
  CachedPage = P;
  return *P;
}

uint64_t DataMemory::contentHash() const {
  std::vector<std::pair<uint64_t, const Page *>> ByVpn;
  ByVpn.reserve(NumPages);
  for (size_t I = 0; I < Keys.size(); ++I)
    if (Keys[I] != 0)
      ByVpn.emplace_back(Keys[I] - 1, Slots[I]);
  std::sort(ByVpn.begin(), ByVpn.end());
  uint64_t H = 0xcbf29ce484222325ull;
  auto fold = [&H](uint8_t B) { H = (H ^ B) * 1099511628211ull; };
  for (const auto &[Vpn, P] : ByVpn) {
    for (int I = 0; I < 8; ++I)
      fold(static_cast<uint8_t>(Vpn >> (8 * I)));
    for (uint8_t B : *P)
      fold(B);
  }
  return H;
}

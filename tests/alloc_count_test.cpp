//===- alloc_count_test.cpp - Heap-allocation regression harness -----------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
// The zero-alloc cycle-loop contract: once the machine is warmed up, the
// pure-hardware simulation path (SmtCore::run + MemorySystem + hardware
// prefetcher + branch predictor) performs ZERO heap allocations per simulated
// cycle inside the measurement window. Every hardware structure is a
// fixed-capacity table reserved at construction; steady-state simulation
// is pointer arithmetic over those tables.
//
// With the Trident runtime attached the optimizer itself may allocate
// (trace bodies, prefetch plans, code-cache installs) — that is software,
// not hardware — but those allocations must be *bounded by optimizer
// activity*, never per-cycle or per-instruction.
//
// The harness overrides global operator new/delete in this translation
// unit (which covers the whole test binary) and counts allocations only
// between enable()/disable() around the measured run.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

//===----------------------------------------------------------------------===//
// Counting global allocator
//===----------------------------------------------------------------------===//

namespace {
std::atomic<bool> GCounting{false};
std::atomic<uint64_t> GAllocs{0};

void *countedAlloc(std::size_t N) {
  if (GCounting.load(std::memory_order_relaxed))
    GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t N) { return countedAlloc(N); }
void *operator new[](std::size_t N) { return countedAlloc(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  if (GCounting.load(std::memory_order_relaxed))
    GAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  if (GCounting.load(std::memory_order_relaxed))
    GAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace trident;

namespace {

template <typename Fn> uint64_t countedAllocs(Fn &&Body) {
  GAllocs.store(0, std::memory_order_relaxed);
  GCounting.store(true, std::memory_order_relaxed);
  Body();
  GCounting.store(false, std::memory_order_relaxed);
  return GAllocs.load(std::memory_order_relaxed);
}

/// Runs the warmed-up machine runSimulation builds for \p Instructions,
/// counting allocations in exactly that core().run and nothing else
/// (result assembly allocates by design).
uint64_t countedRun(Machine &M, uint64_t Instructions) {
  return countedAllocs([&] { M.core().run(Instructions); });
}

} // namespace

//===----------------------------------------------------------------------===//
// Hardware baseline: zero allocations per cycle in steady state
//===----------------------------------------------------------------------===//

TEST(AllocCount, HardwareBaselineSteadyStateIsAllocFree) {
  // Warmup long enough that the working set's pages, the prefetcher's
  // tables and buffers, and the ROB heap all reach their steady-state
  // footprint.
  auto Check = [](const char *Name, const char *HwPf) {
    const Workload W = makeWorkload(Name);
    SimConfig C = SimConfig::hwBaseline();
    C.WarmupInstructions = 150'000;
    C.HwPf = HwPf;
    Machine M(W, C);
    M.warmup();
    uint64_t Allocs = countedRun(M, 40'000);
    EXPECT_EQ(Allocs, 0u)
        << Name << " under " << HwPf
        << ": the pure-hardware measurement window heap-allocated " << Allocs
        << " time(s); the cycle loop must be allocation-free";
  };
  // A memory-bound and a compute-bound workload cover both ends of the
  // hardware path (stream-buffer churn vs issue-limited ALU work). swim
  // writes whole pages; vis writes a few words a page into a declared
  // image, and fma3d into memory nothing declared, so their pages stay
  // sparse.
  for (const char *Name : {"mcf", "dot", "equake", "swim", "vis", "fma3d"})
    Check(Name, "sb8x8");
  // Every other arsenal unit sizes its tables and prefetch buffer at
  // construction too.
  for (const char *HwPf : {"enhanced-stream", "dcpt", "tskid", "sb4x4"})
    Check("mcf", HwPf);
}

TEST(AllocCount, RecycledSlabHandoutIsAllocFree) {
  // A destroyed memory's slabs go back to the process-wide free list, and
  // a later memory materializing pages from them must not allocate. 700
  // pages, each written with 64 words so that it turns dense, span three
  // slabs and stay under the table's first growth point.
  constexpr unsigned Pages = 700;
  constexpr unsigned Words = 64;
  {
    DataMemory Old;
    for (unsigned P = 0; P < Pages; ++P)
      for (unsigned W = 0; W < Words; ++W)
        Old.write64(P * DataMemory::PageSize + 8 * W, 1);
  }
  DataMemory M;
  uint64_t Allocs = countedAllocs([&] {
    for (unsigned P = 0; P < Pages; ++P)
      for (unsigned W = 0; W < Words; ++W)
        M.write64(0x4000'0000 + P * DataMemory::PageSize + 8 * W, 1);
  });
  EXPECT_EQ(M.numPages(), Pages);
  EXPECT_EQ(Allocs, 0u)
      << "materializing pages from recycled slabs heap-allocated";
}

TEST(AllocCount, DeclaredPagesMaterializeAllocFree) {
  // declareWords reserves table capacity and slab room for every page its
  // words can touch, a record and a dense page each, so neither the write
  // that materializes one inside a measurement window nor the write that
  // turns it dense allocates; a read materializes nothing.
  // 1,000 dense pages and the 125 slab pages their records take span five
  // slabs, and the pages pass the table's first growth point (768).
  constexpr unsigned Pages = 1000;
  constexpr Addr Base = 0x8000'0000;
  constexpr uint64_t WordsPerPage = DataMemory::PageSize / 8;
  DataMemory M;
  M.declareWords(Base, Pages * WordsPerPage, 8, [](uint64_t I) { return I; });
  uint64_t Sum = 0;
  uint64_t ReadAllocs = countedAllocs([&] {
    for (unsigned P = 0; P < Pages; ++P)
      Sum += M.read64(Base + P * DataMemory::PageSize);
  });
  EXPECT_EQ(M.numPages(), 0u) << "reading declared pages materialized them";
  EXPECT_EQ(ReadAllocs, 0u) << "reading declared pages heap-allocated";
  uint64_t Written = 0;
  uint64_t Allocs = countedAllocs([&] {
    for (unsigned P = 0; P < Pages; ++P) {
      const Addr A = Base + P * DataMemory::PageSize;
      M.write64(A + 8, M.read64(A + 8)); // a write-back materializes
      Written += M.read64(A);
    }
  });
  EXPECT_EQ(M.numPages(), Pages);
  EXPECT_EQ(Sum, WordsPerPage * Pages * (Pages - 1) / 2);
  EXPECT_EQ(Written, Sum);
  EXPECT_EQ(Allocs, 0u) << "materializing declared pages heap-allocated";
  // Writing every word turns each of those sparse pages dense, from room
  // the declaration reserved too.
  uint64_t DenseAllocs = countedAllocs([&] {
    for (unsigned P = 0; P < Pages; ++P)
      for (uint64_t W = 0; W < WordsPerPage; ++W)
        M.write64(Base + P * DataMemory::PageSize + 8 * W, ~W);
  });
  EXPECT_EQ(M.numPages(), Pages);
  EXPECT_EQ(DenseAllocs, 0u) << "promoting declared pages heap-allocated";
  uint64_t Wrong = 0;
  for (unsigned P = 0; P < Pages; ++P)
    for (uint64_t W = 0; W < WordsPerPage; ++W)
      Wrong += M.read64(Base + P * DataMemory::PageSize + 8 * W) != ~W;
  EXPECT_EQ(Wrong, 0u);
}

//===----------------------------------------------------------------------===//
// Trident attached: allocations bounded by optimizer activity
//===----------------------------------------------------------------------===//

TEST(AllocCount, TridentAllocationsScaleWithOptimizerEventsNotCycles) {
  const Workload W = makeWorkload("mcf");
  SimConfig C = SimConfig::withMode(PrefetchMode::SelfRepairing);
  C.WarmupInstructions = 100'000;
  Machine M(W, C);
  M.warmup();
  uint64_t Allocs = countedRun(M, 40'000);

  // Everything the optimizer did in the window, at event granularity.
  const EventBus &Bus = M.bus();
  uint64_t Activity = Bus.published(EventKind::HotTrace) +
                      Bus.published(EventKind::DelinquentLoad) +
                      Bus.published(EventKind::HelperDone) +
                      Bus.published(EventKind::TraceEntry) +
                      Bus.published(EventKind::TraceExit);
  // Generous per-event constant (a trace formation allocates a body, a
  // plan, emission bookkeeping...), but strictly event-proportional: a
  // per-cycle or per-instruction leak blows through this immediately
  // (40k instructions >> 512 * optimizer events on this budget).
  uint64_t Bound = 512 * (Activity + 1);
  EXPECT_LE(Allocs, Bound)
      << "optimizer-side allocations (" << Allocs
      << ") exceed the activity-proportional budget (" << Bound << " for "
      << Activity << " optimizer events)";

  uint64_t Commits = M.core().stats(0).CommittedOriginal;
  EXPECT_LT(Allocs, Commits / 4)
      << "allocation count looks per-instruction, not per-optimizer-event";
}

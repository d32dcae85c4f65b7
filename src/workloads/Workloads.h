//===- Workloads.h - The 14 synthetic benchmark programs -------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic stand-ins for the paper's 14 evaluated benchmarks (SPEC 2000
/// subset + pointer-intensive applications). We cannot run the original
/// Alpha binaries, so each program here is engineered to the memory
/// behaviour the paper attributes to its namesake — stride streams,
/// pointer chases over sequentially or randomly allocated nodes,
/// multi-field object walks, low-trace-coverage irregular code — with
/// working sets that exceed the 4MB L3. See DESIGN.md §6 for the map.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_WORKLOADS_WORKLOADS_H
#define TRIDENT_WORKLOADS_WORKLOADS_H

#include "isa/Program.h"
#include "mem/DataMemory.h"

#include <functional>
#include <string>
#include <vector>

namespace trident {

struct Workload {
  std::string Name;
  std::string Description;
  Program Prog;
  /// Initializes data memory (linked lists, pointer arrays, ...).
  std::function<void(DataMemory &)> Init;
  /// FNV-1a over the program's entry PC and every instruction's packed
  /// encoding — a stable identity for generated programs. Filled by every
  /// registration path (named, spec-based, and fuzzed builders all share
  /// finalizeWorkload), but only exported into the stat registry for fuzz
  /// scenarios, so the solo golden corpus is byte-identical to older
  /// builds.
  uint64_t ProgramHash = 0;
};

/// FNV-1a hash of a program image (entry PC + packed instruction words).
uint64_t programHash(const Program &P);

/// Names of all 14 benchmarks, in the paper's order.
const std::vector<std::string> &workloadNames();

/// Builds the named workload: one of the 14 benchmarks, or a fuzz spec
/// ("fuzz@SEED[:knob=v,...]" — see workloads/fuzz/FuzzGenerator.h). All
/// drivers, benches, and the mix scheduler resolve workloads through this
/// single entry point, so fuzz scenarios inherit stats, memoization, and
/// fingerprint coverage for free. Asserts on unknown names.
Workload makeWorkload(const std::string &Name);

/// Builds every named workload (the fixed 14; fuzz scenarios are an
/// unbounded family and are built by spec).
std::vector<Workload> makeAllWorkloads();

// Reusable generators, exposed for tests and custom examples. -----------

/// Builds a circular singly linked list of \p NumNodes nodes of
/// \p NodeSize bytes starting at \p Base. The link pointer lives at
/// \p LinkOffset within the node. When \p Shuffled, the traversal order is
/// a random permutation (destroying the allocation-order stride);
/// otherwise nodes link in address order (so the chasing load is
/// stride-predictable, as the paper observes for regularly allocated
/// structures). Returns the head of the traversal, which is always \p Base:
/// a shuffled order is rotated so node 0 leads. The links are declared
/// (DataMemory::declareWords), so reads see them in place and a page
/// materializes only when written; a shuffled list declares them through
/// a successor table of 4 bytes per node.
Addr buildLinkedList(DataMemory &Mem, Addr Base, uint64_t NumNodes,
                     unsigned NodeSize, unsigned LinkOffset, bool Shuffled,
                     uint64_t Seed = 1);

/// Like buildLinkedList, but shuffles *runs* of \p RunLength nodes: links
/// are sequential within a run and jump randomly between runs — the
/// allocation pattern of a heap after some churn. The chasing load stays
/// mostly stride-predictable while the hardware prefetcher loses its
/// stream at every run boundary. The links are declared.
Addr buildRunShuffledList(DataMemory &Mem, Addr Base, uint64_t NumNodes,
                          unsigned NodeSize, unsigned LinkOffset,
                          unsigned RunLength, uint64_t Seed = 1);

/// Declares ptr[0..Count) at \p ArrayBase as pointers Target + i*Stride
/// (an equake-style indirection array over regularly allocated data).
void buildPointerArray(DataMemory &Mem, Addr ArrayBase, uint64_t Count,
                       Addr Target, uint64_t Stride);

// Parameterized whole-workload generators: build your own benchmark from
// the same building blocks the 14 named ones use. ----------------------

/// A loop of \p NumStreams concurrent strided scans.
struct StrideLoopSpec {
  unsigned NumStreams = 4;
  int64_t Stride = 64;
  /// Dependent FP operations per iteration (lengthens the iteration).
  unsigned ComputeChain = 4;
  /// Base address of stream 0; streams are placed 64MB apart, staggered
  /// across cache sets.
  Addr Base = 0x1000'0000;
  /// Include a store stream (write-allocate traffic).
  bool StoreStream = false;
};
Workload makeStrideLoopWorkload(const StrideLoopSpec &Spec,
                                const std::string &Name = "stride-loop");

/// A pointer chase over a circular list, with optional field loads.
struct PointerChaseSpec {
  uint64_t NumNodes = 1 << 16;
  unsigned NodeSize = 128;
  /// Offsets (within the node) of additional field loads; offsets past
  /// the first cache line create same-object prefetch opportunities.
  std::vector<int64_t> FieldOffsets = {8, 72};
  /// Layout: Sequential (DLT-stride-predictable), RunShuffled (runs of
  /// RunLength sequential nodes), or Shuffled (fully random).
  enum class Layout { Sequential, RunShuffled, Shuffled } NodeLayout =
      Layout::RunShuffled;
  unsigned RunLength = 32;
  Addr Base = 0x1000'0000;
  uint64_t Seed = 1;
};
Workload makePointerChaseWorkload(const PointerChaseSpec &Spec,
                                  const std::string &Name = "chase");

/// An indexed gather: ld p, (idx); ld x, off(p) over a pointer array.
struct GatherSpec {
  uint64_t Entries = 1 << 21;
  /// Stride between the pointed-to objects (regular allocation).
  uint64_t TargetStride = 64;
  /// Field offsets dereferenced off each gathered pointer.
  std::vector<int64_t> FieldOffsets = {0, 8};
  Addr ArrayBase = 0x1000'0000;
  Addr TargetBase = 0x2000'0000;
};
Workload makeGatherWorkload(const GatherSpec &Spec,
                            const std::string &Name = "gather");

} // namespace trident

#endif // TRIDENT_WORKLOADS_WORKLOADS_H

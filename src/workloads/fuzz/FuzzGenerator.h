//===- FuzzGenerator.h - Seeded generative workload fuzzer -----*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded generative workload fuzzer: from one 64-bit seed (plus a small
/// knob vector) it emits a multi-phase program built from the same memory
/// idioms the 14 hand-written benchmarks use — strided scans, pointer
/// chases, indexed gathers, same-object walks, and unclassifiable random
/// probes — with controllable working-set size, stride entropy, branch mix,
/// and phase-change schedule.
///
/// Determinism is the load-bearing contract: every draw comes from one
/// SplitMix64 seeded by (Seed, knobs), there is no global RNG state, and the
/// canonical workload name encodes the seed and every non-default knob.
/// The ExperimentRunner memo cache keys on (workload name, config
/// fingerprint), so two fuzz scenarios share a cache entry exactly when they
/// are the same program — which the name guarantees.
///
/// Spec grammar (the `trident_sim --fuzz` argument and the makeWorkload
/// name after the "fuzz@" prefix) is support/Spec.h's, headed by the seed:
/// `SEED[:knob=value,...]`, with the knobs FuzzKnobs::knobs() lists.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_WORKLOADS_FUZZ_FUZZGENERATOR_H
#define TRIDENT_WORKLOADS_FUZZ_FUZZGENERATOR_H

#include "support/Spec.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <string>

namespace trident {

/// Generation knobs. Defaults are mid-range; knobs() holds each knob's
/// spec name and range, which parseFuzzSpec checks, and a knob that
/// differs from its default is folded into the canonical workload name.
struct FuzzKnobs {
  /// Working set per phase segment, KB; capped so a segment's data fits
  /// its 256MB region.
  uint64_t WsetKB = 8192;
  /// Number of phase segments the program cycles through.
  unsigned Segments = 3;
  /// Stride-entropy permille (0 = only regular strides and layouts,
  /// 1000 = always irregular).
  unsigned EntropyPermille = 300;
  /// Branch-mix permille: chance a segment body carries a data-dependent
  /// branch.
  unsigned BranchPermille = 250;
  /// Iterations per segment visit before the phase change; per-segment
  /// footprint caps may lower it further.
  uint64_t PhaseIters = 2000;
  /// Maximum concurrent stride streams in a scan segment.
  unsigned Streams = 6;

  /// The spec vocabulary, in canonical-name order.
  static constexpr auto knobs() {
    using K = FuzzKnobs;
    return std::tuple(Knob{"wset", &K::WsetKB, 64, 131072},
                      Knob{"segs", &K::Segments, 1, 8},
                      Knob{"entropy", &K::EntropyPermille, 0, 1000},
                      Knob{"branch", &K::BranchPermille, 0, 1000},
                      Knob{"phase", &K::PhaseIters, 64, 1'000'000},
                      Knob{"streams", &K::Streams, 1, 10});
  }

  bool operator==(const FuzzKnobs &) const = default;
};

/// True when \p Name is a fuzz workload spec ("fuzz@..." prefix).
bool isFuzzSpec(const std::string &Name);

/// Parses spec \p Text ("SEED[:knob=v,...]", with or without the "fuzz@"
/// prefix) through Spec::parse. Rejects non-numeric seeds, unknown or
/// duplicate knobs, and out-of-range values with a message in \p Error.
/// \p Knobs starts from defaults; only listed knobs are overwritten.
bool parseFuzzSpec(const std::string &Text, uint64_t &Seed, FuzzKnobs &Knobs,
                   std::string *Error);

/// The canonical workload name: "fuzz@SEED" plus each non-default knob in
/// fixed order. Two (Seed, Knobs) pairs map to the same name iff they
/// generate the same workload, so the memo cache's trust in names holds.
std::string fuzzWorkloadName(uint64_t Seed, const FuzzKnobs &Knobs);

/// Generates the fuzz workload for (Seed, Knobs). Deterministic: the same
/// arguments produce a bit-identical program, data image, and ProgramHash.
Workload makeFuzzWorkload(uint64_t Seed, const FuzzKnobs &Knobs = FuzzKnobs());

/// Resolves a full fuzz name ("fuzz@SEED[:...]"); asserts on parse errors
/// (drivers validate first with parseFuzzSpec). Used by makeWorkload so
/// every driver that resolves workloads by name gets fuzz scenarios for
/// free.
Workload makeFuzzWorkloadFromSpec(const std::string &Name);

} // namespace trident

#endif // TRIDENT_WORKLOADS_FUZZ_FUZZGENERATOR_H

//===- Random.h - Deterministic pseudo-random numbers ----------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, deterministic RNG (SplitMix64) used by workload generators
/// so experiments are exactly reproducible across runs and machines.
///
/// Thread-safety: there is deliberately no global RNG state anywhere in the
/// simulator — every generator seeds its own SplitMix64 instance, so
/// concurrent simulations (see sim/ExperimentRunner.h) never share or race
/// on random state. Keep it that way: construct an instance where you need
/// one instead of adding a shared generator.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SUPPORT_RANDOM_H
#define TRIDENT_SUPPORT_RANDOM_H

#include "support/Check.h"

#include <cstddef>
#include <cstdint>
#include <utility>

namespace trident {

/// SplitMix64: tiny, statistically solid, and deterministic by construction.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed = 0x9e3779b97f4a7c15ull) : State(Seed) {}

  /// Returns the next 64 pseudo-random bits.
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }

  /// Returns a uniform value in [0, Bound). \p Bound must be nonzero.
  uint64_t nextBelow(uint64_t Bound) {
    TRIDENT_DCHECK(Bound != 0, "nextBelow requires a nonzero bound");
    // Multiply-shift trick; bias is negligible for our bounds.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * Bound) >> 64);
  }

private:
  uint64_t State;
};

/// Fisher-Yates shuffle over an indexable container.
template <typename Container>
void shuffle(Container &C, SplitMix64 &Rng) {
  for (size_t I = C.size(); I > 1; --I) {
    size_t J = Rng.nextBelow(I);
    using std::swap;
    swap(C[I - 1], C[J]);
  }
}

} // namespace trident

#endif // TRIDENT_SUPPORT_RANDOM_H

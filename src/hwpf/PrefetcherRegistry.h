//===- PrefetcherRegistry.h - Name -> prefetcher factory -------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arsenal registry: every hardware prefetcher the simulator ships is
/// registered here by name with a factory and a knob parser, so the sim
/// layer, the CLI (`trident_sim --hwpf <spec>`), and the benches resolve
/// prefetchers from one string instead of hardcoding types. A spec is
///
///     name                      e.g.  "sb8x8", "dcpt", "none"
///     name:knob=value,...       e.g.  "dcpt:entries=64,degree=2"
///
/// with decimal knob values. Each unit config lists its knobs once (see
/// Knob); a knob outside the range its unit accepts (each config's
/// invalidReason()) is a spec error, like an unknown knob.
/// "none" (or an empty spec) means no prefetcher and resolves to a null
/// unit, successfully. Built-in entries are registered lazily inside
/// instance(), so there is no static-init ordering to get wrong;
/// phase-aware selectors (ROADMAP) can add their own entries at startup
/// via add().
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_HWPF_PREFETCHERREGISTRY_H
#define TRIDENT_HWPF_PREFETCHERREGISTRY_H

#include "mem/MemorySystem.h"

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace trident {

/// Wiring facts the factory needs from the surrounding machine.
struct PrefetcherEnv {
  /// A TLB is being modeled: prefetchers that can should stop streams at
  /// page boundaries.
  bool PageBounded = false;
  unsigned PageBits = 12;
};

/// A parsed `name[:knob=value,...]` spec.
struct PrefetcherSpec {
  std::string Name;
  std::vector<std::pair<std::string, uint64_t>> Knobs;

  /// Parses \p Spec; on failure returns false and sets \p Error.
  static bool parse(const std::string &Spec, PrefetcherSpec &Out,
                    std::string *Error);

  /// Value of \p Knob when given, else \p Default.
  uint64_t knobOr(const std::string &Knob, uint64_t Default) const;
};

/// One knob of an arsenal unit's config: its spec name, the member it
/// sets and the range the unit accepts. Each unit config lists its knobs
/// once, as `static constexpr Knob<ConfigT> Knobs[]`; the list is the
/// unit's spec vocabulary, its --hwpf list column and its range check.
template <typename ConfigT> struct Knob {
  const char *Name;
  unsigned ConfigT::*Member;
  unsigned Min = 0;
  unsigned Max = std::numeric_limits<unsigned>::max();
};

/// Why some knob of \p Cfg lies outside its range, naming the first one,
/// or "" when all are in range. \p Unit opens the message.
template <typename ConfigT>
std::string knobRangeReason(const char *Unit, const ConfigT &Cfg) {
  for (const Knob<ConfigT> &K : ConfigT::Knobs) {
    const unsigned V = Cfg.*K.Member;
    if (V < K.Min || V > K.Max)
      return std::string(Unit) + " knob '" + K.Name + "' is " +
             std::to_string(V) + ", outside [" + std::to_string(K.Min) +
             ", " + std::to_string(K.Max) + "]";
  }
  return "";
}

class PrefetcherRegistry {
public:
  using Factory = std::function<std::unique_ptr<HwPrefetcher>(
      const PrefetcherSpec &, const PrefetcherEnv &, std::string *Error)>;

  struct Info {
    std::string Name;
    /// One-line description for --hwpf list.
    std::string Summary;
    /// Human-readable knob list, e.g. "entries, deltas, degree".
    std::string Knobs;
    /// Include in arsenal sweeps (fig9 matrix). Parameterized aliases of
    /// another entry opt out so the matrix has no duplicate rows.
    bool InArsenal = true;
    Factory Make;
  };

  /// The process-wide registry, with the built-in arsenal registered.
  static PrefetcherRegistry &instance();

  /// Registers an entry. Re-registering a name is a programming error
  /// (TRIDENT_CHECK): silent replacement would make spec resolution depend
  /// on registration order.
  void add(Info I);

  /// Registered names, sorted.
  std::vector<std::string> names() const;
  /// Names with InArsenal set, sorted — the fig9 sweep set.
  std::vector<std::string> arsenalNames() const;
  const Info *lookup(const std::string &Name) const;

  /// Resolves \p Spec to a unit. "none"/"" yields nullptr with no error;
  /// an unknown name or bad knob yields nullptr with \p Error set.
  std::unique_ptr<HwPrefetcher> create(const std::string &Spec,
                                       const PrefetcherEnv &Env,
                                       std::string *Error) const;

  /// True when \p Spec names the explicit no-prefetcher configuration.
  static bool isNone(const std::string &Spec) {
    return Spec.empty() || Spec == "none";
  }

private:
  PrefetcherRegistry();

  /// Ordered by name so names() and list output are deterministic.
  std::map<std::string, Info> Entries;
};

} // namespace trident

#endif // TRIDENT_HWPF_PREFETCHERREGISTRY_H

//===- PrefetcherRegistry.h - Name -> prefetcher factory -------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arsenal registry: every hardware prefetcher the simulator ships is
/// registered here by name with a factory, so the sim layer, the CLI
/// (`trident_sim --hwpf <spec>`), and the benches resolve prefetchers from
/// one string instead of hardcoding types. A spec is a support/Spec.h
/// spec headed by the unit name:
///
///     name                      e.g.  "sb8x8", "dcpt", "none"
///     name:knob=value,...       e.g.  "dcpt:entries=64,degree=2"
///
/// Each unit config lists its knobs once (`knobs()`); a knob outside the
/// range its unit accepts (each config's invalidReason()) is a spec error,
/// like an unknown knob. "none" (or an empty spec) means no prefetcher and
/// resolves to a null unit, successfully. The entries are built inside
/// instance(), so there is no static-init ordering to get wrong.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_HWPF_PREFETCHERREGISTRY_H
#define TRIDENT_HWPF_PREFETCHERREGISTRY_H

#include "mem/MemorySystem.h"
#include "support/Spec.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace trident {

/// Wiring facts the factory needs from the surrounding machine.
struct PrefetcherEnv {
  /// A TLB is being modeled: prefetchers that can should stop streams at
  /// page boundaries.
  bool PageBounded = false;
  unsigned PageBits = 12;
};

class PrefetcherRegistry {
public:
  using Factory = std::function<std::unique_ptr<HwPrefetcher>(
      const Spec &, const PrefetcherEnv &, std::string *Error)>;

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

  /// Registered names, sorted.
  std::vector<std::string> names() const;
  /// Names with InArsenal set, sorted — the fig9 sweep set.
  std::vector<std::string> arsenalNames() const;
  const Info *lookup(const std::string &Name) const;

  /// Resolves spec \p Text to a unit. "none"/"" yields nullptr with no
  /// error; an unknown name or bad knob yields nullptr with \p Error set.
  std::unique_ptr<HwPrefetcher> create(const std::string &Text,
                                       const PrefetcherEnv &Env,
                                       std::string *Error) const;

  /// True when spec \p Text names the explicit no-prefetcher configuration.
  static bool isNone(const std::string &Text) {
    return Text.empty() || Text == "none";
  }

private:
  PrefetcherRegistry();

  /// Ordered by name so names() and list output are deterministic.
  std::map<std::string, Info> Entries;
};

} // namespace trident

#endif // TRIDENT_HWPF_PREFETCHERREGISTRY_H

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
/// with integer-valued knobs. A knob outside the range its unit accepts
/// (each config's invalidReason()) is a spec error, like an unknown knob.
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
#include <initializer_list>
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

  /// Verifies every provided knob is one of \p Allowed (comma-separated);
  /// on failure returns false and sets \p Error.
  bool checkKnobs(std::initializer_list<const char *> Allowed,
                  std::string *Error) const;
};

/// One size knob of a unit config: its spec name, its value, and the
/// smallest value the unit accepts.
struct SizeKnob {
  const char *Name;
  unsigned Value;
  unsigned Min;
};

/// Why some knob of prefetcher \p Unit lies outside [Min, \p Max], naming
/// the first one, or "" when all of \p Knobs are in range. Shared by the
/// unit configs' invalidReason().
std::string sizeKnobsReason(const char *Unit,
                            std::initializer_list<SizeKnob> Knobs,
                            unsigned Max);

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

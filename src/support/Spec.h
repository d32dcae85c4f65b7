//===- Spec.h - One `head[:knob=value,...]` grammar -------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every configurable unit is named in one grammar, `head[:knob=value,...]`:
/// a prefetcher (`--hwpf dcpt:entries=64`), a selector policy (`--selector
/// bandit:seed=7`) or a fuzz seed (`fuzz@7:wset=256`). Spec::parse splits
/// the text and reads the values; each consumer looks its head up and words
/// its own unknown-knob error.
///
/// A config lists its knobs once, as `static constexpr auto knobs()`
/// returning a tuple of Knob rows (the shape of fields() in
/// support/Fields.h; a tuple, because knobs set unsigned, uint64_t and bool
/// members). The list gives the config's vocabulary (knobNames), sets a
/// member from a spec value (setKnob) and checks a whole config
/// (knobRangeReason), so a value out of range reads the same everywhere.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SUPPORT_SPEC_H
#define TRIDENT_SUPPORT_SPEC_H

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace trident {

/// A parsed `head[:knob=value,...]` spec. Values are decimal digits only
/// (support/Decimal.h), at most 2^32-1. After a ':' the knob list is
/// nonempty, every element is knob=value, and no knob is named twice.
struct Spec {
  std::string Head;
  std::vector<std::pair<std::string, uint64_t>> Knobs;

  /// Parses \p Text; on failure returns false and sets \p Error.
  static bool parse(const std::string &Text, Spec &Out, std::string *Error);
};

/// One knob of config \p C: its spec name, the member it sets and the
/// values it accepts.
template <typename C, typename T> struct Knob {
  const char *Name;
  T C::*Member;
  uint64_t Min = 0;
  uint64_t Max = std::numeric_limits<uint32_t>::max();
};

template <typename C>
concept HasKnobs = requires { C::knobs(); };

/// "UNIT knob 'NAME' is V, outside [MIN, MAX]", or "" when V is in range.
std::string knobOutOfRange(std::string_view Unit, const char *Name,
                           uint64_t V, uint64_t Min, uint64_t Max);

/// Calls \p Fn on each row of C's knob list, in list order.
template <HasKnobs C, typename FnT> void forEachKnob(FnT &&Fn) {
  static constexpr auto Rows = C::knobs();
  std::apply([&](const auto &...Row) { (Fn(Row), ...); }, Rows);
}

/// "a, b, c": C's knob names in list order.
template <HasKnobs C> std::string knobNames() {
  std::string Text;
  forEachKnob<C>([&](const auto &K) {
    Text += (Text.empty() ? "" : ", ") + std::string(K.Name);
  });
  return Text;
}

/// Sets the knob of \p Cfg named \p Name to \p Value. Returns false when C
/// lists no such knob, leaving the wording of that error to the caller. A
/// value outside the knob's range sets nothing and leaves the reason,
/// opened by \p Unit, in \p Why.
template <HasKnobs C>
bool setKnob(C &Cfg, std::string_view Unit, std::string_view Name,
             uint64_t Value, std::string &Why) {
  bool Found = false;
  forEachKnob<C>([&](const auto &K) {
    if (Name != K.Name)
      return;
    using T = std::remove_cvref_t<decltype(Cfg.*K.Member)>;
    Found = true;
    Why = knobOutOfRange(Unit, K.Name, Value, K.Min, K.Max);
    if (Why.empty())
      Cfg.*K.Member = static_cast<T>(Value);
  });
  return Found;
}

/// Why some knob of \p Cfg lies outside its range, naming the first one in
/// list order, or "" when all are in range. \p Unit opens the message.
template <HasKnobs C>
std::string knobRangeReason(std::string_view Unit, const C &Cfg) {
  std::string Why;
  forEachKnob<C>([&](const auto &K) {
    if (Why.empty())
      Why = knobOutOfRange(Unit, K.Name, static_cast<uint64_t>(Cfg.*K.Member),
                           K.Min, K.Max);
  });
  return Why;
}

} // namespace trident

#endif // TRIDENT_SUPPORT_SPEC_H

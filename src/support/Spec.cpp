//===- Spec.cpp -----------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "support/Spec.h"

#include "support/Decimal.h"

#include <algorithm>

using namespace trident;

bool Spec::parse(const std::string &Text, Spec &Out, std::string *Error) {
  auto Fail = [&](const std::string &What, const char *Why = "") {
    if (Error)
      *Error = What + " in spec '" + Text + "'" + Why;
    return false;
  };
  const size_t Colon = Text.find(':');
  Out.Head = Text.substr(0, Colon);
  Out.Knobs.clear();
  if (Colon == std::string::npos)
    return true;
  // Every element after the ':' is read, the empty ones too: "dcpt:",
  // "dcpt:entries=64," and "a=1,,b=2" are malformed, not shorthand.
  for (size_t Pos = Colon + 1;;) {
    const size_t Comma = std::min(Text.find(',', Pos), Text.size());
    const std::string Item = Text.substr(Pos, Comma - Pos);
    const size_t Eq = Item.find('=');
    if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Item.size())
      return Fail("malformed knob '" + Item + "'", " (want knob=value)");
    const std::string Key = Item.substr(0, Eq);
    const std::string Val = Item.substr(Eq + 1);
    // Knobs are unsigned decimal quantities: a sign gets its own message,
    // and a base prefix ("0x10") is as much an error as a suffix.
    if (Val[0] == '-' || Val[0] == '+')
      return Fail("knob '" + Key + "' has signed value '" + Val + "'",
                  " (knobs are unsigned)");
    if (Val.find_first_not_of("0123456789") != std::string::npos)
      return Fail("knob '" + Key + "' has non-integer value '" + Val + "'");
    // Most knobs set 32-bit members: one cap for every knob keeps a wider
    // value from truncating silently.
    const std::optional<uint64_t> V =
        parseDecimal(Val, std::numeric_limits<uint32_t>::max());
    if (!V)
      return Fail("knob '" + Key + "' value '" + Val + "'",
                  " is out of range (max 4294967295)");
    // A knob named twice would alias two different-looking specs to one
    // config, corrupting campaign fingerprints.
    for (const auto &K : Out.Knobs)
      if (K.first == Key)
        return Fail("duplicate knob '" + Key + "'");
    Out.Knobs.emplace_back(Key, *V);
    if (Comma == Text.size())
      return true;
    Pos = Comma + 1;
  }
}

std::string trident::knobOutOfRange(std::string_view Unit, const char *Name,
                                    uint64_t V, uint64_t Min, uint64_t Max) {
  if (V >= Min && V <= Max)
    return "";
  return std::string(Unit) + " knob '" + Name + "' is " + std::to_string(V) +
         ", outside [" + std::to_string(Min) + ", " + std::to_string(Max) +
         "]";
}

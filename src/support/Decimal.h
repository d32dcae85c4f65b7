//===- Decimal.h - The one reader of numbers typed as text ------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flags, fuzz specs, prefetcher and selector knobs and environment knobs
/// all read numbers through parseDecimal: "010" is ten everywhere, and
/// "-1", "0x10", " 4" and "12x" are rejected everywhere.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SUPPORT_DECIMAL_H
#define TRIDENT_SUPPORT_DECIMAL_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace trident {

/// \p Text as a decimal number no larger than \p Max: one or more digits
/// and nothing else (no sign, base prefix, suffix or space). nullopt for
/// any other text, and for a value past \p Max.
inline std::optional<uint64_t>
parseDecimal(std::string_view Text,
             uint64_t Max = std::numeric_limits<uint64_t>::max()) {
  if (Text.empty())
    return std::nullopt;
  uint64_t V = 0;
  for (char C : Text) {
    const uint64_t Digit = static_cast<unsigned char>(C) - uint64_t{'0'};
    if (Digit > 9 || Digit > Max || V > (Max - Digit) / 10)
      return std::nullopt;
    V = V * 10 + Digit;
  }
  return V;
}

} // namespace trident

#endif // TRIDENT_SUPPORT_DECIMAL_H

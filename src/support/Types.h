//===- Types.h - Shared scalar type aliases --------------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SUPPORT_TYPES_H
#define TRIDENT_SUPPORT_TYPES_H

#include <cstdint>

namespace trident {

/// Absolute simulation time in processor cycles.
using Cycle = uint64_t;

/// Instruction addresses advance by one per instruction (decoded-instruction
/// machine); data addresses are byte-granular.
using Addr = uint64_t;

/// Signed distance \p A - \p B between two addresses. The subtraction
/// wraps as uint64_t before the conversion, so addresses more than 2^63
/// apart give the two's-complement difference rather than a signed
/// overflow.
inline int64_t addrDelta(Addr A, Addr B) {
  return static_cast<int64_t>(A - B);
}

} // namespace trident

#endif // TRIDENT_SUPPORT_TYPES_H

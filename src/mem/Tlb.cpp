//===- Tlb.cpp ------------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "mem/Tlb.h"
#include "support/Check.h"

using namespace trident;

static bool isPowerOfTwo(uint64_t X) { return X && (X & (X - 1)) == 0; }

/// \p C, once it is known to build a TLB.
static const TlbConfig &validated(const TlbConfig &C) {
  TRIDENT_CHECK(C.Assoc >= 1 && C.NumEntries % C.Assoc == 0,
                "%u entries must divide evenly into %u-way sets",
                C.NumEntries, C.Assoc);
  TRIDENT_CHECK(isPowerOfTwo(C.NumEntries / C.Assoc),
                "set count %u must be a power of two",
                C.NumEntries / C.Assoc);
  return C;
}

Tlb::Tlb(const TlbConfig &Cfg)
    : Config(validated(Cfg)),
      Entries(Config.NumEntries / Config.Assoc, Config.Assoc) {}

bool Tlb::access(Addr ByteAddr) {
  ++Stats.Lookups;
  const uint64_t Vpn = vpnOf(ByteAddr);
  if (Entries.touch(Vpn))
    return true;
  ++Stats.Misses;
  Entries.insert(Vpn);
  return false;
}

//===- Tlb.cpp ------------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "mem/Tlb.h"
#include "support/Check.h"


using namespace trident;

static bool isPowerOfTwo(uint64_t X) { return X && (X & (X - 1)) == 0; }

Tlb::Tlb(const TlbConfig &Cfg)
    : Config(Cfg), NumSets(Config.NumEntries / Config.Assoc) {
  TRIDENT_CHECK(Config.Assoc >= 1 && Config.NumEntries % Config.Assoc == 0,
                "%u entries must divide evenly into %u-way sets",
                Config.NumEntries, Config.Assoc);
  TRIDENT_CHECK(isPowerOfTwo(NumSets), "set count %zu must be a power of two",
                NumSets);
  Entries.resize(Config.NumEntries);
}

bool Tlb::access(Addr ByteAddr) {
  ++Stats.Lookups;
  uint64_t Vpn = vpnOf(ByteAddr);
  size_t Base = setIndex(Vpn) * Config.Assoc;
  Entry *Victim = &Entries[Base];
  for (unsigned W = 0; W < Config.Assoc; ++W) {
    Entry &E = Entries[Base + W];
    if (E.Valid && E.Vpn == Vpn) {
      E.LastUse = ++UseClock;
      return true;
    }
    if (!E.Valid)
      Victim = &E;
    else if (Victim->Valid && E.LastUse < Victim->LastUse)
      Victim = &E;
  }
  ++Stats.Misses;
  Victim->Valid = true;
  Victim->Vpn = Vpn;
  Victim->LastUse = ++UseClock;
  return false;
}

bool Tlb::present(Addr ByteAddr) const {
  uint64_t Vpn = vpnOf(ByteAddr);
  size_t Base = setIndex(Vpn) * Config.Assoc;
  for (unsigned W = 0; W < Config.Assoc; ++W) {
    const Entry &E = Entries[Base + W];
    if (E.Valid && E.Vpn == Vpn)
      return true;
  }
  return false;
}

//===- Cache.cpp ----------------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "mem/Cache.h"
#include "support/Check.h"

using namespace trident;

static bool isPowerOfTwo(uint64_t X) { return X && (X & (X - 1)) == 0; }

static unsigned log2OfPow2(uint64_t X) {
  unsigned S = 0;
  while ((uint64_t{1} << S) < X)
    ++S;
  return S;
}

Cache::Cache(const CacheConfig &Cfg)
    : Config(Cfg), Sets(Config.numSets()),
      LineShift(log2OfPow2(Config.LineSize)) {
  TRIDENT_CHECK(isPowerOfTwo(Sets),
                "%s set count %llu must be a power of two",
                Config.Name.c_str(), (unsigned long long)Sets);
  TRIDENT_CHECK(isPowerOfTwo(Config.LineSize),
                "%s line size %u must be a power of two", Config.Name.c_str(),
                Config.LineSize);
  const size_t NumLines = Sets * Config.Assoc;
  TagsArr.resize(NumLines, kNoTag);
  FillReadyArr.resize(NumLines, 0);
  LastUseArr.resize(NumLines, 0);
  FlagsArr.resize(NumLines, 0);
  VictimTags.resize(Sets * VictimDepth, 0);
  VictimValid.resize(Sets * VictimDepth, 0);
  VictimNext.resize(Sets, 0);
}

void Cache::recordVictim(uint64_t Set, uint64_t Tag) {
  const uint64_t Base = Set * VictimDepth;
  const unsigned Slot = VictimNext[Set];
  VictimTags[Base + Slot] = Tag;
  VictimValid[Base + Slot] = 1;
  VictimNext[Set] = static_cast<uint8_t>((Slot + 1) % VictimDepth);
}

bool Cache::consumeVictim(uint64_t Set, uint64_t Tag) {
  const uint64_t Base = Set * VictimDepth;
  for (unsigned I = 0; I < VictimDepth; ++I) {
    if (VictimValid[Base + I] && VictimTags[Base + I] == Tag) {
      VictimValid[Base + I] = 0;
      return true;
    }
  }
  return false;
}

Cache::LookupResult Cache::lookup(Addr LineAddr) {
  TRIDENT_DCHECK((LineAddr & (Config.LineSize - 1)) == 0,
                 "unaligned %s line address 0x%llx (line size %u)",
                 Config.Name.c_str(), (unsigned long long)LineAddr,
                 Config.LineSize);
  const uint64_t Set = setIndex(LineAddr);
  const uint64_t Tag = tagOf(LineAddr);
  const LineIdx Base = static_cast<LineIdx>(Set * Config.Assoc);
  const LineIdx End = Base + Config.Assoc;
  for (LineIdx I = Base; I < End; ++I) {
    if (TagsArr[I] == Tag) {
      LastUseArr[I] = ++UseClock;
      return {I, false};
    }
  }
  return {NoLine, consumeVictim(Set, Tag)};
}

Cache::LineIdx Cache::peek(Addr LineAddr) const {
  const uint64_t Set = setIndex(LineAddr);
  const uint64_t Tag = tagOf(LineAddr);
  const LineIdx Base = static_cast<LineIdx>(Set * Config.Assoc);
  for (LineIdx I = Base; I < Base + Config.Assoc; ++I)
    if (TagsArr[I] == Tag)
      return I;
  return NoLine;
}

Cache::LineIdx Cache::insert(Addr LineAddr, Cycle FillReady,
                            bool Prefetched) {
  TRIDENT_DCHECK((LineAddr & (Config.LineSize - 1)) == 0,
                 "unaligned %s line address 0x%llx (line size %u)",
                 Config.Name.c_str(), (unsigned long long)LineAddr,
                 Config.LineSize);
  const uint64_t Set = setIndex(LineAddr);
  const uint64_t Tag = tagOf(LineAddr);
  TRIDENT_DCHECK(Tag != kNoTag, "line address 0x%llx maps to the sentinel tag",
                 (unsigned long long)LineAddr);
  const LineIdx Base = static_cast<LineIdx>(Set * Config.Assoc);
  const LineIdx End = Base + Config.Assoc;

  // One pass over the ways: a refill of a present line (e.g. prefetch of a
  // resident line) only refreshes LRU; otherwise pick the victim — the
  // first invalid way, else LRU (earliest index breaks LastUse ties).
  LineIdx Victim = Base;
  bool HaveInvalid = false;
  for (LineIdx I = Base; I < End; ++I) {
    const uint64_t T = TagsArr[I];
    if (T == kNoTag) {
      if (!HaveInvalid) {
        Victim = I;
        HaveInvalid = true;
      }
      continue;
    }
    if (T == Tag) {
      LastUseArr[I] = ++UseClock;
      return I;
    }
    if (!HaveInvalid && LastUseArr[I] < LastUseArr[Victim])
      Victim = I;
  }

  if (TagsArr[Victim] != kNoTag && Prefetched &&
      !(FlagsArr[Victim] & kUntouched)) {
    // A prefetch displaced a line the program had actually used: remember
    // the tag so a subsequent miss can be blamed on prefetching (Fig. 6).
    recordVictim(Set, TagsArr[Victim]);
  }

  TagsArr[Victim] = Tag;
  FillReadyArr[Victim] = FillReady;
  FlagsArr[Victim] =
      static_cast<uint8_t>(Prefetched ? kPrefetched | kUntouched : 0);
  LastUseArr[Victim] = ++UseClock;
  return Victim;
}

uint64_t Cache::invalidateRange(Addr Lo, Addr Hi) {
  uint64_t Evicted = 0;
  const size_t NumLines = TagsArr.size();
  for (size_t I = 0; I < NumLines; ++I) {
    if (TagsArr[I] == kNoTag)
      continue;
    Addr First = TagsArr[I] * Config.LineSize;
    Addr Last = First + Config.LineSize - 1;
    if (First <= Hi && Last >= Lo) {
      TagsArr[I] = kNoTag;
      ++Evicted;
    }
  }
  return Evicted;
}

void Cache::reset() {
  std::fill(TagsArr.begin(), TagsArr.end(), kNoTag);
  std::fill(FillReadyArr.begin(), FillReadyArr.end(), 0);
  std::fill(LastUseArr.begin(), LastUseArr.end(), 0);
  std::fill(FlagsArr.begin(), FlagsArr.end(), 0);
  std::fill(VictimTags.begin(), VictimTags.end(), 0);
  std::fill(VictimValid.begin(), VictimValid.end(), 0);
  std::fill(VictimNext.begin(), VictimNext.end(), 0);
  UseClock = 0;
}

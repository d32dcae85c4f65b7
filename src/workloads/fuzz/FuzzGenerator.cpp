//===- FuzzGenerator.cpp --------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "workloads/fuzz/FuzzGenerator.h"

#include "isa/ProgramBuilder.h"
#include "support/Check.h"
#include "support/Decimal.h"
#include "support/Random.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace trident;

namespace {

//===----------------------------------------------------------------------===//
// Spec parsing and the canonical name
//===----------------------------------------------------------------------===//

constexpr char kFuzzPrefix[] = "fuzz@";

/// Knob metadata: name, range, and accessor — one row per FuzzKnobs field,
/// shared by the parser (validation and its unknown-knob text) and the
/// name builder (canonical order), so none of them can disagree about
/// what a knob is called.
struct KnobInfo {
  const char *Name;
  uint64_t Min;
  uint64_t Max;
  uint64_t (*Get)(const FuzzKnobs &);
  void (*Set)(FuzzKnobs &, uint64_t);
};

constexpr KnobInfo kKnobs[] = {
    {"wset", 64, 131072, [](const FuzzKnobs &K) { return K.WsetKB; },
     [](FuzzKnobs &K, uint64_t V) { K.WsetKB = V; }},
    {"segs", 1, 8,
     [](const FuzzKnobs &K) { return uint64_t(K.Segments); },
     [](FuzzKnobs &K, uint64_t V) { K.Segments = unsigned(V); }},
    {"entropy", 0, 1000,
     [](const FuzzKnobs &K) { return uint64_t(K.EntropyPermille); },
     [](FuzzKnobs &K, uint64_t V) { K.EntropyPermille = unsigned(V); }},
    {"branch", 0, 1000,
     [](const FuzzKnobs &K) { return uint64_t(K.BranchPermille); },
     [](FuzzKnobs &K, uint64_t V) { K.BranchPermille = unsigned(V); }},
    {"phase", 64, 1'000'000,
     [](const FuzzKnobs &K) { return K.PhaseIters; },
     [](FuzzKnobs &K, uint64_t V) { K.PhaseIters = V; }},
    {"streams", 1, 10,
     [](const FuzzKnobs &K) { return uint64_t(K.Streams); },
     [](FuzzKnobs &K, uint64_t V) { K.Streams = unsigned(V); }},
};
constexpr size_t kNumKnobs = sizeof(kKnobs) / sizeof(kKnobs[0]);

void setError(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
}

//===----------------------------------------------------------------------===//
// Segment planning
//===----------------------------------------------------------------------===//

// Memory map: each phase segment owns one 256MB region, so segments never
// alias each other's data; gather targets live in the region's upper half.
constexpr Addr kRegionBytes = 0x1000'0000;
constexpr Addr kFirstRegion = 0x1000'0000;

enum class SegKind : unsigned {
  StrideScan,   // N concurrent strided scans
  PointerChase, // chase over a (possibly shuffled) circular list
  Gather,       // indexed gather through a pointer array
  ObjectWalk,   // multi-field array-of-structs walk
  RandomProbe,  // LCG-driven unclassifiable probes
  NumKinds
};

const char *segKindName(SegKind K) {
  switch (K) {
  case SegKind::StrideScan:
    return "scan";
  case SegKind::PointerChase:
    return "chase";
  case SegKind::Gather:
    return "gather";
  case SegKind::ObjectWalk:
    return "walk";
  case SegKind::RandomProbe:
    return "probe";
  case SegKind::NumKinds:
    break;
  }
  TRIDENT_UNREACHABLE("bad segment kind");
  return "?";
}

/// One phase segment's generation plan. Plain values only: the workload's
/// Init lambda captures the vector by value, so building the data image is
/// as deterministic as emitting the code.
struct SegPlan {
  SegKind Kind = SegKind::StrideScan;
  Addr Base = 0;
  uint64_t Iters = 0;
  bool Branchy = false;
  // StrideScan
  unsigned NumStreams = 0;
  int64_t Strides[10] = {};
  Addr StreamStart[10] = {};
  // PointerChase / ObjectWalk
  uint64_t NumNodes = 0;
  unsigned NodeSize = 0;
  unsigned Layout = 0; // 0 sequential, 1 run-shuffled, 2 shuffled
  unsigned RunLength = 32;
  uint64_t ListSeed = 1;
  unsigned NumFields = 0;
  int64_t Fields[5] = {};
  bool HasStore = false;
  // Gather
  Addr TargetBase = 0;
  uint64_t Entries = 0;
  uint64_t TargetStride = 0;
  // RandomProbe
  uint64_t Mask = 0;
};

uint64_t pow2Floor(uint64_t V) {
  uint64_t P = 1;
  while (P * 2 <= V)
    P *= 2;
  return P;
}

bool roll(SplitMix64 &Rng, unsigned Permille) {
  return Rng.nextBelow(1000) < Permille;
}

/// Draws one stride: regular (from the set the 14 workloads use) or, with
/// the entropy probability, an irregular multiple of 8 in [-4096, 4096].
int64_t drawStride(SplitMix64 &Rng, unsigned EntropyPermille) {
  if (roll(Rng, EntropyPermille)) {
    int64_t S = 8 * int64_t(1 + Rng.nextBelow(512));
    if (Rng.nextBelow(4) == 0)
      S = -S;
    return S;
  }
  static constexpr int64_t kRegular[] = {8, 16, 64, 128, 256};
  return kRegular[Rng.nextBelow(5)];
}

/// Plans segment \p Idx. All draws come from \p Rng in a fixed order, so
/// the plan — and everything downstream of it — is a pure function of the
/// seed and knobs.
SegPlan planSegment(SplitMix64 &Rng, unsigned Idx, const FuzzKnobs &K) {
  SegPlan P;
  P.Kind = SegKind(Rng.nextBelow(unsigned(SegKind::NumKinds)));
  P.Base = kFirstRegion + Addr(Idx) * kRegionBytes;
  P.Branchy = roll(Rng, K.BranchPermille);
  const uint64_t WsetBytes = K.WsetKB * 1024;
  // Jitter the phase length ±25% so segments do not change phase in
  // lockstep; per-kind footprint caps below may lower it further.
  uint64_t Iters = std::max<uint64_t>(64, K.PhaseIters * (75 + Rng.nextBelow(51)) / 100);

  switch (P.Kind) {
  case SegKind::StrideScan: {
    P.NumStreams = 1 + unsigned(Rng.nextBelow(K.Streams));
    uint64_t Span = std::max<uint64_t>(4096, WsetBytes / P.NumStreams) & ~uint64_t(63);
    int64_t MaxAbs = 8;
    for (unsigned S = 0; S < P.NumStreams; ++S) {
      P.Strides[S] = drawStride(Rng, K.EntropyPermille);
      MaxAbs = std::max<int64_t>(MaxAbs, std::abs(P.Strides[S]));
      Addr StreamBase = P.Base + Addr(S) * Span + Addr(S) * 6400 % 4096;
      P.StreamStart[S] =
          P.Strides[S] > 0 ? StreamBase : StreamBase + Span - 64;
    }
    Iters = std::max<uint64_t>(
        64, std::min(Iters, Span / uint64_t(MaxAbs)));
    break;
  }
  case SegKind::PointerChase: {
    static constexpr unsigned kNodeSizes[] = {64, 128, 192, 256};
    P.NodeSize = kNodeSizes[Rng.nextBelow(4)];
    P.RunLength = 16u << Rng.nextBelow(3); // 16, 32, or 64
    P.NumNodes = std::clamp<uint64_t>(WsetBytes / P.NodeSize,
                                      std::max<uint64_t>(256, 2 * P.RunLength),
                                      uint64_t(1) << 17);
    P.Layout = roll(Rng, K.EntropyPermille) ? 2u : unsigned(Rng.nextBelow(2));
    P.ListSeed = Rng.next() | 1;
    P.NumFields = unsigned(Rng.nextBelow(4)); // 0..3 field loads
    for (unsigned F = 0; F < P.NumFields; ++F)
      P.Fields[F] = 8 * int64_t(1 + Rng.nextBelow(P.NodeSize / 8 - 1));
    break;
  }
  case SegKind::Gather: {
    if (roll(Rng, K.EntropyPermille))
      P.TargetStride = 8 * (1 + Rng.nextBelow(64));
    else {
      static constexpr uint64_t kRegular[] = {32, 64, 128};
      P.TargetStride = kRegular[Rng.nextBelow(3)];
    }
    P.TargetBase = P.Base + kRegionBytes / 2;
    // Array and targets must each fit their half region.
    P.Entries = std::clamp<uint64_t>(
        std::min(WsetBytes / 8, (kRegionBytes / 2) / P.TargetStride), 1024,
        uint64_t(1) << 21);
    P.NumFields = 1 + unsigned(Rng.nextBelow(3)); // 1..3 dereference loads
    for (unsigned F = 0; F < P.NumFields; ++F)
      P.Fields[F] = 8 * int64_t(Rng.nextBelow(16));
    Iters = std::max<uint64_t>(64, std::min(Iters, P.Entries));
    break;
  }
  case SegKind::ObjectWalk: {
    static constexpr unsigned kNodeSizes[] = {128, 192, 256};
    P.NodeSize = kNodeSizes[Rng.nextBelow(3)];
    P.NumFields = 2 + unsigned(Rng.nextBelow(4)); // 2..5 field loads
    for (unsigned F = 0; F < P.NumFields; ++F)
      P.Fields[F] = 8 * int64_t(Rng.nextBelow(P.NodeSize / 8));
    P.HasStore = Rng.nextBelow(2) == 0;
    Iters = std::max<uint64_t>(
        64, std::min(Iters, WsetBytes / P.NodeSize));
    break;
  }
  case SegKind::RandomProbe: {
    P.Mask = pow2Floor(std::max<uint64_t>(4096, WsetBytes)) - 8;
    break;
  }
  case SegKind::NumKinds:
    TRIDENT_UNREACHABLE("bad segment kind");
  }
  P.Iters = Iters;
  return P;
}

//===----------------------------------------------------------------------===//
// Code emission
//===----------------------------------------------------------------------===//

// Register map (shared by all segments; cursors are reloaded at each
// segment entry, so reuse across phases is safe):
//   r1..r10   cursors / stream bases
//   r11, r12  probe address and branch scratch
//   r13..r20  loaded data
//   r21..r23  FP accumulators
//   r26       LCG state (global: probes stay unpredictable across visits)
//   r27, r28  segment iteration counter / limit
// r29+ are optimizer scratch and must never be touched (isa/Opcode.h).

void emitBody(ProgramBuilder &B, const SegPlan &P, unsigned Idx) {
  const std::string Tag = std::to_string(Idx);
  switch (P.Kind) {
  case SegKind::StrideScan:
    for (unsigned S = 0; S < P.NumStreams; ++S) {
      B.load(13 + (S % 8), 1 + S, 0);
      B.aluImm(Opcode::AddI, 1 + S, 1 + S, P.Strides[S]);
    }
    if (P.Branchy) {
      B.aluImm(Opcode::AndI, 12, 13, 1);
      B.beq(12, 0, "skip" + Tag);
      B.fadd(22, 22, 13);
      B.label("skip" + Tag);
    }
    B.fadd(21, 21, 13 + ((P.NumStreams - 1) % 8));
    break;

  case SegKind::PointerChase:
    B.load(1, 1, 0); // p = p->next
    for (unsigned F = 0; F < P.NumFields; ++F)
      B.load(13 + F, 1, P.Fields[F]);
    if (P.Branchy) {
      B.aluImm(Opcode::AndI, 12, P.NumFields ? 13 : 1, 1);
      B.beq(12, 0, "skip" + Tag);
      B.fadd(22, 22, 1);
      B.label("skip" + Tag);
    }
    for (unsigned F = 0; F < P.NumFields; ++F)
      B.fadd(21, 21, 13 + F);
    break;

  case SegKind::Gather:
    B.load(2, 1, 0); // the gathered pointer
    for (unsigned F = 0; F < P.NumFields; ++F)
      B.load(13 + F, 2, P.Fields[F]);
    for (unsigned F = 0; F < P.NumFields; ++F)
      B.fadd(21, 21, 13 + F);
    if (P.Branchy) {
      B.aluImm(Opcode::AndI, 12, 13, 1);
      B.beq(12, 0, "skip" + Tag);
      B.fadd(22, 22, 13);
      B.label("skip" + Tag);
    }
    B.addi(1, 1, 8);
    break;

  case SegKind::ObjectWalk:
    for (unsigned F = 0; F < P.NumFields; ++F)
      B.load(13 + F, 1, P.Fields[F]);
    for (unsigned F = 0; F < P.NumFields; ++F)
      B.fadd(21, 21, 13 + F);
    if (P.Branchy) {
      B.aluImm(Opcode::AndI, 12, 13, 1);
      B.beq(12, 0, "skip" + Tag);
      B.fadd(22, 22, 13);
      B.label("skip" + Tag);
    }
    if (P.HasStore)
      B.store(1, int64_t(P.NodeSize) - 8, 21);
    B.addi(1, 1, int64_t(P.NodeSize));
    break;

  case SegKind::RandomProbe:
    B.aluImm(Opcode::MulI, 26, 26, 6364136223846793005ll);
    B.addi(26, 26, 1442695040888963407ll);
    B.aluImm(Opcode::ShrI, 11, 26, 33);
    B.aluImm(Opcode::AndI, 11, 11, int64_t(P.Mask) & ~int64_t(7));
    B.alu(Opcode::Add, 11, 10, 11); // r10 = region base
    if (P.Branchy) {
      B.aluImm(Opcode::ShrI, 12, 26, 5);
      B.aluImm(Opcode::AndI, 12, 12, 1);
      B.beq(12, 0, "skip" + Tag);
      B.load(13, 11, 0);
      B.fadd(22, 22, 13);
      B.label("skip" + Tag);
      B.load(14, 11, 8);
    } else {
      B.load(13, 11, 0);
      B.fadd(21, 21, 13);
    }
    break;

  case SegKind::NumKinds:
    TRIDENT_UNREACHABLE("bad segment kind");
  }
}

void emitSegmentEntry(ProgramBuilder &B, const SegPlan &P) {
  switch (P.Kind) {
  case SegKind::StrideScan:
    for (unsigned S = 0; S < P.NumStreams; ++S)
      B.loadImm(1 + S, int64_t(P.StreamStart[S]));
    break;
  case SegKind::PointerChase:
  case SegKind::Gather:
  case SegKind::ObjectWalk:
    B.loadImm(1, int64_t(P.Base));
    break;
  case SegKind::RandomProbe:
    B.loadImm(10, int64_t(P.Base));
    break;
  case SegKind::NumKinds:
    TRIDENT_UNREACHABLE("bad segment kind");
  }
  B.loadImm(27, 0);
  B.loadImm(28, int64_t(P.Iters));
}

} // namespace

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

bool trident::isFuzzSpec(const std::string &Name) {
  return Name.rfind(kFuzzPrefix, 0) == 0;
}

bool trident::parseFuzzSpec(const std::string &Spec, uint64_t &Seed,
                            FuzzKnobs &Knobs, std::string *Error) {
  std::string Body = Spec;
  if (isFuzzSpec(Body))
    Body = Body.substr(std::strlen(kFuzzPrefix));
  const size_t Colon = Body.find(':');
  const std::string SeedStr = Body.substr(0, Colon);
  const std::optional<uint64_t> SeedValue = parseDecimal(SeedStr);
  if (!SeedValue) {
    setError(Error, "seed '" + SeedStr + "' is not a decimal uint64");
    return false;
  }
  Seed = *SeedValue;
  Knobs = FuzzKnobs();
  if (Colon == std::string::npos)
    return true;

  bool Seen[kNumKnobs] = {};
  std::string Rest = Body.substr(Colon + 1);
  size_t Pos = 0;
  while (Pos <= Rest.size()) {
    size_t Comma = Rest.find(',', Pos);
    std::string Item = Rest.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Rest.size() + 1 : Comma + 1;
    const size_t Eq = Item.find('=');
    if (Eq == std::string::npos || Eq == 0) {
      setError(Error, "knob '" + Item + "' is not name=value");
      return false;
    }
    const std::string Key = Item.substr(0, Eq);
    const std::optional<uint64_t> Value = parseDecimal(Item.substr(Eq + 1));
    if (!Value) {
      setError(Error, "knob '" + Key + "' value '" + Item.substr(Eq + 1) +
                          "' is not a decimal integer");
      return false;
    }
    size_t K = 0;
    for (; K < kNumKnobs; ++K)
      if (Key == kKnobs[K].Name)
        break;
    if (K == kNumKnobs) {
      std::string Have;
      for (const KnobInfo &Info : kKnobs)
        Have += (Have.empty() ? "" : ", ") + std::string(Info.Name);
      setError(Error, "unknown knob '" + Key + "' (have " + Have + ")");
      return false;
    }
    if (Seen[K]) {
      setError(Error, "duplicate knob '" + Key + "'");
      return false;
    }
    Seen[K] = true;
    if (*Value < kKnobs[K].Min || *Value > kKnobs[K].Max) {
      char Buf[128];
      std::snprintf(Buf, sizeof(Buf), "knob '%s' value %llu out of range [%llu, %llu]",
                    kKnobs[K].Name, (unsigned long long)*Value,
                    (unsigned long long)kKnobs[K].Min,
                    (unsigned long long)kKnobs[K].Max);
      setError(Error, Buf);
      return false;
    }
    kKnobs[K].Set(Knobs, *Value);
  }
  return true;
}

std::string trident::fuzzWorkloadName(uint64_t Seed, const FuzzKnobs &Knobs) {
  std::string Name = kFuzzPrefix + std::to_string(Seed);
  const FuzzKnobs Defaults;
  char Sep = ':';
  for (const KnobInfo &K : kKnobs) {
    if (K.Get(Knobs) == K.Get(Defaults))
      continue;
    Name += Sep;
    Sep = ',';
    Name += K.Name;
    Name += '=';
    Name += std::to_string(K.Get(Knobs));
  }
  return Name;
}

Workload trident::makeFuzzWorkload(uint64_t Seed, const FuzzKnobs &Knobs) {
  // Fold the knob vector into the RNG seed so scenarios that share a seed
  // but differ in one knob diverge completely, not just where the knob is
  // consulted.
  SplitMix64 Salt(Seed);
  uint64_t State = Salt.next();
  const FuzzKnobs Defaults;
  for (const KnobInfo &K : kKnobs)
    if (K.Get(Knobs) != K.Get(Defaults))
      State = (State ^ K.Get(Knobs)) * 0x100000001b3ull;
  SplitMix64 Rng(State);

  std::vector<SegPlan> Plans;
  Plans.reserve(Knobs.Segments);
  for (unsigned I = 0; I < Knobs.Segments; ++I)
    Plans.push_back(planSegment(Rng, I, Knobs));

  ProgramBuilder B;
  B.loadImm(26, 88172645463325252ll); // LCG state for probe segments
  B.loadImm(21, 0).loadImm(22, 0).loadImm(23, 0);
  B.label("outer");
  std::string Kinds;
  for (unsigned I = 0; I < Knobs.Segments; ++I) {
    const SegPlan &P = Plans[I];
    if (!Kinds.empty())
      Kinds += '+';
    Kinds += segKindName(P.Kind);
    emitSegmentEntry(B, P);
    B.label("seg" + std::to_string(I));
    emitBody(B, P, I);
    B.addi(27, 27, 1);
    B.blt(27, 28, "seg" + std::to_string(I));
  }
  B.jump("outer");
  B.halt();

  Workload W;
  W.Name = fuzzWorkloadName(Seed, Knobs);
  W.Description = "fuzzed (" + Kinds + ")";
  W.Prog = B.finish();
  W.Init = [Plans = std::move(Plans)](DataMemory &M) {
    for (const SegPlan &P : Plans) {
      switch (P.Kind) {
      case SegKind::PointerChase:
        if (P.Layout == 0)
          buildLinkedList(M, P.Base, P.NumNodes, P.NodeSize, 0,
                          /*Shuffled=*/false, P.ListSeed);
        else if (P.Layout == 1)
          buildRunShuffledList(M, P.Base, P.NumNodes, P.NodeSize, 0,
                               P.RunLength, P.ListSeed);
        else
          buildLinkedList(M, P.Base, P.NumNodes, P.NodeSize, 0,
                          /*Shuffled=*/true, P.ListSeed);
        break;
      case SegKind::Gather:
        buildPointerArray(M, P.Base, P.Entries, P.TargetBase, P.TargetStride);
        break;
      case SegKind::StrideScan:
      case SegKind::ObjectWalk:
      case SegKind::RandomProbe:
        break; // no data image: values are irrelevant, only addresses
      case SegKind::NumKinds:
        TRIDENT_UNREACHABLE("bad segment kind");
      }
    }
  };
  W.ProgramHash = programHash(W.Prog);
  return W;
}

Workload trident::makeFuzzWorkloadFromSpec(const std::string &Name) {
  uint64_t Seed = 0;
  FuzzKnobs Knobs;
  std::string Error;
  TRIDENT_CHECK(parseFuzzSpec(Name, Seed, Knobs, &Error),
                "bad fuzz spec '%s': %s", Name.c_str(), Error.c_str());
  return makeFuzzWorkload(Seed, Knobs);
}

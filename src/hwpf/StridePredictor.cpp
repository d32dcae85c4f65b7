//===- StridePredictor.cpp ------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "hwpf/StridePredictor.h"
#include "support/Check.h"


using namespace trident;

static bool isPowerOfTwo(uint64_t X) { return X && (X & (X - 1)) == 0; }

StridePredictor::StridePredictor(unsigned NumEntries) {
  TRIDENT_CHECK(isPowerOfTwo(NumEntries), "table size must be a power of two");
  Table.resize(NumEntries);
}

void StridePredictor::train(Addr PC, Addr ByteAddr) {
  Entry &E = Table[indexOf(PC)];
  if (!E.Valid || E.Tag != PC) {
    // Allocate / steal the entry.
    E.Valid = true;
    E.Tag = PC;
    E.LastAddr = ByteAddr;
    E.Stride = 0;
    E.Confidence.reset();
    return;
  }
  int64_t NewStride = addrDelta(ByteAddr, E.LastAddr);
  if (NewStride == E.Stride) {
    E.Confidence.increment();
  } else {
    E.Confidence.decrement();
    if (E.Confidence.isZero())
      E.Stride = NewStride;
  }
  E.LastAddr = ByteAddr;
}

const StridePredictor::Entry *StridePredictor::find(Addr PC) const {
  const Entry &E = Table[indexOf(PC)];
  if (!E.Valid || E.Tag != PC)
    return nullptr;
  return &E;
}

std::optional<int64_t> StridePredictor::predict(Addr PC) const {
  const Entry *E = find(PC);
  if (!E || !E->Confidence.isSet() || E->Stride == 0)
    return std::nullopt;
  return E->Stride;
}

std::optional<Addr> StridePredictor::lastAddress(Addr PC) const {
  const Entry *E = find(PC);
  if (!E)
    return std::nullopt;
  return E->LastAddr;
}

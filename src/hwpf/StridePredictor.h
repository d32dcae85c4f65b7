//===- StridePredictor.h - PC-indexed stride predictor ---------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-load-PC stride predictor in the style of Farkas et al. (ISCA'97),
/// used to guide stream-buffer allocation and prefetch address generation
/// (Sherwood et al.'s predictor-directed stream buffers, the paper's
/// baseline hardware prefetcher). The paper's Table 1 gives it a 1024-entry
/// history table.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_HWPF_STRIDEPREDICTOR_H
#define TRIDENT_HWPF_STRIDEPREDICTOR_H

#include "isa/Instruction.h"
#include "support/SaturatingCounter.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace trident {

class StridePredictor {
public:
  explicit StridePredictor(unsigned NumEntries = 1024);

  /// Records an observed access by the load at \p PC to \p ByteAddr.
  void train(Addr PC, Addr ByteAddr);

  /// Returns the predicted stride for \p PC when confident, nullopt
  /// otherwise. A zero stride never predicts (nothing to stream).
  std::optional<int64_t> predict(Addr PC) const;

  /// Last address observed for \p PC (for stream priming); nullopt when the
  /// entry has never been trained.
  std::optional<Addr> lastAddress(Addr PC) const;

private:
  struct Entry {
    bool Valid = false;
    uint64_t Tag = 0;
    Addr LastAddr = 0;
    int64_t Stride = 0;
    TwoBitCounter Confidence;
  };

  const Entry *find(Addr PC) const;
  size_t indexOf(Addr PC) const { return PC & (Table.size() - 1); }

  std::vector<Entry> Table;
};

} // namespace trident

#endif // TRIDENT_HWPF_STRIDEPREDICTOR_H

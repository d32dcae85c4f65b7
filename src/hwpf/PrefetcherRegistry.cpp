//===- PrefetcherRegistry.cpp ---------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "hwpf/PrefetcherRegistry.h"

#include "hwpf/Dcpt.h"
#include "hwpf/EnhancedStream.h"
#include "hwpf/StreamBuffer.h"
#include "hwpf/Tskid.h"

#include <type_traits>

using namespace trident;

namespace {

/// The registry entry of a \p UnitT built from \p Defaults with a spec's
/// knobs applied through ConfigT::knobs().
template <typename UnitT, typename ConfigT>
PrefetcherRegistry::Info unitEntry(const char *Name, const char *Summary,
                                   const ConfigT &Defaults,
                                   bool InArsenal = true) {
  std::string Knobs = knobNames<ConfigT>();
  auto Make = [Defaults, Knobs](const Spec &S, const PrefetcherEnv &Env,
                                std::string *Error)
      -> std::unique_ptr<HwPrefetcher> {
    ConfigT Cfg = Defaults;
    std::string Why;
    for (auto K = S.Knobs.begin(); Why.empty() && K != S.Knobs.end(); ++K)
      if (!setKnob(Cfg, S.Head, K->first, K->second, Why))
        Why = "unknown knob '" + K->first + "' for prefetcher '" + S.Head +
              "' (knobs: " + Knobs + ")";
    // The one unit that reads the environment: with a TLB modelled, stream
    // buffers stop at page boundaries.
    if constexpr (std::is_same_v<ConfigT, StreamBufferConfig>) {
      if (Env.PageBounded) {
        Cfg.StopAtPageBoundary = true;
        Cfg.PageBits = Env.PageBits;
      }
    }
    if (Why.empty())
      Why = Cfg.invalidReason();
    if (!Why.empty()) {
      if (Error)
        *Error = std::move(Why);
      return nullptr;
    }
    return std::make_unique<UnitT>(Cfg);
  };
  return {Name, Summary, std::move(Knobs), InArsenal, std::move(Make)};
}

} // namespace

PrefetcherRegistry::PrefetcherRegistry() {
  auto Add = [this](const Info &I) { Entries.emplace(I.Name, I); };
  Add(unitEntry<StreamBufferUnit>(
      "sb4x4", "predictor-directed stream buffers, 4 buffers x 4 deep",
      StreamBufferConfig::config4x4()));
  Add(unitEntry<StreamBufferUnit>(
      "sb8x8",
      "predictor-directed stream buffers, 8 buffers x 8 deep (the paper's "
      "baseline)",
      StreamBufferConfig::config8x8()));
  Add(unitEntry<StreamBufferUnit>(
      "stream",
      "parameterized stream buffers (alias of sb8x8 defaults; set "
      "buffers/depth)",
      StreamBufferConfig::config8x8(), /*InArsenal=*/false));
  Add(unitEntry<EnhancedStreamPrefetcher>(
      "enhanced-stream",
      "region-based streams with noise-tolerant training and dead-stream "
      "removal (Liu et al., JILP 2011)",
      EnhancedStreamConfig::baseline()));
  Add(unitEntry<DcptPrefetcher>(
      "dcpt", "delta-correlating prediction tables (Grannaes et al., DPC-1)",
      DcptConfig::baseline()));
  Add(unitEntry<TskidPrefetcher>(
      "tskid",
      "trigger/target timing prefetcher with learned issue skid "
      "(T-SKID, DPC-3)",
      TskidConfig::baseline()));
}

PrefetcherRegistry &PrefetcherRegistry::instance() {
  // Function-local static: built (with the full arsenal) on first use, so
  // there is no cross-TU static-init ordering hazard.
  static PrefetcherRegistry R;
  return R;
}

std::vector<std::string> PrefetcherRegistry::names() const {
  std::vector<std::string> Out;
  Out.reserve(Entries.size());
  for (const auto &E : Entries)
    Out.push_back(E.first);
  return Out; // std::map iterates sorted
}

std::vector<std::string> PrefetcherRegistry::arsenalNames() const {
  std::vector<std::string> Out;
  for (const auto &E : Entries)
    if (E.second.InArsenal)
      Out.push_back(E.first);
  return Out;
}

const PrefetcherRegistry::Info *
PrefetcherRegistry::lookup(const std::string &Name) const {
  auto It = Entries.find(Name);
  return It == Entries.end() ? nullptr : &It->second;
}

std::unique_ptr<HwPrefetcher>
PrefetcherRegistry::create(const std::string &Text, const PrefetcherEnv &Env,
                           std::string *Error) const {
  if (isNone(Text))
    return nullptr;
  Spec S;
  if (!Spec::parse(Text, S, Error))
    return nullptr;
  const Info *I = lookup(S.Head);
  if (!I) {
    if (Error) {
      *Error = "unknown prefetcher '" + S.Head + "' (registered:";
      for (const auto &E : Entries)
        *Error += " " + E.first;
      *Error += ", none)";
    }
    return nullptr;
  }
  return I->Make(S, Env, Error);
}

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
#include "support/Check.h"
#include "support/Decimal.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <type_traits>

using namespace trident;

bool PrefetcherSpec::parse(const std::string &Spec, PrefetcherSpec &Out,
                           std::string *Error) {
  Out.Name.clear();
  Out.Knobs.clear();
  size_t Colon = Spec.find(':');
  Out.Name = Spec.substr(0, Colon);
  if (Out.Name.empty()) {
    if (Error)
      *Error = "empty prefetcher name in spec '" + Spec + "'";
    return false;
  }
  if (Colon == std::string::npos)
    return true;
  std::string Rest = Spec.substr(Colon + 1);
  size_t Pos = 0;
  while (Pos < Rest.size()) {
    size_t Comma = Rest.find(',', Pos);
    std::string Pair = Rest.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    size_t Eq = Pair.find('=');
    if (Eq == std::string::npos || Eq == 0 || Eq + 1 >= Pair.size()) {
      if (Error)
        *Error = "malformed knob '" + Pair + "' in spec '" + Spec +
                 "' (want knob=value)";
      return false;
    }
    std::string Key = Pair.substr(0, Eq);
    std::string Val = Pair.substr(Eq + 1);
    // Knobs are unsigned decimal quantities: a sign gets its own message,
    // and a base prefix ("0x10") is as much an error as a suffix.
    if (Val[0] == '-' || Val[0] == '+') {
      if (Error)
        *Error = "knob '" + Key + "' has signed value '" + Val +
                 "' in spec '" + Spec + "' (knobs are unsigned)";
      return false;
    }
    if (Val.find_first_not_of("0123456789") != std::string::npos) {
      if (Error)
        *Error = "knob '" + Key + "' has non-integer value '" + Val +
                 "' in spec '" + Spec + "'";
      return false;
    }
    // Every consumer narrows knobs to unsigned (32-bit); values past that
    // would truncate silently, so the parser owns the range check.
    const std::optional<uint64_t> V =
        parseDecimal(Val, std::numeric_limits<unsigned>::max());
    if (!V) {
      if (Error)
        *Error = "knob '" + Key + "' value '" + Val + "' in spec '" + Spec +
                 "' is out of range (max " +
                 std::to_string(std::numeric_limits<unsigned>::max()) + ")";
      return false;
    }
    // Duplicate knobs would alias two different-looking specs to one
    // config (knobOr is first-wins), corrupting campaign fingerprints.
    for (const auto &K : Out.Knobs) {
      if (K.first == Key) {
        if (Error)
          *Error = "duplicate knob '" + Key + "' in spec '" + Spec + "'";
        return false;
      }
    }
    Out.Knobs.emplace_back(Key, *V);
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return true;
}

uint64_t PrefetcherSpec::knobOr(const std::string &Knob,
                                uint64_t Default) const {
  for (const auto &K : Knobs)
    if (K.first == Knob)
      return K.second;
  return Default;
}

namespace {

/// The registry entry of a \p UnitT built from \p Defaults with a spec's
/// knobs applied through ConfigT::Knobs.
template <typename UnitT, typename ConfigT>
PrefetcherRegistry::Info unitEntry(const char *Name, const char *Summary,
                                   const ConfigT &Defaults,
                                   bool InArsenal = true) {
  std::string Knobs;
  for (const Knob<ConfigT> &K : ConfigT::Knobs)
    Knobs += (Knobs.empty() ? "" : ", ") + std::string(K.Name);
  auto Make = [Defaults, Knobs](const PrefetcherSpec &Spec,
                                const PrefetcherEnv &Env, std::string *Error)
      -> std::unique_ptr<HwPrefetcher> {
    ConfigT Cfg = Defaults;
    for (const auto &[Key, Value] : Spec.Knobs) {
      const Knob<ConfigT> *K = std::find_if(
          std::begin(ConfigT::Knobs), std::end(ConfigT::Knobs),
          [&](const Knob<ConfigT> &Row) { return Key == Row.Name; });
      if (K == std::end(ConfigT::Knobs)) {
        if (Error)
          *Error = "unknown knob '" + Key + "' for prefetcher '" + Spec.Name +
                   "' (knobs: " + Knobs + ")";
        return nullptr;
      }
      Cfg.*K->Member = static_cast<unsigned>(Value);
    }
    // The one unit that reads the environment: with a TLB modelled, stream
    // buffers stop at page boundaries.
    if constexpr (std::is_same_v<ConfigT, StreamBufferConfig>) {
      if (Env.PageBounded) {
        Cfg.StopAtPageBoundary = true;
        Cfg.PageBits = Env.PageBits;
      }
    }
    std::string Why = Cfg.invalidReason();
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
  add(unitEntry<StreamBufferUnit>(
      "sb4x4", "predictor-directed stream buffers, 4 buffers x 4 deep",
      StreamBufferConfig::config4x4()));
  add(unitEntry<StreamBufferUnit>(
      "sb8x8",
      "predictor-directed stream buffers, 8 buffers x 8 deep (the paper's "
      "baseline)",
      StreamBufferConfig::config8x8()));
  add(unitEntry<StreamBufferUnit>(
      "stream",
      "parameterized stream buffers (alias of sb8x8 defaults; set "
      "buffers/depth)",
      StreamBufferConfig::config8x8(), /*InArsenal=*/false));
  add(unitEntry<EnhancedStreamPrefetcher>(
      "enhanced-stream",
      "region-based streams with noise-tolerant training and dead-stream "
      "removal (Liu et al., JILP 2011)",
      EnhancedStreamConfig::baseline()));
  add(unitEntry<DcptPrefetcher>(
      "dcpt", "delta-correlating prediction tables (Grannaes et al., DPC-1)",
      DcptConfig::baseline()));
  add(unitEntry<TskidPrefetcher>(
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

void PrefetcherRegistry::add(Info I) {
  // Re-registration is a programming error: a silent overwrite would let
  // one translation unit quietly shadow another's factory, and every spec
  // naming the entry would resolve to a different unit depending on
  // registration order.
  auto [It, Inserted] = Entries.emplace(I.Name, Info{});
  TRIDENT_CHECK(Inserted, "duplicate prefetcher registration '%s'",
                I.Name.c_str());
  It->second = std::move(I);
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
PrefetcherRegistry::create(const std::string &Spec, const PrefetcherEnv &Env,
                           std::string *Error) const {
  if (isNone(Spec))
    return nullptr;
  PrefetcherSpec S;
  if (!PrefetcherSpec::parse(Spec, S, Error))
    return nullptr;
  const Info *I = lookup(S.Name);
  if (!I) {
    if (Error) {
      *Error = "unknown prefetcher '" + S.Name + "' (registered:";
      for (const auto &E : Entries)
        *Error += " " + E.first;
      *Error += ", none)";
    }
    return nullptr;
  }
  return I->Make(S, Env, Error);
}

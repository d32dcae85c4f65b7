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

#include <cerrno>
#include <cstdlib>
#include <limits>

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
    // Signs are rejected up front: strtoull silently *accepts* "-1" and
    // wraps it to 2^64-1, which would then truncate to a huge unsigned in
    // every factory. Knobs are unsigned quantities; make that explicit.
    if (Val[0] == '-' || Val[0] == '+') {
      if (Error)
        *Error = "knob '" + Key + "' has signed value '" + Val +
                 "' in spec '" + Spec + "' (knobs are unsigned)";
      return false;
    }
    char *End = nullptr;
    errno = 0;
    unsigned long long V = std::strtoull(Val.c_str(), &End, 0);
    if (End == Val.c_str() || *End != '\0') {
      if (Error)
        *Error = "knob '" + Key + "' has non-integer value '" + Val +
                 "' in spec '" + Spec + "'";
      return false;
    }
    // Every consumer narrows knobs to unsigned (32-bit); values past that
    // would truncate silently, so the parser owns the range check.
    if (errno == ERANGE || V > std::numeric_limits<unsigned>::max()) {
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
    Out.Knobs.emplace_back(Key, static_cast<uint64_t>(V));
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

bool PrefetcherSpec::checkKnobs(std::initializer_list<const char *> Allowed,
                                std::string *Error) const {
  for (const auto &K : Knobs) {
    bool Ok = false;
    for (const char *A : Allowed)
      Ok |= K.first == A;
    if (!Ok) {
      if (Error) {
        std::string List;
        for (const char *A : Allowed) {
          if (!List.empty())
            List += ", ";
          List += A;
        }
        *Error = "unknown knob '" + K.first + "' for prefetcher '" + Name +
                 "' (knobs: " + (List.empty() ? "none" : List) + ")";
      }
      return false;
    }
  }
  return true;
}

std::string trident::sizeKnobsReason(const char *Unit,
                                     std::initializer_list<SizeKnob> Knobs,
                                     unsigned Max) {
  for (const SizeKnob &K : Knobs)
    if (K.Value < K.Min || K.Value > Max)
      return std::string(Unit) + " knob '" + K.Name + "' is " +
             std::to_string(K.Value) + ", outside [" + std::to_string(K.Min) +
             ", " + std::to_string(Max) + "]";
  return "";
}

namespace {

/// Builds a \p UnitT from \p Cfg, or returns nullptr with the config's
/// invalidReason() in \p Error.
template <typename UnitT, typename ConfigT>
std::unique_ptr<HwPrefetcher> makeUnit(const ConfigT &Cfg,
                                       std::string *Error) {
  std::string Why = Cfg.invalidReason();
  if (!Why.empty()) {
    if (Error)
      *Error = std::move(Why);
    return nullptr;
  }
  return std::make_unique<UnitT>(Cfg);
}

/// Shared factory body for the stream-buffer entries; \p Buffers/\p Depth
/// are the entry's defaults, overridable via knobs.
std::unique_ptr<HwPrefetcher>
makeStreamBuffers(const PrefetcherSpec &Spec, const PrefetcherEnv &Env,
                  unsigned Buffers, unsigned Depth, std::string *Error) {
  if (!Spec.checkKnobs({"buffers", "depth", "history"}, Error))
    return nullptr;
  StreamBufferConfig Cfg;
  Cfg.NumBuffers = static_cast<unsigned>(Spec.knobOr("buffers", Buffers));
  Cfg.Depth = static_cast<unsigned>(Spec.knobOr("depth", Depth));
  Cfg.HistoryEntries =
      static_cast<unsigned>(Spec.knobOr("history", Cfg.HistoryEntries));
  if (Env.PageBounded) {
    Cfg.StopAtPageBoundary = true;
    Cfg.PageBits = Env.PageBits;
  }
  return makeUnit<StreamBufferUnit>(Cfg, Error);
}

} // namespace

PrefetcherRegistry::PrefetcherRegistry() {
  add({"sb4x4", "predictor-directed stream buffers, 4 buffers x 4 deep",
       "buffers, depth, history", true,
       [](const PrefetcherSpec &S, const PrefetcherEnv &E, std::string *Err) {
         return makeStreamBuffers(S, E, 4, 4, Err);
       }});
  add({"sb8x8",
       "predictor-directed stream buffers, 8 buffers x 8 deep (the paper's "
       "baseline)",
       "buffers, depth, history", true,
       [](const PrefetcherSpec &S, const PrefetcherEnv &E, std::string *Err) {
         return makeStreamBuffers(S, E, 8, 8, Err);
       }});
  add({"stream",
       "parameterized stream buffers (alias of sb8x8 defaults; set "
       "buffers/depth)",
       "buffers, depth, history", /*InArsenal=*/false,
       [](const PrefetcherSpec &S, const PrefetcherEnv &E, std::string *Err) {
         return makeStreamBuffers(S, E, 8, 8, Err);
       }});
  add({"enhanced-stream",
       "region-based streams with noise-tolerant training and dead-stream "
       "removal (Liu et al., JILP 2011)",
       "trainers, streams, degree, depth, region, confirm", true,
       [](const PrefetcherSpec &S, const PrefetcherEnv &,
          std::string *Err) -> std::unique_ptr<HwPrefetcher> {
         if (!S.checkKnobs(
                 {"trainers", "streams", "degree", "depth", "region",
                  "confirm"},
                 Err))
           return nullptr;
         EnhancedStreamConfig Cfg = EnhancedStreamConfig::baseline();
         Cfg.NumTrainingEntries =
             static_cast<unsigned>(S.knobOr("trainers", Cfg.NumTrainingEntries));
         Cfg.NumStreams =
             static_cast<unsigned>(S.knobOr("streams", Cfg.NumStreams));
         Cfg.Degree = static_cast<unsigned>(S.knobOr("degree", Cfg.Degree));
         Cfg.Depth = static_cast<unsigned>(S.knobOr("depth", Cfg.Depth));
         Cfg.RegionLines =
             static_cast<unsigned>(S.knobOr("region", Cfg.RegionLines));
         Cfg.ConfirmMisses =
             static_cast<unsigned>(S.knobOr("confirm", Cfg.ConfirmMisses));
         return makeUnit<EnhancedStreamPrefetcher>(Cfg, Err);
       }});
  add({"dcpt",
       "delta-correlating prediction tables (Grannaes et al., DPC-1)",
       "entries, deltas, degree, buffer", true,
       [](const PrefetcherSpec &S, const PrefetcherEnv &,
          std::string *Err) -> std::unique_ptr<HwPrefetcher> {
         if (!S.checkKnobs({"entries", "deltas", "degree", "buffer"}, Err))
           return nullptr;
         DcptConfig Cfg = DcptConfig::baseline();
         Cfg.NumEntries =
             static_cast<unsigned>(S.knobOr("entries", Cfg.NumEntries));
         Cfg.NumDeltas =
             static_cast<unsigned>(S.knobOr("deltas", Cfg.NumDeltas));
         Cfg.Degree = static_cast<unsigned>(S.knobOr("degree", Cfg.Degree));
         Cfg.BufferCapacity =
             static_cast<unsigned>(S.knobOr("buffer", Cfg.BufferCapacity));
         return makeUnit<DcptPrefetcher>(Cfg, Err);
       }});
  add({"tskid",
       "trigger/target timing prefetcher with learned issue skid "
       "(T-SKID, DPC-3)",
       "entries, recent, pending, buffer, lead, minskid", true,
       [](const PrefetcherSpec &S, const PrefetcherEnv &,
          std::string *Err) -> std::unique_ptr<HwPrefetcher> {
         if (!S.checkKnobs(
                 {"entries", "recent", "pending", "buffer", "lead",
                  "minskid"},
                 Err))
           return nullptr;
         TskidConfig Cfg = TskidConfig::baseline();
         Cfg.NumEntries =
             static_cast<unsigned>(S.knobOr("entries", Cfg.NumEntries));
         Cfg.RecentMissDepth =
             static_cast<unsigned>(S.knobOr("recent", Cfg.RecentMissDepth));
         Cfg.PendingDepth =
             static_cast<unsigned>(S.knobOr("pending", Cfg.PendingDepth));
         Cfg.BufferCapacity =
             static_cast<unsigned>(S.knobOr("buffer", Cfg.BufferCapacity));
         Cfg.LeadCycles =
             static_cast<unsigned>(S.knobOr("lead", Cfg.LeadCycles));
         Cfg.MinSkidCycles =
             static_cast<unsigned>(S.knobOr("minskid", Cfg.MinSkidCycles));
         return makeUnit<TskidPrefetcher>(Cfg, Err);
       }});
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

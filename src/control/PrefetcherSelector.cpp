//===- PrefetcherSelector.cpp ---------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "control/PrefetcherSelector.h"

#include "hwpf/PrefetcherRegistry.h"
#include "support/Check.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

using namespace trident;

namespace {

/// Every policy in enum order, with its name and its knob vocabulary: the
/// bandit owns the learning knobs, the oracle only shapes the epoch clock,
/// and static takes nothing.
struct PolicyRow {
  SelectorPolicy Policy;
  const char *Name;
  std::vector<std::string> Knobs;
};

const std::vector<PolicyRow> &policies() {
  static const std::vector<PolicyRow> Table = {
      {SelectorPolicy::Static, "static", {}},
      {SelectorPolicy::Bandit, "bandit",
       {"epoch", "interval", "seed", "eps", "ucb", "ema"}},
      {SelectorPolicy::Oracle, "oracle", {"epoch", "interval"}},
  };
  return Table;
}

/// "static, bandit, oracle": every policy in enum order.
std::string policyNames() {
  std::string Text;
  for (const PolicyRow &P : policies())
    Text += (Text.empty() ? "" : ", ") + std::string(P.Name);
  return Text;
}

/// "bandit: epoch, ...; oracle: ...; static: none": every policy's knobs,
/// policies in name order.
std::string knobVocabulary() {
  std::vector<const PolicyRow *> ByName;
  for (const PolicyRow &P : policies())
    ByName.push_back(&P);
  std::sort(ByName.begin(), ByName.end(),
            [](const PolicyRow *A, const PolicyRow *B) {
              return std::string_view(A->Name) < B->Name;
            });
  std::string Text;
  for (const PolicyRow *P : ByName) {
    Text += Text.empty() ? "" : "; ";
    Text += P->Name;
    Text += ": ";
    for (size_t I = 0; I < P->Knobs.size(); ++I)
      Text += (I ? ", " : "") + P->Knobs[I];
    Text += P->Knobs.empty() ? "none" : "";
  }
  return Text;
}

} // namespace

const char *trident::selectorPolicyName(SelectorPolicy P) {
  for (const PolicyRow &R : policies())
    if (R.Policy == P)
      return R.Name;
  return "<bad>";
}

bool SelectorConfig::parse(const std::string &Spec, SelectorConfig &Out,
                           std::string *Error) {
  Out = SelectorConfig();
  if (Spec.empty())
    return true;
  PrefetcherSpec S;
  if (!PrefetcherSpec::parse(Spec, S, Error))
    return false;
  const std::vector<PolicyRow> &All = policies();
  auto Row = std::find_if(All.begin(), All.end(),
                          [&](const PolicyRow &P) { return S.Name == P.Name; });
  if (Row == All.end()) {
    if (Error)
      *Error = "unknown selector policy '" + S.Name + "' (policies: " +
               policyNames() + ")";
    return false;
  }
  Out.Policy = Row->Policy;
  const std::vector<std::string> &Allowed = Row->Knobs;
  for (const auto &K : S.Knobs) {
    if (std::find(Allowed.begin(), Allowed.end(), K.first) == Allowed.end()) {
      if (Error)
        *Error = "unknown knob '" + K.first + "' for selector policy '" +
                 S.Name + "' (" + knobVocabulary() + ")";
      return false;
    }
  }
  Out.SamplesPerEpoch = S.knobOr("epoch", Out.SamplesPerEpoch);
  Out.IntervalCommits = S.knobOr("interval", Out.IntervalCommits);
  Out.Seed = S.knobOr("seed", Out.Seed);
  Out.EpsilonPermille = S.knobOr("eps", Out.EpsilonPermille);
  Out.Ucb = S.knobOr("ucb", Out.Ucb ? 1 : 0) != 0;
  Out.EmaPermille = S.knobOr("ema", Out.EmaPermille);
  if (Out.enabled() && (Out.SamplesPerEpoch == 0 || Out.IntervalCommits == 0)) {
    if (Error)
      *Error = "selector knobs epoch/interval must be nonzero in spec '" +
               Spec + "'";
    return false;
  }
  if (Out.EpsilonPermille > 1000 || Out.EmaPermille == 0 ||
      Out.EmaPermille > 1000) {
    if (Error)
      *Error = "selector knob out of range in spec '" + Spec +
               "' (eps: 0..1000, ema: 1..1000)";
    return false;
  }
  return true;
}

std::string SelectorConfig::shortName() const {
  if (Policy == SelectorPolicy::Bandit && Ucb)
    return "bandit-ucb";
  return selectorPolicyName(Policy);
}

PrefetcherSelector::~PrefetcherSelector() = default;

namespace {

/// Seeded epsilon-greedy / UCB1 over the arsenal. Rewards are EMAs of
/// -ExposedPerLoad so the value estimates track the current phase rather
/// than the whole history; a round-robin warm start gives every arm one
/// epoch before any exploitation. All tie-breaks go to the lowest arm
/// index, and the only randomness is the private SplitMix64, so the
/// decision sequence is a pure function of (seed, reward sequence).
class BanditSelector final : public PrefetcherSelector {
public:
  BanditSelector(const SelectorConfig &C, unsigned NumArms)
      : Eps(C.EpsilonPermille), EmaPermille(C.EmaPermille), Ucb(C.Ucb),
        Rng(C.Seed), Value(NumArms, 0.0), Pulls(NumArms, 0) {}

  unsigned decide(const PhaseSignature &Sig, unsigned CurrentArm) override {
    const unsigned N = static_cast<unsigned>(Value.size());
    if (CurrentArm < N) {
      const double R = -Sig.ExposedPerLoad;
      double &V = Value[CurrentArm];
      if (Pulls[CurrentArm] == 0)
        V = R;
      else {
        const double W = static_cast<double>(EmaPermille) / 1000.0;
        V = (1.0 - W) * V + W * R;
      }
      ++Pulls[CurrentArm];
      ++TotalPulls;
    }
    // Warm start: unpulled arms first, in index order.
    for (unsigned A = 0; A < N; ++A)
      if (Pulls[A] == 0)
        return A;
    if (Ucb) {
      unsigned Pick = ucbPick();
      if (Pick != greedyPick())
        ++Explored;
      return Pick;
    }
    // One epsilon draw per epoch; an exploration epoch draws the arm from
    // the same stream.
    if (Rng.nextBelow(1000) < Eps) {
      ++Explored;
      return static_cast<unsigned>(Rng.nextBelow(Value.size()));
    }
    return greedyPick();
  }

  uint64_t explorations() const override { return Explored; }

private:
  unsigned greedyPick() const {
    unsigned Best = 0;
    for (unsigned A = 1; A < Value.size(); ++A)
      if (Value[A] > Value[Best]) // strict: ties keep the lowest index
        Best = A;
    return Best;
  }

  unsigned ucbPick() const {
    // UCB1 with the bonus scaled to the observed value spread: rewards are
    // latencies (arbitrary magnitude), not [0,1], so a fixed constant
    // would either never or always explore.
    double Spread = 0.0;
    for (unsigned A = 0; A < Value.size(); ++A)
      for (unsigned B = A + 1; B < Value.size(); ++B)
        Spread = std::max(Spread, std::abs(Value[A] - Value[B]));
    const double Scale = Spread > 0.0 ? Spread : 1.0;
    unsigned Best = 0;
    double BestScore = 0.0;
    for (unsigned A = 0; A < Value.size(); ++A) {
      const double Bonus =
          Scale * std::sqrt(2.0 * std::log(static_cast<double>(TotalPulls)) /
                            static_cast<double>(Pulls[A]));
      const double Score = Value[A] + Bonus;
      if (A == 0 || Score > BestScore) {
        Best = A;
        BestScore = Score;
      }
    }
    return Best;
  }

  uint64_t Eps;
  uint64_t EmaPermille;
  bool Ucb;
  SplitMix64 Rng;
  std::vector<double> Value;
  std::vector<uint64_t> Pulls;
  uint64_t TotalPulls = 0;
  uint64_t Explored = 0;
};

/// Holds the arm resolveSelectorOracle() pinned. The first decision swaps
/// to it (if the run started elsewhere); every later epoch keeps it.
class OracleSelector final : public PrefetcherSelector {
public:
  explicit OracleSelector(unsigned A) : Arm(A) {}
  unsigned decide(const PhaseSignature &, unsigned) override { return Arm; }

private:
  unsigned Arm;
};

} // namespace

std::unique_ptr<PrefetcherSelector>
PrefetcherSelector::create(const SelectorConfig &C, unsigned NumArms,
                           unsigned OracleArm) {
  TRIDENT_CHECK(NumArms > 0, "selector needs a nonempty arsenal");
  switch (C.Policy) {
  case SelectorPolicy::Static:
    break;
  case SelectorPolicy::Bandit:
    return std::make_unique<BanditSelector>(C, NumArms);
  case SelectorPolicy::Oracle:
    TRIDENT_CHECK(OracleArm < NumArms,
                  "oracle selector not resolved (arm %u of %u); call "
                  "resolveSelectorOracle before running",
                  OracleArm, NumArms);
    return std::make_unique<OracleSelector>(OracleArm);
  }
  TRIDENT_CHECK(false, "static selector policy has no object form");
  return nullptr;
}

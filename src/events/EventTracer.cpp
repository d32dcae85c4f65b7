//===- EventTracer.cpp ----------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "events/EventTracer.h"
#include "support/Check.h"

#include <cstdio>

using namespace trident;

EventSubscriber::~EventSubscriber() = default;

EventTracer::EventTracer(size_t Capacity, EventKindMask M)
    : Cap(Capacity), Mask(M & kAllEventsMask) {
  TRIDENT_CHECK(Capacity >= MinCapacity,
                "tracer ring needs at least one slot");
  Ring.reserve(Capacity);
}

size_t EventTracer::size() const { return Ring.size(); }

uint64_t EventTracer::overwritten() const {
  return NumRecorded - Ring.size();
}

void EventTracer::onEvent(const HardwareEvent &E) {
  if (!(Mask & eventMaskOf(E.Kind)))
    return;
  Record R;
  R.Kind = E.Kind;
  R.Ctx = E.Ctx;
  R.PC = E.PC;
  R.Time = E.Time;
  switch (E.Kind) {
  case EventKind::LoadOutcome:
    R.Arg = E.EA;
    R.Extra = E.Access ? static_cast<uint64_t>(E.Access->Outcome) : 0;
    break;
  case EventKind::Branch:
    R.Arg = E.EA;
    R.Extra = E.Taken ? 1 : 0;
    break;
  case EventKind::TraceEntry:
  case EventKind::TraceExit:
  case EventKind::DelinquentLoad:
    R.Extra = E.TraceId;
    break;
  case EventKind::HotTrace:
    R.Arg = E.Cand.StartPC;
    R.Extra = (static_cast<uint64_t>(E.Cand.NumBranches) << 16) |
              E.Cand.Bitmap;
    break;
  case EventKind::HwPfFeedback:
    R.Arg = E.PfFb.Issued;
    R.Extra = E.PfFb.Useful + E.PfFb.Late;
    break;
  case EventKind::SelectorDecision:
    R.Arg = E.Decision.Epoch;
    R.Extra = (static_cast<uint64_t>(E.Decision.PrevArm) << 16) |
              E.Decision.ChosenArm;
    break;
  case EventKind::Commit:
  case EventKind::HelperDone:
  case EventKind::NumKinds:
    break;
  }
  ++NumRecorded;
  if (Ring.size() < Cap) {
    Ring.push_back(R);
    return;
  }
  Ring[Head] = R;
  Head = (Head + 1) % Cap;
}

std::vector<EventTracer::Record> EventTracer::snapshot() const {
  std::vector<Record> Out;
  Out.reserve(Ring.size());
  // Once wrapped, Head is the oldest record; before that, index 0 is.
  for (size_t I = 0; I < Ring.size(); ++I)
    Out.push_back(Ring[(Head + I) % Ring.size()]);
  return Out;
}

void EventTracer::clear() {
  Ring.clear();
  Head = 0;
  NumRecorded = 0;
}

std::string EventTracer::chromeTraceJson() const {
  std::string Out;
  Out.reserve(Ring.size() * 192 + 256); // one ~190-byte line per record
  Out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  char Buf[192];
  for (const Record &R : snapshot()) {
    if (!First)
      Out.push_back(',');
    First = false;
    // Instant events; ts = simulated cycle, tid = hardware context.
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
                  "\"tid\":%u,\"ts\":%llu,\"args\":{\"pc\":\"0x%llx\","
                  "\"arg\":\"0x%llx\",\"extra\":%llu}}",
                  eventKindName(R.Kind), static_cast<unsigned>(R.Ctx),
                  static_cast<unsigned long long>(R.Time),
                  static_cast<unsigned long long>(R.PC),
                  static_cast<unsigned long long>(R.Arg),
                  static_cast<unsigned long long>(R.Extra));
    Out += Buf;
  }
  Out += "],\"otherData\":{\"tool\":\"trident-srp\",\"recorded\":";
  std::snprintf(Buf, sizeof(Buf), "%llu,\"overwritten\":%llu}}",
                static_cast<unsigned long long>(NumRecorded),
                static_cast<unsigned long long>(overwritten()));
  Out += Buf;
  Out += "\n";
  return Out;
}

bool EventTracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string S = chromeTraceJson();
  size_t Written = std::fwrite(S.data(), 1, S.size(), F);
  bool Ok = Written == S.size();
  Ok &= std::fclose(F) == 0;
  return Ok;
}

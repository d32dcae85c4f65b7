//===- Simulation.cpp -----------------------------------------------------===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulation.h"

#include "sim/Machine.h"

using namespace trident;

std::string trident::hwPfConfigName(const std::string &Spec) {
  return PrefetcherRegistry::isNone(Spec) ? std::string("no-hwpf") : Spec;
}

SimConfig SimConfig::hwBaseline() {
  SimConfig C;
  C.HwPf = "sb8x8";
  C.EnableTrident = false;
  return C;
}

SimConfig SimConfig::withMode(PrefetchMode Mode) {
  SimConfig C = hwBaseline();
  C.EnableTrident = true;
  C.Runtime.Mode = Mode;
  return C;
}

SimResult trident::runSimulation(const Workload &W, const SimConfig &Config,
                                 EventTracer *Tracer) {
  Machine M(W, Config, Tracer);
  M.warmup();
  return M.measure();
}

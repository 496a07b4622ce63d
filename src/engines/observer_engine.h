// ObserverEngine (paper §4.1, 2018; production in both databases).
//
// A stateless protocol layer that measures end-to-end propose/sync latency
// of the sub-stack below it and records it into named histograms
// ("<label>.propose.latency_us", matching the production dashboard names in
// Figure 11). Standard practice is to layer one observer above each engine,
// separating monitoring from core logic. The histograms live in the
// registry of the attached probe; without one the observer only forwards.
#pragma once

#include <string>

#include "src/core/stackable_engine.h"

namespace delos {

class ObserverEngine : public StackableEngine {
 public:
  struct Options {
    // Names the layer being observed (the engine directly below); becomes
    // the metric prefix.
    std::string label;
  };

  ObserverEngine(Options options, IEngine* downstream, LocalStore* store);

  Future<std::any> Propose(LogEntry entry) override;
  Future<ROTxn> Sync() override;

 protected:
  void OnProbeAttached(const Probe& probe) override;

 private:
  std::string label_;
  Histogram* propose_hist_ = nullptr;
  Histogram* sync_hist_ = nullptr;
};

}  // namespace delos

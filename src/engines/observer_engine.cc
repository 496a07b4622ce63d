#include "src/engines/observer_engine.h"

#include "src/common/clock.h"

namespace delos {

ObserverEngine::ObserverEngine(Options options, IEngine* downstream, LocalStore* store)
    : StackableEngine("observer-" + options.label, downstream, store, StackableEngineOptions{}),
      label_(std::move(options.label)) {}

void ObserverEngine::OnProbeAttached(const Probe& probe) {
  propose_hist_ = probe.GetHistogram(label_ + ".propose.latency_us");
  sync_hist_ = probe.GetHistogram(label_ + ".sync.latency_us");
}

Future<std::any> ObserverEngine::Propose(LogEntry entry) {
  const int64_t start = RealClock::Instance()->NowMicros();
  // Route through the base class so traced proposals get this observer's
  // down-path span (and a trace id if this observer is the top of the
  // stack) in addition to the latency histogram.
  Future<std::any> future = StackableEngine::Propose(std::move(entry));
  if (propose_hist_ == nullptr) {
    return future;
  }
  future.Then([hist = propose_hist_, start](const Result<std::any>&) {
    hist->Record(RealClock::Instance()->NowMicros() - start);
  });
  return future;
}

Future<ROTxn> ObserverEngine::Sync() {
  const int64_t start = RealClock::Instance()->NowMicros();
  Future<ROTxn> future = downstream()->Sync();
  if (sync_hist_ == nullptr) {
    return future;
  }
  future.Then([hist = sync_hist_, start](const Result<ROTxn>&) {
    hist->Record(RealClock::Instance()->NowMicros() - start);
  });
  return future;
}

}  // namespace delos

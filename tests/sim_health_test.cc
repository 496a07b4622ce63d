// Deterministic stall detection: under an injected clock, a wedged apply
// thread must be flagged DEGRADED then UNHEALTHY within a bounded number of
// watchdog windows — on every seed — and a fault-free workload sweep must
// produce zero non-OK transitions (no false positives).
//
// The watchdog's background thread is never started here; the test drives
// Evaluate() directly, one call per 250ms simulated window, so detection
// latency is measured in windows, not wall seconds, and the verdict is a
// pure function of the schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/apps/zelos/zelos.h"
#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/metrics_ts.h"
#include "src/common/trace.h"
#include "src/core/base_engine.h"
#include "src/core/cluster.h"
#include "src/core/health.h"
#include "src/engines/stacks.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

constexpr int64_t kWindowMicros = 250'000;

// Applicator whose apply thread wedges on a designated payload until
// released — the injected stall.
class StallableApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    if (entry.payload == "stall") {
      in_stall_.store(true, std::memory_order_release);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return released_; });
    }
    txn.Put("k/" + std::to_string(pos), entry.payload);
    return std::any(entry.payload);
  }
  void PostApply(const LogEntry& entry, LogPos pos) override {}

  bool in_stall() const { return in_stall_.load(std::memory_order_acquire); }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::atomic<bool> in_stall_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

LogEntry PayloadEntry(std::string payload) {
  LogEntry entry;
  entry.payload = std::move(payload);
  return entry;
}

// With thresholds 500ms/1.5s and 250ms windows, the stall is DEGRADED at
// window 2 and UNHEALTHY at window 6 after onset — exactly, on every seed.
TEST(SimHealthTest, InjectedApplyStallIsFlaggedWithinBoundedWindows) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SimClock clock(static_cast<int64_t>(seed) * 1'000'000);
    auto log = std::make_shared<InMemoryLog>();
    LocalStore store;
    StallableApplicator app;
    BaseEngineOptions engine_options;
    engine_options.server_id = "victim";
    engine_options.clock = &clock;
    BaseEngine engine(log, &store, engine_options);
    engine.RegisterUpcall(&app);
    engine.Start();

    MetricsRegistry metrics;
    FlightRecorder recorder(128);
    TimeSeriesStore series(64);
    WatchdogOptions watchdog_options;
    watchdog_options.clock = &clock;
    watchdog_options.metrics = &metrics;
    watchdog_options.recorder = &recorder;
    watchdog_options.series = &series;
    Watchdog watchdog(watchdog_options);
    watchdog.AddTarget(&engine);

    // Seed-varied healthy prefix: everything applies, the verdict is OK.
    const int prefix_ops = 1 + static_cast<int>(seed % 5);
    for (int i = 0; i < prefix_ops; ++i) {
      engine.Propose(PayloadEntry("ok" + std::to_string(i))).Get();
    }
    auto reports = watchdog.Evaluate();
    EXPECT_EQ(AggregateHealth(reports), HealthState::kOk);
    EXPECT_EQ(watchdog.non_ok_transitions(), 0u);

    // Inject the stall and wait (real time) until the apply thread is
    // actually wedged inside Apply; simulated time has not moved yet.
    Future<std::any> stalled_propose = engine.Propose(PayloadEntry("stall"));
    while (!app.in_stall()) {
      RealClock::Instance()->SleepMicros(100);
    }

    int degraded_window = -1;
    int unhealthy_window = -1;
    for (int window = 1; window <= 8 && unhealthy_window < 0; ++window) {
      clock.Advance(kWindowMicros);
      reports = watchdog.Evaluate();
      const HealthState state = AggregateHealth(reports);
      if (state == HealthState::kDegraded && degraded_window < 0) {
        degraded_window = window;
      }
      if (state == HealthState::kUnhealthy) {
        unhealthy_window = window;
      }
    }
    // Detection is exact, not merely bounded: the schedule fixes it.
    EXPECT_EQ(degraded_window, 2);
    EXPECT_EQ(unhealthy_window, 6);
    EXPECT_EQ(watchdog.non_ok_transitions(), 2u);  // OK->DEGRADED->UNHEALTHY
    EXPECT_EQ(metrics.GetGauge("health.state.base")->value(), 2);
    EXPECT_EQ(metrics.GetGauge("health.state")->value(), 2);
    const std::string dump = recorder.Dump();
    EXPECT_NE(dump.find("base OK->DEGRADED"), std::string::npos);
    EXPECT_NE(dump.find("base DEGRADED->UNHEALTHY"), std::string::npos);
    EXPECT_NE(dump.find("apply stalled"), std::string::npos);

    // Release the stall: the proposal completes and the next pass recovers.
    app.Release();
    stalled_propose.Get();
    clock.Advance(kWindowMicros);
    reports = watchdog.Evaluate();
    EXPECT_EQ(AggregateHealth(reports), HealthState::kOk);
    EXPECT_EQ(metrics.GetGauge("health.state.base")->value(), 0);

    engine.Stop();
  }
}

// The reason text carries the measurements an operator needs: lag and age.
TEST(SimHealthTest, StallReportNamesLagAndAge) {
  SimClock clock;
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  StallableApplicator app;
  BaseEngineOptions engine_options;
  engine_options.clock = &clock;
  BaseEngine engine(log, &store, engine_options);
  engine.RegisterUpcall(&app);
  engine.Start();

  Future<std::any> stalled_propose = engine.Propose(PayloadEntry("stall"));
  while (!app.in_stall()) {
    RealClock::Instance()->SleepMicros(100);
  }
  clock.Advance(2'000'000);
  const HealthReport report = engine.HealthCheck();
  EXPECT_EQ(report.state, HealthState::kUnhealthy);
  EXPECT_NE(report.reason.find("apply stalled 2000000us"), std::string::npos);
  EXPECT_NE(report.reason.find("lag 1"), std::string::npos);
  EXPECT_EQ(report.value, 2'000'000);

  app.Release();
  stalled_propose.Get();
  engine.Stop();
}

// Fault-free sweep over the full Zelos stack: many seeds, a watchdog pass
// after every operation, and not a single non-OK transition anywhere.
TEST(SimHealthTest, FaultFreeSweepProducesZeroNonOkTransitions) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SimClock clock(static_cast<int64_t>(seed) * 10'000'000);
    std::map<std::string, std::unique_ptr<zelos::ZelosApplicator>> apps;
    Cluster::Options options;
    options.num_servers = 1;
    options.base_options.clock = &clock;
    Cluster cluster(options, [&](ClusterServer& server) {
      StackConfig config = ZelosStackConfig(nullptr);
      config.clock = &clock;
      // Size-triggered flushes: the batch timer would wait on simulated time
      // that only advances between operations.
      config.batch_max_entries = 1;
      BuildStack(server, config);
      auto app = std::make_unique<zelos::ZelosApplicator>();
      app->set_metrics(server.metrics());
      server.RegisterApplicator(app.get());
      server.RegisterHealthTarget(app.get());
      apps[server.id()] = std::move(app);
    });
    ClusterServer& server = cluster.server(0);
    zelos::ZelosClient client(server.top(), apps["server0"].get());

    server.CollectHealth();
    const zelos::SessionId session = client.CreateSession();
    const int ops = 6 + static_cast<int>(seed % 5);
    for (int i = 0; i < ops; ++i) {
      if (i % 3 == 0) {
        client.Create(session, "/s" + std::to_string(seed) + "n" + std::to_string(i), "v");
      } else {
        client.SetData("/s" + std::to_string(seed) + "n0", "v" + std::to_string(i));
      }
      clock.Advance(kWindowMicros);
      const auto reports = server.CollectHealth();
      EXPECT_EQ(AggregateHealth(reports), HealthState::kOk)
          << RenderHealthJson(reports) << " at op " << i;
    }
    EXPECT_EQ(server.watchdog()->non_ok_transitions(), 0u);
    EXPECT_EQ(server.watchdog()->aggregate(), HealthState::kOk);
    EXPECT_GE(server.series()->windows_committed(), static_cast<uint64_t>(ops));
    server.Stop();
  }
}

}  // namespace
}  // namespace delos

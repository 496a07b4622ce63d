// Health-plane unit tests: the windowed time-series store, Prometheus
// exposition hygiene, the Watchdog's transition bookkeeping, and engine
// verdicts.
#include <gtest/gtest.h>

#include <deque>
#include <regex>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/metrics.h"
#include "src/common/metrics_ts.h"
#include "src/common/trace.h"
#include "src/core/health.h"
#include "src/engines/batching_engine.h"

namespace delos {
namespace {

// --- TimeSeriesStore ---

TEST(TimeSeriesTest, FirstSnapshotIsBaselineOnly) {
  MetricsRegistry metrics;
  TimeSeriesStore store(8);
  metrics.GetCounter("ops")->Increment(10);
  metrics.SnapshotInto(store, 1'000'000);
  EXPECT_EQ(store.window_count(), 0u);
  EXPECT_EQ(store.windows_committed(), 0u);
  EXPECT_FALSE(store.Latest().has_value());
}

TEST(TimeSeriesTest, CounterDeltasBecomeRates) {
  MetricsRegistry metrics;
  TimeSeriesStore store(8);
  metrics.SnapshotInto(store, 0);  // baseline
  metrics.GetCounter("ops")->Increment(50);
  metrics.SnapshotInto(store, 1'000'000);  // 1s window: 50 ops
  metrics.GetCounter("ops")->Increment(150);
  metrics.SnapshotInto(store, 2'000'000);  // 1s window: 150 ops

  ASSERT_EQ(store.window_count(), 2u);
  const auto windows = store.Windows();
  EXPECT_EQ(windows[0].counter_deltas.at("ops"), 50u);
  EXPECT_EQ(windows[1].counter_deltas.at("ops"), 150u);
  EXPECT_EQ(windows[1].width_micros(), 1'000'000);
  EXPECT_DOUBLE_EQ(store.RatePerSecond("ops", 1), 150.0);
  EXPECT_DOUBLE_EQ(store.RatePerSecond("ops", 2), 100.0);
  EXPECT_DOUBLE_EQ(store.RatePerSecond("absent"), 0.0);
}

TEST(TimeSeriesTest, GaugesAreLastValue) {
  MetricsRegistry metrics;
  TimeSeriesStore store(8);
  metrics.SnapshotInto(store, 0);
  metrics.GetGauge("depth")->Set(7);
  metrics.SnapshotInto(store, 1'000'000);
  metrics.GetGauge("depth")->Set(3);
  metrics.SnapshotInto(store, 2'000'000);
  ASSERT_TRUE(store.LatestGauge("depth").has_value());
  EXPECT_EQ(*store.LatestGauge("depth"), 3);
  EXPECT_FALSE(store.LatestGauge("absent").has_value());
}

TEST(TimeSeriesTest, RingEvictsOldestWindows) {
  MetricsRegistry metrics;
  TimeSeriesStore store(4);
  metrics.SnapshotInto(store, 0);
  for (int i = 1; i <= 10; ++i) {
    metrics.GetCounter("ops")->Increment(1);
    metrics.SnapshotInto(store, i * 1'000'000);
  }
  EXPECT_EQ(store.window_count(), 4u);
  EXPECT_EQ(store.windows_committed(), 10u);
  const auto windows = store.Windows();
  EXPECT_EQ(windows.front().index, 6u);  // oldest retained = 10 - 4
  EXPECT_EQ(windows.back().index, 9u);
}

TEST(TimeSeriesTest, CounterResetClampsDeltaAtZero) {
  MetricsRegistry metrics;
  TimeSeriesStore store(8);
  metrics.GetCounter("ops")->Increment(100);
  metrics.SnapshotInto(store, 0);
  metrics.GetCounter("ops")->Reset();
  metrics.SnapshotInto(store, 1'000'000);
  ASSERT_EQ(store.window_count(), 1u);
  // A reset moves the cumulative value backward; the window must not carry a
  // huge wrapped delta.
  EXPECT_EQ(store.Windows()[0].counter_deltas.at("ops"), 0u);
}

TEST(TimeSeriesTest, BackwardClockJumpClampsTheWindowAtItsStart) {
  MetricsRegistry metrics;
  TimeSeriesStore store(8);
  metrics.SnapshotInto(store, 2'000'000);  // baseline at t=2s
  metrics.GetCounter("ops")->Increment(10);
  // The injected clock stepped backward (NTP step, or a sim reusing a rig):
  // the window must clamp to zero width, never end before it starts.
  metrics.SnapshotInto(store, 1'000'000);
  ASSERT_EQ(store.window_count(), 1u);
  auto windows = store.Windows();
  EXPECT_EQ(windows[0].start_micros, 2'000'000);
  EXPECT_EQ(windows[0].end_micros, 2'000'000);
  EXPECT_EQ(windows[0].width_micros(), 0);
  EXPECT_EQ(windows[0].counter_deltas.at("ops"), 10u);
  // Zero-width windows contribute no rate (the division is guarded).
  EXPECT_DOUBLE_EQ(store.RatePerSecond("ops", 1), 0.0);
  // The next window opens at the clamped end — a backward jump must not
  // drag subsequent windows' starts backward with it.
  metrics.GetCounter("ops")->Increment(5);
  metrics.SnapshotInto(store, 3'000'000);
  windows = store.Windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[1].start_micros, 2'000'000);
  EXPECT_EQ(windows[1].end_micros, 3'000'000);
  EXPECT_DOUBLE_EQ(store.RatePerSecond("ops", 1), 5.0);
}

TEST(TimeSeriesTest, DuplicateTimestampSnapshotsYieldZeroWidthWindows) {
  MetricsRegistry metrics;
  TimeSeriesStore store(8);
  metrics.SnapshotInto(store, 1'000'000);  // baseline
  metrics.GetCounter("ops")->Increment(100);
  metrics.GetHistogram("lat")->Record(250);
  metrics.SnapshotInto(store, 1'000'000);  // same timestamp (frozen sim clock)
  ASSERT_EQ(store.window_count(), 1u);
  const auto windows = store.Windows();
  EXPECT_EQ(windows[0].width_micros(), 0);
  // Deltas still land in the window — only the rate collapses to zero.
  EXPECT_EQ(windows[0].counter_deltas.at("ops"), 100u);
  EXPECT_EQ(windows[0].histograms.at("lat").count, 1u);
  EXPECT_DOUBLE_EQ(store.RatePerSecond("ops", 1), 0.0);
}

TEST(TimeSeriesTest, CounterResetAcrossBackwardJumpStaysClamped) {
  MetricsRegistry metrics;
  TimeSeriesStore store(8);
  metrics.GetCounter("ops")->Increment(100);
  metrics.SnapshotInto(store, 5'000'000);  // baseline with a high cumulative
  metrics.GetCounter("ops")->Reset();
  metrics.GetCounter("ops")->Increment(3);
  metrics.SnapshotInto(store, 4'000'000);  // reset AND a backward clock jump
  ASSERT_EQ(store.window_count(), 1u);
  // Both clamps hold at once: no wrapped 2^64 delta, no negative-width
  // window feeding a nonsense rate.
  EXPECT_EQ(store.Windows()[0].counter_deltas.at("ops"), 0u);
  EXPECT_EQ(store.Windows()[0].width_micros(), 0);
  EXPECT_DOUBLE_EQ(store.RatePerSecond("ops", 1), 0.0);
}

TEST(TimeSeriesTest, HistogramWindowsCarryPerWindowPercentiles) {
  MetricsRegistry metrics;
  TimeSeriesStore store(8);
  metrics.SnapshotInto(store, 0);
  Histogram* hist = metrics.GetHistogram("lat");
  for (int i = 0; i < 100; ++i) {
    hist->Record(10);
  }
  metrics.SnapshotInto(store, 1'000'000);
  // Second window: much slower samples — its p99 must reflect only them.
  for (int i = 0; i < 100; ++i) {
    hist->Record(5000);
  }
  metrics.SnapshotInto(store, 2'000'000);

  const auto windows = store.Windows();
  ASSERT_EQ(windows.size(), 2u);
  const auto& w0 = windows[0].histograms.at("lat");
  const auto& w1 = windows[1].histograms.at("lat");
  EXPECT_EQ(w0.count, 100u);
  EXPECT_EQ(w1.count, 100u);
  EXPECT_LT(w0.p99, 100);
  EXPECT_GE(w1.p99, 5000 / 2);  // bucket-resolution slack
  EXPECT_GT(w1.max, w0.max);
}

TEST(TimeSeriesTest, RenderJsonAndTableNameTheMetrics) {
  MetricsRegistry metrics;
  TimeSeriesStore store(8);
  metrics.SnapshotInto(store, 0);
  metrics.GetCounter("base.apply.records")->Increment(42);
  metrics.GetGauge("queue.depth")->Set(5);
  metrics.GetHistogram("lat")->Record(100);
  metrics.SnapshotInto(store, 1'000'000);

  const std::string json = store.RenderJson();
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
  EXPECT_NE(json.find("base.apply.records"), std::string::npos);
  const std::string table = store.RenderTable();
  EXPECT_NE(table.find("rate/s"), std::string::npos);
  EXPECT_NE(table.find("base.apply.records"), std::string::npos);
  EXPECT_NE(table.find("queue.depth"), std::string::npos);
  EXPECT_NE(table.find("lat"), std::string::npos);
}

// --- Prometheus exposition hygiene ---

TEST(PrometheusTest, NameSanitization) {
  EXPECT_EQ(PrometheusName("base.apply.records"), "base_apply_records");
  EXPECT_EQ(PrometheusName("health.state.zelos"), "health_state_zelos");
  EXPECT_EQ(PrometheusName("weird-name/with spaces"), "weird_name_with_spaces");
  EXPECT_EQ(PrometheusName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusName(""), "_");
  EXPECT_EQ(PrometheusName("already_fine:total"), "already_fine:total");
}

// Round-trip lint: every line RenderPrometheus emits — even for hostile
// metric names — must parse under the exposition grammar.
TEST(PrometheusTest, RenderedExpositionPassesLint) {
  MetricsRegistry metrics;
  metrics.GetCounter("base.apply.records")->Increment(3);
  metrics.GetCounter("9starts.with-digit")->Increment(1);
  metrics.GetGauge("queue depth (entries)")->Set(-2);
  metrics.GetHistogram("lat.us")->Record(150);

  const std::regex type_line(R"(^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)$)");
  const std::regex sample_line(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"\})? -?[0-9]+(\.[0-9]+)?$)");

  const std::string exposition = metrics.RenderPrometheus();
  size_t start = 0;
  int samples = 0;
  while (start < exposition.size()) {
    size_t end = exposition.find('\n', start);
    if (end == std::string::npos) {
      end = exposition.size();
    }
    const std::string line = exposition.substr(start, end - start);
    start = end + 1;
    if (line.empty()) {
      continue;
    }
    if (line.rfind("# ", 0) == 0) {
      EXPECT_TRUE(std::regex_match(line, type_line)) << "bad TYPE line: " << line;
    } else {
      EXPECT_TRUE(std::regex_match(line, sample_line)) << "bad sample line: " << line;
      ++samples;
    }
  }
  EXPECT_GE(samples, 7);  // 2 counters + 1 gauge + 4 summary lines
}

// --- Watchdog ---

class FakeTarget : public IHealthCheckable {
 public:
  explicit FakeTarget(std::string component) : component_(std::move(component)) {}
  HealthReport HealthCheck() const override {
    return HealthReport{component_, state_, reason_, value_};
  }
  void Set(HealthState state, std::string reason = "", int64_t value = 0) {
    state_ = state;
    reason_ = std::move(reason);
    value_ = value;
  }

 private:
  std::string component_;
  HealthState state_ = HealthState::kOk;
  std::string reason_;
  int64_t value_ = 0;
};

TEST(WatchdogTest, RecordsTransitionsOnceAndUpdatesGauges) {
  SimClock clock;
  MetricsRegistry metrics;
  FlightRecorder recorder(64);
  TimeSeriesStore series(16);
  std::vector<std::string> fired;
  WatchdogOptions options;
  options.clock = &clock;
  options.metrics = &metrics;
  options.recorder = &recorder;
  options.series = &series;
  options.on_transition = [&](const HealthReport& report, HealthState previous) {
    fired.push_back(report.component + ":" + HealthStateName(previous) + "->" +
                    HealthStateName(report.state));
  };
  Watchdog watchdog(options);
  FakeTarget apply("apply");
  FakeTarget batch("batch");
  watchdog.AddTarget(&apply);
  watchdog.AddTarget(&batch);

  // Healthy pass: no transitions (OK is the assumed starting state).
  clock.Advance(250'000);
  watchdog.Evaluate();
  EXPECT_EQ(watchdog.transitions(), 0u);
  EXPECT_EQ(watchdog.aggregate(), HealthState::kOk);

  // One component goes unhealthy: exactly one transition, recorded once.
  apply.Set(HealthState::kUnhealthy, "apply stalled", 1'700'000);
  clock.Advance(250'000);
  watchdog.Evaluate();
  clock.Advance(250'000);
  watchdog.Evaluate();  // still unhealthy: no second transition
  EXPECT_EQ(watchdog.transitions(), 1u);
  EXPECT_EQ(watchdog.non_ok_transitions(), 1u);
  EXPECT_EQ(watchdog.aggregate(), HealthState::kUnhealthy);
  EXPECT_EQ(metrics.GetGauge("health.state")->value(), 2);
  EXPECT_EQ(metrics.GetGauge("health.state.apply")->value(), 2);
  EXPECT_EQ(metrics.GetGauge("health.state.batch")->value(), 0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], "apply:OK->UNHEALTHY");

  // Recovery is also a transition (back to OK), but not a non-OK one.
  apply.Set(HealthState::kOk);
  clock.Advance(250'000);
  watchdog.Evaluate();
  EXPECT_EQ(watchdog.transitions(), 2u);
  EXPECT_EQ(watchdog.non_ok_transitions(), 1u);
  EXPECT_EQ(watchdog.aggregate(), HealthState::kOk);

  // The flight recorder carries the transition with the reason.
  const std::string dump = recorder.Dump();
  EXPECT_NE(dump.find("health"), std::string::npos);
  EXPECT_NE(dump.find("apply OK->UNHEALTHY apply stalled"), std::string::npos);
  EXPECT_NE(dump.find("apply UNHEALTHY->OK"), std::string::npos);

  // Each pass closed one time-series window (first was the baseline).
  EXPECT_EQ(watchdog.evaluations(), 4u);
  EXPECT_EQ(series.windows_committed(), 3u);
}

TEST(WatchdogTest, AggregateIsTheWorstComponent) {
  Watchdog watchdog{WatchdogOptions{}};
  FakeTarget a("a");
  FakeTarget b("b");
  watchdog.AddTarget(&a);
  watchdog.AddTarget(&b);
  a.Set(HealthState::kDegraded, "slow");
  auto reports = watchdog.Evaluate();
  EXPECT_EQ(AggregateHealth(reports), HealthState::kDegraded);
  b.Set(HealthState::kUnhealthy, "wedged");
  reports = watchdog.Evaluate();
  EXPECT_EQ(AggregateHealth(reports), HealthState::kUnhealthy);
  EXPECT_EQ(watchdog.aggregate(), HealthState::kUnhealthy);
}

TEST(WatchdogTest, RemoveTargetStopsEvaluatingIt) {
  Watchdog watchdog{WatchdogOptions{}};
  FakeTarget a("a");
  FakeTarget b("b");
  watchdog.AddTarget(&a);
  watchdog.AddTarget(&b);
  EXPECT_EQ(watchdog.Evaluate().size(), 2u);
  watchdog.RemoveTarget(&a);
  const auto reports = watchdog.Evaluate();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].component, "b");
}

TEST(WatchdogTest, HealthJsonRendersStateAndEscapes) {
  std::vector<HealthReport> reports;
  reports.push_back({"base", HealthState::kOk, "", 0});
  reports.push_back({"batch", HealthState::kUnhealthy, "stuck \"batch\"\n", 42});
  const std::string json = RenderHealthJson(reports);
  EXPECT_NE(json.find("\"state\":\"UNHEALTHY\""), std::string::npos);
  EXPECT_NE(json.find("\"component\":\"base\""), std::string::npos);
  EXPECT_NE(json.find("stuck \\\"batch\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
}

TEST(WatchdogTest, BackgroundThreadEvaluatesOnCadence) {
  WatchdogOptions options;
  options.cadence_micros = 2'000;  // fast cadence so the test stays quick
  Watchdog watchdog(options);
  FakeTarget a("a");
  watchdog.AddTarget(&a);
  watchdog.Start();
  while (watchdog.evaluations() < 3) {
  }
  watchdog.Stop();
  EXPECT_GE(watchdog.evaluations(), 3u);
  EXPECT_EQ(watchdog.aggregate(), HealthState::kOk);
}

// --- Engine verdicts ---

// A downstream whose proposals never settle while it lives.
class WedgedDownstream : public IEngine {
 public:
  Future<std::any> Propose(LogEntry entry) override {
    promises_.emplace_back();
    return promises_.back().GetFuture();
  }
  Future<ROTxn> Sync() override {
    return MakeErrorFuture<ROTxn>(std::make_exception_ptr(LogUnavailableError("wedged")));
  }
  void RegisterUpcall(IApplicator* applicator) override {}
  void SetTrimPrefix(LogPos pos) override {}

 private:
  std::deque<Promise<std::any>> promises_;
};

TEST(EngineHealthTest, BatchBehindAWedgedDownstreamDegradesThenTurnsUnhealthy) {
  SimClock clock(1'000'000);
  LocalStore store;
  WedgedDownstream downstream;
  BatchingEngine::Options options;
  options.clock = &clock;
  BatchingEngine batching(options, &downstream, &store);
  LogEntry first;
  first.payload = "in flight forever";
  batching.Propose(std::move(first));
  LogEntry second;
  second.payload = "waits behind it";
  batching.Propose(std::move(second));
  EXPECT_EQ(batching.HealthCheck().state, HealthState::kOk);

  clock.Advance(100'000);
  const HealthReport degraded = batching.HealthCheck();
  EXPECT_EQ(degraded.state, HealthState::kDegraded);
  EXPECT_EQ(degraded.reason, "open batch aged 100000us (1 entries) behind an in-flight batch");

  clock.Advance(900'000);
  const HealthReport unhealthy = batching.HealthCheck();
  EXPECT_EQ(unhealthy.state, HealthState::kUnhealthy);
  EXPECT_EQ(unhealthy.reason,
            "open batch stuck 1000000us (1 entries) behind an in-flight batch; downstream "
            "wedged");
  EXPECT_EQ(unhealthy.value, 1'000'000);
}

}  // namespace
}  // namespace delos

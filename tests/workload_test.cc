// Workload attribution unit tests: the two streaming sketches (exactness,
// error bounds, per-key bytes) and the WorkloadAttributor (hot-spot
// detection and re-arm, per-layer accounting, key truncation, sampling
// semantics).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/common/workload.h"

namespace delos {
namespace {

// --- SpaceSaving ---

TEST(SpaceSavingTest, ExactWhileDistinctKeysFitCapacity) {
  SpaceSaving sketch(8, /*seed=*/7);
  for (int i = 0; i < 5; ++i) {
    sketch.Add("key" + std::to_string(i), static_cast<uint64_t>(i + 1) * 10,
               /*bytes=*/static_cast<uint64_t>(i + 1) * 100);
  }
  sketch.Add("key4", 1, /*bytes=*/7);
  EXPECT_EQ(sketch.size(), 5u);
  EXPECT_EQ(sketch.total_weight(), 10u + 20 + 30 + 40 + 50 + 1);
  const auto top = sketch.TopK();
  ASSERT_EQ(top.size(), 5u);
  // Sorted count desc, every count and byte sum exact with zero error.
  EXPECT_EQ(top[0].key, "key4");
  EXPECT_EQ(top[0].count, 51u);
  EXPECT_EQ(top[0].bytes, 507u);
  EXPECT_EQ(top[4].key, "key0");
  EXPECT_EQ(top[4].bytes, 100u);
  for (const auto& hitter : top) {
    EXPECT_EQ(hitter.error, 0u) << hitter.key;
  }
  EXPECT_EQ(sketch.EstimateOf("key2"), 30u);
  EXPECT_EQ(sketch.EstimateOf("never-seen"), 0u);
}

TEST(SpaceSavingTest, EvictionInheritsTheMinimumAsError) {
  SpaceSaving sketch(2, /*seed=*/7);
  sketch.Add("a", 3, /*bytes=*/30);
  sketch.Add("b", 2, /*bytes=*/20);
  sketch.Add("c", 1, /*bytes=*/5);  // evicts b (min count 2); c starts at 2 + 1 with error 2
  EXPECT_EQ(sketch.size(), 2u);
  EXPECT_EQ(sketch.total_weight(), 6u);
  EXPECT_EQ(sketch.EstimateOf("b"), 0u);
  EXPECT_EQ(sketch.EstimateOf("c"), 3u);
  const auto top = sketch.TopK();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, "a");
  EXPECT_EQ(top[1].key, "c");
  EXPECT_EQ(top[1].error, 2u);
  // True count is bounded: count - error <= true (1) <= count.
  EXPECT_LE(top[1].count - top[1].error, 1u);
  // Bytes count from admission: c does not inherit b's 20 bytes.
  EXPECT_EQ(top[0].bytes, 30u);
  EXPECT_EQ(top[1].bytes, 5u);
  sketch.Add("c", 1, /*bytes=*/6);  // c (count 4) now leads a
  ASSERT_EQ(sketch.TopK()[0].key, "c");
  EXPECT_EQ(sketch.TopK()[0].bytes, 11u);
}

TEST(SpaceSavingTest, HeavyHitterSurvivesAnAdversarialStream) {
  // 400 distinct one-shot keys try to wash out one genuinely hot key. Any
  // key with true count > total/capacity must still be tracked, and its
  // reported range must cover the true count.
  SpaceSaving sketch(16, /*seed=*/7);
  for (int i = 0; i < 400; ++i) {
    sketch.Add("noise" + std::to_string(i));
    if (i % 4 == 0) {
      sketch.Add("hot");
    }
  }
  const uint64_t estimate = sketch.EstimateOf("hot");
  ASSERT_GT(estimate, 0u) << "heavy hitter evicted";
  EXPECT_GE(estimate, 100u);  // overestimate, never under
  const auto top = sketch.TopK();
  EXPECT_EQ(top[0].key, "hot");
  EXPECT_LE(top[0].count - top[0].error, 100u);
  ASSERT_TRUE(sketch.Peak().has_value());
  EXPECT_EQ(sketch.Peak()->key, "hot");
}

TEST(SpaceSavingTest, ClearResetsEverything) {
  SpaceSaving sketch(4, /*seed=*/7);
  sketch.Add("a", 10);
  sketch.Clear();
  EXPECT_EQ(sketch.size(), 0u);
  EXPECT_EQ(sketch.total_weight(), 0u);
  EXPECT_EQ(sketch.EstimateOf("a"), 0u);
  sketch.Add("b", 2);  // still usable after clear
  EXPECT_EQ(sketch.EstimateOf("b"), 2u);
}

// --- HyperLogLog ---

TEST(HyperLogLogTest, EstimatesTenThousandDistinctWithinFivePercent) {
  HyperLogLog sketch(12, /*seed=*/3);
  for (int i = 0; i < 10'000; ++i) {
    sketch.Add("element-" + std::to_string(i));
  }
  const double estimate = static_cast<double>(sketch.Estimate());
  EXPECT_GT(estimate, 10'000.0 * 0.95);
  EXPECT_LT(estimate, 10'000.0 * 1.05);
}

TEST(HyperLogLogTest, DuplicatesDoNotInflateTheEstimate) {
  HyperLogLog sketch(12, /*seed=*/3);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      sketch.Add("dup-" + std::to_string(i));
    }
  }
  const uint64_t estimate = sketch.Estimate();
  EXPECT_GE(estimate, 18u);
  EXPECT_LE(estimate, 22u);
}

// --- WorkloadAttributor ---

WorkloadAttributor::Options ExactOptions(MetricsRegistry* metrics) {
  WorkloadAttributor::Options options;
  options.metrics = metrics;
  options.server = "test";
  options.rate_sample_every = 1;  // exact per-op attribution for assertions
  options.hot_min_ops = 8;
  return options;
}

TEST(WorkloadAttributorTest, AppliedOpsAttributeKeysAndClients) {
  MetricsRegistry metrics;
  WorkloadAttributor attributor(ExactOptions(&metrics));
  const std::vector<uint64_t> client7{7};
  const std::vector<uint64_t> client9{9};
  for (int i = 0; i < 30; ++i) {
    attributor.ChargeApply("table:users", client7, 100);
  }
  for (int i = 0; i < 10; ++i) {
    attributor.ChargeApply("table:orders", client9, 50);
  }
  EXPECT_EQ(attributor.apply_ops(), 40u);

  const auto hot_key = attributor.HottestKey();
  ASSERT_TRUE(hot_key.has_value());
  EXPECT_EQ(hot_key->name, "table:users");
  EXPECT_EQ(hot_key->ops, 30u);
  EXPECT_NEAR(hot_key->share_pct, 75.0, 0.1);

  const auto hot_client = attributor.HottestClient();
  ASSERT_TRUE(hot_client.has_value());
  EXPECT_EQ(hot_client->name, "7");

  const std::string top_keys = attributor.RenderTopKeys();
  EXPECT_NE(top_keys.find("table:users"), std::string::npos) << top_keys;
  const std::string top_clients = attributor.RenderTopClientsJson();
  EXPECT_NE(top_clients.find("\"client\":\"7\""), std::string::npos) << top_clients;
}

TEST(WorkloadAttributorTest, HotEventsFireOncePerOffenderAndReArm) {
  MetricsRegistry metrics;
  FlightRecorder recorder(64);
  WorkloadAttributor::Options options = ExactOptions(&metrics);
  options.recorder = &recorder;
  WorkloadAttributor attributor(std::move(options));
  const std::vector<uint64_t> no_clients;
  // 64 ops on one key: far past hot_min_ops and the 25% share threshold.
  // The maintenance scan runs every 16th sampled op, so the event fires
  // within the loop; staying hot must not re-fire it.
  for (int i = 0; i < 64; ++i) {
    attributor.ChargeApply("spicy", no_clients, 10);
  }
  uint64_t hot_events = 0;
  for (const auto& event : recorder.Snapshot()) {
    if (event.kind == FlightEventKind::kWorkload) {
      hot_events += 1;
      EXPECT_NE(event.detail.find("spicy"), std::string::npos);
    }
  }
  EXPECT_EQ(hot_events, 1u);
  EXPECT_EQ(metrics.GetCounter("workload.hot.events")->value(), 1u);

  // Dilute far below the threshold (the maintenance scan re-arms), then
  // re-concentrate: the same key fires again.
  for (int i = 0; i < 512; ++i) {
    attributor.ChargeApply("dilute" + std::to_string(i % 16), no_clients, 10);
  }
  for (int i = 0; i < 2048; ++i) {
    attributor.ChargeApply("spicy", no_clients, 10);
  }
  EXPECT_GE(metrics.GetCounter("workload.hot.events")->value(), 2u);
}

TEST(WorkloadAttributorTest, ProposeTapBuildsThePerLayerTable) {
  MetricsRegistry metrics;
  WorkloadAttributor attributor(ExactOptions(&metrics));
  const std::vector<uint64_t> clients{1, 2};
  attributor.ChargePropose("batching.queue", clients, 256);
  attributor.ChargePropose("batching.queue", clients, 256);
  attributor.ChargePropose("base.append", clients, 300);
  const std::string rendered = attributor.RenderWorkload();
  EXPECT_NE(rendered.find("batching.queue"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("base.append"), std::string::npos) << rendered;
  EXPECT_EQ(metrics.GetCounter("workload.layer.batching.queue.ops")->value(), 2u);
  EXPECT_EQ(metrics.GetCounter("workload.layer.batching.queue.bytes")->value(), 512u);
  const std::string json = attributor.RenderWorkloadJson();
  EXPECT_NE(json.find("\"layer\":\"base.append\""), std::string::npos) << json;
}

// The text render, the JSON render, SketchBytes() and the gauge all report
// one footprint, per-layer table included.
TEST(WorkloadAttributorTest, EveryRenderReportsTheSameSketchBytes) {
  MetricsRegistry metrics;
  WorkloadAttributor attributor(ExactOptions(&metrics));
  const std::vector<uint64_t> clients{1};
  attributor.ChargePropose("batching.queue", clients, 256);
  attributor.ChargeApply("/k", clients, 10);
  attributor.CloseWindow(0);
  const std::string bytes = std::to_string(attributor.SketchBytes());
  EXPECT_EQ(std::to_string(metrics.GetGauge("workload.sketch.bytes")->value()), bytes);
  const std::string text = attributor.RenderWorkload();
  EXPECT_NE(text.find("sketch bytes: " + bytes + "\n"), std::string::npos) << text;
  const std::string json = attributor.RenderWorkloadJson();
  EXPECT_NE(json.find("\"sketch_bytes\":" + bytes + ","), std::string::npos) << json;
}

TEST(WorkloadAttributorTest, LongKeysAreTruncatedAndEmptyKeysPooled) {
  MetricsRegistry metrics;
  WorkloadAttributor attributor(ExactOptions(&metrics));
  const std::vector<uint64_t> no_clients;
  const std::string huge(4096, 'k');
  for (int i = 0; i < 16; ++i) {
    attributor.ChargeApply(huge, no_clients, 10);
    attributor.ChargeApply("", no_clients, 10);
  }
  const std::string top = attributor.RenderTopKeys();
  EXPECT_EQ(top.find(huge), std::string::npos);
  EXPECT_NE(top.find(huge.substr(0, WorkloadAttributor::kMaxTrackedKeyBytes)),
            std::string::npos);
  EXPECT_NE(top.find("(unattributed)"), std::string::npos) << top;
}

TEST(WorkloadAttributorTest, WindowCloseResetsWindowEstimatesAndSetsGauges) {
  MetricsRegistry metrics;
  WorkloadAttributor attributor(ExactOptions(&metrics));
  const std::vector<uint64_t> clients{1};
  for (int i = 0; i < 32; ++i) {
    attributor.ChargeApply("k" + std::to_string(i % 4), clients, 10);
  }
  attributor.CloseWindow(1'000'000);
  EXPECT_EQ(metrics.GetGauge("workload.window.distinct.keys")->value(), 4);
  EXPECT_EQ(metrics.GetGauge("workload.window.distinct.clients")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("workload.apply.ops")->value(), 32u);
  // The lifetime estimate survives the window reset; the next window starts
  // empty (the render shows the open window at ~0).
  const std::string json = attributor.RenderWorkloadJson();
  EXPECT_NE(json.find("\"windows_closed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"window_distinct_keys\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"distinct_keys\":4"), std::string::npos) << json;
}

TEST(WorkloadAttributorTest, SampledTapKeepsTotalsExactAndSharesUnbiased) {
  // The default configuration samples 1 op in 8: op/byte totals stay exact,
  // sampled sketch counts carry the 8x compensating weight, and shares of a
  // steady workload are preserved whatever its period. Period 4 shares a
  // factor with 8, so a fixed-stride sampler sees one phase only (0% or
  // 100% hot); period 5 is co-prime with it.
  constexpr int kOps = 16'000;
  // ~2,000 sampled ops put one binomial standard deviation of the share at
  // under 1 point; 3 points is a 3-sigma bound.
  constexpr double kTolerancePct = 3.0;
  for (const int period : {4, 5}) {
    SCOPED_TRACE("period " + std::to_string(period));
    MetricsRegistry metrics;
    WorkloadAttributor::Options options;
    options.metrics = &metrics;
    options.server = "sampled";
    options.hot_min_ops = 8;
    ASSERT_EQ(options.rate_sample_every, 8u);
    WorkloadAttributor attributor(std::move(options));
    const std::vector<uint64_t> clients{5};
    for (int i = 0; i < kOps; ++i) {
      attributor.ChargeApply(i % period == 0 ? "cold" : "hot", clients, 100);
    }
    EXPECT_EQ(attributor.apply_ops(), static_cast<uint64_t>(kOps));
    const auto hot = attributor.HottestKey();
    ASSERT_TRUE(hot.has_value());
    EXPECT_EQ(hot->name, "hot");
    EXPECT_NEAR(hot->share_pct, 100.0 * (period - 1) / period, kTolerancePct);

    // BeginApply alone counts without sketching, and its decision is a pure
    // function of the ordinal: a fresh attributor brought to the same
    // ordinal makes the same calls (what keeps replicas and replays
    // identical).
    WorkloadAttributor::Options twin_options;
    twin_options.metrics = &metrics;
    WorkloadAttributor twin(std::move(twin_options));
    for (int i = 0; i < kOps; ++i) {
      twin.BeginApply(100);
    }
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(attributor.BeginApply(10), twin.BeginApply(10)) << "op " << i;
    }
    EXPECT_EQ(attributor.apply_ops(), static_cast<uint64_t>(kOps + 64));
  }
}

}  // namespace
}  // namespace delos

// Tail-latency attribution tests: the critical-path chain walk, stage
// aggregation, tail-based exemplar capture, the bounded slow-trace store,
// and the simulator's byte-identical-replay contract for the new surfaces.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/common/latency.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/sim/sim_cluster.h"

namespace delos {
namespace {

TraceSpan Span(uint64_t trace_id, const std::string& name, int64_t start, int64_t end,
               const std::string& server = "s0", bool failed = false) {
  TraceSpan span;
  span.trace_id = trace_id;
  span.name = name;
  span.server = server;
  span.start_micros = start;
  span.end_micros = end;
  span.failed = failed;
  return span;
}

// --- ComputeCriticalPath ---

TEST(CriticalPathTest, ContributionsSumExactlyToEndToEnd) {
  const TraceSpan root = Span(1, "client.propose", 0, 100);
  const std::vector<TraceSpan> spans = {
      Span(1, "batching.queue", 0, 30),
      Span(1, "base.append", 30, 80),
      Span(1, "base.apply", 85, 95),  // 80..85 and 95..100 are gaps
      root,
  };
  const CriticalPath path = LatencyAttributor::ComputeCriticalPath(spans, root);
  EXPECT_EQ(path.total_micros, 100);
  int64_t attributed = 0;
  for (const StageShare& seg : path.segments) {
    attributed += seg.micros;
  }
  EXPECT_EQ(attributed + path.unattributed_micros, path.total_micros);
  EXPECT_EQ(path.unattributed_micros, 10);
  ASSERT_EQ(path.segments.size(), 3u);
  EXPECT_EQ(path.segments[0].stage, "batching.queue");
  EXPECT_EQ(path.segments[0].micros, 30);
  EXPECT_EQ(path.segments[1].stage, "base.append");
  EXPECT_EQ(path.segments[1].micros, 50);
  EXPECT_EQ(path.segments[2].stage, "base.apply");
  EXPECT_EQ(path.segments[2].micros, 10);
}

TEST(CriticalPathTest, OverlapFollowsTheSpanEndingLatest) {
  const TraceSpan root = Span(1, "client.propose", 0, 100);
  // Two overlapping covers of [0, 60): the walk must follow base.append
  // (ends latest), never double-counting the overlap.
  const std::vector<TraceSpan> spans = {
      Span(1, "batching.queue", 0, 40),
      Span(1, "base.append", 0, 60),
      Span(1, "sessionorder.seq", 60, 100),
      root,
  };
  const CriticalPath path = LatencyAttributor::ComputeCriticalPath(spans, root);
  ASSERT_EQ(path.segments.size(), 2u);
  EXPECT_EQ(path.segments[0].stage, "base.append");
  EXPECT_EQ(path.segments[0].micros, 60);
  EXPECT_EQ(path.segments[1].stage, "sessionorder.seq");
  EXPECT_EQ(path.segments[1].micros, 40);
  EXPECT_EQ(path.unattributed_micros, 0);
}

TEST(CriticalPathTest, SpansOutsideTheRootWindowAreClippedOrIgnored) {
  const TraceSpan root = Span(1, "client.propose", 50, 100);
  const std::vector<TraceSpan> spans = {
      Span(1, "warmup", 0, 30),        // entirely before the window: ignored
      Span(1, "base.append", 40, 70),  // straddles the start: only 50..70 counts
      Span(1, "base.apply", 90, 200),  // straddles the end: clipped at 100
      root,
  };
  const CriticalPath path = LatencyAttributor::ComputeCriticalPath(spans, root);
  EXPECT_EQ(path.total_micros, 50);
  int64_t attributed = 0;
  for (const StageShare& seg : path.segments) {
    attributed += seg.micros;
  }
  EXPECT_EQ(attributed + path.unattributed_micros, 50);
  for (const StageShare& seg : path.segments) {
    EXPECT_NE(seg.stage, "warmup");
    if (seg.stage == "base.append") {
      EXPECT_EQ(seg.micros, 20);
    }
    if (seg.stage == "base.apply") {
      EXPECT_EQ(seg.micros, 10);
    }
  }
  EXPECT_EQ(path.unattributed_micros, 20);  // 70..90
}

TEST(CriticalPathTest, MergedStagesAccumulateAcrossRepeatedTouches) {
  const TraceSpan root = Span(1, "client.propose", 0, 100);
  const std::vector<TraceSpan> spans = {
      Span(1, "base.append", 0, 30),
      Span(1, "batching.queue", 30, 50),
      Span(1, "base.append", 50, 100),  // second touch of the same stage
      root,
  };
  const CriticalPath path = LatencyAttributor::ComputeCriticalPath(spans, root);
  ASSERT_EQ(path.segments.size(), 2u);  // merged per stage, first-touch order
  EXPECT_EQ(path.segments[0].stage, "base.append");
  EXPECT_EQ(path.segments[0].micros, 80);
  EXPECT_EQ(path.segments[1].stage, "batching.queue");
  EXPECT_EQ(path.segments[1].micros, 20);
}

TEST(CriticalPathTest, ZeroWidthRootYieldsAnEmptyPath) {
  // The simulator's pinned trace clock: every span is zero-width.
  const TraceSpan root = Span(1, "client.propose", 0, 0);
  const CriticalPath path =
      LatencyAttributor::ComputeCriticalPath({Span(1, "base.append", 0, 0), root}, root);
  EXPECT_EQ(path.total_micros, 0);
  EXPECT_TRUE(path.segments.empty());
  EXPECT_EQ(path.unattributed_micros, 0);
}

// --- SlowTraceStore ---

TEST(SlowTraceStoreTest, FifoEvictionIsDeterministic) {
  SlowTraceStore store(2);
  for (uint64_t id = 1; id <= 5; ++id) {
    SlowTrace trace;
    trace.trace_id = id;
    store.Add(std::move(trace));
  }
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.captured(), 5u);
  EXPECT_EQ(store.evicted(), 3u);
  const std::vector<SlowTrace> kept = store.Snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].trace_id, 4u);  // oldest evicted first
  EXPECT_EQ(kept[1].trace_id, 5u);
  EXPECT_FALSE(store.Find(1).has_value());
  EXPECT_TRUE(store.Find(5).has_value());
}

// --- LatencyAttributor ---

class AttributorTest : public ::testing::Test {
 protected:
  LatencyAttributor MakeAttributor(uint64_t min_tail_samples = 4,
                                   double tail_quantile = 50.0) {
    LatencyAttributor::Options options;
    options.metrics = &metrics_;
    options.server = "s0";
    options.min_tail_samples = min_tail_samples;
    options.tail_quantile = tail_quantile;
    options.slow_capacity = 8;
    return LatencyAttributor(std::move(options));
  }

  // One complete proposal: stage spans then the root, all on server s0.
  void FeedTrace(LatencyAttributor& attributor, uint64_t id, int64_t e2e,
                 bool failed = false) {
    const int64_t base = static_cast<int64_t>(id) * 1000;
    attributor.OnSpan(Span(id, "batching.queue", base, base + e2e / 2));
    attributor.OnSpan(Span(id, "base.append", base + e2e / 2, base + e2e));
    attributor.OnSpan(Span(id, "client.propose", base, base + e2e, "s0", failed));
  }

  MetricsRegistry metrics_;
};

TEST_F(AttributorTest, AggregatesStageDurationsIntoRegistryHistograms) {
  LatencyAttributor attributor = MakeAttributor();
  for (uint64_t id = 1; id <= 10; ++id) {
    FeedTrace(attributor, id, 100);
  }
  EXPECT_EQ(attributor.traces_completed(), 10u);
  EXPECT_EQ(metrics_.GetHistogram("latency.e2e")->count(), 10u);
  EXPECT_EQ(metrics_.GetHistogram("latency.stage.batching.queue")->count(), 10u);
  EXPECT_EQ(metrics_.GetHistogram("latency.stage.base.append")->count(), 10u);
  EXPECT_EQ(metrics_.GetCounter("latency.traces.completed")->value(), 10u);
  const std::string table = attributor.RenderLatency();
  EXPECT_NE(table.find("e2e"), std::string::npos);
  EXPECT_NE(table.find("base.append"), std::string::npos);
  EXPECT_NE(table.find("100.0% of end-to-end"), std::string::npos);
}

TEST_F(AttributorTest, IgnoresSpansFromOtherServers) {
  LatencyAttributor attributor = MakeAttributor();
  attributor.OnSpan(Span(1, "base.apply", 0, 10, "s1"));
  attributor.OnSpan(Span(1, "client.propose", 0, 10, "ref"));
  EXPECT_EQ(attributor.traces_completed(), 0u);
  EXPECT_EQ(metrics_.GetHistogram("latency.e2e")->count(), 0u);
}

TEST_F(AttributorTest, TailSamplingCapturesOnlyAboveTheRollingQuantile) {
  LatencyAttributor attributor = MakeAttributor(/*min_tail_samples=*/4,
                                                /*tail_quantile=*/50.0);
  // Below min_tail_samples nothing is captured, however slow.
  FeedTrace(attributor, 1, 1'000'000);
  EXPECT_EQ(attributor.slow_traces().captured(), 0u);
  EXPECT_EQ(attributor.SlowThresholdMicros(), std::numeric_limits<int64_t>::max());
  // Warm the estimator with fast proposals.
  for (uint64_t id = 2; id <= 8; ++id) {
    FeedTrace(attributor, id, 100);
  }
  const int64_t threshold = attributor.SlowThresholdMicros();
  EXPECT_LT(threshold, 1'000'000);
  // At or below the threshold: not captured (strictly-greater rule).
  FeedTrace(attributor, 9, 50);
  EXPECT_EQ(attributor.slow_traces().captured(), 0u);
  // Above it: captured with its critical path.
  FeedTrace(attributor, 10, 500'000);
  EXPECT_EQ(attributor.slow_traces().captured(), 1u);
  const std::vector<SlowTrace> slow = attributor.slow_traces().Snapshot();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].trace_id, 10u);
  EXPECT_FALSE(slow[0].errored);
  EXPECT_EQ(slow[0].e2e_micros, 500'000);
  ASSERT_FALSE(slow[0].critical_path.segments.empty());
  EXPECT_EQ(metrics_.GetCounter("latency.slow.captured")->value(), 1u);
}

TEST_F(AttributorTest, ErroredProposalsAreCapturedRegardlessOfLatency) {
  LatencyAttributor attributor = MakeAttributor();
  FeedTrace(attributor, 1, 10, /*failed=*/true);  // fast but errored
  EXPECT_EQ(attributor.slow_traces().captured(), 1u);
  const std::vector<SlowTrace> slow = attributor.slow_traces().Snapshot();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_TRUE(slow[0].errored);
  const auto detail = attributor.RenderSlowDetail(1);
  ASSERT_TRUE(detail.has_value());
  EXPECT_NE(detail->find("errored=1"), std::string::npos);
  EXPECT_NE(detail->find("FAILED"), std::string::npos);
  EXPECT_FALSE(attributor.RenderSlowDetail(42).has_value());
}

TEST_F(AttributorTest, ApplyOnlyTrafficNeverOpensTraceBuffers) {
  LatencyAttributor attributor = MakeAttributor();
  // Replay traffic: apply spans with no propose pending. Histograms record,
  // but completing an unrelated trace later must not see these spans.
  for (uint64_t id = 100; id < 200; ++id) {
    attributor.OnSpan(Span(id, "base.apply", 0, 5));
  }
  EXPECT_EQ(metrics_.GetHistogram("latency.stage.base.apply")->count(), 100u);
  // A root for one of those ids completes with no buffered spans.
  attributor.OnSpan(Span(150, "client.propose", 0, 10, "s0", true));
  const std::vector<SlowTrace> slow = attributor.slow_traces().Snapshot();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].spans.size(), 1u);  // just the root
}

TEST_F(AttributorTest, ObserverWiringDeliversTracerSpans) {
  Tracer tracer;
  LatencyAttributor attributor = MakeAttributor();
  const uint64_t observer = tracer.AddObserver(
      [&attributor](const TraceSpan& span) { attributor.OnSpan(span); });
  const uint64_t id = tracer.NextTraceId();
  tracer.RecordSpan(id, "base.append", "s0", 0, 40);
  tracer.RecordSpan(id, "client.propose", "s0", 0, 50);
  EXPECT_EQ(attributor.traces_completed(), 1u);
  EXPECT_EQ(metrics_.GetHistogram("latency.stage.base.append")->count(), 1u);
  tracer.RemoveObserver(observer);
  tracer.RecordSpan(id, "client.propose", "s0", 0, 50);
  EXPECT_EQ(attributor.traces_completed(), 1u);  // removed: no more deliveries
}

// --- simulator byte-identity ---

// Two replays of one fault-sweep seed must produce byte-identical latency
// summaries and slow-trace exemplar sets: with the sim trace clock pinned,
// stage durations are all zero and exemplar capture reduces to errored
// proposals, a pure function of the schedule.
TEST(SimLatencyReplay, LatencySummariesAreByteIdenticalAcrossReplays) {
  sim::SimOptions options;
  options.shape = sim::StackShape::kZelos;
  options.num_ops = 24;
  options.plan.max_crashes = 1;
  options.plan.max_append_faults = 4;

  options.scratch_dir = "latency_replay_a";
  const sim::RunReport a = sim::SimCluster::RunSeed(20260808, options);
  options.scratch_dir = "latency_replay_b";
  const sim::RunReport b = sim::SimCluster::RunSeed(20260808, options);

  ASSERT_TRUE(a.ok()) << a.Summary();
  ASSERT_TRUE(b.ok()) << b.Summary();
  ASSERT_FALSE(a.latency_summary.empty());
  ASSERT_FALSE(a.slow_exemplars.empty());
  EXPECT_EQ(a.latency_summary, b.latency_summary)
      << "latency summary diverged:\n=== run A ===\n"
      << a.latency_summary << "=== run B ===\n"
      << b.latency_summary;
  EXPECT_EQ(a.slow_exemplars, b.slow_exemplars)
      << "slow exemplars diverged:\n=== run A ===\n"
      << a.slow_exemplars << "=== run B ===\n"
      << b.slow_exemplars;
  // Every server section renders, and the summary carries the stage table.
  EXPECT_NE(a.latency_summary.find("== server s0 latency =="), std::string::npos);
  EXPECT_NE(a.latency_summary.find("latency attribution: server s0"), std::string::npos);
  EXPECT_NE(a.slow_exemplars.find("== server s0 slow traces =="), std::string::npos);
}

}  // namespace
}  // namespace delos

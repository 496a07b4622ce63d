// Golden byte tests for every plane's admin renders: each plane is driven
// with fixed inputs (explicit spans, explicit charge calls, explicit commit
// windows, fixed histogram records and fixed beacons) and the full output
// string is compared, so a change to any render's bytes shows up here.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/divergence.h"
#include "src/common/latency.h"
#include "src/common/metrics.h"
#include "src/common/metrics_ts.h"
#include "src/common/serde.h"
#include "src/common/trace.h"
#include "src/common/workload.h"
#include "src/core/health.h"
#include "src/engines/digest_engine.h"
#include "src/localstore/localstore.h"

namespace delos {
namespace {

// --- metrics + time series ---

// Two counters (one with a name that needs escaping), a gauge and a
// histogram with a non-integral mean.
void FillMetrics(MetricsRegistry& metrics) {
  metrics.GetCounter("base.apply.records")->Increment(3);
  metrics.GetCounter("odd\"name\\x")->Increment(1);
  metrics.GetGauge("queue.depth")->Set(-5);
  Histogram* hist = metrics.GetHistogram("propose.us");
  hist->Record(10);
  hist->Record(20);
  hist->Record(31);
}

TEST(RenderGoldenTest, MetricsJson) {
  MetricsRegistry metrics;
  FillMetrics(metrics);
  EXPECT_EQ(metrics.RenderJson(),
      "{\"counters\":{\"base.apply.records\":3,\"odd\\\"name\\\\x\":1},"
      "\"gauges\":{\"queue.depth\":-5},\"histograms\":{\"propose.us\":{\"count\":3,"
      "\"mean\":20.3333,\"p50\":20,\"p99\":31,\"p999\":31,\"max\":31}}}");
}

TEST(RenderGoldenTest, EmptyMetricsJson) {
  MetricsRegistry metrics;
  EXPECT_EQ(metrics.RenderJson(), R"({"counters":{},"gauges":{},"histograms":{}})");
}

TEST(RenderGoldenTest, TimeSeriesJson) {
  MetricsRegistry metrics;
  TimeSeriesStore store(4);
  metrics.SnapshotInto(store, 0);  // baseline
  FillMetrics(metrics);
  metrics.SnapshotInto(store, 1'000'000);
  metrics.GetCounter("base.apply.records")->Increment(7);
  metrics.GetHistogram("propose.us")->Record(500);
  metrics.SnapshotInto(store, 3'000'000);
  EXPECT_EQ(store.RenderJson(),
      "{\"capacity\":4,\"windows_committed\":2,\"windows\":[{\"index\":0,"
      "\"start_micros\":0,\"end_micros\":1000000,\"counters\":{\"base.apply.records\":3,"
      "\"odd\\\"name\\\\x\":1},\"gauges\":{\"queue.depth\":-5},"
      "\"histograms\":{\"propose.us\":{\"count\":3,\"sum\":61,"
      "\"p50\":20,\"p99\":31,\"p999\":31,\"max\":31}}},"
      "{\"index\":1,\"start_micros\":1000000,\"end_micros\":3000000,"
      "\"counters\":{\"base.apply.records\":7,\"odd\\\"name\\\\x\":0},"
      "\"gauges\":{\"queue.depth\":-5},\"histograms\":{\"propose.us\":{\"count\":1,"
      "\"sum\":500,\"p50\":511,\"p99\":511,\"p999\":511,\"max\":511}}}]}");
  EXPECT_EQ(store.RenderJson(1),
      "{\"capacity\":4,\"windows_committed\":2,\"windows\":[{\"index\":1,"
      "\"start_micros\":1000000,\"end_micros\":3000000,"
      "\"counters\":{\"base.apply.records\":7,\"odd\\\"name\\\\x\":0},"
      "\"gauges\":{\"queue.depth\":-5},\"histograms\":{\"propose.us\":{\"count\":1,"
      "\"sum\":500,\"p50\":511,\"p99\":511,\"p999\":511,\"max\":511}}}]}");
  EXPECT_EQ(TimeSeriesStore(2).RenderJson(),
            R"({"capacity":2,"windows_committed":0,"windows":[]})");
}

// --- health ---

TEST(RenderGoldenTest, HealthJson) {
  const std::vector<HealthReport> reports = {
      {"base", HealthState::kOk, "", 0},
      {"batching", HealthState::kDegraded, "queue \"stuck\" at c:\\q", 42},
      {"zelos", HealthState::kUnhealthy, "line1\nline2\x01", -7},
  };
  EXPECT_EQ(RenderHealthJson(reports),
      "{\"state\":\"UNHEALTHY\",\"components\":[{\"component\":\"base\","
      "\"state\":\"OK\",\"reason\":\"\",\"value\":0},"
      "{\"component\":\"batching\",\"state\":\"DEGRADED\","
      "\"reason\":\"queue \\\"stuck\\\" at c:\\\\q\","
      "\"value\":42},{\"component\":\"zelos\",\"state\":\"UNHEALTHY\","
      "\"reason\":\"line1\\nline2\\u0001\",\"value\":-7}]}");
  EXPECT_EQ(RenderHealthJson({}), R"({"state":"OK","components":[]})");
}

// --- divergence + digest ---

TEST(RenderGoldenTest, DivergenceRenders) {
  SimClock clock(1'000);
  FlightRecorder recorder(16, &clock);
  DivergenceOptions options;
  options.server = "server0";
  options.recorder = &recorder;
  DivergenceTracker tracker(options);
  EXPECT_EQ(tracker.RenderJson(),
      "{\"server\":\"server0\",\"convicted\":false,\"beacons_appended\":0,"
      "\"beacons_checked\":0,\"mismatches\":0,\"last_verified_pos\":0}");

  tracker.OnBeaconAppended();
  tracker.OnBeaconAppended();
  tracker.OnBeaconChecked(10, "server1");
  tracker.OnSampleMatch(10);
  recorder.Record(FlightEventKind::kAppend, "", 5, 11);
  clock.Advance(50);
  recorder.Record(FlightEventKind::kApply, "put \"/a\"", 6, 12, 3);
  recorder.Record(FlightEventKind::kCommit, "batch", 0, 11, 12);
  tracker.OnSampleMismatch(10, 20, 0xabc, 0xdef, "server1", 77);
  EXPECT_EQ(tracker.RenderJson(),
      "{\"server\":\"server0\",\"convicted\":true,\"beacons_appended\":2,"
      "\"beacons_checked\":1,\"mismatches\":1,\"last_verified_pos\":10,"
      "\"window_lo\":10,\"window_hi\":20,\"local_digest\":2748,"
      "\"remote_digest\":3567,\"proposer\":\"server1\","
      "\"beacon_trace\":77,\"window_traces\":[5,6],\"flight_excerpt\":\"  #0 [1000us] append trace=5 a=11 b=0\\n  #1 [1050us] apply trace=6 a=12 b=3 put \\\"/a\\\"\\n  #2 [1050us] commit a=11 b=12 batch\\n\"}");
  EXPECT_EQ(tracker.Render(/*include_digests=*/true),
      "divergence report for server0\n"
      "  beacons appended: 2\n"
      "  beacons checked: 1\n"
      "  mismatches: 1\n"
      "  last verified pos: 10\n"
      "  verdict: DIVERGED in (10, 20] vs server1\n"
      "  digest pair: local=0000000000000abc remote=0000000000000def\n"
      "  beacon trace: 77\n"
      "  last traces in window: 5 6\n"
      "  flight excerpt:\n"
      "  #0 [1000us] append trace=5 a=11 b=0\n"
      "  #1 [1050us] apply trace=6 a=12 b=3 put \"/a\"\n"
      "  #2 [1050us] commit a=11 b=12 batch\n");
  EXPECT_EQ(tracker.Render(/*include_digests=*/false),
      "divergence report for server0\n"
      "  beacons appended: 2\n"
      "  beacons checked: 1\n"
      "  mismatches: 1\n"
      "  last verified pos: 10\n"
      "  verdict: DIVERGED in (10, 20] vs server1\n"
      "  beacon trace: 77\n"
      "  last traces in window: 5 6\n");
}

// A downstream that is never proposed to: the digest engine only needs one
// to register its upcall with.
class IdleDownstream : public IEngine {
 public:
  Future<std::any> Propose(LogEntry entry) override {
    return MakeErrorFuture<std::any>(std::make_exception_ptr(LogUnavailableError("idle")));
  }
  Future<ROTxn> Sync() override {
    return MakeErrorFuture<ROTxn>(std::make_exception_ptr(LogUnavailableError("idle")));
  }
  void RegisterUpcall(IApplicator* applicator) override {}
  void SetTrimPrefix(LogPos pos) override {}
};

TEST(RenderGoldenTest, DigestRenders) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    for (const auto& [pos, digest] :
         std::map<uint64_t, uint64_t>{{64, 0x0123456789abcdefULL}, {128, 42}}) {
      Serializer ser;
      ser.WriteFixed64(digest);
      std::string key = std::to_string(pos);
      key.insert(0, 20 - key.size(), '0');
      txn.Put("e/digest/sample/" + key, ser.Release());
    }
    txn.Commit();
  }
  IdleDownstream downstream;
  DigestEngine::Options options;
  options.server_id = "server0";
  options.beacon_every_n_proposals = 32;
  DigestEngine digest(options, &downstream, &store);
  EXPECT_EQ(digest.RenderJson(),
      "{\"server\":\"server0\",\"beacon_every_n_proposals\":32,"
      "\"beacons_appended\":0,\"beacons_checked\":0,"
      "\"mismatches\":0,\"last_verified_pos\":0,\"convicted\":false,"
      "\"samples\":[{\"pos\":64,\"digest\":81985529216486895},{\"pos\":128,\"digest\":42}]}");
  EXPECT_EQ(digest.Render(),
      "digest beacons on server0\n"
      "  cadence: every 32 proposals\n"
      "  beacons appended: 0\n"
      "  beacons checked: 0\n"
      "  mismatches: 0\n"
      "  last verified pos: 0\n"
      "  verdict: no divergence\n"
      "  sample table:\n"
      "    pos 64 digest 0123456789abcdef\n"
      "    pos 128 digest 000000000000002a\n");
}

// --- latency ---

TraceSpan Span(uint64_t trace_id, const std::string& name, int64_t start, int64_t end,
               bool failed = false) {
  TraceSpan span;
  span.trace_id = trace_id;
  span.name = name;
  span.server = "s0";
  span.start_micros = start;
  span.end_micros = end;
  span.failed = failed;
  return span;
}

class LatencyGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LatencyAttributor::Options options;
    options.metrics = &metrics_;
    options.server = "s0";
    options.recorder = &recorder_;
    options.min_tail_samples = 2;
    options.tail_quantile = 50;
    options.slow_capacity = 2;
    options.flight_excerpt_margin_micros = 10;
    latency_ = std::make_unique<LatencyAttributor>(options);
  }

  // Feeds one proposal: a batching queue, an append, an apply and the root.
  void Propose(uint64_t trace_id, int64_t start, int64_t queue, int64_t append, bool failed) {
    latency_->OnSpan(Span(trace_id, "batching.queue", start, start + queue));
    latency_->OnSpan(
        Span(trace_id, "base.append", start + queue, start + queue + append));
    latency_->OnSpan(Span(trace_id, "odd\"stage", start + queue + append,
                          start + queue + append + 5));
    latency_->OnSpan(
        Span(trace_id, "client.propose", start, start + queue + append + 10, failed));
  }

  SimClock clock_{100};
  FlightRecorder recorder_{16, &clock_};
  MetricsRegistry metrics_;
  std::unique_ptr<LatencyAttributor> latency_;
};

TEST_F(LatencyGoldenTest, WarmingUpRenders) {
  EXPECT_EQ(latency_->RenderLatency(),
      "latency attribution: server s0\n"
      "traces completed: 0, slow captured: 0 (evicted 0, capacity 2)\n"
      "tail threshold: warming up (0/2 samples)\n"
      "stage                           count      p50      p99     p999      max  cp_total_us cp_share\n"
      "e2e                                 0        0        0        0        0            0     0.0%\n"
      "unattributed                        0        0        0        0        0            0     0.0%\n"
      "critical path: 0 us attributed + 0 us unattributed = 0 us e2e (0.0% of end-to-end)\n");
  EXPECT_EQ(latency_->RenderLatencyJson(),
      "{\"server\":\"s0\",\"traces_completed\":0,\"slow_captured\":0,"
      "\"slow_evicted\":0,\"tail_threshold_us\":-1,\"e2e\":{\"count\":0,"
      "\"p50\":0,\"p99\":0,\"p999\":0,\"max\":0,\"total_us\":0,"
      "\"unattributed_us\":0},\"stages\":[]}");
  EXPECT_EQ(latency_->RenderSlowList(),
      "slow traces: 0 retained, 0 captured, 0 evicted (capacity 2)\n");
  EXPECT_EQ(latency_->RenderSlowListJson(),
      "{\"captured\":0,\"evicted\":0,\"capacity\":2,\"traces\":[]}");
  EXPECT_FALSE(latency_->RenderSlowDetail(1).has_value());
  EXPECT_FALSE(latency_->RenderSlowDetailJson(1).has_value());
}

TEST_F(LatencyGoldenTest, Renders) {
  recorder_.Record(FlightEventKind::kAppend, "", 3, 7);
  recorder_.Record(FlightEventKind::kApply, "key \"/a\"", 0, 7, 1);
  Propose(1, 100, 30, 50, false);
  Propose(2, 200, 10, 20, false);
  Propose(3, 100, 40, 400, true);  // errored: captured whatever its latency
  Propose(4, 300, 40, 900, false);  // above the p50 tail threshold
  EXPECT_EQ(latency_->RenderLatency(),
      "latency attribution: server s0\n"
      "traces completed: 4, slow captured: 2 (evicted 0, capacity 2)\n"
      "tail threshold: 91us (p50 of e2e)\n"
      "stage                           count      p50      p99     p999      max  cp_total_us cp_share\n"
      "e2e                                 4       91      959      959      950            0     0.0%\n"
      "base.append                         4       51      927      927      900         1370    89.5%\n"
      "batching.queue                      4       30       41       41       40          120     7.8%\n"
      "odd\"stage                           4        5        5        5        5           20     1.3%\n"
      "unattributed                        0        0        0        0        0           20     1.3%\n"
      "critical path: 1510 us attributed + 20 us unattributed = 1530 us e2e (100.0% of end-to-end)\n");
  EXPECT_EQ(latency_->RenderLatencyJson(),
      "{\"server\":\"s0\",\"traces_completed\":4,\"slow_captured\":2,"
      "\"slow_evicted\":0,\"tail_threshold_us\":91,\"e2e\":{\"count\":4,"
      "\"p50\":91,\"p99\":959,\"p999\":959,\"max\":950,"
      "\"total_us\":1530,\"unattributed_us\":20},\"stages\":[{\"stage\":\"base.append\","
      "\"count\":4,\"p50\":51,\"p99\":927,\"p999\":927,"
      "\"max\":900,\"cp_total_us\":1370},{\"stage\":\"batching.queue\","
      "\"count\":4,\"p50\":30,\"p99\":41,\"p999\":41,"
      "\"max\":40,\"cp_total_us\":120},{\"stage\":\"odd\\\"stage\","
      "\"count\":4,\"p50\":5,\"p99\":5,\"p999\":5,\"max\":5,\"cp_total_us\":20}]}");
  EXPECT_EQ(latency_->RenderSlowList(),
      "slow traces: 2 retained, 2 captured, 0 evicted (capacity 2)\n"
      "trace 3 e2e=450us errored=1 dominant=base.append spans=4\n"
      "trace 4 e2e=950us errored=0 dominant=base.append spans=4\n");
  EXPECT_EQ(latency_->RenderSlowListJson(),
      "{\"captured\":2,\"evicted\":0,\"capacity\":2,"
      "\"traces\":[{\"trace_id\":3,\"e2e_us\":450,\"errored\":true,"
      "\"dominant\":\"base.append\",\"spans\":4},{\"trace_id\":4,"
      "\"e2e_us\":950,\"errored\":false,\"dominant\":\"base.append\",\"spans\":4}]}");
  EXPECT_EQ(latency_->RenderSlowDetail(3).value_or("-"),
      "slow trace 3: e2e=450us errored=1 [100..550us]\n"
      "critical path:\n"
      "  batching.queue                       40 us    8.9%\n"
      "  base.append                         400 us   88.9%\n"
      "  odd\"stage                             5 us    1.1%\n"
      "  unattributed                          5 us    1.1%\n"
      "spans:\n"
      "  [100..140us] s0 batching.queue\n"
      "  [100..550us] s0 client.propose FAILED\n"
      "  [140..540us] s0 base.append\n"
      "  [540..545us] s0 odd\"stage\n"
      "flight excerpt:\n"
      "  #0 [100us] append trace=3 a=7 b=0\n"
      "  #1 [100us] apply a=7 b=1 key \"/a\"\n");
  EXPECT_EQ(latency_->RenderSlowDetailJson(3).value_or("-"),
      "{\"trace_id\":3,\"e2e_us\":450,\"errored\":true,"
      "\"start_us\":100,\"end_us\":550,\"critical_path\":[{\"stage\":\"batching.queue\","
      "\"micros\":40},{\"stage\":\"base.append\",\"micros\":400},"
      "{\"stage\":\"odd\\\"stage\",\"micros\":5}],\"unattributed_us\":5,"
      "\"spans\":[{\"name\":\"batching.queue\",\"server\":\"s0\","
      "\"start_us\":100,\"end_us\":140,\"failed\":false},"
      "{\"name\":\"client.propose\",\"server\":\"s0\","
      "\"start_us\":100,\"end_us\":550,\"failed\":true},"
      "{\"name\":\"base.append\",\"server\":\"s0\",\"start_us\":140,"
      "\"end_us\":540,\"failed\":false},{\"name\":\"odd\\\"stage\","
      "\"server\":\"s0\",\"start_us\":540,\"end_us\":545,"
      "\"failed\":false}],\"flight_excerpt\":\"  #0 [100us] append trace=3 a=7 b=0\\n  #1 [100us] apply a=7 b=1 key \\\"/a\\\"\\n\"}");
  EXPECT_EQ(latency_->RenderSlowDetailJson(4).value_or("-"),
      "{\"trace_id\":4,\"e2e_us\":950,\"errored\":false,"
      "\"start_us\":300,\"end_us\":1250,\"critical_path\":[{\"stage\":\"batching.queue\","
      "\"micros\":40},{\"stage\":\"base.append\",\"micros\":900},"
      "{\"stage\":\"odd\\\"stage\",\"micros\":5}],\"unattributed_us\":5,"
      "\"spans\":[{\"name\":\"batching.queue\",\"server\":\"s0\","
      "\"start_us\":300,\"end_us\":340,\"failed\":false},"
      "{\"name\":\"client.propose\",\"server\":\"s0\","
      "\"start_us\":300,\"end_us\":1250,\"failed\":false},"
      "{\"name\":\"base.append\",\"server\":\"s0\",\"start_us\":340,"
      "\"end_us\":1240,\"failed\":false},{\"name\":\"odd\\\"stage\","
      "\"server\":\"s0\",\"start_us\":1240,\"end_us\":1245,"
      "\"failed\":false}],\"flight_excerpt\":\"\"}");
}

// --- workload ---

class WorkloadGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadAttributor::Options options;
    options.metrics = &metrics_;
    options.server = "s0";
    options.rate_sample_every = 1;
    options.hot_min_ops = 4;
    workload_ = std::make_unique<WorkloadAttributor>(options);
  }

  void Drive() {
    const uint64_t seven[] = {7};
    const uint64_t both[] = {7, 9};
    const uint64_t nine[] = {9};
    workload_->ChargePropose("batching", seven, 100);
    workload_->ChargePropose("base.append", both, 120);
    workload_->ChargePropose("base.append", nine, 30);
    for (int i = 0; i < 6; ++i) {
      workload_->ChargeApply("/a", seven, 10);
    }
    workload_->ChargeApply("/b\"q\\", nine, 20);
    workload_->ChargeApply("/b\"q\\", nine, 20);
    workload_->ChargeApply("k\x01", {}, 5);
    workload_->CloseWindow(1'000);
    workload_->ChargeApply("/a", both, 10);
  }

  MetricsRegistry metrics_;
  std::unique_ptr<WorkloadAttributor> workload_;
};

// The sketch footprint is a sizeof/capacity figure of the build; the JSON
// golden compares everything around it.
std::string MaskSketchBytes(std::string json) {
  const std::string field = "\"sketch_bytes\":";
  const size_t at = json.find(field);
  if (at != std::string::npos) {
    const size_t begin = at + field.size();
    json.replace(begin, json.find(',', begin) - begin, "N");
  }
  return json;
}

TEST_F(WorkloadGoldenTest, EmptyRenders) {
  EXPECT_EQ(MaskSketchBytes(workload_->RenderWorkloadJson()),
      "{\"server\":\"s0\",\"apply_ops\":0,\"apply_bytes\":0,"
      "\"distinct_keys\":0,\"distinct_clients\":0,\"window_distinct_keys\":0,"
      "\"window_distinct_clients\":0,\"windows_closed\":0,"
      "\"sketch_bytes\":N,"
      "\"hot_key\":null,\"hot_client\":null,\"layers\":[]}");
  EXPECT_EQ(workload_->RenderTopKeys(),
      "== top keys (server s0) ==\n"
      "total ops: 0\n"
      "rank        ops       err       bytes~  share%  key\n");
  EXPECT_EQ(workload_->RenderTopKeysJson(),
      "{\"server\":\"s0\",\"total_ops\":0,\"keys\":[]}");
  EXPECT_EQ(workload_->RenderTopClients(),
      "== top clients (server s0) ==\n"
      "total ops: 0\n"
      "rank        ops       err  share%  client\n");
  EXPECT_EQ(workload_->RenderTopClientsJson(),
      "{\"server\":\"s0\",\"total_ops\":0,\"clients\":[]}");
}

TEST_F(WorkloadGoldenTest, Renders) {
  Drive();
  EXPECT_EQ(workload_->RenderWorkload(),
      "== workload (server s0) ==\n"
      "applied ops: 10  bytes: 115\n"
      "distinct keys: ~3 (open window ~1)\n"
      "distinct clients: ~2 (open window ~2)\n"
      "windows closed: 1\n"
      "sketch bytes: 18846\n"
      "hot threshold: >25.0% share after 4 ops\n"
      "hot key: /a (7 ops, 70.0%)\n"
      "hot client: 7 (7 ops, 70.0%)\n"
      "-- per-layer propose usage --\n"
      "layer                                 ops          bytes\n"
      "base.append                             2            150\n"
      "batching                                1            100\n");
  EXPECT_EQ(MaskSketchBytes(workload_->RenderWorkloadJson()),
      "{\"server\":\"s0\",\"apply_ops\":10,\"apply_bytes\":115,"
      "\"distinct_keys\":3,\"distinct_clients\":2,\"window_distinct_keys\":1,"
      "\"window_distinct_clients\":2,\"windows_closed\":1,"
      "\"sketch_bytes\":N,"
      "\"hot_key\":{\"key\":\"/a\",\"ops\":7,\"share_pct\":70.0},"
      "\"hot_client\":{\"client\":\"7\",\"ops\":7,\"share_pct\":70.0},"
      "\"layers\":[{\"layer\":\"base.append\",\"ops\":2,"
      "\"bytes\":150},{\"layer\":\"batching\",\"ops\":1,\"bytes\":100}]}");
  EXPECT_EQ(workload_->RenderTopKeys(),
      "== top keys (server s0) ==\n"
      "total ops: 10\n"
      "rank        ops       err       bytes~  share%  key\n"
      "   1          7         0           70   70.0%  /a\n"
      "   2          2         0           40   20.0%  /b\"q\\\n"
      "   3          1         0            5   10.0%  k\x01""\n");
  EXPECT_EQ(workload_->RenderTopKeysJson(),
      "{\"server\":\"s0\",\"total_ops\":10,\"keys\":[{\"key\":\"/a\","
      "\"ops\":7,\"err\":0,\"bytes\":70,\"share_pct\":70.0},"
      "{\"key\":\"/b\\\"q\\\\\",\"ops\":2,\"err\":0,"
      "\"bytes\":40,\"share_pct\":20.0},{\"key\":\"k\\u0001\","
      "\"ops\":1,\"err\":0,\"bytes\":5,\"share_pct\":10.0}]}");
  EXPECT_EQ(workload_->RenderTopClients(),
      "== top clients (server s0) ==\n"
      "total ops: 10\n"
      "rank        ops       err  share%  client\n"
      "   1          7         0   70.0%  7\n"
      "   2          3         0   30.0%  9\n");
  EXPECT_EQ(workload_->RenderTopClientsJson(),
      "{\"server\":\"s0\",\"total_ops\":10,\"clients\":[{\"client\":\"7\","
      "\"ops\":7,\"err\":0,\"share_pct\":70.0},{\"client\":\"9\","
      "\"ops\":3,\"err\":0,\"share_pct\":30.0}]}");
}

}  // namespace
}  // namespace delos

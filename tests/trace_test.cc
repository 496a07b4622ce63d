// End-to-end proposal tracing across the full nine-engine stack.
//
// The contract under test (the observability tentpole): a single propose on
// a three-replica cluster yields exactly one trace whose spans cover every
// layer's down-path hand-off, the shared-log append, and the up-path apply
// of every layer on every replica — with timestamps from the injected clock,
// and, under the simulator, a rendering that is byte-identical across
// replays of the same schedule.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/backup/backup_store.h"
#include "src/common/trace.h"
#include "src/common/workload.h"
#include "src/core/cluster.h"
#include "src/engines/compression_engine.h"
#include "src/engines/stacks.h"
#include "src/sharedlog/inmemory_log.h"
#include "src/sim/sim_cluster.h"

namespace delos {
namespace {

class NoopApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put("app/last", entry.payload);
    return std::any(Unit{});
  }
};

LogEntry PayloadEntry(std::string payload) {
  LogEntry entry;
  entry.payload = std::move(payload);
  return entry;
}

// Three replicas, all nine engine types (with observers interleaved), over
// one in-memory log, sharing one Tracer driven by a SimClock.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Options tracer_options;
    tracer_options.clock = &clock_;
    tracer_ = std::make_unique<Tracer>(tracer_options);

    Cluster::Options options;
    options.num_servers = 3;
    options.base_options.tracer = tracer_.get();
    cluster_ = std::make_unique<Cluster>(options, [this](ClusterServer& server) {
      StackConfig config = DelosTableStackConfig(&backup_);
      config.backup_segment_size = 1'000'000;  // keep the upload worker passive
      config.session_order = true;
      config.batching = true;
      config.time = true;
      config.lease = true;
      config.lease_ttl_micros = 600'000'000;  // nobody acquires; nothing expires
      config.observers = true;
      BuildStack(server, config);
      server.AddEngine<CompressionEngine>(CompressionEngine::Options{});

      auto app = std::make_unique<NoopApplicator>();
      server.RegisterApplicator(app.get());
      apps_.push_back(std::move(app));
    });
  }

  void TearDown() override { cluster_.reset(); }

  SimClock clock_{0};
  std::unique_ptr<Tracer> tracer_;
  InMemoryBackupStore backup_;
  std::vector<std::unique_ptr<NoopApplicator>> apps_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(TraceTest, SingleProposeYieldsOneTraceCoveringEveryLayerAndReplica) {
  clock_.Advance(1000);
  cluster_->server(0).top()->Propose(PayloadEntry("traced-write")).Get();
  clock_.Advance(1000);
  for (int i = 0; i < cluster_->size(); ++i) {
    cluster_->server(i).top()->Sync().Get();
  }

  const uint64_t id = tracer_->last_trace_id();
  ASSERT_EQ(id, 1u) << "exactly one trace for one propose";
  const std::vector<TraceSpan> spans = tracer_->Collect(id);
  ASSERT_FALSE(spans.empty());

  std::set<std::string> names;
  std::set<std::pair<std::string, std::string>> by_server;  // (server, name)
  for (const TraceSpan& span : spans) {
    EXPECT_EQ(span.trace_id, id);
    names.insert(span.name);
    by_server.insert({span.server, span.name});
  }

  // The client-visible end-to-end span, recorded by the minting layer.
  EXPECT_TRUE(names.count("client.propose")) << tracer_->Render(id);

  // Down-path: at least one span per engine layer. Batching and SessionOrder
  // record their specialized spans (queue wait, sequencing); everything else
  // records the generic hand-off.
  const std::vector<std::string> down_spans = {
      "compression.down",    "batching.queue",   "lease.down",
      "sessionorder.seq",    "time.down",        "viewtracking.down",
      "braindoctor.down",    "logbackup.down",   "observer-base.down",
      "observer-batching.down"};
  for (const std::string& name : down_spans) {
    EXPECT_TRUE(names.count(name)) << "missing down-path span " << name << "\n"
                                   << tracer_->Render(id);
  }

  // The shared-log append, attributed to the proposing server.
  EXPECT_TRUE(by_server.count({"server0", "base.append"})) << tracer_->Render(id);

  // Up-path: every layer's apply on EVERY replica, app applicator included.
  const std::vector<std::string> apply_spans = {
      "base.apply",        "logbackup.apply", "braindoctor.apply",
      "viewtracking.apply", "time.apply",     "sessionorder.apply",
      "lease.apply",       "batching.apply",  "compression.apply",
      "app.apply"};
  for (int i = 0; i < cluster_->size(); ++i) {
    const std::string server = "server" + std::to_string(i);
    for (const std::string& name : apply_spans) {
      EXPECT_TRUE(by_server.count({server, name}))
          << "missing " << name << " on " << server << "\n"
          << tracer_->Render(id);
    }
  }

  // Timestamps come from the injected clock and are monotonic: the clock
  // only moves forward, so every span is well-formed and inside the run.
  const int64_t now = clock_.NowMicros();
  for (const TraceSpan& span : spans) {
    EXPECT_GE(span.start_micros, 0);
    EXPECT_LE(span.start_micros, span.end_micros);
    EXPECT_LE(span.end_micros, now);
  }
}

TEST_F(TraceTest, EachProposeGetsItsOwnTraceAndHeaderSurvivesTheStack) {
  cluster_->server(0).top()->Propose(PayloadEntry("first")).Get();
  cluster_->server(1).top()->Propose(PayloadEntry("second")).Get();
  EXPECT_EQ(tracer_->last_trace_id(), 2u);

  // Both traces exist and do not share spans.
  const std::vector<TraceSpan> first = tracer_->Collect(1);
  const std::vector<TraceSpan> second = tracer_->Collect(2);
  EXPECT_FALSE(first.empty());
  EXPECT_FALSE(second.empty());
  for (const TraceSpan& span : second) {
    EXPECT_EQ(span.trace_id, 2u);
  }
  // The second propose entered at s1, so its append is attributed there.
  bool append_on_s1 = false;
  for (const TraceSpan& span : second) {
    append_on_s1 |= (span.name == "base.append" && span.server == "server1");
  }
  EXPECT_TRUE(append_on_s1) << tracer_->Render(2);
}

TEST_F(TraceTest, RenderIsDeterministicForIdenticalSpanSets) {
  cluster_->server(0).top()->Propose(PayloadEntry("x")).Get();
  for (int i = 0; i < cluster_->size(); ++i) {
    cluster_->server(i).top()->Sync().Get();
  }
  const uint64_t id = tracer_->last_trace_id();
  const std::string a = tracer_->Render(id);
  const std::string b = tracer_->Render(id);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("trace 1"), std::string::npos);
}

// The simulator's replay-identical-trace contract: the same fault-free
// schedule produces byte-identical trace renderings on every run (ids from
// the deterministic workload order, timestamps from the pinned SimClock).
TEST(SimTraceReplay, TraceIsByteIdenticalAcrossReplaysOfOneSchedule) {
  sim::SimOptions options;
  options.shape = sim::StackShape::kFullNine;
  options.num_ops = 8;

  sim::FaultPlan plan;
  plan.seed = 424242;  // no fault events: pure workload schedule

  const std::filesystem::path scratch = std::filesystem::temp_directory_path();
  options.scratch_dir = (scratch / "delos_trace_replay_a").string();
  sim::SimCluster first(options);
  const sim::RunReport a = first.Run(plan);
  options.scratch_dir = (scratch / "delos_trace_replay_b").string();
  sim::SimCluster second(options);
  const sim::RunReport b = second.Run(plan);

  ASSERT_TRUE(a.ok()) << a.Summary();
  ASSERT_TRUE(b.ok()) << b.Summary();
  ASSERT_NE(a.last_trace_id, 0u);
  EXPECT_EQ(a.last_trace_id, b.last_trace_id);
  ASSERT_FALSE(a.last_trace.empty());
  EXPECT_EQ(a.last_trace, b.last_trace) << "replay trace diverged:\n=== run A ===\n"
                                        << a.last_trace << "=== run B ===\n"
                                        << b.last_trace;
}

// --- One id parse per record, every id kept ---

// Blocks the apply of a "hold" entry until `gate` settles.
class GatedApplicator : public IApplicator {
 public:
  explicit GatedApplicator(Future<Unit> gate) : gate_(std::move(gate)) {}
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    if (entry.payload == "hold") {
      gate_.Get();
    }
    return std::any(Unit{});
  }

 private:
  Future<Unit> gate_;
};

// A full batch carries one trace id per constituent, past the id parser's
// inline buffer; the batch's single apply must still record a base.apply
// span for every one of them.
TEST(TraceIdParsing, BatchOfSixtyFourTracedSubEntriesYieldsEveryBaseApplySpan) {
  SimClock clock(0);
  Tracer::Options tracer_options;
  tracer_options.clock = &clock;
  Tracer tracer(tracer_options);
  Cluster::Options options;
  options.num_servers = 1;
  options.base_options.tracer = &tracer;
  Promise<Unit> release;
  std::unique_ptr<GatedApplicator> app;
  BatchingEngine* batching = nullptr;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config;
    config.view_tracking = false;
    config.brain_doctor = false;
    config.digest = false;
    config.batching = true;
    config.batch_max_entries = 64;
    BuildStack(server, config);
    batching = dynamic_cast<BatchingEngine*>(server.FindEngine("batching"));
    app = std::make_unique<GatedApplicator>(release.GetFuture());
    server.RegisterApplicator(app.get());
  });
  ASSERT_NE(batching, nullptr);
  // The held entry flushes alone (nothing is in flight) and stays in flight
  // until released, so the 64 after it form one full batch.
  std::vector<Future<std::any>> futures;
  futures.push_back(cluster.server(0).top()->Propose(PayloadEntry("hold")));
  for (int i = 0; i < 64; ++i) {
    futures.push_back(cluster.server(0).top()->Propose(PayloadEntry("v" + std::to_string(i))));
  }
  release.SetValue(Unit{});
  for (auto& future : futures) {
    future.Get();
  }
  EXPECT_EQ(batching->batches_proposed(), 2u);
  ASSERT_EQ(tracer.last_trace_id(), 65u);
  for (uint64_t id = 1; id <= 65; ++id) {
    int base_applies = 0;
    for (const TraceSpan& span : tracer.Collect(id)) {
      base_applies += span.name == "base.apply" ? 1 : 0;
    }
    EXPECT_EQ(base_applies, 1) << tracer.Render(id);
  }
}

// A record whose trace blob is malformed applies normally and untraced.
TEST(TraceIdParsing, MalformedTraceBlobAppliesUntraced) {
  Tracer tracer;
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  BaseEngineOptions base_options;
  base_options.tracer = &tracer;
  BaseEngine engine(log, &store, base_options);
  NoopApplicator app;
  engine.RegisterUpcall(&app);
  engine.Start();
  LogEntry entry = PayloadEntry("untraced");
  entry.SetHeader(kTraceHeaderName, EngineHeader{kMsgTypeApp, std::string("\x05\x01", 2)});
  log->Append(entry.Serialize()).Get();
  engine.Sync().Get();
  EXPECT_EQ(store.Snapshot().Get("app/last"), "untraced");
  EXPECT_EQ(tracer.span_count(), 0u);
  engine.Stop();
}

// The shared append charges every client a batch entry carries, including
// the ids past the parser's inline buffer.
TEST(TraceIdParsing, BaseAppendChargesEveryClientPastTheInlineBuffer) {
  MetricsRegistry metrics;
  WorkloadAttributor::Options workload_options;
  workload_options.metrics = &metrics;
  WorkloadAttributor workload(workload_options);
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  BaseEngineOptions base_options;
  base_options.workload = &workload;
  BaseEngine engine(log, &store, base_options);
  NoopApplicator app;
  engine.RegisterUpcall(&app);
  engine.Start();
  std::vector<uint64_t> clients;
  for (uint64_t i = 0; i < 3 * IdList::kInline; ++i) {
    clients.push_back(100 + i);
  }
  LogEntry entry = PayloadEntry("batch");
  SetClientIds(&entry, clients);
  engine.Propose(std::move(entry)).Get();
  workload.CloseWindow(1'000'000);
  EXPECT_EQ(metrics.GetCounter("workload.layer.base.append.ops")->value(), 1u);
  EXPECT_EQ(metrics.GetGauge("workload.window.distinct.clients")->value(),
            static_cast<int64_t>(clients.size()));
  engine.Stop();
}

}  // namespace
}  // namespace delos

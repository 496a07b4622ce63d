// Tail-latency attribution bench: per-stage breakdown of the propose path,
// plus the cost of the attribution plane itself on the apply hot path.
//
// Two phases:
//
//  1. Propose-phase stage table — a single-server Zelos cluster with the
//     production stack (batching + session order), tracer and attributor
//     attached, driven by a closed-loop write workload. Reports the
//     latency.stage.* table (p50/p99/p999/max) plus the critical-path
//     dominance breakdown, and saves one slow-trace exemplar (the CI
//     artifact next to BENCH_latency.json).
//
//  2. Replay overhead — the fig8 group-commit replay (pre-filled backlog of
//     trace-stamped records through a fresh BaseEngine, play_batch_size 128)
//     with the tracer attached both ways and the attribution observer toggled.
//     Replay traffic is apply-span-only, so this measures exactly the
//     attributor's hot path: one histogram record plus an empty-open-table
//     probe per span. Best-of-3 interleaved; the process exits 1 when the
//     overhead exceeds the 5% budget, which is what fails the CI step.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/zelos/zelos.h"
#include "src/common/latency.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/core/base_engine.h"
#include "src/core/cluster.h"
#include "src/core/entry.h"
#include "src/engines/stacks.h"
#include "src/sharedlog/inmemory_log.h"

using namespace delos;
using namespace delos::bench;

namespace {

constexpr LogPos kReplayRecords = 50'000;
constexpr int kProposeOps = 2'000;
constexpr double kOverheadBudgetPct = 5.0;

// --- phase 2: attribution overhead on the fig8-style replay path ---

class ReplayApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put("k/" + std::to_string(pos % 512), entry.payload);
    return std::any(Unit{});
  }
};

// Every record carries a distinct trace id so each apply records a
// "base.apply" span — the worst case for the observer (one OnSpan per
// record), unlike production replay where most records are untraced.
std::shared_ptr<InMemoryLog> FillTracedBacklog() {
  auto log = std::make_shared<InMemoryLog>();
  const std::string value(100, 'v');
  for (LogPos i = 0; i < kReplayRecords; ++i) {
    LogEntry entry;
    entry.payload = value;
    SetTraceIds(&entry, {i + 1});
    log->Append(entry.Serialize());
  }
  return log;
}

struct ReplayRun {
  double records_per_sec = 0;
  uint64_t spans_observed = 0;
  int64_t stage_p50 = 0;
  int64_t stage_p99 = 0;
};

ReplayRun MeasureReplay(const std::shared_ptr<InMemoryLog>& log, bool attribution) {
  Tracer tracer;
  MetricsRegistry metrics;
  LocalStore store;
  ReplayApplicator app;
  BaseEngineOptions options;
  options.server_id = "replay";
  options.play_batch_size = 128;
  options.tracer = &tracer;
  std::unique_ptr<LatencyAttributor> attributor;
  uint64_t observer_id = 0;
  if (attribution) {
    LatencyAttributor::Options attr_options;
    attr_options.metrics = &metrics;
    attr_options.server = options.server_id;
    attributor = std::make_unique<LatencyAttributor>(std::move(attr_options));
    observer_id = tracer.AddObserver(
        [raw = attributor.get()](const TraceSpan& span) { raw->OnSpan(span); });
  }
  BaseEngine engine(log, &store, options);
  engine.RegisterUpcall(&app);
  engine.Start();
  const int64_t start = RealClock::Instance()->NowMicros();
  engine.Sync().Get();  // plays the whole backlog
  const int64_t elapsed = RealClock::Instance()->NowMicros() - start;
  engine.Stop();
  if (attribution) {
    tracer.RemoveObserver(observer_id);
  }
  ReplayRun run;
  run.records_per_sec =
      1e6 * static_cast<double>(engine.apply_records()) / static_cast<double>(elapsed);
  if (attribution) {
    Histogram* stage = metrics.GetHistogram("latency.stage.base.apply");
    run.spans_observed = stage->count();
    run.stage_p50 = stage->Percentile(50);
    run.stage_p99 = stage->Percentile(99);
  }
  return run;
}

struct OverheadResult {
  ReplayRun off;
  ReplayRun on;
  double overhead_pct = 0;
  bool within_budget = false;
};

OverheadResult MeasureOverhead() {
  auto log = FillTracedBacklog();
  MeasureReplay(log, false);  // warm-up: page in the backlog for both sides
  OverheadResult result;
  result.off = MeasureReplay(log, false);
  result.on = MeasureReplay(log, true);
  for (int i = 0; i < 2; ++i) {
    const ReplayRun off_run = MeasureReplay(log, false);
    if (off_run.records_per_sec > result.off.records_per_sec) {
      result.off = off_run;
    }
    ReplayRun on_run = MeasureReplay(log, true);
    if (on_run.records_per_sec > result.on.records_per_sec) {
      result.on = on_run;
    }
  }
  result.overhead_pct = 100.0 * (result.off.records_per_sec - result.on.records_per_sec) /
                        result.off.records_per_sec;
  result.within_budget = result.overhead_pct <= kOverheadBudgetPct;
  return result;
}

// --- phase 1: propose-path stage table on a production-shaped stack ---

struct ProposeResult {
  std::string table;          // RenderLatency(): the human-readable breakdown
  std::string json;           // RenderLatencyJson(): embedded in BENCH_latency.json
  std::string slow_list;      // RenderSlowList()
  std::string slow_exemplar;  // RenderSlowDetail() of the newest capture
};

ProposeResult MeasureProposePath() {
  std::unique_ptr<zelos::ZelosApplicator> app;
  Tracer tracer;
  Cluster::Options options;
  options.num_servers = 1;
  options.base_options.tracer = &tracer;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = ZelosStackConfig(nullptr);
    config.batch_max_entries = 8;
    config.batch_max_delay_micros = 500;
    BuildStack(server, config);
    app = std::make_unique<zelos::ZelosApplicator>();
    app->set_metrics(server.metrics());
    server.RegisterApplicator(app.get(), zelos::ZelosKeyExtractor::Instance());
  });
  ClusterServer& server = cluster.server(0);

  zelos::ZelosClient client(server.top(), app.get());
  const zelos::SessionId session = client.CreateSession();
  for (int i = 0; i < 16; ++i) {
    client.Create(session, "/bench" + std::to_string(i), "v");
  }
  for (int i = 0; i < kProposeOps; ++i) {
    client.SetData("/bench" + std::to_string(i % 16), "value" + std::to_string(i));
  }
  server.top()->Sync().Get();

  ProposeResult result;
  LatencyAttributor* latency = server.latency();
  result.table = latency->RenderLatency();
  result.json = latency->RenderLatencyJson();
  result.slow_list = latency->RenderSlowList();
  const std::vector<SlowTrace> slow = latency->slow_traces().Snapshot();
  if (!slow.empty()) {
    result.slow_exemplar = latency->RenderSlowDetail(slow.back().trace_id).value_or("");
  }
  server.Stop();
  return result;
}

void WriteReport(const ProposeResult& propose, const OverheadResult& overhead) {
  const std::string path = std::string(DELOS_SOURCE_DIR) + "/BENCH_latency.json";
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"benchmark\": \"latency_attribution\",\n"
               "  \"propose_path\": %s,\n"
               "  \"replay_overhead\": {\n"
               "    \"replay_records\": %llu,\n"
               "    \"records_per_sec_off\": %.0f,\n"
               "    \"records_per_sec_on\": %.0f,\n"
               "    \"overhead_pct\": %.1f,\n"
               "    \"spans_observed\": %llu,\n"
               "    \"stage_base_apply_p50_us\": %lld,\n"
               "    \"stage_base_apply_p99_us\": %lld,\n"
               "    \"within_5_pct\": %s\n"
               "  }\n"
               "}\n",
               propose.json.c_str(), static_cast<unsigned long long>(kReplayRecords),
               overhead.off.records_per_sec, overhead.on.records_per_sec,
               overhead.overhead_pct,
               static_cast<unsigned long long>(overhead.on.spans_observed),
               static_cast<long long>(overhead.on.stage_p50),
               static_cast<long long>(overhead.on.stage_p99),
               overhead.within_budget ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());

  // The sample exemplar CI uploads next to the JSON: one slow proposal's
  // critical path, span tree, and flight excerpt.
  const std::string exemplar_path =
      std::string(DELOS_SOURCE_DIR) + "/BENCH_latency_slow_exemplar.txt";
  FILE* exemplar = std::fopen(exemplar_path.c_str(), "w");
  if (exemplar != nullptr) {
    std::fputs(propose.slow_list.c_str(), exemplar);
    std::fputs("\n", exemplar);
    std::fputs(propose.slow_exemplar.empty() ? "(no slow trace captured)\n"
                                             : propose.slow_exemplar.c_str(),
               exemplar);
    std::fclose(exemplar);
    std::printf("wrote %s\n", exemplar_path.c_str());
  }
}

}  // namespace

int main() {
  PrintBanner("Tail-latency attribution: per-stage breakdown + observer overhead",
              "full-detail tracing only for the anomalous few (tail-based sampling)");

  std::printf("\nPropose path (%d Zelos writes through batching + session order):\n\n",
              kProposeOps);
  const ProposeResult propose = MeasureProposePath();
  std::fputs(propose.table.c_str(), stdout);
  std::printf("\n");
  std::fputs(propose.slow_list.c_str(), stdout);

  std::printf("\nAttribution overhead on the replay path (%llu traced records, batch 128):\n",
              static_cast<unsigned long long>(kReplayRecords));
  const OverheadResult overhead = MeasureOverhead();
  std::printf("attribution off: %.0f rec/s, on: %.0f rec/s (%.1f%% overhead, "
              "%llu spans observed) — %s\n",
              overhead.off.records_per_sec, overhead.on.records_per_sec,
              overhead.overhead_pct,
              static_cast<unsigned long long>(overhead.on.spans_observed),
              overhead.within_budget ? "within budget" : "OVER BUDGET");

  WriteReport(propose, overhead);
  return overhead.within_budget ? 0 : 1;
}

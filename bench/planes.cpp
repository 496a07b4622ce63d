// Plane-overhead bench: what each always-on plane shows, and what it costs
// the apply path.
//
// Demo phases, one per plane with a live surface:
//
//  * latency — a single-server Zelos cluster (batching + session order)
//    with tracing on, driven by closed-loop writes: the latency.stage.*
//    table, the critical-path breakdown, and one slow-trace exemplar
//    (BENCH_latency_slow_exemplar.txt).
//  * workload — the same cluster shape with a planted hot key (client 1
//    sends 75% of writes to /hot): the hot key and client, and a /top/keys
//    scrape over real HTTP (BENCH_workload_top_keys.txt).
//  * digest — three DelosTable replicas with a tight beacon cadence; after a
//    clean cross-check round one replica's store is corrupted out-of-band
//    (the live analogue of the simulator's kSabotage fault) and every
//    replica must convict; /divergence is scraped over real HTTP
//    (BENCH_digest_divergence.txt).
//
// Gate table: each plane replays one backlog through the bench_util rig
// with the plane off and on, ten alternating pairs, gated on the 25th
// percentile of the per-pair overheads at kOverheadBudgetPct:
//
//  * flight_recorder — bare BaseEngine; no recorder vs a 4096-event ring.
//  * latency_attribution — bare BaseEngine, every record trace-stamped and
//    the tracer attached on both sides; the attribution observer toggled
//    (one histogram record plus an open-table probe per span).
//  * workload_attribution — production Zelos stack; the plane off vs on
//    (two relaxed adds per record, the full sketch update on 1 in 8).
//  * digest — production Zelos stack with a beacon header on every 64th
//    record (the production cadence); the layer deployed disabled vs
//    enabled. Deployed-but-disabled is the resting state of two-phase
//    insertion, so the toggle prices divergence *checking*, apart from the
//    generic cost of one more layer that Figure 7 prices for every engine.
//    The enabled replay must check every beacon with no mismatch and no
//    conviction (the sample lookups all miss by construction).
//
// Writes BENCH_planes.json and exits 1 when a gate, the digest replay-clean
// check or the conviction check fails.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/delostable/table_db.h"
#include "src/common/divergence.h"
#include "src/common/latency.h"
#include "src/common/trace.h"
#include "src/common/workload.h"
#include "src/engines/digest_engine.h"
#include "src/net/admin_server.h"
#include "src/sharedlog/inmemory_log.h"

using namespace delos;
using namespace delos::bench;

namespace {

constexpr LogPos kReplayRecords = 150'000;
constexpr uint64_t kBeaconEvery = 64;  // the production stack's default cadence
constexpr int kProposeOps = 2'000;

// GET `route` from the server's admin surface over real HTTP.
std::string Scrape(ClusterServer& server, const std::string& route) {
  AdminServer admin{AdminEndpoint(&server)};
  std::string body;
  if (admin.Start()) {
    int status = 0;
    if (!AdminHttpGet("127.0.0.1", admin.port(), route, &status, &body) || status != 200) {
      body.clear();
    }
    admin.Stop();
  }
  return body.empty() ? "(scrape failed)\n" : body;
}

// A single-server Zelos cluster with the production propose path (batching
// + session order), tracing on; `drive` issues the workload.
template <typename Drive, typename Report>
void RunZelosDemo(const Drive& drive, const Report& report) {
  std::unique_ptr<zelos::ZelosApplicator> app;
  Tracer tracer;
  Cluster::Options options;
  options.num_servers = 1;
  options.base_options.tracer = &tracer;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = ZelosStackConfig(nullptr);
    config.batch_max_entries = 8;
    BuildStack(server, config);
    app = std::make_unique<zelos::ZelosApplicator>();
    app->set_metrics(server.metrics());
    server.RegisterApplicator(app.get(), zelos::ZelosKeyExtractor::Instance());
  });
  ClusterServer& server = cluster.server(0);
  zelos::ZelosClient client(server.top(), app.get());
  drive(client);
  server.top()->Sync().Get();
  report(server);
  server.Stop();
}

// --- latency: propose-path stage table and a slow exemplar ---

std::string LatencyDemo() {
  std::printf("\nLatency: propose path (%d Zelos writes through batching + session order)\n\n",
              kProposeOps);
  std::string json;
  RunZelosDemo(
      [](zelos::ZelosClient& client) {
        const zelos::SessionId session = client.CreateSession();
        for (int i = 0; i < 16; ++i) {
          client.Create(session, "/bench" + std::to_string(i), "v");
        }
        for (int i = 0; i < kProposeOps; ++i) {
          client.SetData("/bench" + std::to_string(i % 16), "value" + std::to_string(i));
        }
      },
      [&](ClusterServer& server) {
        LatencyAttributor* latency = server.latency();
        std::fputs(latency->RenderLatency().c_str(), stdout);
        const std::string slow_list = latency->RenderSlowList();
        std::printf("\n%s", slow_list.c_str());
        const std::vector<SlowTrace> slow = latency->slow_traces().Snapshot();
        const std::string exemplar =
            slow.empty() ? "" : latency->RenderSlowDetail(slow.back().trace_id).value_or("");
        WriteSourceFile("BENCH_latency_slow_exemplar.txt",
                        slow_list + "\n" +
                            (exemplar.empty() ? "(no slow trace captured)\n" : exemplar));
        json = latency->RenderLatencyJson();
      });
  return json;
}

// --- workload: a planted hot key and the /top/keys scrape ---

JsonObject WorkloadDemo() {
  std::printf("\nWorkload: %d Zelos writes, 75%% on one znode, two clients\n\n", kProposeOps);
  JsonObject json;
  RunZelosDemo(
      [](zelos::ZelosClient& client) {
        const zelos::SessionId session = client.CreateSession();
        client.set_client_id(1);
        client.Create(session, "/hot", "v");
        for (int i = 0; i < 16; ++i) {
          client.Create(session, "/cold" + std::to_string(i), "v");
        }
        for (int i = 0; i < kProposeOps; ++i) {
          if (i % 4 != 0) {
            client.set_client_id(1);
            client.SetData("/hot", "value" + std::to_string(i));
          } else {
            client.set_client_id(2);
            client.SetData("/cold" + std::to_string(i % 16), "value" + std::to_string(i));
          }
        }
      },
      [&](ClusterServer& server) {
        server.CollectHealth();  // close one attribution window
        WorkloadAttributor* workload = server.workload();
        std::fputs(workload->RenderWorkload().c_str(), stdout);
        const auto hot_key = workload->HottestKey();
        const auto hot_client = workload->HottestClient();
        std::printf("\nhot key: %s (%.1f%% of applied ops), hot client: %s\n",
                    hot_key ? hot_key->name.c_str() : "(none)",
                    hot_key ? hot_key->share_pct : 0.0,
                    hot_client ? hot_client->name.c_str() : "(none)");
        WriteSourceFile("BENCH_workload_top_keys.txt", Scrape(server, "/top/keys"));
        json.Str("hot_key", hot_key ? hot_key->name : "")
            .Num("hot_key_share_pct", hot_key ? hot_key->share_pct : 0.0)
            .Str("hot_client", hot_client ? hot_client->name : "")
            .Raw("workload", workload->RenderWorkloadJson());
      });
  return json;
}

// --- digest: three-replica conviction and the /divergence scrape ---

JsonObject DigestDemo(bool* all_convicted) {
  std::printf("\nDigest: 3 replicas, one corrupted after a clean beacon round\n");
  Cluster::Options options;
  options.num_servers = 3;
  options.log_kind = Cluster::LogKind::kInMemory;
  std::map<std::string, std::unique_ptr<table::TableApplicator>> applicators;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = DelosTableStackConfig(nullptr);
    config.digest_beacon_every = 4;  // tight cadence: narrow conviction window
    BuildStack(server, config);
    auto app = std::make_unique<table::TableApplicator>();
    server.RegisterApplicator(app.get(), table::TableKeyExtractor::Instance());
    applicators[server.id()] = std::move(app);
  });

  table::TableSchema schema;
  schema.name = "users";
  schema.columns = {{"id", table::ValueType::kInt64}, {"name", table::ValueType::kString}};
  schema.primary_key = "id";
  table::TableClient client(cluster.server(0).top());
  client.CreateTable(schema);
  for (int64_t i = 0; i < 16; ++i) {
    client.Insert("users",
                  table::Row{{"id", table::Value{i}}, {"name", table::Value{std::string("u")}}});
  }
  const auto digest_of = [&](int s) {
    return dynamic_cast<DigestEngine*>(cluster.server(s).FindEngine("digest"));
  };
  const auto beacon_round = [&] {
    for (int s = 0; s < cluster.size(); ++s) {
      if (DigestEngine* digest = digest_of(s); digest != nullptr) {
        digest->ProposeBeaconNow(10'000'000);
      }
    }
    for (int s = 0; s < cluster.size(); ++s) {
      cluster.server(s).top()->Sync().Get();
    }
  };
  beacon_round();  // pre-corruption samples: all replicas agree
  {
    auto txn = cluster.server(1).store()->BeginRW();
    txn.Put("corruption", "divergent");
    txn.Commit();
  }
  beacon_round();  // publishes the diverging samples
  beacon_round();  // cross-checks them: every replica convicts

  *all_convicted = true;
  for (int s = 0; s < cluster.size(); ++s) {
    DigestEngine* digest = digest_of(s);
    *all_convicted = *all_convicted && digest != nullptr && digest->tracker()->convicted();
  }
  JsonObject json;
  json.Bool("all_convicted", *all_convicted);
  std::printf("all replicas convicted: %s\n", *all_convicted ? "yes" : "NO");
  if (DigestEngine* digest = digest_of(0); digest != nullptr && digest->tracker()->convicted()) {
    const DivergenceTracker* tracker = digest->tracker();
    std::printf("earliest diverging interval: (%llu, %llu], %llu beacons checked\nverdict: %s\n",
                static_cast<unsigned long long>(tracker->window_lo()),
                static_cast<unsigned long long>(tracker->window_hi()),
                static_cast<unsigned long long>(tracker->beacons_checked()),
                tracker->HealthReason().c_str());
    json.Int("window_lo", static_cast<int64_t>(tracker->window_lo()))
        .Int("window_hi", static_cast<int64_t>(tracker->window_hi()))
        .Int("beacons_checked", static_cast<int64_t>(tracker->beacons_checked()))
        .Raw("divergence", tracker->RenderJson());
  }
  WriteSourceFile("BENCH_digest_divergence.txt", Scrape(cluster.server(0), "/divergence"));
  return json;
}

// --- the gate table ---

struct PlaneGate {
  std::string name;
  std::string stack;   // the replay stack: "bare_base" or "zelos"
  std::string toggle;  // what off -> on changes
  GateResult gate;
  JsonObject counters;  // the plane's counters from the last "on" replay
};

// `replay(on, counters)` returns records/s and, when on, fills `counters`.
PlaneGate RunGate(std::string name, std::string stack, std::string toggle,
                  const std::function<double(bool on, JsonObject* counters)>& replay) {
  PlaneGate plane{std::move(name), std::move(stack), std::move(toggle), {}, {}};
  std::printf("  %-22s ...", plane.name.c_str());
  std::fflush(stdout);
  plane.gate = PairedGate([&](bool on) {
    JsonObject counters;
    const double rate = replay(on, &counters);
    if (on) {
      plane.counters = std::move(counters);
    }
    return rate;
  });
  std::printf(" off %9.0f  on %9.0f rec/s  median %5.1f%%  p25 %5.1f%%  %s\n",
              plane.gate.off_per_sec, plane.gate.on_per_sec, plane.gate.median_pct,
              plane.gate.p25_pct, plane.gate.within_budget ? "within budget" : "OVER BUDGET");
  return plane;
}

std::shared_ptr<ISharedLog> NewBacklog(BacklogStamps stamps) {
  auto log = std::make_shared<InMemoryLog>();
  FillBacklog(log, kReplayRecords, stamps);
  return log;
}

std::vector<PlaneGate> RunGates(bool* digest_clean) {
  std::printf("\nReplay overhead (%llu-record backlogs, %d alternating off/on pairs, gate: "
              "p25 <= %.0f%%)\n",
              static_cast<unsigned long long>(kReplayRecords), kGatePairs, kOverheadBudgetPct);
  std::vector<PlaneGate> planes;
  const auto plain = NewBacklog({});

  planes.push_back(RunGate(
      "flight_recorder", "bare_base", "no recorder -> 4096-event ring",
      [&](bool on, JsonObject* counters) {
        FlightRecorder recorder(4096);
        ReplayStack stack;
        stack.base.recorder = on ? &recorder : nullptr;
        const double rate = Replay(plain, stack).records_per_sec;
        counters->Int("events_recorded", static_cast<int64_t>(recorder.events_recorded()));
        return rate;
      }));

  {
    const auto traced = NewBacklog({.trace_ids = true});
    planes.push_back(RunGate(
        "latency_attribution", "bare_base", "tracer both sides; attribution observer off -> on",
        [&](bool on, JsonObject* counters) {
          Tracer tracer;
          MetricsRegistry metrics;
          LatencyAttributor::Options options;
          options.metrics = &metrics;
          options.server = "replay";
          LatencyAttributor attributor(std::move(options));
          const uint64_t observer =
              on ? tracer.AddObserver([&](const TraceSpan& span) { attributor.OnSpan(span); })
                 : 0;
          ReplayStack stack;
          stack.base.server_id = "replay";
          stack.base.tracer = &tracer;
          const double rate = Replay(traced, stack).records_per_sec;
          if (on) {
            tracer.RemoveObserver(observer);
            Histogram* stage = metrics.GetHistogram("latency.stage.base.apply");
            counters->Int("spans_observed", static_cast<int64_t>(stage->count()))
                .Int("stage_base_apply_p50_us", stage->Percentile(50))
                .Int("stage_base_apply_p99_us", stage->Percentile(99));
          }
          return rate;
        }));
  }

  planes.push_back(RunGate(
      "workload_attribution", "zelos", "plane off -> on", [&](bool on, JsonObject* counters) {
        ReplayStack stack;
        stack.zelos = true;
        stack.base.workload_attribution = on;
        return Replay(plain, stack,
                      [&](ClusterServer& server) {
                        if (WorkloadAttributor* workload = server.workload(); workload != nullptr) {
                          counters->Int("apply_ops", static_cast<int64_t>(workload->apply_ops()))
                              .Int("sketch_bytes", static_cast<int64_t>(workload->SketchBytes()));
                        }
                      })
            .records_per_sec;
      }));

  const auto beaconed = NewBacklog({.beacon_every = kBeaconEvery});
  *digest_clean = true;
  planes.push_back(RunGate(
      "digest", "zelos", "layer deployed disabled -> enabled (beacon every 64)",
      [&](bool on, JsonObject* counters) {
        ReplayStack stack;
        stack.zelos = true;
        stack.digest_enabled = on;
        return Replay(beaconed, stack,
                      [&](ClusterServer& server) {
                        auto* digest = dynamic_cast<DigestEngine*>(server.FindEngine("digest"));
                        const DivergenceTracker* tracker = digest->tracker();
                        // Enabled, every stamped beacon is checked and none
                        // diverges; disabled, the layer stays inert (or the
                        // pair compares nothing).
                        const bool clean =
                            on ? tracker->beacons_checked() == kReplayRecords / kBeaconEvery &&
                                     tracker->mismatches() == 0 && !tracker->convicted()
                               : tracker->beacons_checked() == 0;
                        *digest_clean = *digest_clean && clean;
                        counters->Int("beacons_checked",
                                      static_cast<int64_t>(tracker->beacons_checked()))
                            .Int("mismatches", static_cast<int64_t>(tracker->mismatches()))
                            .Bool("convicted", tracker->convicted());
                      })
            .records_per_sec;
      }));
  if (!*digest_clean) {
    std::printf("DIGEST REPLAY NOT CLEAN: beacons unchecked, mismatched, or falsely convicted\n");
  }
  return planes;
}

}  // namespace

int main() {
  PrintBanner("Plane overhead: what each plane shows, and what it costs the apply path",
              "layering is cheap: each engine adds a few percent of apply-thread time (Figs 7-8)");

  const std::string latency_json = LatencyDemo();
  const JsonObject workload_json = WorkloadDemo();
  bool all_convicted = false;
  const JsonObject digest_json = DigestDemo(&all_convicted);
  bool digest_clean = false;
  const std::vector<PlaneGate> planes = RunGates(&digest_clean);

  bool ok = digest_clean && all_convicted;
  JsonObject report = StampedReport("planes");
  report.Int("replay_records", static_cast<int64_t>(kReplayRecords))
      .Num("budget_pct", kOverheadBudgetPct);
  for (const PlaneGate& plane : planes) {
    ok = ok && plane.gate.within_budget;
    JsonObject row;
    row.Str("stack", plane.stack)
        .Str("toggle", plane.toggle)
        .Num("records_per_sec_off", plane.gate.off_per_sec, 0)
        .Num("records_per_sec_on", plane.gate.on_per_sec, 0)
        .Num("median_pct", plane.gate.median_pct)
        .Num("p25_pct", plane.gate.p25_pct)
        .Raw("pair_pcts", JsonArray(plane.gate.pair_pcts))
        .Bool("within_budget", plane.gate.within_budget)
        .Obj("counters", plane.counters);
    report.Obj(plane.name, row);
  }
  report.Bool("digest_replay_clean", digest_clean)
      .Raw("latency_propose_path", latency_json)
      .Obj("workload_surfaces", workload_json)
      .Obj("digest_surfaces", digest_json)
      .Bool("ok", ok);
  WriteSourceFile("BENCH_planes.json", report.Render(true));
  return ok ? 0 : 1;
}

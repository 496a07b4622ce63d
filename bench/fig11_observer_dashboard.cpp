// Figure 11 reproduction: the ObserverEngine-powered production dashboard —
// per-layer propose p99 for a Zelos cluster.
//
// An ObserverEngine is layered above every engine (the production practice),
// so each layer's propose latency is measured generically. The paper's two
// observations to reproduce:
//  * the BatchingEngine adds latency while a proposal waits for its batch
//    (its line sits above the others). The log paces the batches here, so
//    the wait is only for the batch in flight and the gap is small at p50;
//  * the SessionOrderEngine line sits BELOW the BaseEngine line, despite
//    being above it in the stack — the short-circuit of §4.3 (its propose is
//    completed from postApply: the BaseEngine settles it in the batch's
//    completion pass ahead of its own proposers, so before the sub-stack's
//    future resolves).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/zelos/zelos.h"
#include "src/common/trace.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"
#include "src/net/admin_server.h"

using namespace delos;
using namespace delos::bench;

int main() {
  PrintBanner("Figure 11: per-engine propose p99 dashboard (ObserverEngine)",
              "batching line on top (accumulation delay); sessionordering line below base "
              "(short-circuit)");

  InMemoryBackupStore backup;
  std::map<std::string, std::unique_ptr<zelos::ZelosApplicator>> apps;
  Tracer tracer;  // cluster-wide: every propose gets a trace id
  Cluster::Options options;
  options.num_servers = 1;
  options.base_options.tracer = &tracer;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = ZelosStackConfig(&backup);
    config.backup_segment_size = 512;
    config.observers = true;  // one ObserverEngine above every engine
    config.batch_max_entries = 16;
    BuildStack(server, config);
    auto app = std::make_unique<zelos::ZelosApplicator>();
    app->set_metrics(server.metrics());  // live zelos.open_sessions gauge
    server.RegisterApplicator(app.get(), zelos::ZelosKeyExtractor::Instance());
    apps[server.id()] = std::move(app);
  });
  zelos::ZelosClient client(cluster.server(0).top(), apps["server0"].get());
  const zelos::SessionId session = client.CreateSession();
  for (int i = 0; i < 32; ++i) {
    client.Create(session, "/n" + std::to_string(i), "v");
  }

  const std::string value(100, 'd');
  RunClosedLoop(8, 2'000'000, [&, n = std::make_shared<std::atomic<int64_t>>(0)] {
    client.SetData("/n" + std::to_string(n->fetch_add(1) % 32), value);
  });

  MetricsRegistry* metrics = cluster.server(0).metrics();
  // Stack order, top to bottom (the dashboard's legend).
  const char* layers[] = {"batching", "sessionordering", "viewtracking",
                          "braindoctor", "logbackup", "base"};
  std::printf("%-18s %12s %12s %12s\n", "layer.propose", "p50(us)", "p99(us)", "count");
  int64_t base_p99 = 0;
  int64_t session_p99 = 0;
  int64_t batching_p99 = 0;
  for (const char* layer : layers) {
    Histogram* hist = metrics->GetHistogram(std::string(layer) + ".propose.latency_us");
    std::printf("%-18s %12lld %12lld %12llu\n", layer, (long long)hist->Percentile(50),
                (long long)hist->Percentile(99), (unsigned long long)hist->count());
    if (std::string(layer) == "base") {
      base_p99 = hist->Percentile(99);
    }
    if (std::string(layer) == "sessionordering") {
      session_p99 = hist->Percentile(99);
    }
    if (std::string(layer) == "batching") {
      batching_p99 = hist->Percentile(99);
    }
  }
  std::printf("\nRESULT: batching adds accumulation latency (batching p99 %lld us vs "
              "sessionordering %lld us): %s\n",
              (long long)batching_p99, (long long)session_p99,
              batching_p99 > session_p99 ? "reproduced" : "NOT reproduced");
  std::printf("RESULT: short-circuit anomaly (sessionordering %lld us below base %lld us): %s\n",
              (long long)session_p99, (long long)base_p99,
              session_p99 <= base_p99 ? "reproduced" : "NOT reproduced");

  // The per-request view behind the dashboard's aggregates: one traced write
  // through the full stack, then the server's debug endpoint (Prometheus
  // metrics + flight-recorder ring). This is the quick-start in README.md.
  client.SetData("/n0", "traced");
  cluster.server(0).top()->Sync().Get();
  std::printf("\n--- sample end-to-end trace (one SetData through the Zelos stack) ---\n%s",
              tracer.Render(tracer.last_trace_id()).c_str());
  const std::string dump = cluster.server(0).DebugDump();
  std::printf("\n--- DebugDump() tail (metrics exposition + flight recorder) ---\n");
  // The full dump is thousands of lines under load; show the last screenful.
  const size_t kTail = 1200;
  std::printf("%s\n", dump.size() > kTail ? dump.substr(dump.size() - kTail).c_str()
                                          : dump.c_str());

  // The same data a production scraper would pull: serve the admin endpoint
  // on an ephemeral loopback port and fetch /healthz + /metrics over HTTP.
  AdminServer admin{AdminEndpoint(&cluster.server(0))};
  if (admin.Start()) {
    int status = 0;
    std::string body;
    if (AdminHttpGet("127.0.0.1", admin.port(), "/healthz", &status, &body)) {
      std::printf("\n--- GET 127.0.0.1:%u/healthz -> HTTP %d ---\n%s", admin.port(), status,
                  body.c_str());
    }
    if (AdminHttpGet("127.0.0.1", admin.port(), "/metrics", &status, &body)) {
      std::printf("--- GET /metrics -> HTTP %d (%zu bytes of Prometheus exposition) ---\n",
                  status, body.size());
    }
    admin.Stop();
  }
  return 0;
}

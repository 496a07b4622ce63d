// Geo-distributed leasing demo (the Figure 10 scenario, interactive-sized):
// a 5-server DelosTable cluster spread across simulated regions. Without a
// lease, every strongly consistent read pays a quorum round trip; enabling
// the LeaseEngine — live, via a command in the log — drops reads at the
// leaseholder to local-memory latency.
//
//   ./examples/geo_lease
#include <cstdio>

#include "src/apps/delostable/table_db.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"

using namespace delos;
using namespace delos::table;

int main() {
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster::Options options;
  options.num_servers = 5;
  options.log_kind = Cluster::LogKind::kQuorum;
  // "Cross-region" links: ~4 ms one way (scaled down from the paper's ~24 ms
  // so the demo runs fast; the ratio is what matters).
  options.net_config.default_one_way_latency_micros = 4000;
  options.net_config.call_timeout_micros = 2'000'000;
  options.loglet_config.num_acceptors = 5;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = DelosTableStackConfig(nullptr);
    config.lease = true;
    config.lease_ttl_micros = 400'000;
    config.lease_guard_epsilon_micros = 50'000;
    BuildStack(server, config);
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get(), TableKeyExtractor::Instance());
    applicators[server.id()] = std::move(app);
  });
  // The client's "home region" server.
  ClusterServer& home = cluster.server(0);
  auto* lease = dynamic_cast<LeaseEngine*>(home.FindEngine("lease"));
  lease->DisableViaLog();  // start without leasing, like the paper's T<155s

  TableClient client(home.top());
  TableSchema schema;
  schema.name = "kv";
  schema.columns = {{"k", ValueType::kInt64}, {"v", ValueType::kString}};
  schema.primary_key = "k";
  client.CreateTable(schema);
  client.Insert("kv", {{"k", Value{int64_t{1}}}, {"v", Value{std::string("hello")}}});

  auto measure_reads = [&](const char* label, int n) {
    Histogram hist;
    for (int i = 0; i < n; ++i) {
      const int64_t start = RealClock::Instance()->NowMicros();
      client.Get("kv", Value{int64_t{1}});
      hist.Record(RealClock::Instance()->NowMicros() - start);
    }
    std::printf("%-28s p50=%6lld us   p99=%6lld us\n", label,
                (long long)hist.Percentile(50), (long long)hist.Percentile(99));
    return hist.Percentile(50);
  };

  const int64_t without = measure_reads("reads without lease:", 30);

  // Enable the LeaseEngine via the log (the paper's admin command at T=155s)
  // and acquire the lease at the home server.
  lease->EnableViaLog();
  lease->AcquireLease().Get();
  const int64_t with = measure_reads("reads with lease (0-RTT):", 200);

  std::printf("speedup: %.0fx\n",
              static_cast<double>(without) / static_cast<double>(std::max<int64_t>(with, 1)));

  // Disable again: latency snaps back (the paper's T=385s).
  lease->DisableViaLog();
  measure_reads("reads after disabling:", 30);
  return 0;
}

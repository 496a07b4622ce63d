// Figure 9 reproduction: "The BatchingEngine provides a 2X increase in
// maximum throughput under 20ms p99 latency."
//
// Setup mirrors the paper: 5 clients drive 100-byte writes (Puts) into a
// DelosTable-style store at increasing offered rates, with and without the
// BatchingEngine. The shared log is a ThrottledLog whose serialized append
// service time models the consensus protocol's synchronous-SSD bottleneck
// (§5.1) — the cost group commit amortizes. We report the
// throughput/latency curve and the maximum throughput with p99 <= 20 ms.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/apps/delostable/table_db.h"
#include "src/core/base_engine.h"
#include "src/engines/batching_engine.h"
#include "src/sharedlog/chaos_log.h"
#include "src/sharedlog/inmemory_log.h"

using namespace delos;
using namespace delos::bench;
using namespace delos::table;

namespace {

constexpr int kClients = 5;
constexpr int64_t kPointDuration = 1'000'000;  // 1 s per rate point
constexpr int64_t kP99LimitMicros = 20'000;

struct Server {
  explicit Server(bool with_batching) {
    ThrottledLog::Costs costs;
    costs.append_service_micros = 120;  // consensus pipeline occupancy per append
    costs.append_latency_micros = 300;  // quorum round trip
    log = std::make_shared<ThrottledLog>(std::make_shared<InMemoryLog>(), costs);
    base = std::make_unique<BaseEngine>(log, &store, BaseEngineOptions{});
    IEngine* top = base.get();
    if (with_batching) {
      BatchingEngine::Options options;
      options.max_batch_entries = 64;
      batching = std::make_unique<BatchingEngine>(options, base.get(), &store);
      top = batching.get();
    }
    top->RegisterUpcall(&app);
    base->Start();
    client = std::make_unique<TableClient>(top);

    TableSchema schema;
    schema.name = "kv";
    schema.columns = {{"k", ValueType::kInt64}, {"v", ValueType::kString}};
    schema.primary_key = "k";
    client->CreateTable(schema);
  }
  ~Server() {
    base->Stop();
    batching.reset();
  }

  LocalStore store;
  TableApplicator app;
  std::shared_ptr<ISharedLog> log;
  std::unique_ptr<BaseEngine> base;
  std::unique_ptr<BatchingEngine> batching;
  std::unique_ptr<TableClient> client;
};

double SweepConfig(const char* label, bool with_batching) {
  const double rates[] = {500,  1000, 2000, 3000,  4000,  5000,
                          6000, 8000, 10000, 12000, 16000, 20000};
  std::printf("\n[%s]\n", label);
  std::printf("%12s %14s %10s %10s %10s\n", "offered/s", "achieved/s", "p50(us)", "p99(us)",
              "errors");
  double best_under_limit = 0;
  bool saturated = false;
  for (const double rate : rates) {
    if (saturated) {
      break;
    }
    Server server(with_batching);
    std::atomic<int64_t> next_key{0};
    const std::string value(100, 'x');
    LoadResult result = RunOpenLoop(rate, kPointDuration, kClients * 4, [&] {
      const int64_t key = next_key.fetch_add(1) % 100000;
      server.client->Upsert("kv", {{"k", Value{key}}, {"v", Value{value}}});
    });
    const int64_t p99 = result.latency->Percentile(99);
    std::printf("%12.0f %14.0f %10lld %10lld %10llu\n", rate, result.achieved_per_sec,
                (long long)result.latency->Percentile(50), (long long)p99,
                (unsigned long long)result.errors);
    if (p99 <= kP99LimitMicros && result.achieved_per_sec > best_under_limit) {
      best_under_limit = result.achieved_per_sec;
    }
    // Stop sweeping once deep into overload.
    saturated = p99 > 8 * kP99LimitMicros;
  }
  std::printf("  -> max throughput under %lld ms p99: %.0f puts/s\n",
              (long long)(kP99LimitMicros / 1000),
              best_under_limit);
  return best_under_limit;
}

}  // namespace

int main() {
  PrintBanner("Figure 9: throughput/latency with and without the BatchingEngine",
              "2X max throughput under 20 ms p99 with batching (5 clients, 100-byte puts)");
  const double without = SweepConfig("without BatchingEngine", false);
  const double with = SweepConfig("with BatchingEngine", true);
  std::printf("\nRESULT: batching speedup at the 20 ms p99 ceiling: %.2fx (paper: ~2x)\n",
              with / (without > 0 ? without : 1));
  return 0;
}

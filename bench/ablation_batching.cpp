// Ablation: the BatchingEngine's entry cap.
//
// The paper reports the headline 2x (Figure 9) for one configuration; this
// ablation sweeps the one knob the engine has, the max batch size
// (amortization of the log's serialized append cost), against a row with no
// BatchingEngine at all. Batches are paced by the log, so the sweep also
// shows how full they get at a given load.
#include <cstdio>
#include <string>

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

struct Server {
  // batch_entries == 0 runs without a BatchingEngine.
  explicit Server(size_t batch_entries) {
    ThrottledLog::Costs costs;
    costs.append_service_micros = 120;
    costs.append_latency_micros = 300;
    log = std::make_shared<ThrottledLog>(std::make_shared<InMemoryLog>(), costs);
    base = std::make_unique<BaseEngine>(log, &store, BaseEngineOptions{});
    IEngine* top = base.get();
    if (batch_entries > 0) {
      BatchingEngine::Options options;
      options.max_batch_entries = batch_entries;
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

LoadResult Drive(Server& server, double rate) {
  const std::string value(100, 'b');
  return RunOpenLoop(rate, 800'000, 24, [&, n = std::make_shared<std::atomic<int64_t>>(0)] {
    server.client->Upsert("kv", {{"k", Value{n->fetch_add(1) % 4096}}, {"v", Value{value}}});
  });
}

}  // namespace

int main() {
  PrintBanner("Ablation: batch size",
              "batch size amortizes the log's serialized append cost; the log paces the "
              "batches");

  std::printf("\n[batch-size sweep, offered 8000 puts/s]\n");
  std::printf("%12s %14s %10s %10s %14s\n", "batch size", "achieved/s", "p50(us)", "p99(us)",
              "entries/batch");
  for (const size_t size : {0u, 1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    Server server(size);
    const LoadResult result = Drive(server, 8000);
    char per_batch[32] = "-";
    if (server.batching != nullptr && server.batching->batches_proposed() > 0) {
      std::snprintf(per_batch, sizeof(per_batch), "%.1f",
                    static_cast<double>(server.batching->entries_batched()) /
                        static_cast<double>(server.batching->batches_proposed()));
    }
    std::printf("%12s %14.0f %10lld %10lld %14s\n",
                size == 0 ? "off" : std::to_string(size).c_str(), result.achieved_per_sec,
                (long long)result.latency->Percentile(50),
                (long long)result.latency->Percentile(99), per_batch);
  }
  std::printf("\nRESULT: without batching (or at cap 1) every put pays the log's serialized\n"
              "append; with a larger cap the log paces the batches, so their size follows\n"
              "the load rather than the cap.\n");
  return 0;
}

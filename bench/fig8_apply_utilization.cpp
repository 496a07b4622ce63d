// Figure 8 reproduction: "Apply thread utilization across the fleet for a
// single day ... max utilization rarely spikes higher than 60%. For any
// given minute, 90% of the clusters are below 10% apply utilization."
//
// We synthesize a fleet of single-server clusters with a heavy-tailed
// workload mix (most clusters read-dominated at low rates, a few hot
// writers), and report per-window max / p99 / p90 apply-thread utilization
// across the fleet — the paper's three series — plus the fraction of
// (cluster, window) samples under 10%.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/delostable/table_db.h"
#include "src/common/random.h"
#include "src/core/base_engine.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"
#include "src/sharedlog/inmemory_log.h"
#include "src/sharedlog/quorum_loglet.h"
#include "src/sharedlog/read_cache.h"

using namespace delos;
using namespace delos::bench;
using namespace delos::table;

namespace {

constexpr int kClusters = 24;
constexpr int kWindows = 12;
constexpr int64_t kWindowMicros = 400'000;

struct FleetCluster {
  explicit FleetCluster(int index) {
    Cluster::Options options;
    options.num_servers = 1;
    cluster = std::make_unique<Cluster>(options, [&](ClusterServer& server) {
      BuildStack(server, DelosTableStackConfig(nullptr));
      auto application = std::make_unique<TableApplicator>();
      server.RegisterApplicator(application.get(), TableKeyExtractor::Instance());
      app = std::move(application);
    });
    client = std::make_unique<TableClient>(cluster->server(0).top());
    TableSchema schema;
    schema.name = "t";
    schema.columns = {{"k", ValueType::kInt64},
                      {"v", ValueType::kString},
                      {"tag", ValueType::kString}};
    schema.primary_key = "k";
    schema.secondary_indexes = {"tag"};
    client->CreateTable(schema);
    client->Upsert("t", {{"k", Value{int64_t{0}}}, {"v", Value{std::string(100, 'x')}}});

    // Heavy-tailed load assignment: most clusters are quiet and
    // read-dominated; a few are hot writers (the paper's max series).
    Rng rng(7000 + index);
    if (index < 2) {
      write_rate = 0;  // hot: unthrottled closed-loop writers
      read_rate = 500;
    } else if (index < 6) {
      write_rate = static_cast<int>(rng.Uniform(80, 200));
      read_rate = static_cast<int>(rng.Uniform(200, 600));
    } else {
      write_rate = static_cast<int>(rng.Uniform(2, 25));
      read_rate = static_cast<int>(rng.Uniform(50, 300));
    }
  }

  std::unique_ptr<TableApplicator> app;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<TableClient> client;
  int write_rate = 0;
  int read_rate = 0;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  int64_t last_busy = 0;

  void StartTraffic() {
    // Hot clusters (write_rate == 0) run several unthrottled writers with
    // large indexed rows; everyone else paces to its assigned rate.
    const int writers = write_rate == 0 ? 3 : 1;
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([this, w] {
        const std::string value(write_rate == 0 ? 1024 : 100, 'w');
        int64_t key = w * 100000;
        while (!stop.load()) {
          const int64_t start = RealClock::Instance()->NowMicros();
          client->Upsert("t", {{"k", Value{key++ % 512}},
                               {"v", Value{value}},
                               {"tag", Value{std::string("t") + std::to_string(key % 13)}}});
          if (write_rate > 0) {
            const int64_t gap = static_cast<int64_t>(1e6 / write_rate);
            const int64_t spent = RealClock::Instance()->NowMicros() - start;
            if (gap > spent) {
              RealClock::Instance()->SleepMicros(gap - spent);
            }
          }
        }
      });
    }
    threads.emplace_back([this] {
      while (!stop.load()) {
        const int64_t start = RealClock::Instance()->NowMicros();
        client->Get("t", Value{int64_t{0}});  // read-only: sync, not apply
        const int64_t gap = static_cast<int64_t>(1e6 / read_rate);
        const int64_t spent = RealClock::Instance()->NowMicros() - start;
        if (gap > spent) {
          RealClock::Instance()->SleepMicros(gap - spent);
        }
      }
    });
  }

  double SampleUtilization() {
    const int64_t busy = cluster->server(0).base()->apply_busy_micros();
    const double utilization =
        100.0 * static_cast<double>(busy - last_busy) / static_cast<double>(kWindowMicros);
    last_busy = busy;
    return std::min(utilization, 100.0);
  }

  void StopTraffic() {
    stop = true;
    for (auto& thread : threads) {
      thread.join();
    }
  }
};

// --- group-commit apply throughput ---
//
// Replays a backlog through a fresh bare BaseEngine at two play_batch_size
// settings. batch 1 is the per-record pipeline (one LocalStore transaction,
// cursor write, and commit per record); batch 128 is the group-commit
// pipeline. Results land in BENCH_apply.json.

constexpr LogPos kReplayRecords = 50'000;

ReplayRun MeasureGroupCommit(const std::shared_ptr<ISharedLog>& log, LogPos batch_size) {
  ReplayStack stack;
  stack.base.server_id = "replay-b" + std::to_string(batch_size);
  stack.base.play_batch_size = batch_size;
  return Replay(log, stack);
}

// --- read path: entry cache + pipelined read-ahead over the quorum loglet ---
//
// The group-commit numbers above replay from an InMemoryLog, where ReadRange
// is a mutex and a memcpy. Against the quorum loglet every batch costs real
// round trips: a q.tail RPC plus an acceptor sweep, serialized with apply in
// the synchronous pipeline. This section replays the same backlog three ways:
//
//   sync_no_cache       prefetch off, raw loglet client (the old pipeline)
//   prefetch_cache_cold prefetcher + an empty ReadCachingLog (first replay)
//   prefetch_cache_warm a fresh engine over the SAME cache (restart replay)
//
// and reports records/sec, the warm run's cache hit rate, and how many
// per-batch tail RPCs the client's tail memoization elided.

constexpr LogPos kReadPathRecords = 16'384;
constexpr int64_t kReadPathLatencyMicros = 150;

struct ReadPathResult {
  ReplayRun sync_no_cache;
  ReplayRun prefetch_cache_cold;
  ReplayRun prefetch_cache_warm;
  double cold_speedup = 0;   // prefetch+cache (cold) vs synchronous baseline
  double warm_speedup = 0;   // warm cache vs synchronous baseline
  double warm_hit_rate = 0;  // hits / (hits + misses) during the warm replay
  uint64_t tail_checks_skipped = 0;
  bool checksums_match = false;
};

ReplayRun MeasureLogReplay(const std::shared_ptr<ISharedLog>& log, int prefetch_batches) {
  ReplayStack stack;
  stack.base.server_id = "readpath";
  stack.base.prefetch_batches = prefetch_batches;
  return Replay(log, stack);
}

ReadPathResult MeasureReadPath() {
  NetworkConfig net_config;
  net_config.default_one_way_latency_micros = kReadPathLatencyMicros;
  net_config.call_timeout_micros = 10'000'000;
  auto network = std::make_unique<SimNetwork>(net_config);
  QuorumLogletConfig loglet_config;
  QuorumEnsemble ensemble(network.get(), loglet_config);

  // Fill the loglet through its own (windowed) append path.
  FillBacklog(std::make_shared<QuorumLogletClient>(network.get(), "bench-writer", loglet_config),
              kReadPathRecords);

  ReadPathResult result;
  auto sync_client =
      std::make_shared<QuorumLogletClient>(network.get(), "bench-sync", loglet_config);
  result.sync_no_cache = MeasureLogReplay(sync_client, 0);

  auto cached_client =
      std::make_shared<QuorumLogletClient>(network.get(), "bench-cached", loglet_config);
  ReadCacheOptions cache_options;
  cache_options.capacity_records = kReadPathRecords * 2;
  auto cache = std::make_shared<ReadCachingLog>(cached_client, cache_options);
  result.prefetch_cache_cold = MeasureLogReplay(cache, 8);

  const uint64_t hits_before = cache->hits();
  const uint64_t misses_before = cache->misses();
  result.prefetch_cache_warm = MeasureLogReplay(cache, 8);
  const uint64_t warm_hits = cache->hits() - hits_before;
  const uint64_t warm_misses = cache->misses() - misses_before;
  result.warm_hit_rate = 100.0 * static_cast<double>(warm_hits) /
                         static_cast<double>(std::max<uint64_t>(warm_hits + warm_misses, 1));
  result.tail_checks_skipped = cached_client->tail_checks_skipped();
  result.cold_speedup =
      result.prefetch_cache_cold.records_per_sec / result.sync_no_cache.records_per_sec;
  result.warm_speedup =
      result.prefetch_cache_warm.records_per_sec / result.sync_no_cache.records_per_sec;
  result.checksums_match =
      result.sync_no_cache.checksum == result.prefetch_cache_cold.checksum &&
      result.sync_no_cache.checksum == result.prefetch_cache_warm.checksum;
  // The delivery thread may still be running ensemble or client handlers;
  // stop it before the objects it calls into die.
  network.reset();
  return result;
}

JsonObject ReplayJson(const ReplayRun& run) {
  JsonObject json;
  json.Num("records_per_sec", run.records_per_sec, 0)
      .Num("mean_batch_size", run.mean_batch_size, 2)
      .Num("apply_utilization_pct", run.apply_busy_pct);
  return json;
}

void ReportApplyThroughput(double fleet_under_10_pct, double fleet_max_pct) {
  auto log = std::make_shared<InMemoryLog>();
  FillBacklog(log, kReplayRecords);
  const ReplayRun per_record = MeasureGroupCommit(log, 1);
  const ReplayRun grouped = MeasureGroupCommit(log, 128);
  const double speedup = grouped.records_per_sec / per_record.records_per_sec;
  const bool checksums_match = per_record.checksum == grouped.checksum;

  std::printf("\nApply-path replay of %llu records (group commit vs per-record):\n",
              static_cast<unsigned long long>(kReplayRecords));
  std::printf("%12s %14s %12s %14s\n", "batch_size", "records/sec", "mean_batch", "utilization%");
  std::printf("%12d %14.0f %12.1f %14.1f\n", 1, per_record.records_per_sec,
              per_record.mean_batch_size, per_record.apply_busy_pct);
  std::printf("%12d %14.0f %12.1f %14.1f\n", 128, grouped.records_per_sec,
              grouped.mean_batch_size, grouped.apply_busy_pct);
  std::printf("speedup: %.2fx; state checksums %s\n", speedup,
              checksums_match ? "match" : "MISMATCH");

  std::printf("\nRead path over the quorum loglet (%llu records, %lldus one-way latency):\n",
              static_cast<unsigned long long>(kReadPathRecords),
              static_cast<long long>(kReadPathLatencyMicros));
  const ReadPathResult read_path = MeasureReadPath();
  std::printf("%24s %14s\n", "configuration", "records/sec");
  std::printf("%24s %14.0f\n", "sync, no cache", read_path.sync_no_cache.records_per_sec);
  std::printf("%24s %14.0f\n", "prefetch, cold cache",
              read_path.prefetch_cache_cold.records_per_sec);
  std::printf("%24s %14.0f\n", "prefetch, warm cache",
              read_path.prefetch_cache_warm.records_per_sec);
  std::printf("cold speedup %.2fx, warm speedup %.2fx, warm hit rate %.1f%%, "
              "%llu tail RPCs elided; state checksums %s\n",
              read_path.cold_speedup, read_path.warm_speedup, read_path.warm_hit_rate,
              static_cast<unsigned long long>(read_path.tail_checks_skipped),
              read_path.checksums_match ? "match" : "MISMATCH");

  JsonObject read_json;
  read_json.Int("replay_records", static_cast<int64_t>(kReadPathRecords))
      .Int("one_way_latency_micros", kReadPathLatencyMicros)
      .Obj("sync_no_cache", ReplayJson(read_path.sync_no_cache))
      .Obj("prefetch_cache_cold", ReplayJson(read_path.prefetch_cache_cold))
      .Obj("prefetch_cache_warm", ReplayJson(read_path.prefetch_cache_warm))
      .Num("cold_speedup", read_path.cold_speedup, 2)
      .Num("warm_speedup", read_path.warm_speedup, 2)
      .Num("warm_cache_hit_rate_pct", read_path.warm_hit_rate)
      .Int("tail_checks_skipped", static_cast<int64_t>(read_path.tail_checks_skipped))
      .Bool("checksums_match", read_path.checksums_match);
  JsonObject fleet_json;
  fleet_json.Num("samples_under_10_pct_utilization", fleet_under_10_pct)
      .Num("max_utilization_pct", fleet_max_pct);
  JsonObject report = StampedReport("apply_pipeline");
  report.Int("replay_records", static_cast<int64_t>(kReplayRecords))
      .Obj("per_record_batch_1", ReplayJson(per_record))
      .Obj("group_commit_batch_128", ReplayJson(grouped))
      .Num("speedup", speedup, 2)
      .Bool("checksums_match", checksums_match)
      .Obj("read_path", read_json)
      .Obj("fleet", fleet_json);
  WriteSourceFile("BENCH_apply.json", report.Render(true));
}

}  // namespace

int main() {
  PrintBanner(
      "Figure 8: fleet-wide apply-thread utilization (max / p99 / p90 per window)",
      "max rarely above 60%; 90% of clusters below 10% utilization in any given minute");

  std::vector<std::unique_ptr<FleetCluster>> fleet;
  for (int i = 0; i < kClusters; ++i) {
    fleet.push_back(std::make_unique<FleetCluster>(i));
  }
  for (auto& member : fleet) {
    member->StartTraffic();
  }
  RealClock::Instance()->SleepMicros(kWindowMicros);  // warm-up window
  for (auto& member : fleet) {
    member->SampleUtilization();
  }

  std::printf("%8s %10s %10s %10s\n", "window", "max%", "p99%", "p90%");
  int under_10 = 0;
  int samples = 0;
  double global_max = 0;
  for (int window = 0; window < kWindows; ++window) {
    RealClock::Instance()->SleepMicros(kWindowMicros);
    std::vector<double> utilizations;
    utilizations.reserve(fleet.size());
    for (auto& member : fleet) {
      const double utilization = member->SampleUtilization();
      utilizations.push_back(utilization);
      under_10 += utilization < 10.0 ? 1 : 0;
      ++samples;
    }
    std::sort(utilizations.begin(), utilizations.end());
    const auto at = [&](double pct) {
      return utilizations[std::min(utilizations.size() - 1,
                                   static_cast<size_t>(pct / 100.0 * utilizations.size()))];
    };
    global_max = std::max(global_max, utilizations.back());
    std::printf("%8d %10.1f %10.1f %10.1f\n", window, utilizations.back(), at(99), at(90));
  }
  for (auto& member : fleet) {
    member->StopTraffic();
  }
  std::printf("\nRESULT: %.0f%% of (cluster,window) samples under 10%% utilization "
              "(paper: ~90%%); fleet max %.1f%% (paper: rarely above 60%%)\n",
              100.0 * under_10 / samples, global_max);
  std::printf("The apply thread is not the bottleneck: reads bypass it entirely and hot\n"
              "writers are bounded by the log's synchronous writes, not by apply.\n");

  ReportApplyThroughput(100.0 * under_10 / samples, global_max);
  return 0;
}

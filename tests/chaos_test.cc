// Fault-injection tests: the quorum log under lossy networks and acceptor
// crashes, and end-to-end trim coordination with every trim constraint
// engaged at once (ViewTracking + LogBackup + snapshot manager + app).
#include <gtest/gtest.h>

#include <thread>

#include "src/apps/delostable/table_db.h"
#include "src/backup/restore.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"

namespace delos {
namespace {

using table::Row;
using table::TableApplicator;
using table::TableClient;
using table::TableSchema;
using table::Value;
using table::ValueType;

TableSchema KvSchema() {
  TableSchema schema;
  schema.name = "kv";
  schema.columns = {{"k", ValueType::kInt64}, {"v", ValueType::kString}};
  schema.primary_key = "k";
  return schema;
}

// Parameterized over packet-drop probability: the quorum log's retries and
// the engine stack must mask the loss entirely.
class LossyNetworkSweep : public testing::TestWithParam<double> {};

TEST_P(LossyNetworkSweep, ClusterStaysCorrectUnderPacketLoss) {
  Cluster::Options options;
  options.num_servers = 3;
  options.log_kind = Cluster::LogKind::kQuorum;
  options.net_config.default_one_way_latency_micros = 20;
  options.net_config.drop_probability = GetParam();
  options.net_config.call_timeout_micros = 30'000;  // fast retries
  options.loglet_config.num_acceptors = 3;
  options.loglet_config.read_attempts = 16;
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = DelosTableStackConfig(nullptr);
    // Every server heartbeats its durable position into the view; without
    // this, servers that never propose are invisible to ViewTracking, the
    // log gets trimmed to the writer's durable position alone, and lagging
    // followers are stranded below the trim (they would need a restore).
    config.view_heartbeat_micros = 50'000;
    BuildStack(server, config);
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get());
    applicators[server.id()] = std::move(app);
  });

  TableClient client(cluster.server(0).top());
  for (int attempt = 0;; ++attempt) {
    try {
      client.CreateTable(KvSchema());
      break;
    } catch (const LogUnavailableError&) {
      ASSERT_LT(attempt, 50);
    } catch (const table::DuplicateTableError&) {
      break;  // A lost reply, but the command committed.
    }
  }
  // Individual proposes may time out when the drop hits the append path;
  // clients retry, and exactly-once is NOT expected at this layer (the
  // paper's answer is the SessionOrderEngine) — so use upserts, which are
  // idempotent.
  int committed = 0;
  for (int i = 0; i < 30; ++i) {
    for (int attempt = 0; attempt < 20; ++attempt) {
      try {
        client.Upsert("kv", {{"k", Value{int64_t{i}}}, {"v", Value{std::string("v")}}});
        ++committed;
        break;
      } catch (const LogUnavailableError&) {
        // Dropped somewhere; retry.
      }
    }
  }
  EXPECT_EQ(committed, 30);

  // All replicas converge despite the lossy fabric.
  for (int attempt = 0; attempt < 50; ++attempt) {
    try {
      TableClient reader(cluster.server(1).top());
      if (reader.Scan("kv", std::nullopt, std::nullopt).size() == 30) {
        break;
      }
    } catch (const LogUnavailableError&) {
    }
  }
  TableClient reader(cluster.server(2).top());
  std::vector<Row> rows;
  for (int attempt = 0; attempt < 50 && rows.size() != 30; ++attempt) {
    try {
      rows = reader.Scan("kv", std::nullopt, std::nullopt);
    } catch (const LogUnavailableError&) {
    }
  }
  EXPECT_EQ(rows.size(), 30u);
}

INSTANTIATE_TEST_SUITE_P(DropRates, LossyNetworkSweep, testing::Values(0.0, 0.02, 0.08),
                         [](const testing::TestParamInfo<double>& info) {
                           return "drop" + std::to_string(static_cast<int>(info.param * 100));
                         });

TEST(AcceptorChurnTest, CrashAndRecoveryDuringTraffic) {
  Cluster::Options options;
  options.num_servers = 2;
  options.log_kind = Cluster::LogKind::kQuorum;
  options.net_config.default_one_way_latency_micros = 20;
  options.net_config.call_timeout_micros = 100'000;
  options.loglet_config.num_acceptors = 3;
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = DelosTableStackConfig(nullptr);
    config.view_heartbeat_micros = 50'000;  // keep the idle reader in the view
    BuildStack(server, config);
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get());
    applicators[server.id()] = std::move(app);
  });
  TableClient client(cluster.server(0).top());
  client.CreateTable(KvSchema());

  // One acceptor down: majority still commits.
  cluster.ensemble()->SetAcceptorUp(0, false);
  for (int i = 0; i < 10; ++i) {
    client.Upsert("kv", {{"k", Value{int64_t{i}}}, {"v", Value{std::string("during")}}});
  }
  cluster.ensemble()->SetAcceptorUp(0, true);
  for (int i = 10; i < 20; ++i) {
    client.Upsert("kv", {{"k", Value{int64_t{i}}}, {"v", Value{std::string("after")}}});
  }
  TableClient reader(cluster.server(1).top());
  EXPECT_EQ(reader.Scan("kv", std::nullopt, std::nullopt).size(), 20u);
  cluster.server(0).top()->Sync().Get();
  EXPECT_EQ(cluster.server(0).store()->Checksum(), cluster.server(1).store()->Checksum());
}

// End-to-end trim: every party with an opinion participates — ViewTracking
// (all replicas durable), LogBackup (segments uploaded), the snapshot
// manager (snapshot covers prefix) — and the log only shrinks to the
// minimum of them all.
TEST(TrimPipelineTest, AllConstraintsGateTrimming) {
  const std::string ckpt_dir = testing::TempDir() + "/trim_pipeline";
  std::filesystem::remove_all(ckpt_dir);
  InMemoryBackupStore backup;
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster::Options options;
  options.num_servers = 2;
  options.checkpoint_dir = ckpt_dir;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = DelosTableStackConfig(&backup);
    config.backup_segment_size = 8;
    BuildStack(server, config);
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get());
    applicators[server.id()] = std::move(app);
  });
  TableClient client(cluster.server(0).top());
  client.CreateTable(KvSchema());
  for (int i = 0; i < 40; ++i) {
    client.Upsert("kv", {{"k", Value{int64_t{i}}}, {"v", Value{std::string(64, 'v')}}});
  }
  // Both servers play and persist.
  cluster.server(1).top()->Sync().Get();
  cluster.server(0).base()->FlushNow();
  cluster.server(1).base()->FlushNow();
  // Publish both durable positions into the view.
  client.Upsert("kv", {{"k", Value{int64_t{0}}}, {"v", Value{std::string("stampA")}}});
  TableClient client_b(cluster.server(1).top());
  client_b.Upsert("kv", {{"k", Value{int64_t{1}}}, {"v", Value{std::string("stampB")}}});
  cluster.server(0).top()->Sync().Get();

  // Wait for log backup to cover a prefix.
  auto* lb = dynamic_cast<LogBackupEngine*>(cluster.server(0).FindEngine("logbackup"));
  ASSERT_NE(lb, nullptr);
  const int64_t deadline = RealClock::Instance()->NowMicros() + 5'000'000;
  while (lb->BackedUpPrefix() < 16 && RealClock::Instance()->NowMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(lb->BackedUpPrefix(), 16u);

  // Snapshot manager releases the app-side constraint.
  SnapshotBackupManager manager(&backup, ckpt_dir + "/server0.ckpt",
                                cluster.server(0).top());
  const LogPos snapshot_pos = manager.BackupNow(cluster.server(0).base());
  EXPECT_GT(snapshot_pos, 0u);

  cluster.server(0).base()->FlushNow();
  cluster.server(0).base()->TrimNow();
  const LogPos trimmed = cluster.server(0).log()->trim_prefix();
  // Trimmed a real prefix...
  EXPECT_GT(trimmed, 0u);
  // ...but never beyond any constraint.
  auto* vt = dynamic_cast<ViewTrackingEngine*>(cluster.server(0).FindEngine("viewtracking"));
  ASSERT_NE(vt, nullptr);
  EXPECT_LE(trimmed, vt->SafeTrimPosition());
  EXPECT_LE(trimmed, lb->BackedUpPrefix());
  EXPECT_LE(trimmed, snapshot_pos);
  EXPECT_LE(trimmed, cluster.server(0).base()->durable_position());

  // The cluster keeps operating on the trimmed log.
  client.Upsert("kv", {{"k", Value{int64_t{100}}}, {"v", Value{std::string("post-trim")}}});
  EXPECT_TRUE(client.Get("kv", Value{int64_t{100}}).has_value());
  std::filesystem::remove_all(ckpt_dir);
}

}  // namespace
}  // namespace delos

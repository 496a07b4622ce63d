// End-to-end integration tests: production-shaped stacks on multi-server
// clusters over the quorum-replicated log — convergence, crash/restart
// recovery from checkpoints, the two-phase rolling-upgrade protocol for
// inserting an engine, passive followers, and a randomized determinism
// property (every replica's LocalStore is the same function of the log).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "src/apps/delostable/table_db.h"
#include "src/apps/zelos/zelos.h"
#include "src/common/random.h"
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

TableSchema UsersSchema() {
  TableSchema schema;
  schema.name = "users";
  schema.columns = {{"id", ValueType::kInt64},
                    {"name", ValueType::kString},
                    {"city", ValueType::kString}};
  schema.primary_key = "id";
  schema.secondary_indexes = {"city"};
  return schema;
}

Row User(int64_t id, const std::string& name, const std::string& city) {
  return Row{{"id", Value{id}}, {"name", Value{name}}, {"city", Value{city}}};
}

class DelosTableClusterTest : public testing::Test {
 protected:
  void StartCluster(int num_servers, Cluster::LogKind log_kind, std::string checkpoint_dir = "") {
    Cluster::Options options;
    options.num_servers = num_servers;
    options.log_kind = log_kind;
    options.net_config.default_one_way_latency_micros = 30;
    options.net_config.call_timeout_micros = 500'000;
    options.loglet_config.num_acceptors = 3;
    options.checkpoint_dir = std::move(checkpoint_dir);
    cluster_ = std::make_unique<Cluster>(options, [this](ClusterServer& server) {
      BuildStack(server, DelosTableStackConfig(&backup_));
      auto app = std::make_unique<TableApplicator>();
      server.RegisterApplicator(app.get());
      applicators_[server.id()] = std::move(app);
    });
  }

  TableClient ClientFor(int index) { return TableClient(cluster_->server(index).top()); }

  InMemoryBackupStore backup_;
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(DelosTableClusterTest, FiveServersOverQuorumLogConverge) {
  StartCluster(5, Cluster::LogKind::kQuorum);
  TableClient writer = ClientFor(0);
  writer.CreateTable(UsersSchema());
  for (int i = 0; i < 20; ++i) {
    writer.Insert("users", User(i, "user" + std::to_string(i), i % 2 == 0 ? "nyc" : "sfo"));
  }
  // Every server serves strongly consistent reads.
  for (int s = 0; s < 5; ++s) {
    TableClient reader = ClientFor(s);
    EXPECT_EQ(reader.Scan("users", std::nullopt, std::nullopt).size(), 20u);
    EXPECT_EQ(reader.IndexLookup("users", "city", Value{std::string("nyc")}).size(), 10u);
  }
  // Replicas agree bit-for-bit.
  const uint64_t checksum = cluster_->server(0).store()->Checksum();
  for (int s = 1; s < 5; ++s) {
    cluster_->server(s).top()->Sync().Get();
    EXPECT_EQ(cluster_->server(s).store()->Checksum(), checksum) << "server " << s;
  }
}

// The on-demand debug endpoint must be callable from a second thread while
// the apply pipeline is under load: DebugDump reads the metrics registry and
// the flight-recorder ring concurrently with the writers mutating both.
TEST_F(DelosTableClusterTest, DebugDumpIsSafeDuringApplyStorm) {
  StartCluster(3, Cluster::LogKind::kInMemory);
  TableClient writer = ClientFor(0);
  writer.CreateTable(UsersSchema());
  std::atomic<bool> stop{false};
  std::thread dumper([this, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      for (int s = 0; s < 3; ++s) {
        const std::string dump = cluster_->server(s).DebugDump();
        EXPECT_NE(dump.find("== metrics =="), std::string::npos);
        EXPECT_NE(dump.find("== flight recorder =="), std::string::npos);
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    writer.Insert("users", User(i, "user" + std::to_string(i), i % 2 == 0 ? "nyc" : "sfo"));
  }
  stop.store(true, std::memory_order_release);
  dumper.join();
  EXPECT_EQ(ClientFor(2).Scan("users", std::nullopt, std::nullopt).size(), 200u);
}

TEST_F(DelosTableClusterTest, WritesFromEveryServerInterleave) {
  StartCluster(3, Cluster::LogKind::kQuorum);
  ClientFor(0).CreateTable(UsersSchema());
  std::vector<std::thread> threads;
  for (int s = 0; s < 3; ++s) {
    threads.emplace_back([this, s] {
      TableClient client = ClientFor(s);
      for (int i = 0; i < 10; ++i) {
        client.Insert("users", User(s * 100 + i, "u", "c"));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(ClientFor(1).Scan("users", std::nullopt, std::nullopt).size(), 30u);
}

TEST_F(DelosTableClusterTest, CrashedServerRecoversFromCheckpointAndLog) {
  const std::string dir = testing::TempDir() + "/delos_recovery_cluster";
  std::filesystem::remove_all(dir);
  StartCluster(3, Cluster::LogKind::kInMemory, dir);
  TableClient writer = ClientFor(0);
  writer.CreateTable(UsersSchema());
  for (int i = 0; i < 10; ++i) {
    writer.Insert("users", User(i, "u" + std::to_string(i), "x"));
  }
  // Server 2 applies + checkpoints part of the history, then crashes.
  cluster_->server(2).top()->Sync().Get();
  cluster_->server(2).base()->FlushNow();
  for (int i = 10; i < 20; ++i) {
    writer.Insert("users", User(i, "u" + std::to_string(i), "x"));
  }
  cluster_->StopServer(2);
  for (int i = 20; i < 30; ++i) {
    writer.Insert("users", User(i, "u" + std::to_string(i), "x"));
  }
  cluster_->RestartServer(2);
  TableClient reader = ClientFor(2);
  EXPECT_EQ(reader.Scan("users", std::nullopt, std::nullopt).size(), 30u);
  cluster_->server(0).top()->Sync().Get();
  EXPECT_EQ(cluster_->server(2).store()->Checksum(), cluster_->server(0).store()->Checksum());
  std::filesystem::remove_all(dir);
}

// The two-phase dynamic-update protocol (§3.4) as a rolling upgrade: every
// server restarts with the new engine present-but-disabled, then one enable
// command through the log activates it fleet-wide at a single log position.
TEST_F(DelosTableClusterTest, RollingUpgradeInsertsSessionOrderEngine) {
  const std::string dir = testing::TempDir() + "/delos_rolling_upgrade";
  std::filesystem::remove_all(dir);
  StartCluster(3, Cluster::LogKind::kInMemory, dir);
  TableClient writer = ClientFor(0);
  writer.CreateTable(UsersSchema());
  writer.Insert("users", User(1, "before", "x"));

  // Phase 1: rolling binary upgrade — new stack includes SessionOrder,
  // deployed disabled.
  Cluster::StackBuilder upgraded = [this](ClusterServer& server) {
    StackConfig config = DelosTableStackConfig(&backup_);
    BuildStack(server, config);
    SessionOrderEngine::Options so_options;
    so_options.server_id = server.id();
    so_options.start_enabled = false;
    server.AddEngine<SessionOrderEngine>(so_options);
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get());
    applicators_[server.id()] = std::move(app);
  };
  for (int s = 0; s < 3; ++s) {
    // Keep quorum: flush others so the restarted server's writes survive.
    cluster_->server(s).top()->Sync().Get();
    cluster_->server(s).base()->FlushNow();
    cluster_->RestartServer(s, upgraded);
    // The cluster remains available throughout the rolling upgrade.
    TableClient survivor = ClientFor((s + 1) % 3);
    survivor.Insert("users", User(100 + s, "during", "x"));
  }

  // Phase 2: enable via the log.
  auto* so = dynamic_cast<SessionOrderEngine*>(cluster_->server(0).FindEngine("sessionorder"));
  ASSERT_NE(so, nullptr);
  EXPECT_FALSE(so->enabled());
  so->EnableViaLog();
  for (int s = 0; s < 3; ++s) {
    cluster_->server(s).top()->Sync().Get();
    auto* engine = cluster_->server(s).FindEngine("sessionorder");
    ASSERT_NE(engine, nullptr);
    EXPECT_TRUE(engine->enabled()) << "server " << s;
  }
  // Traffic flows through the new engine; replicas stay identical.
  TableClient after = ClientFor(1);
  after.Insert("users", User(200, "after", "x"));
  for (int s = 0; s < 3; ++s) {
    cluster_->server(s).top()->Sync().Get();
  }
  EXPECT_EQ(cluster_->server(0).store()->Checksum(), cluster_->server(1).store()->Checksum());
  EXPECT_EQ(cluster_->server(1).store()->Checksum(), cluster_->server(2).store()->Checksum());
  std::filesystem::remove_all(dir);
}

// Passive (non-voting follower) stacks (§4.3, Figure 6): a follower with a
// stripped-down stack plays the update stream but, lacking the
// ViewTrackingEngine, is never counted in the durable view that gates
// trimming.
TEST(PassiveFollowerTest, FollowerPlaysStreamWithoutBlockingTrim) {
  Cluster::Options options;
  options.num_servers = 2;  // two voting servers
  options.log_kind = Cluster::LogKind::kInMemory;
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster cluster(options, [&](ClusterServer& server) {
    BuildStack(server, DelosTableStackConfig(nullptr));
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get());
    applicators[server.id()] = std::move(app);
  });

  // A passive follower on the same log with the stripped stack.
  auto follower_store = LocalStore::Open({});
  BaseEngineOptions follower_base_options;
  follower_base_options.server_id = "follower";
  auto follower = std::make_unique<ClusterServer>(
      "follower",
      std::shared_ptr<ISharedLog>(cluster.server(0).log(), [](ISharedLog*) {}),
      std::move(follower_store), follower_base_options);
  BuildStack(*follower, PassiveFollowerStackConfig());
  TableApplicator follower_app;
  follower->RegisterApplicator(&follower_app);
  follower->Start();

  TableClient writer(cluster.server(0).top());
  writer.CreateTable(UsersSchema());
  for (int i = 0; i < 8; ++i) {
    writer.Insert("users", User(i, "u", "c"));
  }
  // Follower streams the same totally ordered updates.
  follower->top()->Sync().Get();
  TableClient follower_reader(follower->top());
  EXPECT_EQ(follower_reader.Scan("users", std::nullopt, std::nullopt).size(), 8u);

  // The durable view contains only the two voting servers — the follower
  // can lag or die without ever blocking trimming.
  auto* vt = dynamic_cast<ViewTrackingEngine*>(cluster.server(0).FindEngine("viewtracking"));
  ASSERT_NE(vt, nullptr);
  cluster.server(0).top()->Sync().Get();
  const auto view = vt->View();
  EXPECT_EQ(view.count("follower"), 0u);
  follower->Stop();
}

// Determinism property: random multi-server traffic (including failed ops)
// leaves every replica with an identical store checksum.
TEST(DeterminismProperty, RandomTrafficLeavesIdenticalReplicas) {
  Cluster::Options options;
  options.num_servers = 3;
  options.log_kind = Cluster::LogKind::kInMemory;
  std::map<std::string, std::unique_ptr<zelos::ZelosApplicator>> applicators;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config;  // ViewTracking + BrainDoctor
    config.session_order = true;
    config.batching = true;
    config.batch_max_entries = 4;
    BuildStack(server, config);
    auto app = std::make_unique<zelos::ZelosApplicator>();
    server.RegisterApplicator(app.get());
    applicators[server.id()] = std::move(app);
  });

  std::vector<std::thread> threads;
  for (int s = 0; s < 3; ++s) {
    threads.emplace_back([&, s] {
      zelos::ZelosClient client(cluster.server(s).top(),
                                applicators["server" + std::to_string(s)].get());
      Rng rng(1000 + s);
      const zelos::SessionId session = client.CreateSession();
      client.Create(session, "/s" + std::to_string(s), "");
      for (int i = 0; i < 40; ++i) {
        const std::string path =
            "/s" + std::to_string(rng.Uniform(0, 2)) + "/n" + std::to_string(rng.Uniform(0, 9));
        try {
          switch (rng.Uniform(0, 3)) {
            case 0:
              client.Create(session, path, rng.String(8));
              break;
            case 1:
              client.SetData(path, rng.String(8));
              break;
            case 2:
              client.Delete(path);
              break;
            default:
              client.GetData(path);
              break;
          }
        } catch (const DeterministicError&) {
          // Expected: NoNode / NodeExists / NotEmpty races are part of the
          // workload.
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int s = 0; s < 3; ++s) {
    cluster.server(s).top()->Sync().Get();
  }
  EXPECT_EQ(cluster.server(0).store()->Checksum(), cluster.server(1).store()->Checksum());
  EXPECT_EQ(cluster.server(1).store()->Checksum(), cluster.server(2).store()->Checksum());
  EXPECT_GT(cluster.server(0).store()->KeyCount(), 3u);
}

}  // namespace
}  // namespace delos

namespace delos {
namespace {

// Virtual Consensus: the shared log is reconfigured (active loglet sealed, a
// fresh loglet chained at its tail) twice while client traffic flows. No op
// is lost, positions stay contiguous across the seams, and replicas agree —
// the substrate-level story the paper's BaseEngine sits on (§4, [9]).
TEST(VirtualLogClusterTest, ReconfigurationUnderTraffic) {
  Cluster::Options options;
  options.num_servers = 3;
  options.log_kind = Cluster::LogKind::kVirtual;
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster cluster(options, [&](ClusterServer& server) {
    BuildStack(server, DelosTableStackConfig(nullptr));
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get());
    applicators[server.id()] = std::move(app);
  });

  TableClient setup(cluster.server(0).top());
  setup.CreateTable(UsersSchema());

  std::atomic<bool> stop{false};
  std::atomic<int> written{0};
  std::vector<std::thread> writers;
  for (int s = 0; s < 3; ++s) {
    writers.emplace_back([&, s] {
      TableClient client(cluster.server(s).top());
      for (int i = 0; i < 40 && !stop.load(); ++i) {
        client.Insert("users", User(s * 1000 + i, "u", "c"));
        written.fetch_add(1);
      }
    });
  }
  // Two live reconfigurations while the writers run.
  while (written.load() < 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.ReconfigureLog();
  while (written.load() < 70) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.ReconfigureLog();
  for (auto& writer : writers) {
    writer.join();
  }
  EXPECT_EQ(cluster.LogChainLength(), 3u);

  // Nothing lost; everyone agrees.
  TableClient reader(cluster.server(1).top());
  EXPECT_EQ(reader.Scan("users", std::nullopt, std::nullopt).size(), 120u);
  for (int s = 0; s < 3; ++s) {
    cluster.server(s).top()->Sync().Get();
  }
  EXPECT_EQ(cluster.server(0).store()->Checksum(), cluster.server(1).store()->Checksum());
  EXPECT_EQ(cluster.server(1).store()->Checksum(), cluster.server(2).store()->Checksum());
}

}  // namespace
}  // namespace delos

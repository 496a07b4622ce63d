// Zelos (ZooKeeper clone) tests: znode tree, versions, ephemerals,
// sequentials, sessions, watches (postApply soft state), multi-op atomicity,
// and full-stack replication with session ordering + batching.
#include <gtest/gtest.h>

#include <thread>

#include "src/apps/zelos/zelos.h"
#include "src/core/base_engine.h"
#include "src/engines/stacks.h"
#include "src/sharedlog/chaos_log.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos::zelos {
namespace {

TEST(ZelosPathTest, Validation) {
  EXPECT_TRUE(IsValidPath("/"));
  EXPECT_TRUE(IsValidPath("/a"));
  EXPECT_TRUE(IsValidPath("/a/b/c"));
  EXPECT_FALSE(IsValidPath(""));
  EXPECT_FALSE(IsValidPath("a"));
  EXPECT_FALSE(IsValidPath("/a/"));
  EXPECT_FALSE(IsValidPath("/a//b"));
}

TEST(ZelosPathTest, ParentAndBase) {
  EXPECT_EQ(ParentPath("/a"), "/");
  EXPECT_EQ(ParentPath("/a/b"), "/a");
  EXPECT_EQ(BaseName("/a/b"), "b");
  EXPECT_EQ(BaseName("/a"), "a");
}

class ZelosTest : public testing::Test {
 protected:
  ZelosTest() {
    log_ = std::make_shared<InMemoryLog>();
    base_ = std::make_unique<BaseEngine>(log_, &store_, BaseEngineOptions{});
    applicator_.set_metrics(&metrics_);
    base_->RegisterUpcall(&applicator_);
    base_->Start();
    client_ = std::make_unique<ZelosClient>(base_.get(), &applicator_);
    session_ = client_->CreateSession();
  }
  ~ZelosTest() override { base_->Stop(); }

  std::shared_ptr<InMemoryLog> log_;
  LocalStore store_;
  MetricsRegistry metrics_;
  ZelosApplicator applicator_;
  std::unique_ptr<BaseEngine> base_;
  std::unique_ptr<ZelosClient> client_;
  SessionId session_ = 0;
};

TEST_F(ZelosTest, CreateGetSetDelete) {
  EXPECT_EQ(client_->Create(session_, "/app", "v0"), "/app");
  auto data = client_->GetData("/app");
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->first, "v0");
  EXPECT_EQ(data->second.version, 0);

  EXPECT_EQ(client_->SetData("/app", "v1"), 1);
  data = client_->GetData("/app");
  EXPECT_EQ(data->first, "v1");
  EXPECT_EQ(data->second.version, 1);

  client_->Delete("/app");
  EXPECT_FALSE(client_->Exists("/app").has_value());
}

TEST_F(ZelosTest, ZkErrorSemantics) {
  EXPECT_FALSE(client_->GetData("/missing").has_value());  // reads do not throw
  client_->Create(session_, "/a", "x");
  EXPECT_THROW(client_->Create(session_, "/a", "dup"), NodeExistsError);
  EXPECT_THROW(client_->Create(session_, "/deep/child", "x"), NoNodeError);
  EXPECT_THROW(client_->SetData("/a", "y", /*expected_version=*/5), BadVersionError);
  EXPECT_THROW(client_->Delete("/a", /*expected_version=*/5), BadVersionError);
  client_->Create(session_, "/a/b", "x");
  EXPECT_THROW(client_->Delete("/a"), NotEmptyError);
}

TEST_F(ZelosTest, GetChildrenAndCversion) {
  client_->Create(session_, "/dir", "");
  client_->Create(session_, "/dir/a", "");
  client_->Create(session_, "/dir/b", "");
  auto children = client_->GetChildren("/dir");
  EXPECT_EQ(children, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(client_->Exists("/dir")->cversion, 2);
  client_->Delete("/dir/a");
  EXPECT_EQ(client_->GetChildren("/dir"), std::vector<std::string>{"b"});
  EXPECT_EQ(client_->Exists("/dir")->cversion, 3);
}

TEST_F(ZelosTest, SequentialNodesGetIncreasingSuffixes) {
  client_->Create(session_, "/q", "");
  const std::string p1 = client_->Create(session_, "/q/item-", "", kSequential);
  const std::string p2 = client_->Create(session_, "/q/item-", "", kSequential);
  EXPECT_EQ(p1, "/q/item-0000000000");
  EXPECT_EQ(p2, "/q/item-0000000001");
  EXPECT_LT(p1, p2);
}

TEST_F(ZelosTest, EphemeralsDieWithSession) {
  const SessionId other = client_->CreateSession();
  client_->Create(other, "/eph", "x", kEphemeral);
  client_->Create(session_, "/persistent", "x");
  EXPECT_TRUE(client_->Exists("/eph").has_value());
  EXPECT_EQ(client_->Exists("/eph")->ephemeral_owner, other);

  client_->CloseSession(other);
  EXPECT_FALSE(client_->Exists("/eph").has_value());
  EXPECT_TRUE(client_->Exists("/persistent").has_value());
  // Ops on the dead session now fail.
  EXPECT_THROW(client_->Create(other, "/more", "x", kEphemeral), SessionExpiredError);
}

TEST_F(ZelosTest, OpenSessionsGaugeTracksLifecycle) {
  Gauge* gauge = metrics_.GetGauge("zelos.open_sessions");
  EXPECT_EQ(gauge->value(), 1);  // the fixture's session
  const SessionId other = client_->CreateSession();
  EXPECT_EQ(gauge->value(), 2);
  client_->CloseSession(other);
  EXPECT_EQ(gauge->value(), 1);
  // Closing twice is idempotent: the gauge must not double-decrement.
  client_->CloseSession(other);
  EXPECT_EQ(gauge->value(), 1);
}

TEST_F(ZelosTest, EphemeralsCannotHaveChildren) {
  client_->Create(session_, "/eph", "x", kEphemeral);
  EXPECT_THROW(client_->Create(session_, "/eph/child", "x"), NoChildrenForEphemeralsError);
}

TEST_F(ZelosTest, ExpireSessionActsLikeClose) {
  const SessionId victim = client_->CreateSession();
  client_->Create(victim, "/lock", "x", kEphemeral);
  client_->ExpireSession(victim);
  EXPECT_FALSE(client_->Exists("/lock").has_value());
}

TEST_F(ZelosTest, DataWatchFiresOnceOnChange) {
  client_->Create(session_, "/watched", "v0");
  std::atomic<int> events{0};
  WatchEvent::Type last_type = WatchEvent::Type::kCreated;
  client_->GetData("/watched", [&](const WatchEvent& event) {
    last_type = event.type;
    events.fetch_add(1);
  });
  client_->SetData("/watched", "v1");
  EXPECT_EQ(events.load(), 1);
  EXPECT_EQ(last_type, WatchEvent::Type::kDataChanged);
  // One-shot: a second change does not fire again.
  client_->SetData("/watched", "v2");
  EXPECT_EQ(events.load(), 1);
}

TEST_F(ZelosTest, ExistsWatchFiresOnCreate) {
  std::atomic<int> events{0};
  client_->Exists("/future", [&](const WatchEvent& event) {
    EXPECT_EQ(event.type, WatchEvent::Type::kCreated);
    events.fetch_add(1);
  });
  client_->Create(session_, "/future", "x");
  EXPECT_EQ(events.load(), 1);
}

TEST_F(ZelosTest, ChildWatchFiresOnChildChange) {
  client_->Create(session_, "/dir", "");
  std::atomic<int> events{0};
  client_->GetChildren("/dir", [&](const WatchEvent& event) {
    EXPECT_EQ(event.type, WatchEvent::Type::kChildrenChanged);
    events.fetch_add(1);
  });
  client_->Create(session_, "/dir/kid", "");
  EXPECT_EQ(events.load(), 1);
}

TEST_F(ZelosTest, DataWatchFiresOnDelete) {
  client_->Create(session_, "/doomed", "x");
  std::atomic<int> events{0};
  client_->GetData("/doomed", [&](const WatchEvent& event) {
    EXPECT_EQ(event.type, WatchEvent::Type::kDeleted);
    events.fetch_add(1);
  });
  client_->Delete("/doomed");
  EXPECT_EQ(events.load(), 1);
}

TEST_F(ZelosTest, MultiIsAtomic) {
  client_->Create(session_, "/m", "");
  std::vector<ZelosClient::Op> ops;
  ops.push_back({ZelosClient::Op::Kind::kCreate, "/m/a", "1", kPersistent, -1, session_});
  ops.push_back({ZelosClient::Op::Kind::kCreate, "/m/b", "2", kPersistent, -1, session_});
  auto results = client_->Multi(ops);
  EXPECT_EQ(results[0], "/m/a");
  EXPECT_TRUE(client_->Exists("/m/b").has_value());

  // A failing op in the middle rolls back the whole multi.
  ops.clear();
  ops.push_back({ZelosClient::Op::Kind::kCreate, "/m/c", "3", kPersistent, -1, session_});
  ops.push_back({ZelosClient::Op::Kind::kSetData, "/m/missing", "x", 0, -1, session_});
  EXPECT_THROW(client_->Multi(ops), NoNodeError);
  EXPECT_FALSE(client_->Exists("/m/c").has_value());
}

TEST_F(ZelosTest, MultiCheckVersionGuardsTransaction) {
  client_->Create(session_, "/cfg", "v0");
  std::vector<ZelosClient::Op> ops;
  ops.push_back({ZelosClient::Op::Kind::kCheckVersion, "/cfg", "", 0, /*version=*/0, session_});
  ops.push_back({ZelosClient::Op::Kind::kSetData, "/cfg", "v1", 0, -1, session_});
  client_->Multi(ops);
  EXPECT_EQ(client_->GetData("/cfg")->first, "v1");

  ops[0].version = 0;  // stale now (version is 1)
  EXPECT_THROW(client_->Multi(ops), BadVersionError);
}

// Full production-shaped Zelos stack (Batching + SessionOrder + ViewTracking
// + BrainDoctor + Base) on three servers over one log, with injected
// reordering underneath — the paper's deployment shape.
TEST(ZelosStackTest, ThreeServerConvergenceUnderChaoticLog) {
  auto inner = std::make_shared<InMemoryLog>();
  auto chaos = std::make_shared<ReorderingLog>(inner, 0.1, 500);

  struct Server {
    LocalStore store;
    ZelosApplicator app;
    std::unique_ptr<BaseEngine> base;
    std::unique_ptr<SessionOrderEngine> so;
    std::unique_ptr<BatchingEngine> batching;
    std::unique_ptr<ZelosClient> client;
  };
  std::vector<std::unique_ptr<Server>> servers;
  for (int i = 0; i < 3; ++i) {
    auto server = std::make_unique<Server>();
    BaseEngineOptions base_options;
    base_options.server_id = "server" + std::to_string(i);
    // Only server0 proposes through the chaotic wrapper; followers read the
    // real log.
    std::shared_ptr<ISharedLog> log = (i == 0) ? std::static_pointer_cast<ISharedLog>(chaos)
                                               : std::static_pointer_cast<ISharedLog>(inner);
    server->base = std::make_unique<BaseEngine>(log, &server->store, base_options);
    SessionOrderEngine::Options so_options;
    so_options.server_id = base_options.server_id;
    server->so =
        std::make_unique<SessionOrderEngine>(so_options, server->base.get(), &server->store);
    BatchingEngine::Options batch_options;
    batch_options.max_batch_entries = 4;
    server->batching =
        std::make_unique<BatchingEngine>(batch_options, server->so.get(), &server->store);
    server->batching->RegisterUpcall(&server->app);
    server->base->Start();
    server->client = std::make_unique<ZelosClient>(server->batching.get(), &server->app);
    servers.push_back(std::move(server));
  }

  ZelosClient& writer = *servers[0]->client;
  const SessionId session = writer.CreateSession();
  writer.Create(session, "/root-node", "");
  std::vector<std::thread> client_threads;
  for (int t = 0; t < 3; ++t) {
    client_threads.emplace_back([&, t] {
      for (int i = 0; i < 15; ++i) {
        writer.Create(session, "/root-node/n" + std::to_string(t) + "-" + std::to_string(i),
                      "data");
      }
    });
  }
  for (auto& thread : client_threads) {
    thread.join();
  }
  // All servers converge to identical state.
  for (auto& server : servers) {
    server->base->Sync().Get();
  }
  EXPECT_EQ(servers[0]->client->GetChildren("/root-node").size(), 45u);
  EXPECT_EQ(servers[0]->store.Checksum(), servers[1]->store.Checksum());
  EXPECT_EQ(servers[1]->store.Checksum(), servers[2]->store.Checksum());

  for (auto& server : servers) {
    server->base->Stop();
  }
}

}  // namespace
}  // namespace delos::zelos

// Digest-beacon divergence detection: the IncrementalChecksum algebra the
// digests are built on, beacon digests at every group-commit batch size
// (each beacon opens its own commit, so its digest is the committed checksum
// minus the cursor), checkpoint checksum-mismatch handling under tolerant
// open, the DivergenceTracker's earliest-window latch, and the DigestEngine
// end-to-end on live clusters: clean replicas
// cross-check without convicting (including across trim and log
// reconfiguration), a corrupted replica is convicted on every server, and
// the admin /digest + /divergence routes serve the reports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "src/apps/delostable/table_db.h"
#include "src/common/checksum.h"
#include "src/common/divergence.h"
#include "src/common/errors.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/core/base_engine.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"
#include "src/localstore/localstore.h"
#include "src/net/admin_server.h"
#include "src/sharedlog/inmemory_log.h"
#include "src/sharedlog/read_cache.h"

namespace delos {
namespace {

using table::Row;
using table::TableApplicator;
using table::TableClient;
using table::TableSchema;
using table::Value;
using table::ValueType;

TEST(IncrementalChecksumTest, AddRemoveRoundTripsToIdentity) {
  IncrementalChecksum checksum;
  const uint64_t empty = checksum.digest();
  checksum.Add("k1", "v1");
  checksum.Add("k2", "v2");
  EXPECT_NE(checksum.digest(), empty);
  checksum.Remove("k2", "v2");
  checksum.Remove("k1", "v1");
  EXPECT_EQ(checksum.digest(), empty);
}

TEST(IncrementalChecksumTest, DigestIsOrderIndependent) {
  IncrementalChecksum forward;
  forward.Add("a", "1");
  forward.Add("b", "2");
  forward.Add("c", "3");
  IncrementalChecksum shuffled;
  shuffled.Add("c", "3");
  shuffled.Add("a", "1");
  shuffled.Add("b", "2");
  EXPECT_EQ(forward.digest(), shuffled.digest());
  // A value update = remove old pair + add new pair, from any order.
  forward.Remove("b", "2");
  forward.Add("b", "9");
  IncrementalChecksum direct;
  direct.Add("a", "1");
  direct.Add("b", "9");
  direct.Add("c", "3");
  EXPECT_EQ(forward.digest(), direct.digest());
}

// A replica for the beacon replays: a BaseEngine, a DigestEngine stamping
// every 4th proposal, and one Put per record above them.
class PutPerRecordApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put("kv/" + entry.payload, std::to_string(pos));
    return std::any(Unit{});
  }
};

DigestEngine::Options BeaconEveryFourth(const std::string& server_id) {
  DigestEngine::Options options;
  options.server_id = server_id;
  options.beacon_every_n_proposals = 4;
  return options;
}

struct DigestReplica {
  DigestReplica(std::shared_ptr<ISharedLog> log, const BaseEngineOptions& options)
      : base(std::move(log), &store, options),
        digest(BeaconEveryFourth(options.server_id), &base, &store) {
    digest.RegisterUpcall(&app);
  }
  ~DigestReplica() { base.Stop(); }

  LocalStore store;
  PutPerRecordApplicator app;
  BaseEngine base;
  DigestEngine digest;
};

// A beacon opens its own group commit, so the digest it samples at Q is the
// committed checksum minus the cursor. Two replicas replay one log of
// piggybacked and standalone beacons, one committing every record alone and
// one in batches of up to 128: their sample tables must be byte-identical,
// and each sample at Q must equal the digest of the store after [1, Q-1]
// without the cursor, as a full scan at each of the solo replica's commits
// shows.
TEST(DigestBeaconTest, SamplesMatchThePrefixDigestAtEveryBatchSize) {
  auto log = std::make_shared<InMemoryLog>();
  {
    BaseEngineOptions options;
    options.server_id = "writer";
    DigestReplica writer(log, options);
    writer.base.Start();
    for (int i = 0; i < 40; ++i) {
      LogEntry entry;
      entry.payload = "k" + std::to_string(i % 12);
      writer.digest.Propose(std::move(entry)).Get();
      if (i % 10 == 9) {
        ASSERT_TRUE(writer.digest.ProposeBeaconNow(10'000'000));
      }
    }
  }

  std::atomic<bool> fatal{false};
  BaseEngineOptions solo_options;
  solo_options.server_id = "solo";
  solo_options.play_batch_size = 1;
  solo_options.fatal_handler = [&](const std::string&) { fatal = true; };
  BaseEngineOptions batched_options = solo_options;
  batched_options.server_id = "batched";
  batched_options.play_batch_size = 128;
  // Position -> digest of the solo store after it, cursor left out.
  std::map<LogPos, uint64_t> reference;
  LocalStore* solo_store = nullptr;
  solo_options.post_commit_crash_hook = [&](LogPos last) {
    IncrementalChecksum sum;
    solo_store->Snapshot().Scan("", "", [&](std::string_view key, std::string_view value) {
      if (key != "e/base/cursor") {
        sum.Add(key, value);
      }
      return true;
    });
    reference[last] = sum.digest();
    return false;
  };
  DigestReplica solo(log, solo_options);
  solo_store = &solo.store;
  DigestReplica batched(log, batched_options);
  solo.base.Start();
  batched.base.Start();
  for (DigestReplica* replica : {&solo, &batched}) {
    ASSERT_TRUE(replica->base.Sync().GetFor(std::chrono::seconds(10)).has_value());
    EXPECT_EQ(replica->base.applied_position(), 44u);
    EXPECT_FALSE(replica->digest.tracker()->convicted()) << replica->digest.tracker()->Render();
  }
  EXPECT_FALSE(fatal.load());
  EXPECT_EQ(solo.base.apply_batches(), 44u);
  // The batched replica reads the backlog in one go; its 14 beacons (none
  // at position 1) cut it into 15 commits.
  EXPECT_EQ(batched.base.apply_batches(), 15u);

  EXPECT_EQ(batched.store.Snapshot().ScanPrefix("e/digest/sample/"),
            solo.store.Snapshot().ScanPrefix("e/digest/sample/"));
  const std::map<LogPos, uint64_t> table = solo.digest.SampleTable();
  EXPECT_EQ(batched.digest.SampleTable(), table);
  EXPECT_EQ(table.size(), 8u);
  for (const auto& [pos, digest] : table) {
    ASSERT_EQ(reference.count(pos - 1), 1u) << pos;
    EXPECT_EQ(digest, reference[pos - 1]) << "sample at " << pos;
  }
}

TEST(CheckpointDigestTest, ChecksumMismatchColdStartsUnderTolerantOpen) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "delos_digest_ckpt").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/store.ckpt";
  {
    LocalStore::Options options;
    options.checkpoint_path = path;
    auto store = LocalStore::Open(options);
    auto txn = store->BeginRW();
    txn.Put("durable", "value");
    txn.Commit();
    store->Flush();
  }
  // Flip one byte in the middle of the file: the checkpoint's own checksum
  // must catch it at parse time.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 8u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Strict open refuses the corrupt checkpoint...
  LocalStore::Options strict;
  strict.checkpoint_path = path;
  EXPECT_THROW(LocalStore::Open(strict), StoreError);
  // ...tolerant open treats it like a torn flush: cold start from the log.
  LocalStore::Options tolerant;
  tolerant.checkpoint_path = path;
  tolerant.tolerate_torn_checkpoint = true;
  auto recovered = LocalStore::Open(tolerant);
  EXPECT_EQ(recovered->KeyCount(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(DivergenceTrackerTest, LatchesEarliestWindowAndRecordsFlightEvent) {
  MetricsRegistry metrics;
  FlightRecorder recorder(64);
  DivergenceOptions options;
  options.server = "s0";
  options.metrics = &metrics;
  options.recorder = &recorder;
  DivergenceTracker tracker(options);

  tracker.OnBeaconAppended();
  tracker.OnBeaconChecked(10, "s1");
  tracker.OnSampleMatch(8);
  EXPECT_FALSE(tracker.convicted());
  EXPECT_EQ(tracker.last_verified_pos(), 8u);
  EXPECT_TRUE(tracker.HealthReason().empty());

  tracker.OnSampleMismatch(8, 12, 0x1111, 0x2222, "s1", 77);
  ASSERT_TRUE(tracker.convicted());
  EXPECT_EQ(tracker.window_lo(), 8u);
  EXPECT_EQ(tracker.window_hi(), 12u);
  // A later, wider mismatch never widens the latched earliest window.
  tracker.OnSampleMismatch(0, 40, 0x3333, 0x4444, "s2", 78);
  EXPECT_EQ(tracker.window_lo(), 8u);
  EXPECT_EQ(tracker.window_hi(), 12u);
  EXPECT_EQ(tracker.mismatches(), 2u);

  EXPECT_NE(tracker.HealthReason().find("(8, 12] vs s1"), std::string::npos)
      << tracker.HealthReason();
  // Full render carries the digest pair; the schedule-determined render
  // drops it (absolute digests vary across runs).
  EXPECT_NE(tracker.Render(true).find("digest pair"), std::string::npos);
  EXPECT_EQ(tracker.Render(false).find("digest pair"), std::string::npos);
  EXPECT_NE(tracker.RenderJson().find("\"convicted\":true"), std::string::npos);

  EXPECT_EQ(metrics.GetCounter("digest.mismatches")->value(), 2);
  EXPECT_EQ(metrics.GetCounter("digest.beacons_checked")->value(), 1);
  bool saw_divergence_event = false;
  for (const FlightRecorder::Event& event : recorder.Snapshot()) {
    if (event.kind == FlightEventKind::kDivergence) {
      saw_divergence_event = true;
      EXPECT_EQ(event.a, 8u);
      EXPECT_EQ(event.b, 12u);
      EXPECT_NE(event.detail.find("s1"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_divergence_event);
}

// A downstream that is never proposed to: the digest engine only needs one
// to register its upcall with.
class IdleDownstream : public IEngine {
 public:
  Future<std::any> Propose(LogEntry entry) override {
    return MakeErrorFuture<std::any>(std::make_exception_ptr(LogUnavailableError("idle")));
  }
  Future<ROTxn> Sync() override {
    return MakeErrorFuture<ROTxn>(std::make_exception_ptr(LogUnavailableError("idle")));
  }
  void RegisterUpcall(IApplicator* applicator) override {}
  void SetTrimPrefix(LogPos pos) override {}
};

// The server id is escaped like every other JSON string, so an id with a
// quote or a backslash cannot break the /digest document.
TEST(DigestEngineTest, RenderJsonEscapesTheServerId) {
  LocalStore store;
  IdleDownstream downstream;
  DigestEngine::Options options;
  options.server_id = "srv\"0\\";
  DigestEngine digest(options, &downstream, &store);
  const std::string json = digest.RenderJson();
  EXPECT_EQ(json.rfind("{\"server\":\"srv\\\"0\\\\\",", 0), 0u) << json;
}

TEST(ReadCacheSealTest, SealRecordsFlightEventWithDroppedEntryCount) {
  FlightRecorder recorder(64);
  ReadCacheOptions options;
  options.recorder = &recorder;
  auto cache = std::make_shared<ReadCachingLog>(std::make_shared<InMemoryLog>(), options);
  for (int i = 0; i < 3; ++i) {
    cache->Append("payload" + std::to_string(i)).Get();
  }
  ASSERT_EQ(cache->entries(), 3u);  // write-through filled
  cache->Seal();
  EXPECT_EQ(cache->entries(), 0u);
  bool saw_seal = false;
  for (const FlightRecorder::Event& event : recorder.Snapshot()) {
    if (event.kind == FlightEventKind::kSeal) {
      saw_seal = true;
      EXPECT_EQ(event.a, 3u);  // records the seal invalidated
    }
  }
  EXPECT_TRUE(saw_seal);
  // The new kinds render by name in dumps (/flight surfacing).
  EXPECT_NE(recorder.Dump().find("seal"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live-cluster coverage.

TableSchema UsersSchema() {
  TableSchema schema;
  schema.name = "users";
  schema.columns = {{"id", ValueType::kInt64}, {"name", ValueType::kString}};
  schema.primary_key = "id";
  return schema;
}

Row User(int64_t id, const std::string& name) {
  return Row{{"id", Value{id}}, {"name", Value{name}}};
}

DigestEngine* DigestOf(ClusterServer& server) {
  return dynamic_cast<DigestEngine*>(server.FindEngine("digest"));
}

void SyncAll(Cluster& cluster) {
  for (int s = 0; s < cluster.size(); ++s) {
    cluster.server(s).top()->Sync().Get();
  }
}

// One beacon round: every server proposes a standalone beacon (in index
// order, like the sim driver), then everyone catches up.
void BeaconRound(Cluster& cluster) {
  for (int s = 0; s < cluster.size(); ++s) {
    DigestEngine* digest = DigestOf(cluster.server(s));
    ASSERT_NE(digest, nullptr);
    ASSERT_TRUE(digest->ProposeBeaconNow(10'000'000));
  }
  SyncAll(cluster);
}

TEST(DigestEngineClusterTest, CleanReplicasCrossCheckWithoutConvicting) {
  Cluster::Options options;
  options.num_servers = 3;
  options.log_kind = Cluster::LogKind::kInMemory;
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = DelosTableStackConfig(nullptr);
    config.digest_beacon_every = 4;
    BuildStack(server, config);
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get());
    applicators[server.id()] = std::move(app);
  });

  TableClient client(cluster.server(0).top());
  client.CreateTable(UsersSchema());
  for (int i = 0; i < 16; ++i) {
    client.Insert("users", User(i, "u" + std::to_string(i)));
  }
  SyncAll(cluster);
  BeaconRound(cluster);
  BeaconRound(cluster);

  std::map<LogPos, uint64_t> reference_table;
  for (int s = 0; s < 3; ++s) {
    DigestEngine* digest = DigestOf(cluster.server(s));
    ASSERT_NE(digest, nullptr) << "server " << s;
    EXPECT_FALSE(digest->tracker()->convicted()) << digest->tracker()->Render();
    EXPECT_GT(digest->tracker()->beacons_checked(), 0u) << "server " << s;
    EXPECT_GT(digest->tracker()->last_verified_pos(), 0u) << "server " << s;
    EXPECT_EQ(digest->HealthCheck().state, HealthState::kOk);
    // Identical prefixes -> byte-identical sample tables on every replica.
    if (s == 0) {
      reference_table = digest->SampleTable();
      EXPECT_FALSE(reference_table.empty());
    } else {
      EXPECT_EQ(digest->SampleTable(), reference_table) << "server " << s;
    }
  }
}

TEST(DigestEngineClusterTest, CorruptedReplicaIsConvictedOnEveryServer) {
  Cluster::Options options;
  options.num_servers = 3;
  options.log_kind = Cluster::LogKind::kInMemory;
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = DelosTableStackConfig(nullptr);
    config.digest_beacon_every = 4;
    BuildStack(server, config);
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get());
    applicators[server.id()] = std::move(app);
  });

  TableClient client(cluster.server(0).top());
  client.CreateTable(UsersSchema());
  for (int i = 0; i < 16; ++i) {
    client.Insert("users", User(i, "u" + std::to_string(i)));
  }
  SyncAll(cluster);
  BeaconRound(cluster);  // pre-corruption samples: all replicas agree

  // Corrupt server 1's store out-of-band (the sim's kSabotage, live): the
  // apply threads are idle, so the single-writer invariant holds.
  {
    auto txn = cluster.server(1).store()->BeginRW();
    txn.Put("corruption", "divergent");
    txn.Commit();
  }
  // Round 1 publishes diverging samples, round 2 cross-checks them.
  BeaconRound(cluster);
  BeaconRound(cluster);

  for (int s = 0; s < 3; ++s) {
    DigestEngine* digest = DigestOf(cluster.server(s));
    ASSERT_NE(digest, nullptr);
    EXPECT_TRUE(digest->tracker()->convicted())
        << "server " << s << "\n" << digest->tracker()->Render();
    EXPECT_GT(digest->tracker()->window_hi(), digest->tracker()->window_lo());
    const HealthReport health = digest->HealthCheck();
    EXPECT_EQ(health.state, HealthState::kUnhealthy);
    EXPECT_NE(health.reason.find("digest divergence convicted in ("), std::string::npos)
        << health.reason;
  }

  // The admin routes serve the conviction, and the flight ring carries the
  // kDivergence breadcrumb.
  AdminEndpoint endpoint(&cluster.server(0));
  const AdminResponse digest_page = endpoint.Handle("/digest");
  EXPECT_EQ(digest_page.status, 200);
  EXPECT_NE(digest_page.body.find("beacons checked"), std::string::npos);
  const AdminResponse divergence_json = endpoint.Handle("/divergence?format=json");
  EXPECT_EQ(divergence_json.status, 200);
  EXPECT_NE(divergence_json.body.find("\"convicted\":true"), std::string::npos)
      << divergence_json.body;
  const AdminResponse divergence_text = endpoint.Handle("/divergence");
  EXPECT_NE(divergence_text.body.find("DIVERGED in ("), std::string::npos)
      << divergence_text.body;
  EXPECT_NE(endpoint.Handle("/flight").body.find("divergence"), std::string::npos);
}

TEST(DigestEngineClusterTest, RoutesReturn404WhenDigestDisabled) {
  Cluster::Options options;
  options.num_servers = 1;
  options.log_kind = Cluster::LogKind::kInMemory;
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = DelosTableStackConfig(nullptr);
    config.digest = false;
    BuildStack(server, config);
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get());
    applicators[server.id()] = std::move(app);
  });
  AdminEndpoint endpoint(&cluster.server(0));
  EXPECT_EQ(endpoint.Handle("/digest").status, 404);
  EXPECT_EQ(endpoint.Handle("/divergence").status, 404);
}

TEST(DigestEngineClusterTest, TrimAndReconfigurationNeverConvict) {
  Cluster::Options options;
  options.num_servers = 3;
  options.log_kind = Cluster::LogKind::kVirtual;  // reconfigurable loglet chain
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = DelosTableStackConfig(nullptr);
    config.digest_beacon_every = 4;
    BuildStack(server, config);
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get());
    applicators[server.id()] = std::move(app);
  });

  TableClient client(cluster.server(0).top());
  client.CreateTable(UsersSchema());
  for (int i = 0; i < 12; ++i) {
    client.Insert("users", User(i, "before"));
  }
  SyncAll(cluster);
  BeaconRound(cluster);

  // Trim the applied prefix, then swap the consensus protocol underneath —
  // both preserve "state = f(prefix)", so beacons must keep matching.
  cluster.server(0).base()->TrimNow();
  cluster.ReconfigureLog();
  for (int i = 12; i < 24; ++i) {
    client.Insert("users", User(i, "after"));
  }
  SyncAll(cluster);
  BeaconRound(cluster);
  BeaconRound(cluster);

  for (int s = 0; s < 3; ++s) {
    DigestEngine* digest = DigestOf(cluster.server(s));
    ASSERT_NE(digest, nullptr);
    EXPECT_FALSE(digest->tracker()->convicted())
        << "server " << s << "\n" << digest->tracker()->Render();
    EXPECT_GT(digest->tracker()->beacons_checked(), 0u);
  }
}

}  // namespace
}  // namespace delos

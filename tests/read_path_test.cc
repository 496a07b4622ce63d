// Read-path tests: the per-server ReadCachingLog (single-flight coalescing,
// trim/seal invalidation, write-through fill, eviction), the BaseEngine
// read-ahead prefetcher (sync-vs-prefetch state identity, fatal relay,
// reconfiguration mid-prefetch), QuorumLogletClient tail memoization, and
// the sim conformance sweep proving cache-on/off verdicts are byte-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/base_engine.h"
#include "src/core/cluster.h"
#include "src/sharedlog/inmemory_log.h"
#include "src/sharedlog/quorum_loglet.h"
#include "src/sharedlog/read_cache.h"
#include "src/sharedlog/virtual_log.h"
#include "src/sim/sim_cluster.h"

namespace delos {
namespace {

LogEntry PayloadEntry(std::string payload) {
  LogEntry entry;
  entry.payload = std::move(payload);
  return entry;
}

// Applicator recording applied (pos, payload) pairs into the store and a
// local list; its apply order is what the prefetch/sync identity test diffs.
class RecordingApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put("applied/" + std::to_string(pos), entry.payload);
    std::lock_guard<std::mutex> lock(mu_);
    applied_.emplace_back(pos, entry.payload);
    return std::any(entry.payload);
  }
  void PostApply(const LogEntry& entry, LogPos pos) override {}

  std::vector<std::pair<LogPos, std::string>> applied() const {
    std::lock_guard<std::mutex> lock(mu_);
    return applied_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<LogPos, std::string>> applied_;
};

// Backend decorator that counts ReadRange calls and can block them on a
// latch (for the single-flight test).
class GatedLog : public ISharedLog {
 public:
  explicit GatedLog(std::shared_ptr<ISharedLog> inner) : inner_(std::move(inner)) {}

  Future<LogPos> Append(std::string payload) override { return inner_->Append(std::move(payload)); }
  Future<LogPos> CheckTail() override { return inner_->CheckTail(); }
  std::vector<LogRecord> ReadRange(LogPos lo, LogPos hi) override {
    reads_.fetch_add(1);
    {
      std::unique_lock<std::mutex> lock(mu_);
      in_read_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return !gated_; });
    }
    return inner_->ReadRange(lo, hi);
  }
  void Trim(LogPos prefix) override { inner_->Trim(prefix); }
  LogPos trim_prefix() const override { return inner_->trim_prefix(); }
  void Seal() override { inner_->Seal(); }

  void Gate() {
    std::lock_guard<std::mutex> lock(mu_);
    gated_ = true;
    in_read_ = false;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    gated_ = false;
    cv_.notify_all();
  }
  // Blocks until a reader is inside ReadRange (parked on the gate).
  void AwaitReader() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return in_read_; });
  }
  int reads() const { return reads_.load(); }

 private:
  std::shared_ptr<ISharedLog> inner_;
  std::atomic<int> reads_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool gated_ = false;
  bool in_read_ = false;
};

// --- ReadCachingLog ---

TEST(ReadCacheTest, RepeatedReadsHitCacheNotBackend) {
  auto inner = std::make_shared<InMemoryLog>();
  auto gated = std::make_shared<GatedLog>(inner);
  ReadCachingLog cache(gated);
  for (int i = 0; i < 10; ++i) {
    inner->Append("v" + std::to_string(i)).Get();
  }

  auto first = cache.ReadRange(1, 10);
  ASSERT_EQ(first.size(), 10u);
  EXPECT_EQ(gated->reads(), 1);
  EXPECT_EQ(cache.misses(), 10u);

  auto second = cache.ReadRange(1, 10);
  ASSERT_EQ(second.size(), 10u);
  EXPECT_EQ(gated->reads(), 1);  // served entirely from cache
  EXPECT_EQ(cache.hits(), 10u);
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i].pos, i + 1);
    EXPECT_EQ(second[i].payload, "v" + std::to_string(i));
  }
}

TEST(ReadCacheTest, SingleFlightCoalescesConcurrentReaders) {
  auto inner = std::make_shared<InMemoryLog>();
  auto gated = std::make_shared<GatedLog>(inner);
  auto cache = std::make_shared<ReadCachingLog>(gated);
  for (int i = 0; i < 8; ++i) {
    inner->Append("v" + std::to_string(i)).Get();
  }

  gated->Gate();
  std::thread owner([&] { EXPECT_EQ(cache->ReadRange(1, 8).size(), 8u); });
  gated->AwaitReader();  // the owner's backend fetch is in flight

  std::thread waiter([&] { EXPECT_EQ(cache->ReadRange(1, 8).size(), 8u); });
  // The waiter must coalesce behind the in-flight fetch, not issue its own.
  while (cache->single_flight_waits() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gated->Release();
  owner.join();
  waiter.join();

  EXPECT_EQ(gated->reads(), 1);  // one backend fetch for both readers
  EXPECT_EQ(cache->backend_fetches(), 1u);
  EXPECT_GE(cache->single_flight_waits(), 1u);
}

TEST(ReadCacheTest, TrimInvalidatesCachedPrefixAndFailsFast) {
  auto inner = std::make_shared<InMemoryLog>();
  ReadCachingLog cache(inner);
  for (int i = 0; i < 10; ++i) {
    inner->Append("v" + std::to_string(i)).Get();
  }
  ASSERT_EQ(cache.ReadRange(1, 10).size(), 10u);
  ASSERT_EQ(cache.entries(), 10u);

  cache.Trim(5);
  EXPECT_EQ(cache.entries(), 5u);  // positions 1..5 dropped
  // A read at or below the prefix throws even though the records were
  // cached a moment ago.
  EXPECT_THROW(cache.ReadRange(3, 6), TrimmedError);
  EXPECT_THROW(cache.ReadRange(5, 5), TrimmedError);
  // Above the prefix keeps working.
  auto alive = cache.ReadRange(6, 10);
  ASSERT_EQ(alive.size(), 5u);
  EXPECT_EQ(alive.front().pos, 6u);
}

TEST(ReadCacheTest, LearnsBackendTrimOnFetchFailure) {
  auto inner = std::make_shared<InMemoryLog>();
  ReadCachingLog cache(inner);
  for (int i = 0; i < 10; ++i) {
    inner->Append("v" + std::to_string(i)).Get();
  }
  // Another reader trims the backend directly, bypassing this cache.
  inner->Trim(5);
  EXPECT_THROW(cache.ReadRange(1, 10), TrimmedError);
  // The failed fetch taught the cache the backend's prefix.
  EXPECT_GE(cache.trim_prefix(), 5u);
  EXPECT_THROW(cache.ReadRange(2, 4), TrimmedError);
}

TEST(ReadCacheTest, EvictionBoundsEntries) {
  auto inner = std::make_shared<InMemoryLog>();
  ReadCacheOptions options;
  options.capacity_records = 4;
  ReadCachingLog cache(inner, options);
  for (int i = 0; i < 10; ++i) {
    inner->Append("v" + std::to_string(i)).Get();
  }
  ASSERT_EQ(cache.ReadRange(1, 10).size(), 10u);
  EXPECT_LE(cache.entries(), 4u);
  EXPECT_GE(cache.evictions(), 6u);
  // Evicted positions are refetched correctly.
  auto again = cache.ReadRange(1, 10);
  ASSERT_EQ(again.size(), 10u);
  for (size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].payload, "v" + std::to_string(i));
  }
}

TEST(ReadCacheTest, AboveTailOmittedThenServedAfterAppend) {
  auto inner = std::make_shared<InMemoryLog>();
  ReadCachingLog cache(inner);
  for (int i = 0; i < 3; ++i) {
    inner->Append("v" + std::to_string(i)).Get();
  }
  EXPECT_EQ(cache.ReadRange(1, 5).size(), 3u);  // 4, 5 silently omitted
  inner->Append("v3").Get();
  inner->Append("v4").Get();
  auto full = cache.ReadRange(1, 5);
  ASSERT_EQ(full.size(), 5u);
  // Second read served 1..3 from cache and fetched only the new suffix.
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 5u);
  EXPECT_EQ(full.back().payload, "v4");
}

TEST(ReadCacheTest, SealAndInvalidateAllDropEverything) {
  auto inner = std::make_shared<InMemoryLog>();
  ReadCachingLog cache(inner);
  for (int i = 0; i < 6; ++i) {
    inner->Append("v" + std::to_string(i)).Get();
  }
  ASSERT_EQ(cache.ReadRange(1, 6).size(), 6u);
  ASSERT_GT(cache.entries(), 0u);
  cache.Seal();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_TRUE(inner->sealed());
  // Reads still work on a sealed log (refilled from the backend).
  ASSERT_EQ(cache.ReadRange(1, 6).size(), 6u);
  ASSERT_GT(cache.entries(), 0u);
  cache.InvalidateAll();
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ReadCacheTest, WriteThroughServesOwnAppendsWithoutBackendReads) {
  auto inner = std::make_shared<InMemoryLog>();
  auto gated = std::make_shared<GatedLog>(inner);
  ReadCachingLog cache(gated);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cache.Append("v" + std::to_string(i)).Get(), static_cast<LogPos>(i + 1));
  }
  auto records = cache.ReadRange(1, 5);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(gated->reads(), 0);  // never touched the backend read path
  EXPECT_EQ(cache.backend_fetches(), 0u);
  EXPECT_EQ(cache.hits(), 5u);
}

// --- BaseEngine prefetch pipeline ---

TEST(PrefetchTest, PrefetchedReplayMatchesSynchronousByteForByte) {
  auto log = std::make_shared<InMemoryLog>();
  constexpr int kRecords = 700;
  for (int i = 0; i < kRecords; ++i) {
    log->Append(PayloadEntry("op" + std::to_string(i)).Serialize()).Get();
  }

  auto replay = [&](int prefetch_batches, RecordingApplicator* app, LocalStore* store) {
    BaseEngineOptions options;
    options.prefetch_batches = prefetch_batches;
    options.play_batch_size = 16;
    BaseEngine engine(log, store, options);
    engine.RegisterUpcall(app);
    engine.Start();
    engine.Sync().Get();
    EXPECT_EQ(engine.applied_position(), static_cast<LogPos>(kRecords));
    engine.Stop();
  };

  RecordingApplicator sync_app;
  LocalStore sync_store;
  replay(0, &sync_app, &sync_store);

  RecordingApplicator prefetch_app;
  LocalStore prefetch_store;
  replay(4, &prefetch_app, &prefetch_store);

  // Same apply order, same records, same resulting store state.
  EXPECT_EQ(sync_app.applied(), prefetch_app.applied());
  EXPECT_EQ(sync_store.Checksum(), prefetch_store.Checksum());
}

TEST(PrefetchTest, TrimmedErrorRelayedThroughQueueIsFatal) {
  auto log = std::make_shared<InMemoryLog>();
  for (int i = 0; i < 10; ++i) {
    log->Append(PayloadEntry("x").Serialize()).Get();
  }
  log->Trim(5);

  std::atomic<bool> fatal{false};
  std::string fatal_message;
  std::mutex fatal_mu;
  BaseEngineOptions options;
  options.prefetch_batches = 2;
  options.fatal_handler = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(fatal_mu);
    fatal_message = message;
    fatal.store(true);
  };
  LocalStore store;
  RecordingApplicator app;
  BaseEngine engine(log, &store, options);
  engine.RegisterUpcall(&app);
  engine.Start();

  // A fresh cursor (0) must replay from position 1, which is trimmed: the
  // prefetcher hits TrimmedError and relays it; the apply thread Fatals with
  // the same message the synchronous path uses.
  auto future = engine.Propose(PayloadEntry("new"));
  while (!fatal.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    std::lock_guard<std::mutex> lock(fatal_mu);
    EXPECT_EQ(fatal_message, "playback cursor fell below the trim prefix");
  }
  engine.Stop();
  EXPECT_THROW(future.Get(), LogUnavailableError);
}

TEST(PrefetchTest, ReconfigureMidPrefetchAppliesEverything) {
  auto meta = std::make_shared<MetaStore>(
      std::vector<LogletSegment>{{1, std::make_shared<InMemoryLog>(1)}});
  const LogletFactory factory = [](LogPos start, uint64_t) {
    return std::make_shared<InMemoryLog>(start);
  };
  auto vlog = std::make_shared<VirtualLog>(meta, factory);
  auto cache = std::make_shared<ReadCachingLog>(vlog);

  BaseEngineOptions options;
  options.prefetch_batches = 4;
  options.play_batch_size = 8;
  LocalStore store;
  RecordingApplicator app;
  BaseEngine engine(cache, &store, options);
  engine.RegisterUpcall(&app);
  engine.Start();

  constexpr int kOps = 60;
  for (int i = 0; i < kOps; ++i) {
    engine.Propose(PayloadEntry("op" + std::to_string(i))).Get();
    if (i == kOps / 2) {
      // Seal the active loglet and chain a successor while the prefetcher is
      // live; committed positions stay valid, so the cache only needs the
      // conservative reconfiguration invalidation.
      vlog->Reconfigure(factory);
      cache->InvalidateAll();
    }
  }
  engine.Sync().Get();
  EXPECT_EQ(engine.applied_position(), static_cast<LogPos>(kOps));
  EXPECT_EQ(vlog->ChainLength(), 2u);
  const auto applied = app.applied();
  ASSERT_EQ(applied.size(), static_cast<size_t>(kOps));
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(applied[i].first, static_cast<LogPos>(i + 1));
    EXPECT_EQ(applied[i].second, "op" + std::to_string(i));
  }
  engine.Stop();
}

TEST(PrefetchTest, ClusterServerWiresSharedCacheIntoApplyPath) {
  auto log = std::make_shared<InMemoryLog>();
  BaseEngineOptions options;  // defaults: cache + prefetch on
  ClusterServer server("server0", log, std::make_unique<LocalStore>(), options);
  ASSERT_NE(server.read_cache(), nullptr);
  RecordingApplicator app;
  server.RegisterApplicator(&app);
  server.Start();
  for (int i = 0; i < 20; ++i) {
    server.top()->Propose(PayloadEntry("op" + std::to_string(i))).Get();
  }
  // Proposals write through the cache, so the apply loop replays its own
  // appends from memory: hits, no (or few) backend fetches.
  EXPECT_GT(server.read_cache()->hits(), 0u);
  EXPECT_EQ(server.read_cache()->hits() + server.read_cache()->misses(), 20u);
  // The cache metrics surface in the server's registry.
  EXPECT_EQ(server.metrics()->GetCounter("read.cache.hits")->value(),
            server.read_cache()->hits());
  server.Stop();
}

// --- Quorum loglet tail memoization ---

class QuorumTailMemoTest : public testing::Test {
 protected:
  QuorumTailMemoTest() {
    NetworkConfig net_config;
    net_config.default_one_way_latency_micros = 50;
    network_ = std::make_unique<SimNetwork>(net_config);
    QuorumLogletConfig config;
    config.num_acceptors = 3;
    ensemble_ = std::make_unique<QuorumEnsemble>(network_.get(), config);
    client_ = std::make_unique<QuorumLogletClient>(network_.get(), "client0", config);
  }

  // The delivery thread may still be running ensemble or client handlers;
  // stop it before the objects it calls into die.
  ~QuorumTailMemoTest() override { network_.reset(); }

  std::unique_ptr<SimNetwork> network_;
  std::unique_ptr<QuorumEnsemble> ensemble_;
  std::unique_ptr<QuorumLogletClient> client_;
};

TEST_F(QuorumTailMemoTest, SkipsTailRpcWhenMemoCoversRange) {
  QuorumLogletClient& client = *client_;
  constexpr int kRecords = 20;
  for (int i = 0; i < kRecords; ++i) {
    client.Append("v" + std::to_string(i)).Get();
  }
  // Every committed append advanced the memoized tail.
  EXPECT_EQ(client.observed_tail(), static_cast<LogPos>(kRecords + 1));

  const uint64_t messages_before = network_->MessageCount();
  auto records = client.ReadRange(1, kRecords);
  ASSERT_EQ(records.size(), static_cast<size_t>(kRecords));
  EXPECT_EQ(client.tail_checks_skipped(), 1u);
  // One acceptor sweep (request + reply), no q.tail round trip.
  EXPECT_EQ(network_->MessageCount() - messages_before, 2u);

  // A range beyond the memoized tail still pays the tail check.
  auto suffix = client.ReadRange(15, kRecords + 10);
  ASSERT_EQ(suffix.size(), static_cast<size_t>(kRecords - 14));
  EXPECT_EQ(client.tail_checks_skipped(), 1u);
}

// Regression: sealing must invalidate the memoized tail. The memo may cover
// positions that were reserved by an in-flight append but never committed
// before the seal — and after reconfiguration those positions belong to the
// successor loglet. A stale memo would let ReadRange skip the q.tail check
// and treat such a position as committed (a phantom read); post-seal reads
// must go back to paying the tail round trip.
TEST_F(QuorumTailMemoTest, SealClearsTheMemoSoReadsRecheckTail) {
  QuorumLogletClient& client = *client_;
  constexpr int kRecords = 8;
  for (int i = 0; i < kRecords; ++i) {
    client.Append("v" + std::to_string(i)).Get();
  }
  ASSERT_EQ(client.observed_tail(), static_cast<LogPos>(kRecords + 1));
  auto records = client.ReadRange(1, kRecords);
  ASSERT_EQ(records.size(), static_cast<size_t>(kRecords));
  ASSERT_EQ(client.tail_checks_skipped(), 1u);

  client.Seal();
  EXPECT_EQ(client.observed_tail(), 0u);

  // Committed entries are still readable on the sealed loglet, but the read
  // pays the tail check again instead of trusting the pre-seal memo.
  auto again = client.ReadRange(1, kRecords);
  ASSERT_EQ(again.size(), static_cast<size_t>(kRecords));
  EXPECT_EQ(client.tail_checks_skipped(), 1u);
}

// --- Sim conformance: cache on/off verdict identity ---

TEST(SimReadPathSweep, CacheOnOffVerdictsByteIdentical) {
  const std::string scratch =
      (std::filesystem::temp_directory_path() / "delos_readpath_sweep").string();
  for (uint64_t seed : {3u, 7u, 19u, 42u, 77u, 101u}) {
    sim::SimOptions with_cache;
    with_cache.shape = sim::StackShape::kDelosTable;
    with_cache.num_ops = 16;
    with_cache.scratch_dir = scratch;
    with_cache.read_cache = true;
    sim::SimOptions without_cache = with_cache;
    without_cache.read_cache = false;

    const sim::RunReport on = sim::SimCluster::RunSeed(seed, with_cache);
    const sim::RunReport off = sim::SimCluster::RunSeed(seed, without_cache);
    // The schedule-determined verdict must be byte-identical with the cache
    // on and off. Absolute checksums are deliberately NOT compared across
    // runs (real-time retry races legitimately vary log content run to run;
    // sim_repro_test makes the same exclusion) — what must hold within each
    // run is that every server matches its own reference replay, and that
    // neither configuration changes which faults fire or the verdict text.
    EXPECT_EQ(on.Summary(), off.Summary()) << "seed " << seed;
    EXPECT_EQ(on.failures, off.failures) << "seed " << seed;
    EXPECT_EQ(on.crashes_fired, off.crashes_fired) << "seed " << seed;
    EXPECT_EQ(on.append_faults_fired, off.append_faults_fired) << "seed " << seed;
    EXPECT_EQ(on.final_tail, off.final_tail) << "seed " << seed;
    EXPECT_EQ(on.plan_bytes, off.plan_bytes) << "seed " << seed;
    EXPECT_TRUE(on.ok()) << "seed " << seed << ": " << on.Summary();
    EXPECT_TRUE(off.ok()) << "seed " << seed << ": " << off.Summary();
    for (uint64_t checksum : on.server_checksums) {
      EXPECT_EQ(checksum, on.reference_checksum) << "seed " << seed;
    }
    for (uint64_t checksum : off.server_checksums) {
      EXPECT_EQ(checksum, off.reference_checksum) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace delos

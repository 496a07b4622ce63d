// Unit + property tests for the LocalStore: transactions, MVCC snapshots,
// nested sub-transactions, checkpoints, checksums, fault injection.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>

#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/common/serde.h"
#include "src/localstore/localstore.h"

namespace delos {
namespace {

TEST(LocalStoreTest, PutGetDelete) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("a", "1");
    txn.Put("b", "2");
    txn.Commit();
  }
  ROTxn snap = store.Snapshot();
  EXPECT_EQ(snap.Get("a").value(), "1");
  EXPECT_EQ(snap.Get("b").value(), "2");
  EXPECT_FALSE(snap.Get("c").has_value());
  {
    RWTxn txn = store.BeginRW();
    txn.Delete("a");
    txn.Commit();
  }
  EXPECT_FALSE(store.Snapshot().Get("a").has_value());
  // The earlier snapshot still sees the old state (MVCC).
  EXPECT_EQ(snap.Get("a").value(), "1");
}

TEST(LocalStoreTest, ReadYourWrites) {
  LocalStore store;
  RWTxn txn = store.BeginRW();
  txn.Put("k", "v1");
  EXPECT_EQ(txn.Get("k").value(), "v1");
  txn.Put("k", "v2");
  EXPECT_EQ(txn.Get("k").value(), "v2");
  txn.Delete("k");
  EXPECT_FALSE(txn.Get("k").has_value());
  txn.Commit();
  EXPECT_FALSE(store.Snapshot().Get("k").has_value());
}

TEST(LocalStoreTest, AbortDiscardsWrites) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "v");
    txn.Abort();
  }
  EXPECT_FALSE(store.Snapshot().Get("k").has_value());
  EXPECT_EQ(store.committed_version(), 0u);
}

TEST(LocalStoreTest, DroppedTxnActsAsAbort) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "v");
  }
  EXPECT_FALSE(store.Snapshot().Get("k").has_value());
  // The writer slot is released; a new transaction can begin.
  RWTxn txn = store.BeginRW();
  txn.Commit();
}

TEST(LocalStoreTest, SavepointRollback) {
  LocalStore store;
  RWTxn txn = store.BeginRW();
  txn.Put("a", "1");
  const Savepoint sp = txn.MakeSavepoint();
  txn.Put("b", "2");
  txn.Put("a", "overwritten");
  txn.RollbackTo(sp);
  EXPECT_EQ(txn.Get("a").value(), "1");
  EXPECT_FALSE(txn.Get("b").has_value());
  txn.Commit();
  EXPECT_EQ(store.Snapshot().Get("a").value(), "1");
  EXPECT_FALSE(store.Snapshot().Get("b").has_value());
}

TEST(LocalStoreTest, NestedSavepoints) {
  LocalStore store;
  RWTxn txn = store.BeginRW();
  txn.Put("l0", "x");
  const Savepoint sp1 = txn.MakeSavepoint();
  txn.Put("l1", "x");
  const Savepoint sp2 = txn.MakeSavepoint();
  txn.Put("l2", "x");
  txn.RollbackTo(sp2);
  EXPECT_TRUE(txn.Get("l1").has_value());
  EXPECT_FALSE(txn.Get("l2").has_value());
  txn.RollbackTo(sp1);
  EXPECT_TRUE(txn.Get("l0").has_value());
  EXPECT_FALSE(txn.Get("l1").has_value());
  txn.Commit();
}

// Group-commit batches lean on rollback being O(rolled-back ops): the
// write-index overlay must restore the *previous* in-transaction version of
// a key, not just drop the op. These cover the overlay bookkeeping.
TEST(LocalStoreTest, RollbackRestoresPriorOverlayVersion) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "committed");
    txn.Commit();
  }
  RWTxn txn = store.BeginRW();
  txn.Put("k", "first");           // in-txn overlay version 1
  const Savepoint sp = txn.MakeSavepoint();
  txn.Put("k", "second");          // overlay version 2
  txn.Delete("k");                 // overlay version 3
  EXPECT_FALSE(txn.Get("k").has_value());
  txn.RollbackTo(sp);
  // Read-your-writes must see the pre-savepoint overlay, not the committed
  // value and not the rolled-back delete.
  EXPECT_EQ(txn.Get("k").value(), "first");
  txn.Commit();
  EXPECT_EQ(store.Snapshot().Get("k").value(), "first");
}

TEST(LocalStoreTest, RollbackOfFirstWriteFallsThroughToCommitted) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "committed");
    txn.Commit();
  }
  RWTxn txn = store.BeginRW();
  const Savepoint sp = txn.MakeSavepoint();
  txn.Put("k", "uncommitted");
  txn.Put("fresh", "uncommitted");
  txn.RollbackTo(sp);
  // Keys first written after the savepoint leave no overlay residue.
  EXPECT_EQ(txn.Get("k").value(), "committed");
  EXPECT_FALSE(txn.Get("fresh").has_value());
  txn.Commit();
  EXPECT_EQ(store.Snapshot().Get("k").value(), "committed");
  EXPECT_FALSE(store.Snapshot().Get("fresh").has_value());
}

TEST(LocalStoreTest, InterleavedSavepointsAcrossManyKeys) {
  // Simulates a group-commit batch: records apply back-to-back in one
  // transaction, each inside its own savepoint, and some roll back.
  LocalStore store;
  RWTxn txn = store.BeginRW();
  for (int record = 0; record < 20; ++record) {
    const Savepoint sp = txn.MakeSavepoint();
    txn.Put("shared", "r" + std::to_string(record));
    txn.Put("own/" + std::to_string(record), "x");
    if (record % 3 == 1) {
      txn.RollbackTo(sp);  // this record's writes vanish
    }
  }
  txn.Commit();
  ROTxn snap = store.Snapshot();
  // Last surviving record was 18 (18 % 3 == 0).
  EXPECT_EQ(snap.Get("shared").value(), "r18");
  for (int record = 0; record < 20; ++record) {
    EXPECT_EQ(snap.Get("own/" + std::to_string(record)).has_value(), record % 3 != 1) << record;
  }
}

TEST(LocalStoreTest, ScanSeesOverlayAfterRollback) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("s/a", "1");
    txn.Commit();
  }
  RWTxn txn = store.BeginRW();
  txn.Put("s/b", "2");
  const Savepoint sp = txn.MakeSavepoint();
  txn.Put("s/c", "3");
  txn.Delete("s/a");
  txn.RollbackTo(sp);
  std::vector<std::string> keys;
  txn.Scan("s/", "s0", [&](std::string_view key, std::string_view) {
    keys.emplace_back(key);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"s/a", "s/b"}));
  txn.Commit();
}

TEST(LocalStoreTest, SnapshotIsolation) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "v1");
    txn.Commit();
  }
  ROTxn old_snap = store.Snapshot();
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "v2");
    txn.Commit();
  }
  EXPECT_EQ(old_snap.Get("k").value(), "v1");
  EXPECT_EQ(store.Snapshot().Get("k").value(), "v2");
}

TEST(LocalStoreTest, ScanRangeAndPrefix) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("p/a", "1");
    txn.Put("p/b", "2");
    txn.Put("q/c", "3");
    txn.Commit();
  }
  ROTxn snap = store.Snapshot();
  auto pairs = snap.ScanPrefix("p/");
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].first, "p/a");
  EXPECT_EQ(pairs[1].first, "p/b");

  size_t count = 0;
  snap.Scan("p/a", "q/c", [&](std::string_view, std::string_view) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2u);  // end is exclusive

  // Empty end = unbounded.
  count = 0;
  snap.Scan("p/", "", [&](std::string_view, std::string_view) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 3u);
}

TEST(LocalStoreTest, RWTxnMergedScan) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("a", "committed");
    txn.Put("b", "committed");
    txn.Commit();
  }
  RWTxn txn = store.BeginRW();
  txn.Put("c", "pending");
  txn.Delete("a");
  txn.Put("b", "overlaid");
  auto pairs = txn.ScanPrefix("");
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<std::string, std::string>{"b", "overlaid"}));
  EXPECT_EQ(pairs[1], (std::pair<std::string, std::string>{"c", "pending"}));
  txn.Abort();
}

TEST(LocalStoreTest, ChecksumMatchesAcrossHistories) {
  // Two stores reaching the same live state via different write orders must
  // agree on the checksum (the replica-divergence detector of §6).
  LocalStore a;
  LocalStore b;
  {
    RWTxn txn = a.BeginRW();
    txn.Put("k1", "v1");
    txn.Commit();
  }
  {
    RWTxn txn = a.BeginRW();
    txn.Put("k2", "v2");
    txn.Put("k3", "temp");
    txn.Commit();
  }
  {
    RWTxn txn = a.BeginRW();
    txn.Delete("k3");
    txn.Commit();
  }
  {
    RWTxn txn = b.BeginRW();
    txn.Put("k2", "v2");
    txn.Put("k1", "v1");
    txn.Commit();
  }
  EXPECT_EQ(a.Checksum(), b.Checksum());
  EXPECT_EQ(a.KeyCount(), 2u);
}

TEST(LocalStoreTest, ChecksumDetectsDivergence) {
  LocalStore a;
  LocalStore b;
  {
    RWTxn txn = a.BeginRW();
    txn.Put("k", "v1");
    txn.Commit();
  }
  {
    RWTxn txn = b.BeginRW();
    txn.Put("k", "v2");
    txn.Commit();
  }
  EXPECT_NE(a.Checksum(), b.Checksum());
}

TEST(LocalStoreTest, CheckpointRoundTrip) {
  const std::string path = testing::TempDir() + "/ckpt_roundtrip.ckpt";
  std::filesystem::remove(path);
  {
    auto store = LocalStore::Open({path});
    RWTxn txn = store->BeginRW();
    txn.Put("a", "1");
    txn.Put("b", "2");
    txn.Commit();
    store->Flush();
    EXPECT_EQ(store->flushed_version(), store->committed_version());
  }
  auto restored = LocalStore::Open({path});
  EXPECT_EQ(restored->Snapshot().Get("a").value(), "1");
  EXPECT_EQ(restored->Snapshot().Get("b").value(), "2");
  EXPECT_EQ(restored->KeyCount(), 2u);
  std::filesystem::remove(path);
}

TEST(LocalStoreTest, CheckpointOmitsUnflushedWrites) {
  const std::string path = testing::TempDir() + "/ckpt_unflushed.ckpt";
  std::filesystem::remove(path);
  {
    auto store = LocalStore::Open({path});
    {
      RWTxn txn = store->BeginRW();
      txn.Put("flushed", "yes");
      txn.Commit();
    }
    store->Flush();
    {
      RWTxn txn = store->BeginRW();
      txn.Put("unflushed", "lost");
      txn.Commit();
    }
    // No flush: the second write must not survive the "crash".
  }
  auto restored = LocalStore::Open({path});
  EXPECT_TRUE(restored->Snapshot().Get("flushed").has_value());
  EXPECT_FALSE(restored->Snapshot().Get("unflushed").has_value());
  std::filesystem::remove(path);
}

TEST(LocalStoreTest, CorruptCheckpointRejected) {
  const std::string path = testing::TempDir() + "/ckpt_corrupt.ckpt";
  std::filesystem::remove(path);
  {
    auto store = LocalStore::Open({path});
    RWTxn txn = store->BeginRW();
    txn.Put("a", "1");
    txn.Commit();
    store->Flush();
  }
  // Flip a byte of the stored checksum digest (the file's final bytes).
  {
    const auto size = std::filesystem::file_size(path);
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(size) - 1);
    const char last = static_cast<char>(file.get());
    file.seekp(static_cast<std::streamoff>(size) - 1);
    file.put(static_cast<char>(last ^ 0x7f));
  }
  EXPECT_THROW(LocalStore::Open({path}), StoreError);
  std::filesystem::remove(path);
}

TEST(LocalStoreTest, InjectedCommitFaultThrows) {
  LocalStore store;
  store.InjectCommitFault();
  RWTxn txn = store.BeginRW();
  txn.Put("k", "v");
  EXPECT_THROW(txn.Commit(), StoreError);
  // The failure consumed the injection; the store is usable again.
  RWTxn txn2 = store.BeginRW();
  txn2.Put("k", "v");
  txn2.Commit();
  EXPECT_TRUE(store.Snapshot().Get("k").has_value());
}

TEST(LocalStoreTest, ConcurrentReadersDuringWrites) {
  LocalStore store;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 500; ++i) {
      RWTxn txn = store.BeginRW();
      txn.Put("k" + std::to_string(i % 10), std::to_string(i));
      txn.Commit();
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        ROTxn snap = store.Snapshot();
        snap.ScanPrefix("k");
      }
    });
  }
  writer.join();
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(store.committed_version(), 500u);
}

// Regression: Snapshot() once read the committed version and registered it
// without holding the data lock, so a commit landing in between compacted
// away the version the snapshot then read, and a key that is never deleted
// read as missing (a few times per 100K commits).
TEST(LocalStoreTest, SnapshotNeverMissesALiveKeyUnderConcurrentCommits) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "0");
    txn.Commit();
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (!store.Snapshot().Get("k").has_value()) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 1; i <= 300'000; ++i) {
    RWTxn txn = store.BeginRW();
    txn.Put("k", std::to_string(i));
    txn.Commit();
  }
  stop = true;
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(misses.load(), 0u);
}

// Property: a random interleaving of writes with savepoint rollbacks matches
// a model map.
TEST(LocalStoreProperty, RandomOpsMatchModel) {
  Rng rng(2024);
  LocalStore store;
  std::map<std::string, std::string> model;
  for (int round = 0; round < 200; ++round) {
    RWTxn txn = store.BeginRW();
    std::map<std::string, std::string> txn_model = model;
    const int ops = static_cast<int>(rng.Uniform(1, 6));
    for (int i = 0; i < ops; ++i) {
      const std::string key = "k" + std::to_string(rng.Uniform(0, 15));
      if (rng.Bernoulli(0.3)) {
        txn.Delete(key);
        txn_model.erase(key);
      } else {
        const std::string value = rng.String(8);
        txn.Put(key, value);
        txn_model[key] = value;
      }
    }
    if (rng.Bernoulli(0.2)) {
      txn.Abort();
    } else {
      txn.Commit();
      model = std::move(txn_model);
    }
  }
  ROTxn snap = store.Snapshot();
  std::map<std::string, std::string> actual;
  for (const auto& [key, value] : snap.ScanPrefix("")) {
    actual[key] = value;
  }
  EXPECT_EQ(actual, model);
}

// --- coalesced commit ---

using State = std::map<std::string, std::string>;

// The checkpoint Flush() must write for `state` at `version`.
std::string ExpectedCheckpoint(uint64_t version, const State& state) {
  Serializer ser;
  ser.WriteString("DLSC1");
  ser.WriteFixed64(version);
  ser.WriteVarint(state.size());
  IncrementalChecksum check;
  for (const auto& [key, value] : state) {
    ser.WriteString(key);
    ser.WriteString(value);
    check.Add(key, value);
  }
  ser.WriteFixed64(check.digest());
  return ser.Release();
}

uint64_t ModelChecksum(const State& state) {
  IncrementalChecksum check;
  for (const auto& [key, value] : state) {
    check.Add(key, value);
  }
  return check.digest();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Every key of `keys` reads at `snapshot` as in `state`, and a full scan
// returns exactly `state`.
void ExpectSnapshotEquals(const ROTxn& snapshot, const State& state,
                          const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    auto it = state.find(key);
    const std::optional<std::string> want =
        it == state.end() ? std::nullopt : std::make_optional(it->second);
    EXPECT_EQ(snapshot.Get(key), want) << "key " << key << " at version " << snapshot.version();
  }
  State scanned;
  for (auto& [key, value] : snapshot.ScanPrefix("")) {
    scanned.emplace(std::move(key), std::move(value));
  }
  EXPECT_EQ(scanned, state) << "scan at version " << snapshot.version();
}

// A commit applies only each key's last staged write. Seeded transactions of
// Put, Delete and savepoint rollback over 16 keys, with snapshots pinned at
// older versions, must leave the store a reference model reaches by applying
// the ops one at a time: every key at every pinned snapshot, KeyCount(),
// Checksum() and the checkpoint bytes agree after every commit, and a
// read-your-writes Get agrees with the staged state wherever it is taken.
TEST(LocalStoreProperty, CoalescedCommitMatchesOpByOpModel) {
  const std::string path = testing::TempDir() + "/coalesced_commit.ckpt";
  std::filesystem::remove(path);
  auto store = LocalStore::Open({path});
  Rng rng(16);

  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  State model;
  struct Pinned {
    ROTxn snapshot;
    State state;
  };
  std::vector<Pinned> pinned;
  const auto check_all = [&](const State& state) {
    EXPECT_EQ(store->KeyCount(), state.size());
    EXPECT_EQ(store->Checksum(), ModelChecksum(state));
    ExpectSnapshotEquals(store->Snapshot(), state, keys);
    for (const Pinned& pin : pinned) {
      ExpectSnapshotEquals(pin.snapshot, pin.state, keys);
    }
    const ROTxn flushed = store->Flush();
    EXPECT_EQ(ReadFile(path), ExpectedCheckpoint(flushed.version(), state));
  };

  // Scripted: with a snapshot pinned and then without one, a key Put and
  // then Deleted in one transaction ends deleted, a fresh key's delete is a
  // no-op, and a rewritten key keeps only its last value.
  {
    RWTxn txn = store->BeginRW();
    txn.Put("k0", "a");
    txn.Put("k1", "b");
    txn.Commit();
    model = {{"k0", "a"}, {"k1", "b"}};
  }
  pinned.push_back({store->Snapshot(), model});
  for (int pass = 0; pass < 2; ++pass) {
    RWTxn txn = store->BeginRW();
    const std::string gone = "k" + std::to_string(2 + pass);
    keys.push_back("fresh" + std::to_string(pass));
    txn.Put(gone, "x");
    txn.Delete(gone);
    txn.Delete(keys.back());
    txn.Put("k1", "c" + std::to_string(pass));
    txn.Put("k1", "d" + std::to_string(pass));
    txn.Delete("k0");
    txn.Put("k0", "e" + std::to_string(pass));
    txn.Commit();
    model["k1"] = "d" + std::to_string(pass);
    model["k0"] = "e" + std::to_string(pass);
    check_all(model);
    pinned.clear();
  }

  for (int round = 0; round < 300; ++round) {
    RWTxn txn = store->BeginRW();
    State staged = model;
    std::vector<std::pair<Savepoint, State>> savepoints;
    const int ops = static_cast<int>(rng.Uniform(1, 24));
    for (int i = 0; i < ops; ++i) {
      const int64_t action = rng.Uniform(0, 10);
      const std::string& key = keys[static_cast<size_t>(rng.Uniform(0, 15))];
      if (action == 10) {
        // Read-your-writes at a random point must see the staged model.
        const auto it = staged.find(key);
        EXPECT_EQ(txn.Get(key), it == staged.end() ? std::nullopt
                                                   : std::optional<std::string>(it->second))
            << key;
      } else if (action == 0) {
        savepoints.emplace_back(txn.MakeSavepoint(), staged);
      } else if (action == 1 && !savepoints.empty()) {
        txn.RollbackTo(savepoints.back().first);
        staged = std::move(savepoints.back().second);
        savepoints.pop_back();
      } else if (action <= 3) {
        txn.Delete(key);
        staged.erase(key);
      } else {
        const std::string value = rng.String(static_cast<size_t>(rng.Uniform(0, 12)));
        txn.Put(key, value);
        staged[key] = value;
      }
    }
    if (rng.Bernoulli(0.1)) {
      // Never written before or after: deleting it changes nothing.
      txn.Delete("fresh/" + std::to_string(round));
    }
    if (rng.Bernoulli(0.1)) {
      txn.Abort();
      continue;
    }
    const uint64_t version_before = store->committed_version();
    txn.Commit();
    model = std::move(staged);
    EXPECT_EQ(store->committed_version(), version_before + 1);
    check_all(model);
    if (rng.Bernoulli(0.3) && pinned.size() < 4) {
      pinned.push_back({store->Snapshot(), model});
    }
    if (!pinned.empty() && rng.Bernoulli(0.25)) {
      pinned.erase(pinned.begin() + rng.Uniform(0, static_cast<int64_t>(pinned.size()) - 1));
    }
  }
  pinned.clear();
  std::filesystem::remove(path);
}

// Keys straddle the length a key is stored inline in its map node
// (LocalStore::Key::kInlineBytes): empty, 1 byte, limit-1, limit, limit+1
// and 200 bytes, where each fill key is a prefix of the next longer one and
// others hold bytes 0x00 and 0xff. Seeded transactions (Put, Delete,
// savepoint rollback) must match a model after every commit: every key and
// a full scan, at the latest version and at each pinned snapshot,
// KeyCount() and Checksum(). Then snapshots pinned on one key across four
// commits make its chain spill past the inline version, and are released
// out of order. The checkpoint written at the end must be the model's
// bytes and reopen to the model.
TEST(LocalStoreProperty, KeysAndChainsAcrossTheInlineLimits) {
  constexpr size_t kInlineKeyBytes = 40;  // LocalStore::Key::kInlineBytes
  const std::string path = testing::TempDir() + "/inline_limits.ckpt";
  std::filesystem::remove(path);
  auto store = LocalStore::Open({path});
  Rng rng(21);

  std::string fill;
  for (size_t i = 0; i < 200; ++i) {
    fill.push_back(static_cast<char>('a' + i % 26));
  }
  std::vector<std::string> keys = {""};
  for (const size_t length : {size_t{1}, kInlineKeyBytes - 1, kInlineKeyBytes,
                              kInlineKeyBytes + 1, size_t{200}}) {
    keys.push_back(fill.substr(0, length));
    keys.push_back(std::string(length, '\xff'));
    keys.push_back(fill.substr(0, length - 1) + '\0');
  }
  const std::string at_limit = fill.substr(0, kInlineKeyBytes);
  const std::string longest = fill;

  State model;
  struct Pinned {
    ROTxn snapshot;
    State state;
  };
  std::vector<Pinned> pinned;
  const auto check_all = [&] {
    EXPECT_EQ(store->KeyCount(), model.size());
    EXPECT_EQ(store->Checksum(), ModelChecksum(model));
    ExpectSnapshotEquals(store->Snapshot(), model, keys);
    for (const Pinned& pin : pinned) {
      ExpectSnapshotEquals(pin.snapshot, pin.state, keys);
    }
  };
  // Values straddle std::string's inline buffer as well.
  const auto random_value = [&] {
    return rng.String(static_cast<size_t>(rng.Bernoulli(0.1) ? 200 : rng.Uniform(0, 24)));
  };

  for (int round = 0; round < 300; ++round) {
    RWTxn txn = store->BeginRW();
    State staged = model;
    std::optional<std::pair<Savepoint, State>> savepoint;
    const int ops = static_cast<int>(rng.Uniform(1, 8));
    for (int i = 0; i < ops; ++i) {
      const int64_t last_key = static_cast<int64_t>(keys.size()) - 1;
      const std::string& key = keys[static_cast<size_t>(rng.Uniform(0, last_key))];
      const int64_t action = rng.Uniform(0, 9);
      if (action == 0) {
        savepoint.emplace(txn.MakeSavepoint(), staged);
      } else if (action == 1 && savepoint.has_value()) {
        txn.RollbackTo(savepoint->first);
        staged = std::move(savepoint->second);
        savepoint.reset();
      } else if (action <= 4) {
        txn.Delete(key);
        staged.erase(key);
      } else {
        const std::string value = random_value();
        txn.Put(key, value);
        staged[key] = value;
      }
      auto it = staged.find(key);
      EXPECT_EQ(txn.Get(key),
                it == staged.end() ? std::nullopt : std::make_optional(it->second));
    }
    txn.Commit();
    model = std::move(staged);
    check_all();
    if (rng.Bernoulli(0.2) && pinned.size() < 3) {
      pinned.push_back({store->Snapshot(), model});
    }
    if (!pinned.empty() && rng.Bernoulli(0.2)) {
      pinned.erase(pinned.begin() + rng.Uniform(0, static_cast<int64_t>(pinned.size()) - 1));
    }
  }

  for (const std::string& hot : {at_limit, longest}) {
    pinned.clear();
    const auto write_hot = [&](std::optional<std::string> value) {
      RWTxn txn = store->BeginRW();
      if (value.has_value()) {
        txn.Put(hot, *value);
        model[hot] = *value;
      } else {
        txn.Delete(hot);
        model.erase(hot);
      }
      txn.Commit();
      check_all();
    };
    // Four snapshots, each pinned before a commit to the hot key; one
    // commit deletes it, so the chain holds a tombstone too.
    for (int i = 0; i < 4; ++i) {
      pinned.push_back({store->Snapshot(), model});
      write_hot(i == 2 ? std::nullopt : std::make_optional(random_value()));
    }
    // Released second, fourth, first, third, with a commit after each.
    for (const size_t index : {1, 2, 0, 0}) {
      pinned.erase(pinned.begin() + static_cast<ptrdiff_t>(index));
      write_hot(random_value());
    }
  }

  pinned.clear();
  const uint64_t flushed_version = store->Flush().version();
  EXPECT_EQ(ReadFile(path), ExpectedCheckpoint(flushed_version, model));
  store.reset();
  auto reopened = LocalStore::Open({path});
  EXPECT_EQ(reopened->committed_version(), flushed_version);
  EXPECT_EQ(reopened->KeyCount(), model.size());
  EXPECT_EQ(reopened->Checksum(), ModelChecksum(model));
  ExpectSnapshotEquals(reopened->Snapshot(), model, keys);
  std::filesystem::remove(path);
}

// --- checkpoint load and flush ---

// A checkpoint file holding `pairs` in the given order, whatever that order
// is, with the digest a loader verifies: the XOR of every pair's hash.
std::string HandBuiltCheckpoint(uint64_t version,
                                const std::vector<std::pair<std::string, std::string>>& pairs) {
  Serializer ser;
  ser.WriteString("DLSC1");
  ser.WriteFixed64(version);
  ser.WriteVarint(pairs.size());
  IncrementalChecksum check;
  for (const auto& [key, value] : pairs) {
    ser.WriteString(key);
    ser.WriteString(value);
    check.Add(key, value);
  }
  ser.WriteFixed64(check.digest());
  return ser.Release();
}

void WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The loader inserts with an end hint because Flush writes keys in order;
// a file whose pairs are out of order, or repeat a key, must still load as
// a loader without the hint did: every pair in place, the last pair of a
// repeated key wins, and the checksum is the file's verified digest.
TEST(LocalStoreCheckpoint, OutOfOrderAndRepeatedKeysLoadInPlace) {
  const std::string path = testing::TempDir() + "/ckpt_hand_built.ckpt";
  const std::vector<std::pair<std::string, std::string>> shuffled = {
      {"m", "13"}, {"b", "2"}, {"z", "26"}, {"a", "1"}, {"q", "17"}};
  const std::vector<std::pair<std::string, std::string>> repeated = {
      {"a", "1"}, {"b", "2"}, {"a", "3"}, {"c", "4"}, {"b", "5"}};
  for (const auto& pairs : {shuffled, repeated}) {
    WriteFile(path, HandBuiltCheckpoint(7, pairs));
    State last_wins;
    IncrementalChecksum every_pair;
    for (const auto& [key, value] : pairs) {
      last_wins[key] = value;
      every_pair.Add(key, value);
    }
    auto store = LocalStore::Open({path});
    EXPECT_EQ(store->committed_version(), 7u);
    EXPECT_EQ(store->KeyCount(), last_wins.size());
    EXPECT_EQ(store->Checksum(), every_pair.digest());
    std::vector<std::string> keys;
    for (const auto& [key, value] : last_wins) {
      keys.push_back(key);
    }
    ExpectSnapshotEquals(store->Snapshot(), last_wins, keys);
  }
  std::filesystem::remove(path);
}

// Every proper prefix of a checkpoint is rejected as StoreError, and the
// tolerant open of it starts cold with a reset checksum.
TEST(LocalStoreCheckpoint, EveryTruncationIsRejected) {
  const std::string path = testing::TempDir() + "/ckpt_truncated.ckpt";
  const std::string whole = HandBuiltCheckpoint(3, {{"a", "1"}, {"bb", "22"}, {"ccc", ""}});
  for (size_t keep = 0; keep < whole.size(); ++keep) {
    WriteFile(path, std::string_view(whole).substr(0, keep));
    EXPECT_THROW(LocalStore::Open({path}), StoreError) << "kept " << keep << " bytes";
    LocalStore::Options tolerant;
    tolerant.checkpoint_path = path;
    tolerant.tolerate_torn_checkpoint = true;
    auto store = LocalStore::Open(tolerant);
    EXPECT_EQ(store->KeyCount(), 0u);
    EXPECT_EQ(store->Checksum(), 0u);
    EXPECT_EQ(store->committed_version(), 0u);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  WriteFile(path, whole);
  EXPECT_EQ(LocalStore::Open({path})->KeyCount(), 3u);
  std::filesystem::remove(path);
}

// A flush with nothing committed since the last whole checkpoint (written
// or loaded) leaves the file alone; an armed tear still writes.
TEST(LocalStoreCheckpoint, IdleFlushSkipsTheRewrite) {
  const std::string path = testing::TempDir() + "/ckpt_idle.ckpt";
  std::filesystem::remove(path);
  const std::string marker = "not rewritten";
  {
    auto store = LocalStore::Open({path});
    {
      RWTxn txn = store->BeginRW();
      txn.Put("k", "v1");
      txn.Commit();
    }
    store->Flush();
    WriteFile(path, marker);
    EXPECT_EQ(store->Flush().version(), store->committed_version());
    EXPECT_EQ(ReadFile(path), marker);
    {
      RWTxn txn = store->BeginRW();
      txn.Put("k", "v2");
      txn.Commit();
    }
    store->Flush();
    EXPECT_EQ(ReadFile(path), ExpectedCheckpoint(2, {{"k", "v2"}}));
    // Idle, but armed: the torn write happens, and the next idle flush
    // repairs it.
    store->InjectTornFlush(5);
    store->Flush();
    EXPECT_EQ(ReadFile(path).size(), 5u);
    store->Flush();
    EXPECT_EQ(ReadFile(path), ExpectedCheckpoint(2, {{"k", "v2"}}));
  }
  auto reopened = LocalStore::Open({path});
  WriteFile(path, marker);
  EXPECT_EQ(reopened->Flush().Get("k"), std::optional<std::string>("v2"));
  EXPECT_EQ(ReadFile(path), marker);
  std::filesystem::remove(path);
}

// Flush serializes straight from the version chains under the data lock and
// writes the store's own incremental digest. With a writer committing
// throughout, every checkpoint must open cleanly to exactly the snapshot
// Flush returned, with Checksum() equal to the digest the file ends with.
TEST(LocalStoreCheckpoint, FlushRacingCommitsWritesConsistentCheckpoints) {
  const std::string path = testing::TempDir() + "/ckpt_racing.ckpt";
  std::filesystem::remove(path);
  auto store = LocalStore::Open({path});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(20);
    while (!stop.load(std::memory_order_relaxed)) {
      RWTxn txn = store->BeginRW();
      for (int op = 0; op < 4; ++op) {
        const std::string key = "k" + std::to_string(rng.Uniform(0, 199));
        if (rng.Bernoulli(0.25)) {
          txn.Delete(key);
        } else {
          txn.Put(key, rng.String(static_cast<size_t>(rng.Uniform(0, 40))));
        }
      }
      txn.Commit();
    }
  });
  std::set<uint64_t> versions;
  for (int checked = 0; checked < 200; ++checked) {
    const ROTxn flushed = store->Flush();
    versions.insert(flushed.version());
    const std::string bytes = ReadFile(path);
    ASSERT_GE(bytes.size(), 8u);
    Deserializer trailer(std::string_view(bytes).substr(bytes.size() - 8));
    const uint64_t file_digest = trailer.ReadFixed64();
    std::unique_ptr<LocalStore> opened;
    ASSERT_NO_THROW(opened = LocalStore::Open({path})) << "flush " << checked;
    EXPECT_EQ(opened->Checksum(), file_digest);
    EXPECT_EQ(opened->committed_version(), flushed.version());
    EXPECT_EQ(opened->Snapshot().ScanPrefix(""), flushed.ScanPrefix(""));
  }
  stop = true;
  writer.join();
  EXPECT_GT(versions.size(), 1u) << "no commit landed between flushes";
  std::filesystem::remove(path);
}

TEST(KeyspaceTest, PrefixesKeys) {
  Keyspace space("e/test/");
  EXPECT_EQ(space.Key("flag"), "e/test/flag");
  EXPECT_EQ(space.prefix(), "e/test/");
}

}  // namespace
}  // namespace delos

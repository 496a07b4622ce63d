// LogBackupEngine + Point-in-Time restore tests: segment bidding through the
// log, upload, trim gating, and restore (full and point-in-time, with and
// without snapshots).
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "src/backup/restore.h"
#include "src/core/base_engine.h"
#include "src/engines/log_backup_engine.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

class KvApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    if (!entry.payload.empty()) {
      txn.Put("kv/" + entry.payload, std::to_string(pos));
    }
    return std::any(Unit{});
  }
};

LogEntry PayloadEntry(std::string payload) {
  LogEntry entry;
  entry.payload = std::move(payload);
  return entry;
}

struct LbServer {
  LbServer(const std::string& id, std::shared_ptr<ISharedLog> log, BackupStore* backup,
           uint64_t segment_size) {
    BaseEngineOptions base_options;
    base_options.server_id = id;
    base = std::make_unique<BaseEngine>(log, &store, base_options);
    LogBackupEngine::Options options;
    options.server_id = id;
    options.backup_store = backup;
    options.log = base->shared_log();
    options.segment_size = segment_size;
    lb = std::make_unique<LogBackupEngine>(options, base.get(), &store);
    lb->RegisterUpcall(&app);
    base->Start();
  }
  ~LbServer() {
    base->Stop();
    lb.reset();
  }

  LocalStore store;
  KvApplicator app;
  std::unique_ptr<BaseEngine> base;
  std::unique_ptr<LogBackupEngine> lb;
};

void WaitForBackedPrefix(LogBackupEngine* engine, LogPos target, int64_t timeout_ms = 5000) {
  const int64_t deadline = RealClock::Instance()->NowMicros() + timeout_ms * 1000;
  while (engine->BackedUpPrefix() < target &&
         RealClock::Instance()->NowMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(LogBackupTest, SegmentsUploadedAndPrefixAdvances) {
  auto log = std::make_shared<InMemoryLog>();
  InMemoryBackupStore backup;
  LbServer server("a", log, &backup, /*segment_size=*/4);
  for (int i = 0; i < 13; ++i) {
    server.lb->Propose(PayloadEntry("k" + std::to_string(i))).Get();
  }
  WaitForBackedPrefix(server.lb.get(), 8);
  EXPECT_GE(server.lb->BackedUpPrefix(), 8u);
  const auto objects = backup.ListObjects(LogBackupEngine::kSegmentPrefix);
  EXPECT_GE(objects.size(), 2u);
}

TEST(LogBackupTest, BidsAreExclusivePerSegment) {
  auto log = std::make_shared<InMemoryLog>();
  InMemoryBackupStore backup;
  LbServer a("a", log, &backup, 4);
  LbServer b("b", log, &backup, 4);
  for (int i = 0; i < 20; ++i) {
    (i % 2 == 0 ? a : b).lb->Propose(PayloadEntry("k" + std::to_string(i))).Get();
  }
  a.base->Sync().Get();
  b.base->Sync().Get();
  WaitForBackedPrefix(a.lb.get(), 16);
  // Both servers agree on the backed-up prefix (replicated bid state) —
  // compared once both have applied the same log prefix. Background uploads
  // keep appending COMPLETE entries, so quiesce first.
  const int64_t deadline = RealClock::Instance()->NowMicros() + 5'000'000;
  while (RealClock::Instance()->NowMicros() < deadline) {
    a.base->Sync().Get();
    b.base->Sync().Get();
    if (a.base->applied_position() == b.base->applied_position() &&
        a.lb->BackedUpPrefix() == b.lb->BackedUpPrefix()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(a.lb->BackedUpPrefix(), b.lb->BackedUpPrefix());
  EXPECT_GE(a.lb->BackedUpPrefix(), 16u);
}

TEST(LogBackupTest, TrimWaitsForBackup) {
  auto log = std::make_shared<InMemoryLog>();
  InMemoryBackupStore backup;
  LbServer server("a", log, &backup, /*segment_size=*/4);
  for (int i = 0; i < 10; ++i) {
    server.lb->Propose(PayloadEntry("k" + std::to_string(i))).Get();
  }
  server.base->FlushNow();
  // The app allows trimming everything...
  server.lb->SetTrimPrefix(10);
  WaitForBackedPrefix(server.lb.get(), 8);
  server.base->TrimNow();
  // ...but only the backed-up prefix may actually be trimmed.
  EXPECT_LE(log->trim_prefix(), server.lb->BackedUpPrefix());
  EXPECT_GT(log->trim_prefix(), 0u);
}

// The trim constraint holds before the first segment is backed up: with
// segment 0 still open, nothing may be trimmed even though the app allows it.
TEST(LogBackupTest, NothingTrimmedBeforeTheFirstSegmentCompletes) {
  auto log = std::make_shared<InMemoryLog>();
  InMemoryBackupStore backup;
  LbServer server("a", log, &backup, /*segment_size=*/1000);
  for (int i = 0; i < 10; ++i) {
    server.lb->Propose(PayloadEntry("k" + std::to_string(i))).Get();
  }
  server.base->FlushNow();
  server.lb->SetTrimPrefix(10);
  server.base->TrimNow();
  EXPECT_EQ(server.lb->BackedUpPrefix(), 0u);
  EXPECT_EQ(log->trim_prefix(), 0u);
}

// A restarted server takes its backed-up prefix from the recovered store, so
// the constraint holds before any new segment completes.
TEST(LogBackupTest, RestartKeepsTheBackedPrefixAsTrimConstraint) {
  const std::string ckpt = testing::TempDir() + "/lb_restart.ckpt";
  std::filesystem::remove(ckpt);
  auto log = std::make_shared<InMemoryLog>();
  InMemoryBackupStore backup;
  LogBackupEngine::Options options;
  options.server_id = "a";
  options.backup_store = &backup;
  options.log = log.get();
  options.segment_size = 4;
  {
    auto store = LocalStore::Open({ckpt});
    KvApplicator app;
    BaseEngine base(log, store.get(), BaseEngineOptions{});
    LogBackupEngine lb(options, &base, store.get());
    lb.RegisterUpcall(&app);
    base.Start();
    for (int i = 0; i < 10; ++i) {
      lb.Propose(PayloadEntry("k" + std::to_string(i))).Get();
    }
    WaitForBackedPrefix(&lb, 8);
    base.Sync().Get();
    base.FlushNow();
    base.Stop();
  }
  // The recovered server is never started, so no segment completes after
  // the restart: the prefix it reports comes from the checkpoint alone.
  auto store = LocalStore::Open({ckpt});
  KvApplicator app;
  BaseEngine base(log, store.get(), BaseEngineOptions{});
  LogBackupEngine lb(options, &base, store.get());
  lb.RegisterUpcall(&app);
  EXPECT_GE(lb.BackedUpPrefix(), 8u);
  lb.SetTrimPrefix(log->CheckTail().Get() - 1);
  base.FlushNow();
  base.TrimNow();
  EXPECT_GT(log->trim_prefix(), 0u);
  EXPECT_LE(log->trim_prefix(), lb.BackedUpPrefix());
  std::filesystem::remove(ckpt);
}

// Replays positions [1, upto] of `source` through a fresh Base+KvApplicator
// and returns the resulting store checksum — the ground truth a restore of
// that prefix must match.
uint64_t ReferenceChecksum(ISharedLog* source, LogPos upto) {
  auto replay_log = std::make_shared<InMemoryLog>();
  for (const LogRecord& record : source->ReadRange(1, upto)) {
    replay_log->Append(record.payload).Get();
  }
  LocalStore store;
  KvApplicator app;
  BaseEngine base(replay_log, &store, BaseEngineOptions{});
  base.RegisterUpcall(&app);
  base.Start();
  base.Sync().Get();
  const uint64_t checksum = store.Checksum();
  base.Stop();
  return checksum;
}

TEST(LogBackupTest, RestoreRebuildsStateAtBackedPrefix) {
  auto log = std::make_shared<InMemoryLog>();
  InMemoryBackupStore backup;
  {
    LbServer server("a", log, &backup, /*segment_size=*/4);
    for (int i = 0; i < 12; ++i) {
      server.lb->Propose(PayloadEntry("k" + std::to_string(i))).Get();
    }
    WaitForBackedPrefix(server.lb.get(), 12);
  }

  RestoreOptions options;
  auto result = RestoreFromBackup(backup, options, [](ClusterServer& server) {
    static KvApplicator app;
    server.base()->RegisterUpcall(&app);
  });
  EXPECT_GE(result.restored_to, 12u);
  // The restored store must equal a direct replay of the same log prefix
  // (modulo engine-private keys, which the reference stack also lacks).
  EXPECT_EQ(result.server->store()->Checksum(),
            ReferenceChecksum(log.get(), result.restored_to));
  result.server->Stop();
}

TEST(LogBackupTest, PointInTimeRestoreStopsAtTarget) {
  auto log = std::make_shared<InMemoryLog>();
  InMemoryBackupStore backup;
  {
    LbServer server("a", log, &backup, /*segment_size=*/4);
    for (int i = 0; i < 12; ++i) {
      server.lb->Propose(PayloadEntry("k" + std::to_string(i))).Get();
    }
    WaitForBackedPrefix(server.lb.get(), 12);
  }
  RestoreOptions options;
  options.target_pos = 5;
  auto result = RestoreFromBackup(backup, options, [](ClusterServer& server) {
    static KvApplicator app;
    server.base()->RegisterUpcall(&app);
  });
  EXPECT_EQ(result.restored_to, 5u);
  ROTxn snap = result.server->store()->Snapshot();
  // Entries at positions 1..5 applied, later ones absent.
  EXPECT_TRUE(snap.Get("kv/k0").has_value());
  EXPECT_FALSE(snap.Get("kv/k11").has_value());
  result.server->Stop();
}

TEST(SnapshotBackupTest, SnapshotPlusSuffixReplayMatchesFullReplay) {
  const std::string ckpt = testing::TempDir() + "/snapbackup.ckpt";
  std::filesystem::remove(ckpt);
  auto log = std::make_shared<InMemoryLog>();
  InMemoryBackupStore backup;
  LogPos snapshot_pos = 0;
  LogPos last_data_pos = 0;
  {
    auto store = LocalStore::Open({ckpt});
    KvApplicator app;
    BaseEngine base(log, store.get(), BaseEngineOptions{});
    LogBackupEngine::Options lb_options;
    lb_options.server_id = "a";
    lb_options.backup_store = &backup;
    lb_options.log = base.shared_log();
    lb_options.segment_size = 4;
    LogBackupEngine lb(lb_options, &base, store.get());
    lb.RegisterUpcall(&app);
    base.Start();
    LogEntry entry;
    for (int i = 0; i < 6; ++i) {
      entry.payload = "k" + std::to_string(i);
      lb.Propose(entry).Get();
    }
    SnapshotBackupManager manager(&backup, ckpt, &lb);
    snapshot_pos = manager.BackupNow(&base);
    for (int i = 6; i < 12; ++i) {
      entry.payload = "k" + std::to_string(i);
      lb.Propose(entry).Get();
    }
    last_data_pos = base.applied_position();
    // Filler traffic until the segment containing the last data entry is
    // backed up.
    entry.payload = "";
    while (lb.BackedUpPrefix() < last_data_pos) {
      lb.Propose(entry).Get();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    base.Stop();
  }
  EXPECT_GE(snapshot_pos, 6u);

  const auto kv_builder = [](ClusterServer& server) {
    static KvApplicator app;
    server.base()->RegisterUpcall(&app);
  };
  // Restore the same target twice: once by replaying the whole log backup,
  // once from the snapshot plus the suffix. The application state must
  // agree.
  auto full = RestoreFromBackup(backup, RestoreOptions{}, kv_builder);
  RestoreOptions snap_options;
  snap_options.use_snapshot = true;
  snap_options.scratch_checkpoint_path = testing::TempDir() + "/snaprestore.ckpt";
  auto snapped = RestoreFromBackup(backup, snap_options, kv_builder);

  EXPECT_EQ(full.restored_to, snapped.restored_to);
  const auto full_kv = full.server->store()->Snapshot().ScanPrefix("kv/");
  const auto snap_kv = snapped.server->store()->Snapshot().ScanPrefix("kv/");
  EXPECT_EQ(full_kv, snap_kv);
  EXPECT_EQ(full_kv.size(), 12u);
  full.server->Stop();
  snapped.server->Stop();
  std::filesystem::remove(ckpt);
}

}  // namespace
}  // namespace delos

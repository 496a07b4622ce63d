// Microbenchmarks (google-benchmark) for the substrates: LocalStore
// transactions, scans and checkpoints, serde, entry encoding, checksum, and
// shared-log appends. These establish the per-op floor the figure benches
// sit on.
#include <benchmark/benchmark.h>

#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/common/checksum.h"
#include "src/common/serde.h"
#include "src/core/entry.h"
#include "src/localstore/localstore.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

void BM_LocalStorePutCommit(benchmark::State& state) {
  LocalStore store;
  const std::string value(100, 'v');
  int64_t i = 0;
  for (auto _ : state) {
    RWTxn txn = store.BeginRW();
    txn.Put("key" + std::to_string(i++ % 4096), value);
    txn.Commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalStorePutCommit);

void BM_LocalStoreBatchedCommit(benchmark::State& state) {
  // Group commit at the store level: N puts per transaction.
  LocalStore store;
  const std::string value(100, 'v');
  const int64_t batch = state.range(0);
  int64_t i = 0;
  for (auto _ : state) {
    RWTxn txn = store.BeginRW();
    for (int64_t j = 0; j < batch; ++j) {
      txn.Put("key" + std::to_string(i++ % 4096), value);
    }
    txn.Commit();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LocalStoreBatchedCommit)->Arg(8)->Arg(64);

void BM_LocalStoreSnapshotGet(benchmark::State& state) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    for (int i = 0; i < 4096; ++i) {
      txn.Put("key" + std::to_string(i), "value");
    }
    txn.Commit();
  }
  int64_t i = 0;
  for (auto _ : state) {
    ROTxn snap = store.Snapshot();
    benchmark::DoNotOptimize(snap.Get("key" + std::to_string(i++ % 4096)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalStoreSnapshotGet);

void BM_LocalStoreScan100(benchmark::State& state) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    for (int i = 0; i < 4096; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%06d", i);
      txn.Put(key, "value");
    }
    txn.Commit();
  }
  for (auto _ : state) {
    ROTxn snap = store.Snapshot();
    benchmark::DoNotOptimize(snap.ScanPrefix("key00", 100));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_LocalStoreScan100);

// A checkpointed store the shape of perfbench's table_indexed: 10K rows of
// 120-byte values plus one secondary-index key (empty value) per row, about
// 1.7 MB on disk. Removes its directory on destruction.
class TableShapedCheckpoint {
 public:
  static constexpr int kRows = 10'000;

  TableShapedCheckpoint()
      : dir_(std::filesystem::temp_directory_path() /
             ("delos_micro_ckpt_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(dir_);
    store_ = LocalStore::Open(options());
    RWTxn txn = store_->BeginRW();
    const std::string row(120, 'r');
    for (int pk = 0; pk < kRows; ++pk) {
      txn.Put(RowKey(pk), row);
      txn.Put(IndexKey(pk), "");
    }
    txn.Commit();
    store_->Flush();
  }
  ~TableShapedCheckpoint() {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  static std::string RowKey(int pk) {
    char key[48];
    std::snprintf(key, sizeof(key), "t/rows/r/%08d", pk);
    return key;
  }
  static std::string IndexKey(int pk) {
    char key[48];
    std::snprintf(key, sizeof(key), "t/rows/i/v/%08d/%08d", pk % 97, pk);
    return key;
  }

  LocalStore::Options options() const { return {(dir_ / "store.ckpt").string()}; }
  LocalStore& store() { return *store_; }

 private:
  std::filesystem::path dir_;
  std::unique_ptr<LocalStore> store_;
};

// The process's resident set size in bytes, from /proc/self/status.
int64_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoll(line.substr(6)) * 1024;
    }
  }
  return 0;
}

// Restart cost: read, verify and install the whole checkpoint. The
// bytes_per_key counter is the resident growth of one opened store (nodes,
// values and the kept checkpoint image) per key. A first store fills the
// holes the fixture's freed write batch left in the heap, and malloc_trim
// hands back the pages it freed whole, so the measured open faults in
// memory of its own.
void BM_LocalStoreCheckpointOpen(benchmark::State& state) {
  TableShapedCheckpoint checkpoint;
  {
    std::unique_ptr<LocalStore> warm = LocalStore::Open(checkpoint.options());
    malloc_trim(0);
    const int64_t rss_before = ResidentBytes();
    std::unique_ptr<LocalStore> measured = LocalStore::Open(checkpoint.options());
    state.counters["bytes_per_key"] = static_cast<double>(ResidentBytes() - rss_before) /
                                      static_cast<double>(measured->KeyCount());
  }
  for (auto _ : state) {
    std::unique_ptr<LocalStore> store = LocalStore::Open(checkpoint.options());
    benchmark::DoNotOptimize(store->Checksum());
    state.PauseTiming();
    store.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * TableShapedCheckpoint::kRows);
}
BENCHMARK(BM_LocalStoreCheckpointOpen)->Unit(benchmark::kMillisecond);

// Periodic flush after one committed write (an idle store skips the rewrite).
void BM_LocalStoreCheckpointFlush(benchmark::State& state) {
  TableShapedCheckpoint checkpoint;
  LocalStore& store = checkpoint.store();
  int64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    RWTxn txn = store.BeginRW();
    txn.Put("t/rows/r/00000000", std::to_string(i++));
    txn.Commit();
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.Flush());
  }
  state.SetItemsProcessed(state.iterations() * 2 * TableShapedCheckpoint::kRows);
}
BENCHMARK(BM_LocalStoreCheckpointFlush)->Unit(benchmark::kMillisecond);

// Group commits that overwrite keys of the table shape, 64 puts each: 32
// rows and their index entries, as a table_indexed upsert batch or a Zelos
// replay writes existing keys.
void BM_LocalStoreCommitOverwrite(benchmark::State& state) {
  TableShapedCheckpoint checkpoint;
  LocalStore& store = checkpoint.store();
  std::vector<std::string> row_keys;
  std::vector<std::string> index_keys;
  for (int pk = 0; pk < TableShapedCheckpoint::kRows; ++pk) {
    row_keys.push_back(TableShapedCheckpoint::RowKey(pk));
    index_keys.push_back(TableShapedCheckpoint::IndexKey(pk));
  }
  const std::string row(120, 'u');
  size_t next = 0;
  for (auto _ : state) {
    RWTxn txn = store.BeginRW();
    for (int j = 0; j < 32; ++j) {
      const size_t pk = (next++ * 7919) % row_keys.size();
      txn.Put(row_keys[pk], row);
      txn.Put(index_keys[pk], "");
    }
    txn.Commit();
  }
  benchmark::DoNotOptimize(store.Checksum());
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_LocalStoreCommitOverwrite);

void BM_SavepointRollback(benchmark::State& state) {
  LocalStore store;
  for (auto _ : state) {
    RWTxn txn = store.BeginRW();
    txn.Put("a", "1");
    const Savepoint sp = txn.MakeSavepoint();
    for (int i = 0; i < 8; ++i) {
      txn.Put("k" + std::to_string(i), "v");
    }
    txn.RollbackTo(sp);
    txn.Commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SavepointRollback);

void BM_EntrySerializeRoundTrip(benchmark::State& state) {
  LogEntry entry;
  entry.payload = std::string(100, 'p');
  entry.SetHeader("base", EngineHeader{0, "server0#abcdef:42"});
  entry.SetHeader("viewtracking", EngineHeader{0, "server0:12345"});
  entry.SetHeader("sessionorder", EngineHeader{0, "server0#xyz:7"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogEntry::Deserialize(entry.Serialize()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntrySerializeRoundTrip);

void BM_EntryDeserializeOwning(benchmark::State& state) {
  // The old decode path: materialize an owning LogEntry (copies every header
  // name, header blob, and the payload).
  LogEntry entry;
  entry.payload = std::string(static_cast<size_t>(state.range(0)), 'p');
  entry.SetHeader("base", EngineHeader{0, "server0#abcdef:42"});
  entry.SetHeader("viewtracking", EngineHeader{0, "server0:12345"});
  entry.SetHeader("sessionorder", EngineHeader{0, "server0#xyz:7"});
  const std::string bytes = entry.Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogEntry::Deserialize(bytes));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_EntryDeserializeOwning)->Arg(100)->Arg(4096);

void BM_EntryParseView(benchmark::State& state) {
  // The apply pipeline's zero-copy peek: borrow header and payload views
  // from the log record without copying any blob.
  LogEntry entry;
  entry.payload = std::string(static_cast<size_t>(state.range(0)), 'p');
  entry.SetHeader("base", EngineHeader{0, "server0#abcdef:42"});
  entry.SetHeader("viewtracking", EngineHeader{0, "server0:12345"});
  entry.SetHeader("sessionorder", EngineHeader{0, "server0#xyz:7"});
  const std::string bytes = entry.Serialize();
  for (auto _ : state) {
    LogEntryView view = LogEntryView::Parse(bytes);
    benchmark::DoNotOptimize(view.GetHeader("base"));
    benchmark::DoNotOptimize(view.payload);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_EntryParseView)->Arg(100)->Arg(4096);

void BM_VarintRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    Serializer ser;
    for (uint64_t v = 1; v < (1ULL << 40); v <<= 4) {
      ser.WriteVarint(v);
    }
    Deserializer de(ser.buffer());
    while (!de.AtEnd()) {
      benchmark::DoNotOptimize(de.ReadVarint());
    }
  }
}
BENCHMARK(BM_VarintRoundTrip);

void BM_IncrementalChecksumUpdate(benchmark::State& state) {
  IncrementalChecksum checksum;
  const std::string value(100, 'c');
  int64_t i = 0;
  for (auto _ : state) {
    checksum.Add("key" + std::to_string(i++ % 1024), value);
  }
  benchmark::DoNotOptimize(checksum.digest());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalChecksumUpdate);

void BM_InMemoryLogAppend(benchmark::State& state) {
  InMemoryLog log;
  const std::string payload(100, 'l');
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(payload).Get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InMemoryLogAppend);

}  // namespace
}  // namespace delos

BENCHMARK_MAIN();

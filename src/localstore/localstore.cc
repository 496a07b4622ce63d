#include "src/localstore/localstore.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <tuple>

#include "src/common/logging.h"
#include "src/common/serde.h"

namespace delos {

namespace {

// Smallest string strictly greater than every string with the given prefix,
// or empty (= unbounded) if no such string exists.
std::string PrefixUpperBound(std::string_view prefix) {
  std::string upper(prefix);
  while (!upper.empty()) {
    auto& back = reinterpret_cast<unsigned char&>(upper.back());
    if (back != 0xff) {
      ++back;
      return upper;
    }
    upper.pop_back();
  }
  return upper;
}

constexpr std::string_view kCheckpointMagic = "DLSC1";

std::optional<std::string> Copy(const std::string* value) {
  return value != nullptr ? std::make_optional(*value) : std::nullopt;
}

}  // namespace

namespace internal {

SnapshotHandle::SnapshotHandle(LocalStore* store, uint64_t version)
    : store_(store), version_(version) {
  store_->RegisterSnapshot(version_);
}

SnapshotHandle::~SnapshotHandle() { store_->UnregisterSnapshot(version_); }

}  // namespace internal

// --- ROTxn ---

std::optional<std::string> ROTxn::Get(std::string_view key) const {
  LocalStore* store = handle_->store();
  std::shared_lock<std::shared_mutex> lock(store->data_mu_);
  auto it = store->data_.find(key);
  if (it == store->data_.end()) {
    return std::nullopt;
  }
  return Copy(it->second.ValueAt(version()));
}

void ROTxn::Scan(std::string_view start, std::string_view end,
                 const std::function<bool(std::string_view, std::string_view)>& fn) const {
  LocalStore* store = handle_->store();
  std::shared_lock<std::shared_mutex> lock(store->data_mu_);
  for (auto it = store->data_.lower_bound(start); it != store->data_.end(); ++it) {
    const std::string_view key = it->first.view();
    if (!end.empty() && key >= end) {
      break;
    }
    // The shared lock is held while fn runs, so it can read the stored value
    // in place.
    if (const std::string* value = it->second.ValueAt(version())) {
      if (!fn(key, *value)) {
        break;
      }
    }
  }
}

std::vector<std::pair<std::string, std::string>> ROTxn::ScanPrefix(std::string_view prefix,
                                                                   size_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  Scan(prefix, PrefixUpperBound(prefix), [&](std::string_view key, std::string_view value) {
    out.emplace_back(std::string(key), std::string(value));
    return out.size() < limit;
  });
  return out;
}

// --- RWTxn ---

RWTxn::RWTxn(RWTxn&& other) noexcept { *this = std::move(other); }

RWTxn& RWTxn::operator=(RWTxn&& other) noexcept {
  if (this != &other) {
    Release();
    store_ = other.store_;
    base_version_ = other.base_version_;
    ops_ = std::move(other.ops_);
    write_index_ = std::move(other.write_index_);
    prev_index_ = std::move(other.prev_index_);
    other.store_ = nullptr;
  }
  return *this;
}

RWTxn::~RWTxn() { Release(); }

void RWTxn::Release() {
  if (store_ != nullptr) {
    store_->ReleaseWriter();
    store_ = nullptr;
  }
}

void RWTxn::Put(std::string_view key, std::string_view value) { Stage(key, std::string(value)); }

void RWTxn::Delete(std::string_view key) { Stage(key, std::nullopt); }

void RWTxn::Stage(std::string_view key, std::optional<std::string> value) {
  const size_t index = ops_.size();
  auto it = write_index_.lower_bound(key);
  if (it != write_index_.end() && it->first == key) {
    prev_index_.push_back(it->second);
    it->second = index;
  } else {
    it = write_index_.emplace_hint(it, key, index);
    prev_index_.push_back(std::nullopt);
  }
  ops_.push_back(Op{it, std::move(value)});
}

std::optional<std::string> RWTxn::Get(std::string_view key) const {
  auto it = write_index_.find(key);
  if (it != write_index_.end()) {
    return ops_[it->second].value;
  }
  std::shared_lock<std::shared_mutex> lock(store_->data_mu_);
  auto chain_it = store_->data_.find(key);
  if (chain_it == store_->data_.end()) {
    return std::nullopt;
  }
  return Copy(chain_it->second.ValueAt(base_version_));
}

void RWTxn::Scan(std::string_view start, std::string_view end,
                 const std::function<bool(std::string_view, std::string_view)>& fn) const {
  // Merge the committed range with this transaction's overlay. Both sides
  // are already sorted (data_ and write_index_ are ordered maps), so the
  // union streams out of a two-iterator merge: no temporary map, and only
  // the overlay keys inside the range are visited (a group-commit batch can
  // stage hundreds of keys; a narrow scan must not walk them all). The
  // committed pairs are harvested under the lock first so the callback runs
  // without it, like the overlay side (ops_ needs no lock).
  std::vector<std::pair<std::string, std::string>> committed;
  {
    std::shared_lock<std::shared_mutex> lock(store_->data_mu_);
    for (auto it = store_->data_.lower_bound(start); it != store_->data_.end(); ++it) {
      const std::string_view key = it->first.view();
      if (!end.empty() && key >= end) {
        break;
      }
      if (const std::string* value = it->second.ValueAt(base_version_)) {
        committed.emplace_back(key, *value);
      }
    }
  }
  auto cit = committed.begin();
  auto oit = write_index_.lower_bound(start);
  const auto overlay_done = [&] {
    return oit == write_index_.end() || (!end.empty() && oit->first >= end);
  };
  while (cit != committed.end() || !overlay_done()) {
    // Pick the smaller key; the overlay shadows committed on a tie (a
    // staged delete hides the committed pair entirely).
    const bool use_overlay =
        !overlay_done() && (cit == committed.end() || oit->first <= cit->first);
    if (use_overlay) {
      if (cit != committed.end() && cit->first == oit->first) {
        ++cit;  // shadowed
      }
      const std::optional<std::string>& staged = ops_[oit->second].value;
      const std::string& key = oit->first;
      ++oit;
      if (staged.has_value() && !fn(key, *staged)) {
        return;
      }
    } else {
      if (!fn(cit->first, cit->second)) {
        return;
      }
      ++cit;
    }
  }
}

std::vector<std::pair<std::string, std::string>> RWTxn::ScanPrefix(std::string_view prefix,
                                                                   size_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  Scan(prefix, PrefixUpperBound(prefix), [&](std::string_view key, std::string_view value) {
    out.emplace_back(std::string(key), std::string(value));
    return out.size() < limit;
  });
  return out;
}

void RWTxn::RollbackTo(const Savepoint& savepoint) {
  if (savepoint.op_count > ops_.size()) {
    throw StoreError("rollback to a savepoint from a different transaction");
  }
  // Undo the write index incrementally, newest op first, restoring whatever
  // entry each op displaced. Cost is proportional to the ops rolled back, so
  // a savepoint at a batch boundary (nothing after it) is free and an
  // aborted entry late in a large group-commit batch never pays for the
  // entries before it.
  for (size_t i = ops_.size(); i-- > savepoint.op_count;) {
    if (prev_index_[i].has_value()) {
      ops_[i].entry->second = *prev_index_[i];
    } else {
      write_index_.erase(ops_[i].entry);
    }
  }
  ops_.resize(savepoint.op_count);
  prev_index_.resize(savepoint.op_count);
}

void RWTxn::Commit() {
  if (store_ == nullptr) {
    throw StoreError("commit on an invalid transaction");
  }
  LocalStore* store = store_;
  try {
    store->CommitBatch(ops_, write_index_);
  } catch (...) {
    // A failed commit still ends the transaction (and frees the writer
    // slot); the batch is lost.
    Release();
    throw;
  }
  Release();
}

void RWTxn::Abort() { Release(); }

// --- LocalStore ---

LocalStore::LocalStore() : LocalStore(Options{}) {}

LocalStore::LocalStore(Options options) : options_(std::move(options)) {}

LocalStore::~LocalStore() = default;

std::unique_ptr<LocalStore> LocalStore::Open(Options options) {
  auto store = std::make_unique<LocalStore>(std::move(options));
  if (!store->options_.checkpoint_path.empty() &&
      std::filesystem::exists(store->options_.checkpoint_path)) {
    try {
      store->LoadCheckpoint();
    } catch (const StoreError&) {
      if (!store->options_.tolerate_torn_checkpoint) {
        throw;
      }
      // Torn/corrupt checkpoint: discard everything (including any pairs a
      // partial load already installed) and start cold; the engine replays
      // the log from position 1 to rebuild the state.
      {
        std::unique_lock<std::shared_mutex> lock(store->data_mu_);
        store->data_.clear();
        store->checksum_.Reset();
        store->live_keys_ = 0;
      }
      store->committed_version_.store(0, std::memory_order_release);
      store->flushed_version_.store(0, std::memory_order_release);
      std::error_code ec;
      std::filesystem::remove(store->options_.checkpoint_path, ec);
    }
  }
  return store;
}

RWTxn LocalStore::BeginRW() {
  bool expected = false;
  if (!writer_active_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
    LOG_FATAL << "second concurrent writer on LocalStore (apply-thread contract violated)";
  }
  return RWTxn(this, committed_version());
}

ROTxn LocalStore::Snapshot() {
  // Read the version and register it as one step against commits:
  // CommitBatch picks the oldest registered snapshot and compacts under the
  // exclusive lock, so it can never drop the version this snapshot reads.
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  return ROTxn(std::make_shared<internal::SnapshotHandle>(this, committed_version()));
}

void LocalStore::CommitBatch(std::vector<RWTxn::Op>& ops, const RWTxn::WriteIndex& last_op) {
  if (fault_injected_.exchange(false, std::memory_order_acq_rel)) {
    throw StoreError("injected commit fault (out of space)");
  }
  std::unique_lock<std::shared_mutex> lock(data_mu_);
  const uint64_t new_version = committed_version_.load(std::memory_order_relaxed) + 1;
  uint64_t min_active;
  {
    std::lock_guard<std::mutex> snap_lock(snapshots_mu_);
    min_active = MinActiveSnapshotLocked();
  }
  // Only each key's last staged op is applied. Every op of the transaction
  // writes new_version, so applying them one by one would overwrite a key's
  // earlier ops in place: their checksum terms cancel, and compaction and
  // the tombstone drop see only the final chain. Keys arrive in order, so
  // each one is looked up once, from the previous key's position.
  auto hint = data_.begin();
  for (const auto& [key, index] : last_op) {
    std::optional<std::string>& value = ops[index].value;
    auto it = NodeFor(hint, key);
    Chain& chain = it->second;
    if (const std::string* old_value = chain.Newest()) {
      checksum_.Remove(key, *old_value);
      --live_keys_;
    }
    if (value.has_value()) {
      checksum_.Add(key, *value);
      ++live_keys_;
    }
    chain.Commit(new_version, std::move(value), min_active);
    hint = chain.empty() ? data_.erase(it) : std::next(it);
  }
  committed_version_.store(new_version, std::memory_order_release);
}

LocalStore::Map::iterator LocalStore::NodeFor(Map::iterator hint, std::string_view key) {
  const bool fits = (hint == data_.end() || key <= hint->first.view()) &&
                    (hint == data_.begin() || std::prev(hint)->first.view() < key);
  if (!fits) {
    hint = data_.lower_bound(key);
  }
  if (hint != data_.end() && hint->first.view() == key) {
    return hint;
  }
  return data_.emplace_hint(hint, std::piecewise_construct, std::forward_as_tuple(key),
                            std::forward_as_tuple());
}

LocalStore::Key::Key(std::string_view bytes) : size_(bytes.size()) {
  char* out = inline_;
  if (size_ > kInlineBytes) {
    heap_ = new char[size_];
    out = heap_;
  }
  bytes.copy(out, size_);
}

LocalStore::Key::~Key() {
  if (size_ > kInlineBytes) {
    delete[] heap_;
  }
}

const std::string* LocalStore::Chain::ValueAt(uint64_t version) const {
  if (newest_.version <= version) {
    return Newest();
  }
  // Spilled versions are few (compacted on every commit to the key); a
  // reverse linear scan is fastest.
  for (auto it = older_.rbegin(); it != older_.rend(); ++it) {
    if (it->version <= version) {
      return it->value ? &*it->value : nullptr;
    }
  }
  return nullptr;
}

void LocalStore::Chain::Commit(uint64_t version, std::optional<std::string> value,
                               uint64_t min_active) {
  // The displaced version spills only if a snapshot older than `version`
  // is pinned, which may read it.
  if (min_active < version && !empty()) {
    older_.push_back(std::move(newest_));
  }
  newest_ = VersionedValue{version, std::move(value)};
  // Keep the newest version <= min_active (some snapshot may read it) and
  // everything after; drop older ones. Once nothing is spilled, free the
  // spill buffer.
  if (newest_.version <= min_active) {
    older_ = std::vector<VersionedValue>();
    return;
  }
  size_t keep_from = 0;
  while (keep_from + 1 < older_.size() && older_[keep_from + 1].version <= min_active) {
    ++keep_from;
  }
  older_.erase(older_.begin(), older_.begin() + static_cast<ptrdiff_t>(keep_from));
}

void LocalStore::RegisterSnapshot(uint64_t version) {
  std::lock_guard<std::mutex> lock(snapshots_mu_);
  active_snapshots_.insert(version);
}

void LocalStore::UnregisterSnapshot(uint64_t version) {
  std::lock_guard<std::mutex> lock(snapshots_mu_);
  auto it = active_snapshots_.find(version);
  if (it != active_snapshots_.end()) {
    active_snapshots_.erase(it);
  }
}

uint64_t LocalStore::MinActiveSnapshotLocked() const {
  if (active_snapshots_.empty()) {
    return UINT64_MAX;
  }
  return *active_snapshots_.begin();
}

uint64_t LocalStore::Checksum() const {
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  return checksum_.digest();
}

size_t LocalStore::KeyCount() const {
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  return live_keys_;
}

ROTxn LocalStore::Flush() {
  if (options_.checkpoint_path.empty()) {
    ROTxn snapshot = Snapshot();
    flushed_version_.store(snapshot.version(), std::memory_order_release);
    return snapshot;
  }
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  // An armed tear always writes, idle or not, so a fault schedule that arms
  // one tears the same flush it would have torn before the idle skip.
  const int64_t torn = torn_flush_bytes_.exchange(-1, std::memory_order_acq_rel);
  if (torn < 0) {
    std::shared_lock<std::shared_mutex> lock(data_mu_);
    if (committed_version() == checkpoint_version_) {
      return ROTxn(std::make_shared<internal::SnapshotHandle>(this, checkpoint_version_));
    }
  }
  // Reserve for some growth before taking the data lock, so the walk under
  // it appends into memory that is already there.
  const size_t last_size = flush_buffer_.size();
  Serializer ser(std::move(flush_buffer_));
  ser.Reserve(last_size + last_size / 4);
  ROTxn snapshot;
  uint64_t digest;
  {
    // One shared lock pins the snapshot, the digest and the pairs to the
    // same committed version: no commit can land, so every chain's newest
    // entry is that version's value, and the store's incremental checksum
    // is the digest of exactly the pairs written.
    std::shared_lock<std::shared_mutex> lock(data_mu_);
    snapshot = ROTxn(std::make_shared<internal::SnapshotHandle>(this, committed_version()));
    ser.WriteString(kCheckpointMagic);
    ser.WriteFixed64(snapshot.version());
    ser.WriteVarint(live_keys_);
    for (const auto& [key, chain] : data_) {
      if (const std::string* value = chain.Newest()) {
        ser.WriteString(key.view());
        ser.WriteString(*value);
      }
    }
    digest = checksum_.digest();
  }
  ser.WriteFixed64(digest);
  flush_buffer_ = ser.Release();

  const std::string tmp_path = options_.checkpoint_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw StoreError("cannot open checkpoint file " + tmp_path);
    }
    size_t write_bytes = flush_buffer_.size();
    if (torn >= 0) {
      write_bytes = std::min(write_bytes, static_cast<size_t>(torn));
    }
    out.write(flush_buffer_.data(), static_cast<std::streamsize>(write_bytes));
    if (!out) {
      throw StoreError("short write to checkpoint file " + tmp_path);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, options_.checkpoint_path, ec);
  if (ec) {
    throw StoreError("checkpoint rename failed: " + ec.message());
  }
  checkpoint_version_ = torn < 0 ? snapshot.version() : kNoCheckpoint;
  flushed_version_.store(snapshot.version(), std::memory_order_release);
  return snapshot;
}

void LocalStore::LoadCheckpoint() {
  std::ifstream in(options_.checkpoint_path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0) {
    throw StoreError("cannot open checkpoint " + options_.checkpoint_path);
  }
  // One sized read; the pairs are parsed as views into this buffer.
  std::string bytes(static_cast<size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), size);
  bytes.resize(static_cast<size_t>(in.gcount()));
  try {
    LoadCheckpointBytes(bytes);
  } catch (const SerdeError& e) {
    // A truncated file (torn flush) fails mid-decode; surface it as the same
    // corruption class as a checksum mismatch.
    throw StoreError(std::string("truncated checkpoint ") + options_.checkpoint_path + ": " +
                     e.what());
  }
  // The image is the size the first flush will write: keep it as that
  // flush's buffer.
  flush_buffer_ = std::move(bytes);
}

void LocalStore::LoadCheckpointBytes(std::string_view bytes) {
  Deserializer de(bytes);
  if (de.ReadStringView() != kCheckpointMagic) {
    throw StoreError("bad checkpoint magic in " + options_.checkpoint_path);
  }
  const uint64_t version = de.ReadFixed64();
  const uint64_t count = de.ReadVarint();
  // Each pair is hashed once, into `check`; it becomes the store's checksum
  // only once it matches the digest the file ends with.
  IncrementalChecksum check;
  std::unique_lock<std::shared_mutex> lock(data_mu_);
  for (uint64_t i = 0; i < count; ++i) {
    const std::string_view key = de.ReadStringView();
    const std::string_view value = de.ReadStringView();
    check.Add(key, value);
    // Flush writes the keys in order, so the end hint makes each insert
    // O(1); a key out of order still lands in place. A repeated key keeps
    // its last pair. No snapshot is open yet, so nothing older is kept.
    NodeFor(data_.end(), key)->second.Commit(version, std::string(value), UINT64_MAX);
  }
  const uint64_t expected = de.ReadFixed64();
  if (check.digest() != expected) {
    throw StoreError("checkpoint checksum mismatch in " + options_.checkpoint_path);
  }
  checksum_ = check;
  live_keys_ = data_.size();
  checkpoint_version_ = version;
  committed_version_.store(version, std::memory_order_release);
  flushed_version_.store(version, std::memory_order_release);
}

}  // namespace delos

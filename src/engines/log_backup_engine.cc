#include "src/engines/log_backup_engine.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/common/thread_name.h"

namespace delos {

namespace {

constexpr char kEngineName[] = "logbackup";

// Zero-padded so segment keys sort numerically.
std::string SegmentKeySuffix(uint64_t segment) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "bid/%012llu", static_cast<unsigned long long>(segment));
  return buffer;
}

std::string EncodeBidState(const std::string& bidder, bool done) {
  Serializer ser;
  ser.WriteString(bidder);
  ser.WriteBool(done);
  return ser.Release();
}

std::pair<std::string, bool> DecodeBidState(std::string_view bytes) {
  Deserializer de(bytes);
  std::string bidder = de.ReadString();
  const bool done = de.ReadBool();
  return {std::move(bidder), done};
}

std::string EncodeSegmentMsg(uint64_t segment, const std::string& server) {
  Serializer ser;
  ser.WriteVarint(segment);
  ser.WriteString(server);
  return ser.Release();
}

std::pair<uint64_t, std::string> DecodeSegmentMsg(const std::string& blob) {
  Deserializer de(blob);
  const uint64_t segment = de.ReadVarint();
  std::string server = de.ReadString();
  return {segment, std::move(server)};
}

// Number of contiguous completed segments from 0 in `txn` (a ROTxn or a
// RWTxn) under the engine's keyspace.
template <typename Txn>
uint64_t CompletedSegments(const Txn& txn, const Keyspace& space) {
  uint64_t next_segment = 0;
  txn.Scan(space.Key("bid/"), space.Key("bid0"), [&](std::string_view key, std::string_view value) {
    // Key suffix is the zero-padded segment number.
    const std::string_view digits = key.substr(key.size() - 12);
    const uint64_t segment = std::stoull(std::string(digits));
    auto [bidder, done] = DecodeBidState(value);
    if (segment != next_segment || !done) {
      return false;
    }
    ++next_segment;
    return true;
  });
  return next_segment;
}

}  // namespace

LogBackupEngine::LogBackupEngine(Options options, IEngine* downstream, LocalStore* store)
    : StackableEngine(kEngineName, downstream, store,
                      StackableEngineOptions{options.start_enabled}),
      options_(std::move(options)) {
  // The trim opinion holds from the start: nothing un-backed may be trimmed,
  // including before segment 0 completes and right after a restart.
  backed_prefix_.store(CompletedSegments(store->Snapshot(), space()) * options_.segment_size,
                       std::memory_order_release);
  SetOwnTrimOpinion(backed_prefix_.load(std::memory_order_relaxed));
  upload_worker_ = std::thread([this] {
    SetCurrentThreadName("backup-upload");
    UploadWorkerMain();
  });
}

LogBackupEngine::~LogBackupEngine() {
  upload_queue_.Close();
  if (upload_worker_.joinable()) {
    upload_worker_.join();
  }
}

std::string LogBackupEngine::SegmentObjectName(uint64_t segment) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s%012llu", kSegmentPrefix,
                static_cast<unsigned long long>(segment));
  return buffer;
}

LogPos LogBackupEngine::BackedUpPrefix() const {
  return backed_prefix_.load(std::memory_order_acquire);
}

std::any LogBackupEngine::ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  return CallUpstream(txn, entry, pos);
}

std::any LogBackupEngine::ApplyControl(RWTxn& txn, const EngineHeader& header,
                                       const LogEntry& entry, LogPos pos) {
  if (header.msgtype == kMsgTypeBid) {
    auto [segment, bidder] = DecodeSegmentMsg(header.blob);
    const std::string key = space().Key(SegmentKeySuffix(segment));
    uint64_t won = kNoSegment;
    if (!txn.Get(key).has_value()) {
      // First bid in the log wins.
      txn.Put(key, EncodeBidState(bidder, /*done=*/false));
      if (bidder == options_.server_id) {
        won = segment;
      }
    }
    won_segment_carry_.Push(pos, won);
    return std::any(Unit{});
  }
  if (header.msgtype == kMsgTypeComplete) {
    auto [segment, uploader] = DecodeSegmentMsg(header.blob);
    const std::string key = space().Key(SegmentKeySuffix(segment));
    auto state = txn.Get(key);
    if (state.has_value()) {
      auto [bidder, done] = DecodeBidState(*state);
      if (!done) {
        txn.Put(key, EncodeBidState(bidder, /*done=*/true));
      }
    }
    RecomputeBackedPrefix(txn);
    return std::any(Unit{});
  }
  return std::any(Unit{});
}

void LogBackupEngine::RecomputeBackedPrefix(RWTxn& txn) {
  backed_prefix_.store(CompletedSegments(txn, space()) * options_.segment_size,
                       std::memory_order_release);
}

void LogBackupEngine::PostApplyData(const LogEntry& entry, LogPos pos) {
  MaybeBid(pos);
  ForwardPostApply(entry, pos);
}

void LogBackupEngine::PostApplyControl(const EngineHeader& header, const LogEntry& entry,
                                       LogPos pos) {
  if (header.msgtype == kMsgTypeBid) {
    const uint64_t won = won_segment_carry_.Take(pos).value_or(kNoSegment);
    if (won != kNoSegment) {
      upload_queue_.Push(won);
    }
  }
  if (header.msgtype == kMsgTypeComplete) {
    SetOwnTrimOpinion(backed_prefix_.load(std::memory_order_acquire));
  }
  MaybeBid(pos);
}

void LogBackupEngine::MaybeBid(LogPos pos) {
  // All segments fully below `pos` should have bids. Every server proposes;
  // the first bid in the log wins, so duplicates are harmless.
  const uint64_t complete_segments = pos / options_.segment_size;
  if (complete_segments <= next_bid_check_) {
    return;  // No newly completed segment; skip the snapshot on the hot path.
  }
  ROTxn snapshot = store()->Snapshot();
  for (uint64_t segment = next_bid_check_; segment < complete_segments; ++segment) {
    if (!snapshot.Get(space().Key(SegmentKeySuffix(segment))).has_value()) {
      ProposeControl(kMsgTypeBid, EncodeSegmentMsg(segment, options_.server_id));
    }
  }
  next_bid_check_ = std::max(next_bid_check_, complete_segments);
}

void LogBackupEngine::UploadWorkerMain() {
  while (true) {
    auto segment = upload_queue_.Pop();
    if (!segment.has_value()) {
      return;  // Queue closed.
    }
    const LogPos lo = *segment * options_.segment_size + 1;
    const LogPos hi = (*segment + 1) * options_.segment_size;
    std::vector<LogRecord> records;
    bool ok = false;
    for (int attempt = 0; attempt < 5 && !ok; ++attempt) {
      try {
        records = options_.log->ReadRange(lo, hi);
        ok = true;
      } catch (const std::exception& e) {
        LOG_WARNING << "logbackup: segment " << *segment << " read failed: " << e.what();
        RealClock::Instance()->SleepMicros(2000);
      }
    }
    if (!ok) {
      continue;  // Leave the bid open; a future cleanup can re-bid.
    }
    Serializer ser;
    ser.WriteVarint(records.size());
    for (const LogRecord& record : records) {
      ser.WriteVarint(record.pos);
      ser.WriteString(record.payload);
    }
    try {
      options_.backup_store->PutObject(SegmentObjectName(*segment), ser.Release());
    } catch (const std::exception& e) {
      LOG_WARNING << "logbackup: segment " << *segment << " upload failed: " << e.what();
      continue;
    }
    ProposeControl(kMsgTypeComplete, EncodeSegmentMsg(*segment, options_.server_id));
  }
}

}  // namespace delos

#include "src/engines/digest_engine.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "src/common/checksum.h"
#include "src/common/errors.h"
#include "src/common/json.h"
#include "src/common/serde.h"
#include "src/core/entry.h"

namespace delos {

namespace {

constexpr char kEngineName[] = "digest";
// The group-commit cursor is the one store key whose value is the batch
// boundary itself — identical log prefixes with different batch shapes
// legitimately disagree on it, so it never participates in the digest.
constexpr char kCursorKey[] = "e/base/cursor";

DivergenceOptions MakeTrackerOptions(const DigestEngine::Options& options) {
  DivergenceOptions tracker_options;
  tracker_options.server = options.server_id;
  return tracker_options;
}

std::string PadPos(LogPos pos) {
  // Zero-padded decimal so lexicographic key order is numeric order.
  std::string out(20, '0');
  for (size_t i = out.size(); pos != 0; pos /= 10) {
    out[--i] = static_cast<char>('0' + pos % 10);
  }
  return out;
}

std::string EncodeDigest(uint64_t digest) {
  Serializer ser;
  ser.WriteFixed64(digest);
  return ser.Release();
}

uint64_t DecodeDigest(std::string_view bytes) {
  Deserializer de(bytes);
  return de.ReadFixed64();
}

}  // namespace

DigestEngine::DigestEngine(Options options, IEngine* downstream, LocalStore* store)
    : StackableEngine(kEngineName, downstream, store,
                      StackableEngineOptions{options.start_enabled}),
      options_(std::move(options)),
      tracker_(MakeTrackerOptions(options_)) {
  // Recover the sample table: after a crash the store (checkpoint + replay)
  // already holds the deterministic table, so outgoing beacons resume with
  // exactly the samples every healthy peer expects.
  const std::string prefix = space().Key("sample/");
  for (const auto& [key, value] : store->Snapshot().ScanPrefix(prefix)) {
    try {
      soft_samples_[std::stoull(key.substr(prefix.size()))] = DecodeDigest(value);
    } catch (const std::exception&) {
      // An unparseable sample only degrades beacon coverage; never fatal.
    }
  }
}

void DigestEngine::OnProbeAttached(const Probe& probe) {
  tracker_.AttachSinks(probe.metrics, probe.recorder);
}

std::string DigestEngine::BuildBeaconBlob() {
  Serializer samples;
  const LogPos applied = last_applied_pos_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(soft_mu_);
    samples.WriteVarint(soft_samples_.size());
    for (const auto& [pos, digest] : soft_samples_) {
      samples.WriteVarint(pos);
      samples.WriteFixed64(digest);
    }
  }
  std::string sample_bytes = samples.Release();
  Serializer ser;
  ser.WriteString(options_.server_id);
  ser.WriteVarint(applied);
  ser.WriteFixed64(Fnv1a64(sample_bytes));
  ser.WriteString(sample_bytes);
  return ser.Release();
}

bool DigestEngine::ProposeBeaconNow(int64_t timeout_micros) {
  tracker_.OnBeaconAppended();
  LogEntry beacon = MakeControlEntry(name(), kMsgTypeBeacon, BuildBeaconBlob());
  MarkCommitBarrier(&beacon);
  auto applied = downstream()->Propose(std::move(beacon));
  try {
    if (timeout_micros <= 0) {
      applied.Get();
      return true;
    }
    return applied.GetFor(std::chrono::microseconds(timeout_micros)).has_value();
  } catch (const std::exception&) {
    return false;  // append failed or the local replay crashed under it
  }
}

void DigestEngine::OnPropose(LogEntry* entry) {
  if (options_.beacon_every_n_proposals == 0) {
    return;
  }
  const uint64_t count = propose_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (count % options_.beacon_every_n_proposals != 0) {
    return;
  }
  entry->SetHeader(name(), EngineHeader{kMsgTypeApp, BuildBeaconBlob()});
  MarkCommitBarrier(entry);
  tracker_.OnBeaconAppended();
}

std::any DigestEngine::ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  // The dispatch already looked our header up; most records carry none.
  const std::optional<EngineHeaderView>& header = apply_header();
  if (header.has_value() && header->msgtype == kMsgTypeApp && !header->blob.empty()) {
    ProcessBeacon(txn, header->blob, entry, pos);
  }
  return CallUpstream(txn, entry, pos);
}

std::any DigestEngine::ApplyControl(RWTxn& txn, const EngineHeader& header, const LogEntry& entry,
                                    LogPos pos) {
  if (header.msgtype == kMsgTypeBeacon) {
    ProcessBeacon(txn, header.blob, entry, pos);
  }
  return std::any(Unit{});
}

void DigestEngine::ProcessBeacon(RWTxn& txn, std::string_view blob, const LogEntry& entry,
                                 LogPos pos) {
  // The digest every replica agrees to compute at position `pos`: the state
  // of the applied prefix [1, pos-1]. The beacon carries the commit barrier,
  // so it opens its group commit, and this engine sits at the bottom of the
  // middle stack, so nothing of `pos` itself has been staged yet: the
  // committed checksum is that state, minus the cursor.
  if (txn.op_count() != 0) {
    throw NonDeterministicError("digest beacon at pos " + std::to_string(pos) +
                                " applied after staged writes; its commit barrier was lost");
  }
  uint64_t local_digest = store()->Checksum();
  if (const auto cursor = txn.Get(kCursorKey)) {
    local_digest ^= IncrementalChecksum::PairHash(kCursorKey, *cursor);
  }

  std::string proposer;
  std::vector<std::pair<LogPos, uint64_t>> remote_samples;
  try {
    Deserializer de(blob);
    proposer = de.ReadString();
    de.ReadVarint();   // proposer's apply position (informational)
    de.ReadFixed64();  // sample-table hash (informational)
    Deserializer samples(de.ReadStringView());
    const uint64_t count = samples.ReadVarint();
    for (uint64_t i = 0; i < count; ++i) {
      const LogPos sample_pos = samples.ReadVarint();
      const uint64_t sample_digest = samples.ReadFixed64();
      remote_samples.emplace_back(sample_pos, sample_digest);
    }
  } catch (const SerdeError&) {
    // A malformed beacon must never fail the apply; it just checks nothing.
    remote_samples.clear();
  }
  tracker_.OnBeaconChecked(pos, proposer);

  // This replica's table. Keys are zero-padded, so the scan already yields
  // positions ascending — kept as a sorted vector (no per-beacon map churn;
  // this path runs on every beacon).
  const std::string prefix = space().Key("sample/");
  std::string scan_end = prefix;
  scan_end.back() = static_cast<char>(scan_end.back() + 1);
  std::vector<std::pair<LogPos, uint64_t>> local_samples;
  txn.Scan(prefix, scan_end, [&](std::string_view key, std::string_view value) {
    LogPos sample_pos = 0;
    const auto [ptr, ec] =
        std::from_chars(key.data() + prefix.size(), key.data() + key.size(), sample_pos);
    if (ec == std::errc() && ptr == key.data() + key.size() && value.size() >= 8) {
      local_samples.emplace_back(sample_pos, DecodeDigest(value));
    }
    return true;
  });

  const IdList trace_ids = ParseIds(entry, kTraceHeaderName);
  const uint64_t trace_id = trace_ids.empty() ? 0 : trace_ids.front();
  // window_lo for a mismatch at P is the greatest position verified BELOW P:
  // matches from this beacon's ascending sweep, plus the global verified
  // watermark only when it sits below P (an earlier beacon may have verified
  // a position above P — that bounds nothing about where [.., P] went bad).
  const uint64_t global_verified = tracker_.last_verified_pos();
  uint64_t last_match = 0;
  std::sort(remote_samples.begin(), remote_samples.end());
  // Both sides sorted ascending: a single merge pass finds the common
  // positions.
  size_t li = 0;
  for (const auto& [sample_pos, remote_digest] : remote_samples) {
    while (li < local_samples.size() && local_samples[li].first < sample_pos) {
      ++li;
    }
    if (li == local_samples.size() || local_samples[li].first != sample_pos) {
      continue;  // Outside this replica's window; nothing to compare.
    }
    if (local_samples[li].second == remote_digest) {
      last_match = std::max<uint64_t>(last_match, sample_pos);
      tracker_.OnSampleMatch(sample_pos);
    } else {
      uint64_t window_lo = last_match;
      if (global_verified < sample_pos) {
        window_lo = std::max<uint64_t>(window_lo, global_verified);
      }
      tracker_.OnSampleMismatch(window_lo, sample_pos, local_samples[li].second, remote_digest,
                                proposer, trace_id);
    }
  }

  // Record this position's sample and prune the window — all inside the
  // entry's transaction, so the table stays a deterministic function of the
  // log prefix on every replica.
  txn.Put(prefix + PadPos(pos), EncodeDigest(local_digest));
  local_samples.emplace_back(pos, local_digest);
  if (local_samples.size() > kSampleWindow) {
    const size_t to_drop = local_samples.size() - kSampleWindow;
    for (size_t i = 0; i < to_drop; ++i) {
      txn.Delete(prefix + PadPos(local_samples[i].first));
    }
  }
  sample_carry_.Push(pos, {pos, local_digest});
}

void DigestEngine::PostApplyData(const LogEntry& entry, LogPos pos) {
  // Runs for EVERY applied record; only beacon positions park a sample, so
  // the common path is one empty-deque check and a relaxed store — no lock.
  if (auto sample = sample_carry_.Take(pos); sample.has_value()) {
    std::lock_guard<std::mutex> lock(soft_mu_);
    soft_samples_[sample->first] = sample->second;
    while (soft_samples_.size() > kSampleWindow) {
      soft_samples_.erase(soft_samples_.begin());
    }
  }
  last_applied_pos_.store(pos, std::memory_order_relaxed);
  ForwardPostApply(entry, pos);
}

void DigestEngine::PostApplyControl(const EngineHeader& header, const LogEntry& entry,
                                    LogPos pos) {
  if (auto sample = sample_carry_.Take(pos); sample.has_value()) {
    std::lock_guard<std::mutex> lock(soft_mu_);
    soft_samples_[sample->first] = sample->second;
    while (soft_samples_.size() > kSampleWindow) {
      soft_samples_.erase(soft_samples_.begin());
    }
  }
  last_applied_pos_.store(pos, std::memory_order_relaxed);
}

std::map<LogPos, uint64_t> DigestEngine::SampleTable() const {
  std::lock_guard<std::mutex> lock(soft_mu_);
  return soft_samples_;
}

HealthReport DigestEngine::HealthCheck() const {
  const std::string reason = tracker_.HealthReason();
  if (reason.empty()) {
    return HealthReport{name(), HealthState::kOk, "",
                        static_cast<int64_t>(tracker_.last_verified_pos())};
  }
  return HealthReport{name(), HealthState::kUnhealthy, reason,
                      static_cast<int64_t>(tracker_.window_hi())};
}

std::string DigestEngine::Render() const {
  std::ostringstream out;
  out << "digest beacons on " << options_.server_id << "\n";
  out << "  cadence: every " << options_.beacon_every_n_proposals << " proposals\n";
  out << "  beacons appended: " << tracker_.beacons_appended() << "\n";
  out << "  beacons checked: " << tracker_.beacons_checked() << "\n";
  out << "  mismatches: " << tracker_.mismatches() << "\n";
  out << "  last verified pos: " << tracker_.last_verified_pos() << "\n";
  const std::string reason = tracker_.HealthReason();
  out << "  verdict: " << (reason.empty() ? "no divergence" : reason) << "\n";
  out << "  sample table:\n";
  for (const auto& [pos, digest] : SampleTable()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "    pos %llu digest %016llx\n",
                  static_cast<unsigned long long>(pos),
                  static_cast<unsigned long long>(digest));
    out << buf;
  }
  return out.str();
}

std::string DigestEngine::RenderJson() const {
  JsonWriter json;
  json.BeginObject()
      .Key("server").String(options_.server_id)
      .Key("beacon_every_n_proposals").Int(options_.beacon_every_n_proposals)
      .Key("beacons_appended").Int(tracker_.beacons_appended())
      .Key("beacons_checked").Int(tracker_.beacons_checked())
      .Key("mismatches").Int(tracker_.mismatches())
      .Key("last_verified_pos").Int(tracker_.last_verified_pos())
      .Key("convicted").Bool(tracker_.convicted())
      .Key("samples").BeginArray();
  for (const auto& [pos, digest] : SampleTable()) {
    json.BeginObject().Key("pos").Int(pos).Key("digest").Int(digest).EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

}  // namespace delos

#include "src/common/workload.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <algorithm>

#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace delos {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

// `part` as a percentage of `total` (0 when nothing was counted).
double ShareOf(uint64_t part, uint64_t total) {
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(total);
}

}  // namespace

uint64_t WorkloadHash(std::string_view data, uint64_t seed) {
  // 8-byte-chunk multiply-xor core (one multiply per word instead of one
  // per byte — this runs once per applied record) with the seed folded into
  // the offset basis and a splitmix64 finalizer for avalanche. Chunks are
  // read little-endian via memcpy; every platform we target is
  // little-endian, and determinism across replicas/replays only requires a
  // stable value per platform run.
  uint64_t h = 14695981039346656037ULL ^ (seed * 0x9E3779B97F4A7C15ULL);
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    h = (h ^ chunk) * 0x2545F4914F6CDD1DULL;
    p += 8;
    n -= 8;
  }
  uint64_t tail = 0;
  if (n > 0) {
    std::memcpy(&tail, p, n);
  }
  // + n keeps "a" and "a\0" (and the empty string) distinct.
  h = (h ^ (tail + n)) * 0x2545F4914F6CDD1DULL;
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

// ---------------------------------------------------------------------------
// SpaceSaving

namespace {

size_t IndexSizeFor(size_t capacity) {
  // <= 25% load keeps linear probes short.
  size_t size = 16;
  while (size < capacity * 4) {
    size *= 2;
  }
  return size;
}

}  // namespace

SpaceSaving::SpaceSaving(size_t capacity, uint64_t seed)
    : capacity_(std::max<size_t>(capacity, 1)),
      seed_(seed),
      index_(IndexSizeFor(capacity_), 0),
      index_mask_(index_.size() - 1) {
  slots_.reserve(capacity_);
}

SpaceSaving::Slot* SpaceSaving::Find(uint64_t hash) {
  // WorkloadHash output is already well mixed, so the masked probe start
  // needs no re-hash.
  for (size_t i = hash & index_mask_;; i = (i + 1) & index_mask_) {
    const uint32_t ordinal = index_[i];
    if (ordinal == 0) {
      return nullptr;
    }
    Slot* slot = &slots_[ordinal - 1];
    if (slot->hash == hash) {
      return slot;
    }
  }
}

const SpaceSaving::Slot* SpaceSaving::Find(uint64_t hash) const {
  return const_cast<SpaceSaving*>(this)->Find(hash);
}

void SpaceSaving::IndexInsert(uint64_t hash, uint32_t slot) {
  size_t i = hash & index_mask_;
  while (index_[i] != 0) {
    i = (i + 1) & index_mask_;
  }
  index_[i] = slot + 1;
}

void SpaceSaving::RebuildIndex() {
  std::fill(index_.begin(), index_.end(), 0);
  for (size_t s = 0; s < slots_.size(); ++s) {
    IndexInsert(slots_[s].hash, static_cast<uint32_t>(s));
  }
}

void SpaceSaving::Add(std::string_view key, uint64_t weight, uint64_t bytes) {
  AddHashed(WorkloadHash(key, seed_), key, weight, bytes);
}

void SpaceSaving::AddHashed(uint64_t hash, std::string_view key, uint64_t weight,
                            uint64_t bytes) {
  total_weight_ += weight;
  if (Slot* slot = Find(hash); slot != nullptr) {
    slot->count += weight;
    slot->bytes += bytes;
    return;
  }
  if (slots_.size() < capacity_) {
    slots_.push_back(Slot{hash, std::string(key), weight, 0, bytes});
    IndexInsert(hash, static_cast<uint32_t>(slots_.size() - 1));
    key_bytes_ += key.size();
    return;
  }
  // Saturated: evict the strict minimum by (count, key) — a deterministic
  // choice no matter what order the slots sit in.
  Slot* victim = &slots_[0];
  for (Slot& cand : slots_) {
    if (cand.count < victim->count ||
        (cand.count == victim->count && cand.key < victim->key)) {
      victim = &cand;
    }
  }
  const uint64_t floor = victim->count;
  key_bytes_ -= victim->key.size();
  key_bytes_ += key.size();
  *victim = Slot{hash, std::string(key), floor + weight, floor, bytes};
  RebuildIndex();
}

std::vector<SpaceSaving::HeavyHitter> SpaceSaving::TopK() const {
  std::vector<HeavyHitter> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    out.push_back(HeavyHitter{slot.key, slot.count, slot.error, slot.bytes});
  }
  std::sort(out.begin(), out.end(), [](const HeavyHitter& a, const HeavyHitter& b) {
    if (a.count != b.count) {
      return a.count > b.count;
    }
    return a.key < b.key;
  });
  return out;
}

std::optional<SpaceSaving::HeavyHitter> SpaceSaving::Peak() const {
  const Slot* best = nullptr;
  for (const Slot& slot : slots_) {
    if (best == nullptr || slot.count > best->count ||
        (slot.count == best->count && slot.key < best->key)) {
      best = &slot;
    }
  }
  if (best == nullptr) {
    return std::nullopt;
  }
  return HeavyHitter{best->key, best->count, best->error, best->bytes};
}

uint64_t SpaceSaving::EstimateOf(std::string_view key) const {
  const Slot* slot = Find(WorkloadHash(key, seed_));
  return slot == nullptr ? 0 : slot->count;
}

size_t SpaceSaving::MemoryBytes() const {
  return key_bytes_ + slots_.size() * sizeof(Slot) + index_.size() * sizeof(uint32_t);
}

void SpaceSaving::Clear() {
  slots_.clear();
  std::fill(index_.begin(), index_.end(), 0);
  total_weight_ = 0;
  key_bytes_ = 0;
}

// ---------------------------------------------------------------------------
// HyperLogLog

HyperLogLog::HyperLogLog(int precision, uint64_t seed)
    : precision_(std::min(std::max(precision, 4), 16)),
      seed_(seed),
      registers_(size_t{1} << precision_, 0) {}

void HyperLogLog::Add(std::string_view key) { AddHashed(WorkloadHash(key, seed_)); }

void HyperLogLog::AddHashed(uint64_t h) {
  const size_t idx = static_cast<size_t>(h >> (64 - precision_));
  const uint64_t rest = h << precision_;
  const int max_rank = 64 - precision_ + 1;
  const int rank = rest == 0 ? max_rank : std::min(max_rank, __builtin_clzll(rest) + 1);
  if (registers_[idx] < rank) {
    registers_[idx] = static_cast<uint8_t>(rank);
  }
}

uint64_t HyperLogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  double sum = 0.0;
  size_t zeros = 0;
  for (const uint8_t reg : registers_) {
    sum += std::ldexp(1.0, -static_cast<int>(reg));
    if (reg == 0) {
      ++zeros;
    }
  }
  double alpha;
  if (registers_.size() == 16) {
    alpha = 0.673;
  } else if (registers_.size() == 32) {
    alpha = 0.697;
  } else if (registers_.size() == 64) {
    alpha = 0.709;
  } else {
    alpha = 0.7213 / (1.0 + 1.079 / m);
  }
  double estimate = alpha * m * m / sum;
  if (estimate <= 2.5 * m && zeros > 0) {
    // Small-range correction: linear counting over the empty registers.
    estimate = m * std::log(m / static_cast<double>(zeros));
  }
  return static_cast<uint64_t>(std::llround(estimate));
}

void HyperLogLog::Clear() {
  std::fill(registers_.begin(), registers_.end(), 0);
}

// ---------------------------------------------------------------------------
// WorkloadAttributor

namespace {

std::string_view TruncateKey(std::string_view key) {
  if (key.empty()) {
    return "(unattributed)";
  }
  return key.substr(0, WorkloadAttributor::kMaxTrackedKeyBytes);
}

}  // namespace

// Every key-facing sketch shares the family seed and every client-facing
// sketch shares its salted variant, so the apply tap hashes the key bytes
// exactly once (and each client id once, cached) and fans the hash out.
constexpr uint64_t kClientSeed = WorkloadAttributor::kHashSeed ^ 0xc11e17;

WorkloadAttributor::WorkloadAttributor(Options options)
    : options_(std::move(options)),
      top_keys_(kTopK, kHashSeed),
      top_clients_(kTopK, kClientSeed),
      keys_seen_(kHllPrecision, kHashSeed),
      clients_seen_(kHllPrecision, kClientSeed),
      window_keys_(kHllPrecision, kHashSeed),
      window_clients_(kHllPrecision, kClientSeed) {
  // Round the sampling interval down to a power of two so the hot path's
  // sample check is a mask, not a division.
  size_t every = std::max<size_t>(options_.rate_sample_every, 1);
  while ((every & (every - 1)) != 0) {
    every &= every - 1;
  }
  options_.rate_sample_every = every;
  rate_sample_mask_ = every - 1;
  client_cache_.resize(2 * kClientCacheCap);
  if (options_.metrics != nullptr) {
    apply_ops_counter_ = options_.metrics->GetCounter("workload.apply.ops");
    apply_bytes_counter_ = options_.metrics->GetCounter("workload.apply.bytes");
    hot_events_counter_ = options_.metrics->GetCounter("workload.hot.events");
    sketch_bytes_gauge_ = options_.metrics->GetGauge("workload.sketch.bytes");
    window_keys_gauge_ = options_.metrics->GetGauge("workload.window.distinct.keys");
    window_clients_gauge_ = options_.metrics->GetGauge("workload.window.distinct.clients");
    distinct_keys_gauge_ = options_.metrics->GetGauge("workload.distinct.keys");
    distinct_clients_gauge_ = options_.metrics->GetGauge("workload.distinct.clients");
  }
  std::lock_guard<std::mutex> lock(mu_);
  UpdateSketchBytesLocked();
}

void WorkloadAttributor::ChargePropose(std::string_view layer,
                                       std::span<const uint64_t> client_ids, size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = layers_.find(layer);
  if (it == layers_.end()) {
    LayerUsage usage;
    if (options_.metrics != nullptr) {
      const std::string prefix = "workload.layer." + std::string(layer);
      usage.ops_counter = options_.metrics->GetCounter(prefix + ".ops");
      usage.bytes_counter = options_.metrics->GetCounter(prefix + ".bytes");
    }
    it = layers_.emplace(std::string(layer), usage).first;
  }
  it->second.ops += 1;
  it->second.bytes += bytes;
  if (it->second.ops_counter != nullptr) {
    it->second.ops_counter->Increment();
    it->second.bytes_counter->Increment(bytes);
  }
  // Distinct-client tracking sees proposers too (HLLs dedup, so feeding
  // both taps never double-counts); ranked client *counts* come from the
  // apply tap alone, where every replica sees identical traffic.
  for (const uint64_t id : client_ids) {
    const CachedClient& client = ClientSlotLocked(id);
    clients_seen_.AddHashed(client.hash);
    window_clients_.AddHashed(client.hash);
  }
}

bool WorkloadAttributor::BeginApply(size_t bytes) {
  const uint64_t before = apply_ops_total_.fetch_add(1, std::memory_order_relaxed);
  apply_bytes_total_.fetch_add(bytes, std::memory_order_relaxed);
  // Sample on a mix of the ordinal, not the ordinal itself: a fixed stride
  // aliases with any workload whose period shares a factor with it (period
  // 4 under stride 8 samples one phase only).
  return (MixHash(before, 0) & rate_sample_mask_) == 0;
}

void WorkloadAttributor::ChargeApplySampled(std::string_view key,
                                            std::span<const uint64_t> client_ids, size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string_view k = TruncateKey(key);
  // One pass over the key bytes; every sketch gets the same hash (they all
  // share the family seed — see the constructor).
  const uint64_t khash = WorkloadHash(k, kHashSeed);
  const uint64_t weight = options_.rate_sample_every;
  top_keys_.AddHashed(khash, k, weight, bytes * weight);
  keys_seen_.AddHashed(khash);
  window_keys_.AddHashed(khash);
  ChargeClientsLocked(client_ids);
  sampled_ops_ += 1;
  // Hot-spot detection, the footprint gauge refresh, and the metric-counter
  // flush are throttled to every 16th sampled op (every 64th applied op at
  // the default sampling rate): the scans are O(K), and the cadence is a
  // deterministic function of the sampled-op count. CloseWindow flushes
  // too, so scrapes after a window close are exact.
  if (sampled_ops_ % 16 == 0) {
    FlushCountersLocked();
    MaybeFlagHotLocked();
    UpdateSketchBytesLocked();
  }
}

void WorkloadAttributor::ChargeApply(std::string_view key, std::span<const uint64_t> client_ids,
                                     size_t bytes) {
  if (BeginApply(bytes)) {
    ChargeApplySampled(key, client_ids, bytes);
  }
}

void WorkloadAttributor::FlushCountersLocked() {
  const uint64_t ops = apply_ops_total_.load(std::memory_order_relaxed);
  const uint64_t bytes = apply_bytes_total_.load(std::memory_order_relaxed);
  if (apply_ops_counter_ != nullptr) {
    apply_ops_counter_->Increment(ops - counter_flushed_ops_);
    apply_bytes_counter_->Increment(bytes - counter_flushed_bytes_);
  }
  counter_flushed_ops_ = ops;
  counter_flushed_bytes_ = bytes;
}

void WorkloadAttributor::ChargeClientsLocked(std::span<const uint64_t> client_ids) {
  for (const uint64_t id : client_ids) {
    const CachedClient& client = ClientSlotLocked(id);
    top_clients_.AddHashed(client.hash, client.name, options_.rate_sample_every);
    clients_seen_.AddHashed(client.hash);
    window_clients_.AddHashed(client.hash);
  }
}

const WorkloadAttributor::CachedClient& WorkloadAttributor::ClientSlotLocked(uint64_t id) {
  const uint64_t mask = client_cache_.size() - 1;
  size_t i = MixHash(id, 1) & mask;
  while (true) {
    const CachedClient& slot = client_cache_[i];
    if (slot.used && slot.id == id) {
      return slot;
    }
    if (!slot.used) {
      break;
    }
    i = (i + 1) & mask;
  }
  if (client_cache_used_ >= kClientCacheCap) {
    for (CachedClient& slot : client_cache_) {
      slot = CachedClient{};
    }
    client_cache_used_ = 0;
    i = MixHash(id, 1) & mask;  // the probe start is empty in a cleared table
  }
  CachedClient& slot = client_cache_[i];
  slot.used = true;
  slot.id = id;
  slot.name = std::to_string(id);
  slot.hash = WorkloadHash(slot.name, kClientSeed);
  client_cache_used_ += 1;
  return slot;
}

void WorkloadAttributor::CloseWindow(int64_t now_micros) {
  (void)now_micros;  // windows are positioned by the caller's snapshot
  std::lock_guard<std::mutex> lock(mu_);
  if (window_keys_gauge_ != nullptr) {
    window_keys_gauge_->Set(static_cast<int64_t>(window_keys_.Estimate()));
    window_clients_gauge_->Set(static_cast<int64_t>(window_clients_.Estimate()));
    distinct_keys_gauge_->Set(static_cast<int64_t>(keys_seen_.Estimate()));
    distinct_clients_gauge_->Set(static_cast<int64_t>(clients_seen_.Estimate()));
  }
  window_keys_.Clear();
  window_clients_.Clear();
  windows_closed_ += 1;
  FlushCountersLocked();
  UpdateSketchBytesLocked();
}

std::optional<WorkloadAttributor::HotSpot> WorkloadAttributor::HottestOfLocked(
    const SpaceSaving& sketch, uint64_t total) const {
  if (total < options_.hot_min_ops || sketch.size() == 0) {
    return std::nullopt;
  }
  const std::optional<SpaceSaving::HeavyHitter> head = sketch.Peak();
  if (!head.has_value()) {
    return std::nullopt;
  }
  const double share = 100.0 * static_cast<double>(head->count) / static_cast<double>(total);
  if (share <= kHotSharePct) {
    return std::nullopt;
  }
  return HotSpot{head->key, head->count, share};
}

void WorkloadAttributor::MaybeFlagHotLocked() {
  const auto hot_key = HottestOfLocked(top_keys_, top_keys_.total_weight());
  if (hot_key.has_value()) {
    if (hot_key->name != last_hot_key_) {
      last_hot_key_ = hot_key->name;
      if (hot_events_counter_ != nullptr) {
        hot_events_counter_->Increment();
      }
      if (options_.recorder != nullptr) {
        options_.recorder->Record(FlightEventKind::kWorkload, "hot key: " + hot_key->name, 0,
                                  hot_key->ops,
                                  static_cast<uint64_t>(std::llround(hot_key->share_pct)));
      }
    }
  } else {
    last_hot_key_.clear();  // re-arm: crossing the threshold again re-fires
  }
  const auto hot_client = HottestOfLocked(top_clients_, top_clients_.total_weight());
  if (hot_client.has_value()) {
    if (hot_client->name != last_hot_client_) {
      last_hot_client_ = hot_client->name;
      if (hot_events_counter_ != nullptr) {
        hot_events_counter_->Increment();
      }
      if (options_.recorder != nullptr) {
        options_.recorder->Record(FlightEventKind::kWorkload,
                                  "hot client: " + hot_client->name, 0, hot_client->ops,
                                  static_cast<uint64_t>(std::llround(hot_client->share_pct)));
      }
    }
  } else {
    last_hot_client_.clear();
  }
}

std::optional<WorkloadAttributor::HotSpot> WorkloadAttributor::HottestKey() const {
  std::lock_guard<std::mutex> lock(mu_);
  return HottestOfLocked(top_keys_, top_keys_.total_weight());
}

std::optional<WorkloadAttributor::HotSpot> WorkloadAttributor::HottestClient() const {
  std::lock_guard<std::mutex> lock(mu_);
  return HottestOfLocked(top_clients_, top_clients_.total_weight());
}

size_t WorkloadAttributor::SketchBytesLocked() const {
  size_t bytes = top_keys_.MemoryBytes() + top_clients_.MemoryBytes() +
                 keys_seen_.MemoryBytes() + clients_seen_.MemoryBytes() +
                 window_keys_.MemoryBytes() + window_clients_.MemoryBytes();
  for (const auto& [name, usage] : layers_) {
    bytes += name.size() + sizeof(LayerUsage);
  }
  return bytes;
}

void WorkloadAttributor::UpdateSketchBytesLocked() {
  if (sketch_bytes_gauge_ != nullptr) {
    sketch_bytes_gauge_->Set(static_cast<int64_t>(SketchBytesLocked()));
  }
}

size_t WorkloadAttributor::SketchBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SketchBytesLocked();
}

uint64_t WorkloadAttributor::apply_ops() const {
  return apply_ops_total_.load(std::memory_order_relaxed);
}

std::string WorkloadAttributor::RenderWorkload() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "== workload (server " + options_.server + ") ==\n";
  AppendF(&out, "applied ops: %llu  bytes: %llu\n",
          static_cast<unsigned long long>(apply_ops_total_),
          static_cast<unsigned long long>(apply_bytes_total_));
  AppendF(&out, "distinct keys: ~%llu (open window ~%llu)\n",
          static_cast<unsigned long long>(keys_seen_.Estimate()),
          static_cast<unsigned long long>(window_keys_.Estimate()));
  AppendF(&out, "distinct clients: ~%llu (open window ~%llu)\n",
          static_cast<unsigned long long>(clients_seen_.Estimate()),
          static_cast<unsigned long long>(window_clients_.Estimate()));
  AppendF(&out, "windows closed: %llu\n", static_cast<unsigned long long>(windows_closed_));
  AppendF(&out, "sketch bytes: %llu\n", static_cast<unsigned long long>(SketchBytesLocked()));
  AppendF(&out, "hot threshold: >%.1f%% share after %llu ops\n", kHotSharePct,
          static_cast<unsigned long long>(options_.hot_min_ops));
  auto hot_line = [&](const char* what, const std::optional<HotSpot>& spot) {
    if (spot.has_value()) {
      AppendF(&out, "hot %s: %s (%llu ops, %.1f%%)\n", what, spot->name.c_str(),
              static_cast<unsigned long long>(spot->ops), spot->share_pct);
    } else {
      AppendF(&out, "hot %s: none\n", what);
    }
  };
  hot_line("key", HottestOfLocked(top_keys_, top_keys_.total_weight()));
  hot_line("client", HottestOfLocked(top_clients_, top_clients_.total_weight()));
  out += "-- per-layer propose usage --\n";
  AppendF(&out, "%-28s %12s %14s\n", "layer", "ops", "bytes");
  for (const auto& [name, usage] : layers_) {
    AppendF(&out, "%-28s %12llu %14llu\n", name.c_str(),
            static_cast<unsigned long long>(usage.ops),
            static_cast<unsigned long long>(usage.bytes));
  }
  return out;
}

std::string WorkloadAttributor::RenderWorkloadJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.BeginObject()
      .Key("server").String(options_.server)
      .Key("apply_ops").Int(apply_ops_total_.load())
      .Key("apply_bytes").Int(apply_bytes_total_.load())
      .Key("distinct_keys").Int(keys_seen_.Estimate())
      .Key("distinct_clients").Int(clients_seen_.Estimate())
      .Key("window_distinct_keys").Int(window_keys_.Estimate())
      .Key("window_distinct_clients").Int(window_clients_.Estimate())
      .Key("windows_closed").Int(windows_closed_)
      .Key("sketch_bytes").Int(SketchBytesLocked());
  auto hot_spot = [&](const char* what, const std::optional<HotSpot>& spot) {
    json.Key(std::string("hot_") + what);
    if (spot.has_value()) {
      json.BeginObject().Key(what).String(spot->name).Key("ops").Int(spot->ops);
      json.Key("share_pct").Fixed(spot->share_pct, 1).EndObject();
    } else {
      json.Null();
    }
  };
  hot_spot("key", HottestOfLocked(top_keys_, top_keys_.total_weight()));
  hot_spot("client", HottestOfLocked(top_clients_, top_clients_.total_weight()));
  json.Key("layers").BeginArray();
  for (const auto& [name, usage] : layers_) {
    json.BeginObject()
        .Key("layer").String(name)
        .Key("ops").Int(usage.ops)
        .Key("bytes").Int(usage.bytes)
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

std::string WorkloadAttributor::RenderTopKeys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "== top keys (server " + options_.server + ") ==\n";
  const uint64_t total = top_keys_.total_weight();
  AppendF(&out, "total ops: %llu\n", static_cast<unsigned long long>(total));
  AppendF(&out, "%4s %10s %9s %12s %7s  %s\n", "rank", "ops", "err", "bytes~", "share%",
          "key");
  const auto top = top_keys_.TopK();
  for (size_t i = 0; i < top.size(); ++i) {
    AppendF(&out, "%4zu %10llu %9llu %12llu %6.1f%%  %s\n", i + 1,
            static_cast<unsigned long long>(top[i].count),
            static_cast<unsigned long long>(top[i].error),
            static_cast<unsigned long long>(top[i].bytes),
            ShareOf(top[i].count, total), top[i].key.c_str());
  }
  return out;
}

std::string WorkloadAttributor::RenderTopKeysJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t total = top_keys_.total_weight();
  JsonWriter json;
  json.BeginObject()
      .Key("server").String(options_.server)
      .Key("total_ops").Int(total)
      .Key("keys").BeginArray();
  for (const SpaceSaving::HeavyHitter& hit : top_keys_.TopK()) {
    json.BeginObject()
        .Key("key").String(hit.key)
        .Key("ops").Int(hit.count)
        .Key("err").Int(hit.error)
        .Key("bytes").Int(hit.bytes)
        .Key("share_pct").Fixed(ShareOf(hit.count, total), 1)
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

std::string WorkloadAttributor::RenderTopClients() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "== top clients (server " + options_.server + ") ==\n";
  const uint64_t total = top_clients_.total_weight();
  AppendF(&out, "total ops: %llu\n", static_cast<unsigned long long>(total));
  AppendF(&out, "%4s %10s %9s %7s  %s\n", "rank", "ops", "err", "share%", "client");
  const auto top = top_clients_.TopK();
  for (size_t i = 0; i < top.size(); ++i) {
    AppendF(&out, "%4zu %10llu %9llu %6.1f%%  %s\n", i + 1,
            static_cast<unsigned long long>(top[i].count),
            static_cast<unsigned long long>(top[i].error), ShareOf(top[i].count, total),
            top[i].key.c_str());
  }
  return out;
}

std::string WorkloadAttributor::RenderTopClientsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t total = top_clients_.total_weight();
  JsonWriter json;
  json.BeginObject()
      .Key("server").String(options_.server)
      .Key("total_ops").Int(total)
      .Key("clients").BeginArray();
  for (const SpaceSaving::HeavyHitter& hit : top_clients_.TopK()) {
    json.BeginObject()
        .Key("client").String(hit.key)
        .Key("ops").Int(hit.count)
        .Key("err").Int(hit.error)
        .Key("share_pct").Fixed(ShareOf(hit.count, total), 1)
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

}  // namespace delos

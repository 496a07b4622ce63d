// Workload attribution: streaming sketches answering *who* and *which keys*
// drive the shared log.
//
// PRs 3, 4 and 7 answer "where does time go" (spans, health, critical
// paths); the multi-tenant production story of the paper needs "who is
// spending it" — one misbehaving client or one hot key can starve the apply
// loop for every application multiplexed onto the log, and the ROADMAP's
// next steps (sharding, admission control, quotas) are blind without
// per-tenant accounting. The WorkloadAttributor keeps two classic streaming
// sketches per server, both O(1)-ish per update and fixed in size:
//
//  * SpaceSaving — top-K heavy hitters (hot keys, top clients). Exact while
//    distinct keys <= K; past saturation the minimum-count entry is evicted
//    and the newcomer inherits its count as `error`, so every reported count
//    is an overestimate by at most `error` and true heavy hitters are never
//    dropped (the Metwally et al. guarantee). Each slot also carries the
//    bytes charged to its key since the key entered the table.
//
//  * HyperLogLog — distinct clients / distinct keys per window, within a
//    few percent at 2^p registers.
//
// Two taps feed the attributor:
//
//  * propose path — every layer an entry descends through charges the
//    proposing client ids (piggybacked in a reserved entry header, exactly
//    like trace ids; see core/entry.h) with the entry's bytes, yielding the
//    per-layer resource table in /workload. Batching merges union client
//    ids onto the batch entry, so the shared downstream append attributes
//    to every constituent client.
//
//  * apply path — each app engine extracts a semantic key from the op
//    payload via an IKeyExtractor, so replayed bytes attribute to the same
//    keys on every replica (the extractor is a pure function of the
//    payload bytes).
//
// Determinism: updates use a fixed-seed hash family (kHashSeed), window
// rollover happens only at explicit CloseWindow calls with caller-supplied
// timestamps, and every render iterates in sorted (count desc, key asc)
// order — so under the simulator the rendered workload summary is a pure
// function of the schedule, byte-identical across replays.
//
// This header lives in src/common and knows nothing about LogEntry; the
// client-id <-> header-map plumbing is in src/core/entry.h and both taps in
// src/core/probe.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace delos {

class MetricsRegistry;
class FlightRecorder;
class Counter;
class Gauge;

// Seeded 64-bit hash (8-byte-chunk multiply-xor core with a splitmix64
// finalizer — one multiply per word, since this runs once per applied
// record). The same
// (data, seed) pair hashes identically on every replica and every replay;
// different seeds give effectively independent hash functions.
uint64_t WorkloadHash(std::string_view data, uint64_t seed);

// Integer hash (splitmix64 over value + salt * golden-ratio). It places
// client ids in the attributor's client cache and picks the sampled applied
// ops, so neither hot-path decision renders or re-walks any bytes.
inline uint64_t MixHash(uint64_t value, uint64_t salt) {
  uint64_t h = value + salt * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

// Space-Saving heavy hitters (Metwally, Agrawal, El Abbadi 2005).
//
// Holds at most `capacity` keys. While distinct keys fit, counts are exact
// (error == 0). Once saturated, an unseen key replaces the entry with the
// minimum count — ties broken by evicting the lexicographically smallest
// key, so eviction is deterministic — and starts at min_count + weight with
// error = min_count. Reported counts therefore never underestimate, and any
// key whose true count exceeds total/capacity is guaranteed present.
//
// Each entry also sums the bytes charged to its key since the key entered
// the table: exact while the table has never evicted, and counted from
// admission for a key that replaced an evicted one (a byte count carries no
// error term).
//
// Entries are indexed by the key's 64-bit WorkloadHash (a collision folds
// two keys into one slot — at <= capacity tracked keys against a 64-bit
// space the probability is negligible, and the failure mode is a slightly
// inflated count, never a crash). The hashed-index makes the hot-path find
// an integer probe, and lets the attributor pass a precomputed hash via
// AddHashed. Renders sort, so iteration order of the underlying table never
// leaks into output.
class SpaceSaving {
 public:
  struct HeavyHitter {
    std::string key;
    uint64_t count = 0;  // overestimate: true count is in [count-error, count]
    uint64_t error = 0;
    uint64_t bytes = 0;  // charged since the key entered the table
  };

  explicit SpaceSaving(size_t capacity, uint64_t seed = 0);

  void Add(std::string_view key, uint64_t weight = 1, uint64_t bytes = 0);
  // Hot-path variant: `hash` must be WorkloadHash(key, seed) — the
  // attributor computes it once per op and fans it out to every sketch.
  void AddHashed(uint64_t hash, std::string_view key, uint64_t weight = 1, uint64_t bytes = 0);

  // Entries sorted by (count desc, key asc) — a deterministic render order.
  std::vector<HeavyHitter> TopK() const;
  // The single heaviest entry by (count desc, key asc) without building the
  // sorted table — the throttled hot-spot check runs this, so it must not
  // copy every tracked key. nullopt when empty.
  std::optional<HeavyHitter> Peak() const;
  // Estimated count for one key (0 when untracked).
  uint64_t EstimateOf(std::string_view key) const;

  uint64_t total_weight() const { return total_weight_; }
  size_t size() const { return slots_.size(); }
  // Live footprint: tracked key bytes plus per-entry bookkeeping.
  size_t MemoryBytes() const;

  void Clear();

 private:
  struct Slot {
    uint64_t hash = 0;  // WorkloadHash(key, seed_)
    std::string key;
    uint64_t count = 0;
    uint64_t error = 0;
    uint64_t bytes = 0;
  };

  // Open-addressed index over slots_: the hot-path find is a masked probe
  // into a power-of-two table (no division, no node chase — measurably
  // cheaper than std::unordered_map on the per-record apply tap). Kept at
  // <= 25% load; eviction rebuilds it (eviction already pays an O(K) min
  // scan, so the rebuild doesn't change its complexity).
  Slot* Find(uint64_t hash);
  const Slot* Find(uint64_t hash) const;
  void IndexInsert(uint64_t hash, uint32_t slot);
  void RebuildIndex();

  size_t capacity_;
  uint64_t seed_;
  uint64_t total_weight_ = 0;
  size_t key_bytes_ = 0;
  std::vector<Slot> slots_;       // dense, at most capacity_ entries
  std::vector<uint32_t> index_;   // slot ordinal + 1; 0 = empty
  uint64_t index_mask_ = 0;
};

// HyperLogLog (Flajolet et al. 2007) with the standard small-range
// correction. precision p in [4, 16] gives m = 2^p one-byte registers and
// ~1.04/sqrt(m) relative error.
class HyperLogLog {
 public:
  HyperLogLog(int precision, uint64_t seed);

  void Add(std::string_view key);
  // Hot-path variant: `hash` must be WorkloadHash(key, seed).
  void AddHashed(uint64_t hash);
  // Estimated cardinality, rounded to the nearest integer (deterministic:
  // pure function of the registers).
  uint64_t Estimate() const;

  size_t MemoryBytes() const { return registers_.size(); }

  void Clear();

 private:
  int precision_;
  uint64_t seed_;
  std::vector<uint8_t> registers_;
};

// Extracts the semantic key an application op targets from its serialized
// payload (the varint-opcode envelope every app client writes). A pure
// function of the bytes — replicas replaying the same log attribute
// identically. Implementations must not throw: malformed or unrecognized
// payloads return "" (charged to the per-engine catch-all).
class IKeyExtractor {
 public:
  virtual ~IKeyExtractor() = default;
  virtual std::string KeyOf(std::string_view payload) const = 0;
};

// The per-server attribution plane. Thread-safe; one instance per
// ClusterServer, fed through the server's Probe (src/core/probe.h) by the
// propose tap (every layer's hand-off) and the apply tap (the AppFrame
// around each app applicator).
class WorkloadAttributor {
 public:
  struct Options {
    MetricsRegistry* metrics = nullptr;  // required
    std::string server;                  // label in renders
    FlightRecorder* recorder = nullptr;  // optional kWorkload event sink
    // The apply tap samples 1 in N applied ops: unsampled ops cost two
    // relaxed atomic adds (op and byte totals stay exact), sampled ops run
    // the full pipeline — key extraction, client-id parse, and every sketch
    // update with an N-fold compensating weight. Counts are unbiased for
    // any key or client hot enough to matter (the plane's whole purpose);
    // distinct-key/client estimates cover what the sampled subset observed,
    // so a key or client with a handful of ops in a window can be missed.
    // Rounded down to a power of two; 1 = sample everything (exact per-op
    // attribution at ~8x the default tap cost). Deterministic: the sample
    // decision is a pure function of the applied-op ordinal (hashed, so
    // periodic workloads do not alias with N), identical on every replica.
    size_t rate_sample_every = 8;
    // A key (or client) holding strictly more than kHotSharePct of applied
    // ops — once at least hot_min_ops have been seen — is flagged: one
    // kWorkload flight event per distinct offender, and HealthCheck stall
    // reasons gain a "hot key: ..." attribution.
    uint64_t hot_min_ops = 64;
  };

  // Fixed plane geometry. Every server hashes with the same family seed, so
  // sketch state is a pure function of the applied log (what keeps sim
  // renders byte-identical across replays).
  static constexpr uint64_t kHashSeed = 0x5eed0fde;
  // Space-Saving capacity of both the hot-key and the top-client tables.
  static constexpr size_t kTopK = 64;
  // 2^12 HyperLogLog registers: ~1.6% relative error on distinct counts.
  static constexpr int kHllPrecision = 12;
  static constexpr double kHotSharePct = 25.0;

  // Keys longer than this are truncated before sketching, so tracked-key
  // memory is hard-bounded no matter what an application writes.
  static constexpr size_t kMaxTrackedKeyBytes = 96;

  explicit WorkloadAttributor(Options options);

  WorkloadAttributor(const WorkloadAttributor&) = delete;
  WorkloadAttributor& operator=(const WorkloadAttributor&) = delete;

  // Propose-path tap: `layer` (e.g. "batching", "base.append") handled an
  // entry of `bytes` on behalf of `client_ids` (empty = unattributed).
  void ChargePropose(std::string_view layer, std::span<const uint64_t> client_ids, size_t bytes);

  // Apply-path tap, split so the caller can skip key extraction and
  // client-id parsing entirely for unsampled ops:
  //
  //   if (attributor->BeginApply(bytes)) {
  //     attributor->ChargeApplySampled(extract(key), parse(ids), bytes);
  //   }
  //
  // BeginApply counts the op (two relaxed atomic adds, no lock) and reports
  // whether it falls in the 1-in-rate_sample_every sampled subset.
  // ChargeApplySampled runs every sketch update with the compensating
  // weight. ChargeApply is the convenience composition (tests and cold
  // callers).
  bool BeginApply(size_t bytes);
  void ChargeApplySampled(std::string_view key, std::span<const uint64_t> client_ids,
                          size_t bytes);
  void ChargeApply(std::string_view key, std::span<const uint64_t> client_ids, size_t bytes);

  // Closes one accounting window (driven by the watchdog cadence with its
  // injected clock): publishes the window's distinct-key/client estimates
  // as gauges — picked up by the MetricsRegistry snapshot that follows —
  // then resets the window HLLs.
  void CloseWindow(int64_t now_micros);

  struct HotSpot {
    std::string name;   // key, or decimal client id
    uint64_t ops = 0;
    double share_pct = 0.0;
  };
  // The hottest key / client iff it exceeds kHotSharePct (and
  // hot_min_ops); nullopt otherwise. HealthCheck appends these to
  // stall reasons.
  std::optional<HotSpot> HottestKey() const;
  std::optional<HotSpot> HottestClient() const;

  // Current live sketch footprint in bytes (also kept in the
  // workload.sketch.bytes gauge).
  size_t SketchBytes() const;

  uint64_t apply_ops() const;

  // Deterministic renders for /workload, /top/keys, /top/clients and
  // `delosctl workload` / `delosctl top keys|clients`. The *Json variants
  // back `?format=json` / `--json`.
  std::string RenderWorkload() const;
  std::string RenderWorkloadJson() const;
  std::string RenderTopKeys() const;
  std::string RenderTopKeysJson() const;
  std::string RenderTopClients() const;
  std::string RenderTopClientsJson() const;

 private:
  struct LayerUsage {
    uint64_t ops = 0;
    uint64_t bytes = 0;
    Counter* ops_counter = nullptr;
    Counter* bytes_counter = nullptr;
  };

  struct CachedClient {
    uint64_t id = 0;
    bool used = false;
    std::string name;    // decimal rendering of the id
    uint64_t hash = 0;   // WorkloadHash(name, client sketch seed)
  };

  void ChargeClientsLocked(std::span<const uint64_t> client_ids);
  const CachedClient& ClientSlotLocked(uint64_t id);
  void FlushCountersLocked();
  void MaybeFlagHotLocked();
  std::optional<HotSpot> HottestOfLocked(const SpaceSaving& sketch, uint64_t total) const;
  // The live footprint of every sketch plus the per-layer table.
  size_t SketchBytesLocked() const;
  void UpdateSketchBytesLocked();

  Options options_;

  Counter* apply_ops_counter_ = nullptr;
  Counter* apply_bytes_counter_ = nullptr;
  Counter* hot_events_counter_ = nullptr;
  Gauge* sketch_bytes_gauge_ = nullptr;
  Gauge* window_keys_gauge_ = nullptr;
  Gauge* window_clients_gauge_ = nullptr;
  Gauge* distinct_keys_gauge_ = nullptr;
  Gauge* distinct_clients_gauge_ = nullptr;

  mutable std::mutex mu_;
  SpaceSaving top_keys_;
  SpaceSaving top_clients_;
  HyperLogLog keys_seen_;
  HyperLogLog clients_seen_;
  HyperLogLog window_keys_;
  HyperLogLog window_clients_;
  std::map<std::string, LayerUsage, std::less<>> layers_;
  // id -> (decimal string, hash): avoids a to_string + byte hash per op.
  // Open-addressed (masked linear probe, like SpaceSaving's index) so the
  // per-op lookup does no division and no node chase. Purely a performance
  // cache — entries are recomputed identically after the (deterministic)
  // clear at kClientCacheCap live entries, so results never depend on cache
  // state.
  static constexpr size_t kClientCacheCap = 1024;
  std::vector<CachedClient> client_cache_;  // 2 * cap slots, <= 50% load
  size_t client_cache_used_ = 0;
  uint64_t rate_sample_mask_ = 3;  // rate_sample_every - 1 (power of two)
  // Exact totals, updated outside the lock by BeginApply (the only per-op
  // cost for unsampled ops).
  std::atomic<uint64_t> apply_ops_total_{0};
  std::atomic<uint64_t> apply_bytes_total_{0};
  uint64_t sampled_ops_ = 0;  // maintenance cadence (every 16th sampled op)
  // Totals already flushed into the metric counters (flushed on the
  // maintenance cadence and at window close, so the per-op path does no
  // extra atomic RMWs).
  uint64_t counter_flushed_ops_ = 0;
  uint64_t counter_flushed_bytes_ = 0;
  uint64_t windows_closed_ = 0;
  std::string last_hot_key_;     // last offender flagged to the recorder
  std::string last_hot_client_;  // (one kWorkload event per distinct spot)
};

}  // namespace delos

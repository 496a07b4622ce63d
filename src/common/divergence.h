// Earliest-divergence attribution for the digest-beacon plane.
//
// The DigestEngine (src/engines) appends digest beacons through the shared
// log and, applying each one, compares the proposer's state digests against
// its own at the same log positions. This tracker is where the verdicts
// land. It turns a stream of per-position match/mismatch observations into
// the thing an operator actually needs: the EARLIEST beacon interval
// (window_lo, window_hi] inside which the replicas' applied states first
// disagreed — every position at or below window_lo is known-verified, the
// digest at window_hi is known-wrong, so whatever corrupted this replica
// (bad apply, torn checkpoint, non-deterministic engine) happened in
// between.
//
// A conviction latches: later, wider mismatches never overwrite the first
// narrow one, and a conviction is never un-convicted (a divergent replica
// that drifts back into agreement by luck is still a divergent replica).
// At conviction time the tracker captures a flight-recorder excerpt and the
// last trace ids near the window, records a kDivergence event, and flips
// its health verdict to UNHEALTHY with the position range in the detail —
// the watchdog and /divergence take it from there.
//
// Lives in src/common: the tracker knows digests, positions, and the
// observability primitives (metrics / flight recorder / health strings) —
// nothing about engines or the log.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace delos {

class MetricsRegistry;
class FlightRecorder;
class Counter;
class Gauge;

struct DivergenceOptions {
  // Replica id, used to label the report and the flight event.
  std::string server;
  // Exports digest.{beacons_appended,beacons_checked,mismatches,
  // last_verified_pos} when non-null.
  MetricsRegistry* metrics = nullptr;
  // kDivergence event sink + source of the conviction-time flight excerpt.
  FlightRecorder* recorder = nullptr;
};

class DivergenceTracker {
 public:
  explicit DivergenceTracker(DivergenceOptions options);

  // Points the tracker at a metrics registry and a flight recorder (the
  // DigestEngine calls this when its server's probe arrives). Thread-safe.
  void AttachSinks(MetricsRegistry* metrics, FlightRecorder* recorder);

  // Proposer side: a beacon header/record left this replica.
  void OnBeaconAppended();

  // Apply side: a beacon proposed by `proposer` was applied at `pos` and
  // this replica computed its own digest there (even if the beacon carried
  // no overlapping samples to compare yet).
  void OnBeaconChecked(uint64_t pos, std::string_view proposer);

  // One overlapping sample agreed: position `pos` is verified.
  void OnSampleMatch(uint64_t pos);

  // One overlapping sample disagreed. `window_lo` is the greatest position
  // the caller knows to be verified below `pos` (0 if none). The first
  // mismatch convicts and latches; later calls only bump the counter.
  void OnSampleMismatch(uint64_t window_lo, uint64_t pos, uint64_t local_digest,
                        uint64_t remote_digest, std::string_view proposer, uint64_t trace_id);

  bool convicted() const;
  uint64_t window_lo() const;
  uint64_t window_hi() const;
  uint64_t last_verified_pos() const;
  uint64_t beacons_appended() const;
  uint64_t beacons_checked() const;
  uint64_t mismatches() const;

  // Health verdict: empty reason while clean; "digest divergence convicted
  // in (lo, hi] vs <proposer>" once convicted. The DigestEngine wraps this
  // in a HealthReport.
  std::string HealthReason() const;

  // Human-readable conviction report: the window, the digest pair, the
  // proposer, the captured trace ids, and the flight excerpt.
  // `include_digests=false` drops the absolute digest values and the
  // excerpt timestamps' host-variant parts — digests fold per-incarnation
  // engine instance ids, so the schedule-determined variant is what the
  // simulator compares byte-for-byte across replays.
  std::string Render(bool include_digests = true) const;
  std::string RenderJson() const;

 private:
  void CaptureConvictionLocked(uint64_t window_lo, uint64_t pos, uint64_t local_digest,
                               uint64_t remote_digest, std::string_view proposer,
                               uint64_t trace_id);

  DivergenceOptions options_;

  mutable std::mutex mu_;
  bool convicted_ = false;
  uint64_t window_lo_ = 0;
  uint64_t window_hi_ = 0;
  uint64_t local_digest_ = 0;
  uint64_t remote_digest_ = 0;
  std::string proposer_;
  uint64_t trace_id_ = 0;
  std::vector<uint64_t> window_trace_ids_;
  std::string flight_excerpt_;
  uint64_t last_verified_pos_ = 0;
  uint64_t beacons_appended_ = 0;
  uint64_t beacons_checked_ = 0;
  uint64_t mismatches_ = 0;
  std::string last_proposer_;

  // Owned by the registry; null when no registry was injected.
  Counter* appended_counter_ = nullptr;
  Counter* checked_counter_ = nullptr;
  Counter* mismatch_counter_ = nullptr;
  Gauge* verified_gauge_ = nullptr;
};

}  // namespace delos

// DigestEngine: online replica-divergence detection through the log.
//
// The simulator catches divergence offline by replaying the whole log into a
// reference store and diffing checksums; production has no such luxury — a
// replica corrupted by a bad apply, a torn checkpoint, or a non-deterministic
// engine serves wrong answers while every health check stays green. This
// engine makes the check always-on by routing it through the shared log
// itself (the paper's universal ordering device):
//
//  * Every Nth outgoing proposal is stamped with a *digest beacon* header
//    (piggybacking on batching exactly like the trace header); drivers that
//    want a check while the application is idle call ProposeBeaconNow. The
//    beacon carries the proposing replica's recent digest samples: (log
//    position, LocalStore state digest as of that position) pairs, plus its
//    apply position and a hash over the sample table.
//  * Every beacon also carries the commit barrier (entry.h), so the
//    BaseEngine starts a new group commit at it. Beacons are totally ordered
//    by the log, so every replica applies each beacon at the same position Q
//    and computes the SAME deterministic quantity there: the state digest of
//    the log prefix [1, Q-1]. With nothing of the batch staged yet, that is
//    the committed checksum minus the pair of the batch-boundary-dependent
//    group-commit cursor, an O(1) read. A beacon applied after staged writes
//    means the barrier was lost: a bug, and fatal.
//    The result is written to a small per-replica sample table in the store
//    (bounded window, pruned deterministically) — replicas that applied the
//    same prefix have byte-identical tables.
//  * Applying a beacon, each replica compares the proposer's carried samples
//    against its own table at the common positions. A mismatch convicts
//    divergence inside the bounded window (last-agreeing sample, first
//    disagreeing sample]; the DivergenceTracker (src/common) latches the
//    earliest such interval, records a kDivergence flight event with the
//    digest pair, captures a flight excerpt + recent trace ids, and flips
//    this engine's HealthCheck to UNHEALTHY with the position range.
//
// False-positive freedom: every store write during apply is a deterministic
// function of the log prefix (the repo-wide invariant the simulator's
// reference replay already enforces), except the group-commit cursor — which
// the beacon digest excludes. Crash recovery (checkpoint + replay), trim, and
// loglet reconfiguration all preserve "state = f(prefix)", so beacons never
// convict a healthy replica; digest_test and sim_digest_test hold this down.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/divergence.h"
#include "src/core/stackable_engine.h"

namespace delos {

class DigestEngine : public StackableEngine {
 public:
  struct Options {
    std::string server_id;
    // Stamp a beacon header on every Nth proposal descending through this
    // layer (0 disables count-based beacons).
    uint64_t beacon_every_n_proposals = 64;
    bool start_enabled = true;
  };

  DigestEngine(Options options, IEngine* downstream, LocalStore* store);

  // Proposes a standalone beacon carrying this replica's current sample
  // table and blocks until it is applied locally (sim, tests, delosctl
  // demo).
  // timeout_micros > 0 bounds the wait (a fault-sim replay can wedge on a
  // scheduled crash before the beacon applies); returns false on timeout or
  // propose failure, true once the beacon applied locally.
  bool ProposeBeaconNow(int64_t timeout_micros = 0);

  // The earliest-divergence attribution state (never null).
  DivergenceTracker* tracker() { return &tracker_; }
  const DivergenceTracker* tracker() const { return &tracker_; }

  // This replica's sample table: log position -> state digest there.
  std::map<LogPos, uint64_t> SampleTable() const;

  // UNHEALTHY with the convicted position window once the tracker latches.
  HealthReport HealthCheck() const override;

  // /digest rendering (text and JSON).
  std::string Render() const;
  std::string RenderJson() const;

 protected:
  void OnProbeAttached(const Probe& probe) override;
  void OnPropose(LogEntry* entry) override;
  std::any ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) override;
  std::any ApplyControl(RWTxn& txn, const EngineHeader& header, const LogEntry& entry,
                        LogPos pos) override;
  void PostApplyData(const LogEntry& entry, LogPos pos) override;
  void PostApplyControl(const EngineHeader& header, const LogEntry& entry, LogPos pos) override;

 private:
  static constexpr uint64_t kMsgTypeBeacon = 1;
  // Digest samples kept in the store table and carried per beacon.
  static constexpr size_t kSampleWindow = 8;

  // Serializes (server id, apply position, table hash, samples) from the
  // soft copy of the sample table.
  std::string BuildBeaconBlob();
  // Computes the local digest at `pos`, compares the beacon's samples
  // against the store table, records the verdicts, and writes + prunes this
  // replica's sample. Parks the new sample for the post-apply soft update.
  void ProcessBeacon(RWTxn& txn, std::string_view blob, const LogEntry& entry, LogPos pos);

  Options options_;
  // Exports into the probe's metrics and records the kDivergence event and
  // the conviction flight excerpt into the probe's recorder.
  DivergenceTracker tracker_;

  std::atomic<uint64_t> propose_count_{0};

  // Soft copy of this replica's sample table (what outgoing beacons carry),
  // rebuilt from the store on construction and advanced in postApply.
  mutable std::mutex soft_mu_;
  std::map<LogPos, uint64_t> soft_samples_;
  // Advanced once per applied record (lock-free: postApply is single-
  // threaded, beacon builders only need a recent value).
  std::atomic<LogPos> last_applied_pos_{0};

  // Apply->postApply scratch: the sample this position added.
  ApplyCarry<std::pair<LogPos, uint64_t>> sample_carry_;
};

}  // namespace delos

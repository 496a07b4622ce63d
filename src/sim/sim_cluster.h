// SimCluster: the deterministic crash-recovery simulation driver.
//
// One run = one fault schedule against a multi-server Delos stack over a
// shared in-memory log, each server's view of the log wrapped in a FaultyLog
// carrying its slice of the plan. The driver:
//
//  1. issues a deterministic application workload (DelosTable upserts or
//     Zelos znode writes, routed round-robin), retrying idempotently through
//     injected append timeouts, drops, duplicates, and reorders;
//  2. watches for wedged replays (FaultyLog::crashed()) and performs each
//     kill: Stop + destroy the server (volatile state and LocalStore gone),
//     optionally tear the checkpoint file, then rebuild the server from
//     checkpoint + log replay;
//  3. after the workload quiesces, syncs every server to the final log tail
//     (restarting any server that crashes during its own final replay);
//  4. replays the *same final log bytes* through a fresh fault-free stack —
//     the reference run — and diffs every recovered server against it:
//     identical LocalStore checksum, identical key count, applied cursor at
//     the tail.
//
// The reference is a replay of the same log rather than a separate fault-free
// workload execution because faults legitimately change log *content*
// (duplicated entries, retried proposals); what must be invariant is that
// every replica is the same pure function of whatever log the run produced
// (paper §3.4, §6). Reports carry only schedule-determined text so a failing
// seed prints the same failure on every run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/fault_plan.h"

namespace delos::sim {

enum class StackShape {
  kDelosTable,  // Base | LogBackup | BrainDoctor | ViewTracking + DelosTable
  kZelos,       // ... | SessionOrder | Batching + Zelos
  kFullNine,    // all nine engine types (incl. Time, Lease, Observer,
                // Compression) + DelosTable
};

const char* StackShapeName(StackShape shape);

// What the workload thread drives — and whether the run doubles as a
// linearizability audit.
//
//  * kLegacy: the original deterministic DelosTable/Zelos write workload;
//    verdicts are the replica-vs-reference diffs only.
//  * kVerify*: a seed-derived mixed workload (reads, writes, CAS, queue
//    push/pop, lock acquire/release) issued through verify::Recording*
//    clients into a HistoryRecorder, concurrent with the fault plan. After
//    the run the history is checked for linearizability and the RunReport
//    gains a linearizable verdict next to the checksum verdict. Verify
//    workloads run on a session-ordered + batching stack (like production):
//    on a bare stack a duplicated append legitimately applies twice, which
//    is a real non-linearizability the paper's stack exists to prevent.
//
// The workload thread issues one op at a time (the sim's schedule-
// determinism requirement), so history concurrency comes from indeterminate
// attempts: an op cut down by a crash or an append timeout stays open
// (response tick = infinity) and overlaps everything after it, which is
// exactly the search space a fault sweep needs covered.
enum class WorkloadKind {
  kLegacy,
  kVerifyTable,  // "reg" model: per-row read / write / CAS
  kVerifyZelos,  // "znode" model: create / setdata / getdata / delete
  kVerifyQueue,  // "queue" model: push / pop
  kVerifyLock,   // "lock" model: acquire / release / owner
};

const char* WorkloadKindName(WorkloadKind kind);

struct SimOptions {
  StackShape shape = StackShape::kFullNine;
  int num_servers = 3;
  int num_ops = 40;
  // Checkpoint files live here; each run creates a unique subdirectory.
  std::string scratch_dir;
  // How long one workload op may stay unresolved before the run is declared
  // stuck (generous: a crash + restart + replay must fit comfortably).
  int64_t op_timeout_micros = 10'000'000;
  // Per-server shared-log read cache (write-through fill always disabled in
  // the sim; see BuildRig). Verdicts must be byte-identical either way —
  // the read-path conformance sweep flips this flag to prove it.
  bool read_cache = true;
  // BaseEngine checkpoint-flush cadence override (0 = engine default). The
  // background flush runs on wall time, so WHICH positions a crashed
  // server's checkpoint covers — and hence how deep its recovery replay is —
  // races the schedule. Sweeps that assert byte-identical replay artifacts
  // (the workload-attribution suite) set this very high: no checkpoint is
  // ever written, a crashed server cold-starts from the log (a supported
  // recovery path), and every applied-record count becomes a pure function
  // of the schedule. Verdict-only sweeps leave it at 0; verdicts are
  // flush-timing independent by design.
  int64_t flush_interval_micros = 0;
  // Digest-beacon cadence for the stack's DigestEngine (0 = beacons off).
  // Off by default so every pre-existing schedule's log bytes — and hence
  // every byte-identity assertion over old reports — stay untouched. When
  // >0, proposals are stamped with beacon headers at this cadence and,
  // after the workload quiesces, the driver runs two deterministic beacon
  // rounds (every server proposes a standalone beacon in index order, then
  // everyone syncs) so post-quiesce state — including a kSabotage
  // corruption — is cross-checked before capture.
  uint64_t digest_beacon_every = 0;
  FaultPlanOptions plan;  // used by RunSeed

  // Verification workload knobs (ignored for kLegacy).
  WorkloadKind workload = WorkloadKind::kLegacy;
  // Logical client ids in the history (op i issues as client i % clients and
  // routes to server i % num_servers, so clients hop servers).
  int verify_clients = 3;
  // Distinct keys / paths / queues / locks the mixed workload spreads over
  // (P-compositionality keeps each per-key search small).
  int verify_keys = 4;
  // HistoryRecorder capacity; sized so retries never overflow it.
  size_t verify_history_capacity = 4096;
};

struct RunReport {
  uint64_t seed = 0;
  std::string plan_bytes;  // FaultPlan::Serialize() of the executed plan
  std::string plan_text;   // FaultPlan::Describe()
  uint64_t final_tail = 0;
  uint64_t reference_checksum = 0;
  uint64_t reference_key_count = 0;
  std::vector<uint64_t> server_checksums;
  uint64_t crashes_fired = 0;
  uint64_t append_faults_fired = 0;
  // Empty = every invariant held. Strings are schedule-determined (no
  // timestamps, no absolute checksums) so a failing seed reproduces the
  // identical report.
  std::vector<std::string> failures;

  // Post-mortem observability. Deliberately excluded from Summary() and the
  // failure strings: the verdict stays schedule-determined while these carry
  // the full diagnostic state.
  uint64_t last_trace_id = 0;     // most recent trace id the run assigned
  std::string last_trace;         // Tracer::Render of that trace
  uint64_t failing_trace_id = 0;  // newest traced apply anywhere, failures only
  std::string flight_dump;        // per-server ring dumps, failures only

  // Latency attribution (schedule-determined: the sim trace clock is pinned,
  // so every duration is 0 and exemplar capture reduces to errored proposals
  // — two replays of one seed must produce byte-identical text here). Like
  // last_trace, excluded from Summary().
  std::string latency_summary;  // per-server RenderLatency()
  std::string slow_exemplars;   // per-server RenderSlowList()

  // Workload attribution (schedule-determined: the hash-family seed is
  // a constant, sketch updates are commutative counter sums, and renders sort —
  // two replays of one seed must produce byte-identical text, and the
  // planted hot key / top client appear by name). Excluded from Summary().
  std::string workload_summary;  // per-server RenderWorkload() + top tables

  // Digest-beacon divergence verdicts (digest_beacon_every > 0 only).
  // divergence_summary carries only schedule-determined fields — per-server
  // conviction windows, proposer ids, and beacon counters; NO absolute
  // digest values, which fold per-incarnation engine instance ids and so
  // legitimately vary across runs — making a convicting seed's summary
  // byte-identical across replays. divergence_artifact is the full-fidelity
  // conviction report (digest pair + flight excerpt + trace ids) for CI
  // upload, excluded from byte-identity comparisons. A conviction does NOT
  // append a failure string by itself: the sabotage sweep asserts convicted
  // runs, the fault-free sweep asserts clean ones.
  bool divergence_convicted = false;
  uint64_t divergence_mismatches = 0;
  std::string divergence_summary;
  std::string divergence_artifact;

  // Linearizability audit (verify workloads only; verify_ran stays false for
  // kLegacy and the verdict renders as "n/a"). A non-linearizable history or
  // an exhausted search budget also appends a failure string, so ok() covers
  // the consistency verdict.
  bool verify_ran = false;
  bool linearizable = true;
  uint64_t verify_ops = 0;        // history ops fed to the checker
  int64_t checker_micros = 0;
  std::string history_text;       // HistoryRecorder::Render of the history
  std::string violation_text;     // Violation::Render per violation, else empty

  bool ok() const { return failures.empty(); }
  std::string Summary() const;
};

class SimCluster {
 public:
  explicit SimCluster(SimOptions options);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  // Executes one schedule. The cluster tears all servers down at the end;
  // Run may be called again with a fresh plan.
  RunReport Run(const FaultPlan& plan);

  // Convenience: FaultPlan::Random(seed, options.plan) + Run.
  static RunReport RunSeed(uint64_t seed, const SimOptions& options);

 private:
  struct Rig;
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace delos::sim

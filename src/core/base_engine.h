// BaseEngine (paper §3.2): the bottom of every stack, implementing the
// IEngine API directly over a shared log.
//
//  * Propose appends the entry and plays the log forward until it; the
//    future completes with the local Apply's return value — a replicated RPC
//    that is durable (append committed), failure-atomic (applied inside a
//    LocalStore transaction), and linearizable (ordered by the log).
//  * Sync checks the log tail and plays forward to it; the syncs queued
//    while no check slot is free coalesce behind the next tail check. Up
//    to kMaxTailChecksInFlight checks are in flight at once, and each
//    serves only syncs that arrived before it was issued. Tail checks are
//    pipelined: once a check returns target T, the syncs it served park
//    until applied_position() reaches T, and the syncs queued meanwhile get
//    the next check without waiting for the apply thread. The sync thread
//    settles each parked group with one snapshot; the apply thread only
//    wakes it.
//  * The apply thread is the only LocalStore writer. It plays the log in
//    group-commit batches: one LocalStore transaction per ReadRange batch
//    (up to play_batch_size records), each record applied inside its own
//    savepoint-nested sub-transaction, then a single cursor update + commit.
//    A record marked with the commit barrier (entry.h) cuts the batch: the
//    records before it commit first, and it opens the next transaction.
//    The batch then ends in a fixed order: postApply for every record, one
//    applied-position publish, and one completion pass. The pass settles the
//    proposals that layers above complete from postApply
//    (CompleteAfterPublish), in log order, and then this engine's own
//    pending proposals. So a proposer always sees applied_position() cover
//    its entry, and a sync never waits for the proposers' continuations.
//    The cursor committed with a batch always equals the last record
//    applied in it, so replay after a crash is exact.
//  * With prefetching on (the default), a read-ahead thread keeps batches
//    of log records fetched ahead of the apply cursor in a bounded queue,
//    overlapping network reads with local apply work; prefetch_batches = 0
//    gives synchronous reads on the apply thread (the simulator's mode, so
//    log reads stay schedule-deterministic).
//  * Background housekeeping flushes the LocalStore periodically (replay
//    from the log covers the gap after a crash) and trims the log up to the
//    prefix allowed by the stack (SetTrimPrefix), clamped to the durable
//    cursor.
//  * A deterministic exception from the upcall is rolled back and relayed
//    to the waiting propose; anything else crashes the server (§3.4). Tests
//    can intercept the crash with a fatal handler.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/health.h"
#include "src/core/probe.h"

namespace delos {

struct BaseEngineOptions {
  std::string server_id = "server0";
  int64_t flush_interval_micros = 50'000;
  int64_t trim_interval_micros = 200'000;
  // Clock used for health-stall arithmetic (last-progress stamps), apply
  // batch timing, and the read-retry backoff sleeps. Defaults to RealClock;
  // tests inject a SimClock so both stall detection and retry pacing are a
  // function of simulated time.
  Clock* clock = nullptr;
  // Maximum records per group-commit batch (= per LocalStore transaction).
  LogPos play_batch_size = 128;
  // Read-ahead pipeline: how many decoded batches the prefetch thread may
  // hold ahead of the apply cursor in its bounded queue. 0 disables the
  // prefetcher entirely — the apply thread reads the log synchronously, one
  // batch at a time (the simulator runs this mode so every log read stays a
  // schedule-determined event on the apply thread).
  int prefetch_batches = 8;
  // Per-server shared-log read cache, consumed by ClusterServer (not by
  // BaseEngine itself): when > 0 the server wraps its log in a
  // ReadCachingLog of this many records before building the engine, so the
  // apply loop, prefetcher, and LogBackupEngine share one cache. 0 disables.
  size_t read_cache_capacity = 65536;
  // Fill the cache from this server's own successful appends (see
  // ReadCacheOptions::write_through; the simulator turns this off so replay
  // always flows through the FaultyLog read path).
  bool read_cache_write_through = true;
  // Instrumentation sinks. A standalone engine records into these; on a
  // ClusterServer they seed the server's Probe (see AttachProbe), which also
  // carries the apply profiler and the metrics registry.
  //
  // Optional per-proposal tracing: when set, Propose stamps a trace id on
  // untraced entries, records the shared-log append span and per-record
  // apply spans, and completes the client-visible root span.
  Tracer* tracer = nullptr;
  // Tail-latency attribution (consumed by ClusterServer, not BaseEngine):
  // when tracing is on and this is true, the server subscribes a
  // LatencyAttributor to the cluster Tracer — per-stage latency.stage.*
  // histograms, critical-path dominance, and slow-trace exemplar capture.
  bool latency_attribution = true;
  // Workload attribution plane (src/common/workload.h). The flag is
  // consumed by ClusterServer: when true the server builds a per-server
  // WorkloadAttributor, wires it into every engine's propose path and the
  // app applicator's apply path, and serves /workload + /top/keys +
  // /top/clients. The pointer is the direct tap BaseEngine charges (set by
  // ClusterServer; tests may inject their own).
  bool workload_attribution = true;
  WorkloadAttributor* workload = nullptr;
  // Optional (but in practice always-on: ClusterServer defaults it to the
  // server's own ring) flight recorder for appends, batch commits, flushes,
  // trims, and crashes.
  FlightRecorder* recorder = nullptr;
  // Invoked on non-deterministic failure; default aborts the process.
  std::function<void(const std::string&)> fatal_handler;
  // Simulation hook: invoked after a batch's transaction (including the
  // cursor update) has committed but before postApply runs, applied_pos_ is
  // published, or any propose promise settles. Returning true makes the
  // apply thread exit on the spot — a crash in the commit-to-publish window.
  // Because the cursor commits atomically with the batch, replay after such
  // a crash starts at the record after the batch and never re-applies it;
  // sim_crash_recovery_test pins that invariant down.
  std::function<bool(LogPos batch_last)> post_commit_crash_hook;

  // Mutation self-test toggles (verify harness): seeded consistency bugs
  // that prove the linearizability checker actually fires. Counting the
  // records this engine applies (1-based, across batches):
  //  * mutate_double_apply_at = N: after applying the N-th record, apply the
  //    same entry a second time (a broken exactly-once pipeline).
  //  * mutate_reorder_at = N: after applying the N-th record, re-apply the
  //    (N-1)-th record's entry at its original position (a stale replay that
  //    breaks apply/session order).
  // The extra apply runs in its own savepoint (a deterministic error rolls
  // only it back), produces no postApply and settles no promise — the
  // mutation corrupts state, never liveness. The injection code is compiled
  // in only when the build sets DELOS_MUTATIONS (CMake option, default ON);
  // without it these fields are inert.
  uint64_t mutate_double_apply_at = 0;
  uint64_t mutate_reorder_at = 0;
};

class BaseEngine : public IEngine, public IHealthCheckable {
 public:
  BaseEngine(std::shared_ptr<ISharedLog> log, LocalStore* store, BaseEngineOptions options);
  ~BaseEngine() override;

  BaseEngine(const BaseEngine&) = delete;
  BaseEngine& operator=(const BaseEngine&) = delete;

  // Recovers the cursor from the LocalStore and spawns the apply / sync /
  // housekeeping threads. The upcall chain must be registered first.
  void Start();
  void Stop();

  // Tail checks the sync thread keeps in flight at most. §3.2 keeps one;
  // with k, a sync that arrives while checks are out waits ~RTT/(2k) for
  // the next one instead of ~RTT/2 plus a full RTT, and checks still go
  // out at no more than k per round trip whatever the number of callers.
  // 4 cut read latency further but raised a saturated closed loop's write
  // latency (EXPERIMENTS.md, "Pipelined tail checks").
  static constexpr int kMaxTailChecksInFlight = 2;

  Future<std::any> Propose(LogEntry entry) override;
  Future<ROTxn> Sync() override;
  void RegisterUpcall(IApplicator* applicator) override;
  void SetTrimPrefix(LogPos pos) override;
  // Queues the proposal for the current batch's completion pass. Apply
  // thread only (called from a layer's PostApply).
  void CompleteAfterPublish(Promise<std::any> promise, std::any result) override;

  // Switches the engine to its server's instrumentation probe (which must
  // outlive it); call before Start. Until then the engine records into the
  // sinks of its options. With a registry the engine records
  // base.apply.batch_size, base.apply.commit_micros, base.apply.records,
  // base.apply.batches, and the base.apply.lag gauge (log positions between
  // the play target and the applied cursor).
  void AttachProbe(const Probe* probe);
  const Probe* probe() const { return probe_; }

  const std::string& server_id() const { return options_.server_id; }
  LogPos applied_position() const { return applied_pos_.load(std::memory_order_acquire); }
  // Last log position reflected in a durable LocalStore checkpoint.
  LogPos durable_position() const { return durable_pos_.load(std::memory_order_acquire); }
  // Cumulative apply-thread busy time (drives the Figure 8 utilization
  // bench).
  int64_t apply_busy_micros() const { return busy_micros_.load(std::memory_order_relaxed); }
  // Group-commit counters: log records applied and LocalStore transactions
  // committed by the apply pipeline. records/batches = mean batch size.
  uint64_t apply_records() const { return records_applied_.load(std::memory_order_relaxed); }
  uint64_t apply_batches() const { return batches_committed_.load(std::memory_order_relaxed); }
  // Cumulative time the apply thread spent waiting for log records (queue
  // pops in prefetch mode, synchronous ReadRanges otherwise). busy + stall
  // ~= apply-thread wall time during replay.
  int64_t read_stall_micros() const {
    return read_stall_total_micros_.load(std::memory_order_relaxed);
  }
  // Batches currently sitting fetched-but-unapplied in the prefetch queue.
  size_t prefetch_queue_depth() const;

  // Forces one flush + durable-position update (tests; production relies on
  // the periodic housekeeping thread).
  void FlushNow();
  // Forces one trim pass (tests).
  void TrimNow();

  ISharedLog* shared_log() { return log_.get(); }
  LocalStore* store() { return store_; }

  // IHealthCheckable: judges apply-cursor stall (play target raised but the
  // cursor has made no progress for the configured thresholds — a wedged log
  // read or apply thread) and flush backlog (applied far ahead of durable).
  // Reads soft state only; callable from any thread.
  HealthReport HealthCheck() const override;

 private:
  // One bounded-queue slot: a play_batch_size chunk of fetched records, or a
  // fatal read error being relayed to the apply thread (so both pipeline
  // modes fail identically).
  struct PrefetchedBatch {
    std::vector<LogRecord> records;
    std::exception_ptr error;
  };

  void ApplyThreadMain();
  void PrefetchThreadMain();
  void SyncThreadMain();
  void HousekeepingThreadMain();
  // Bounded-queue push; blocks while the queue holds prefetch_batches
  // batches. Returns false when the engine is shutting down.
  bool PushPrefetched(PrefetchedBatch batch);
  // Blocking pop. Returns false on shutdown with an empty queue.
  bool PopPrefetched(PrefetchedBatch* batch);
  // Applies a prefix of `records` in a single LocalStore transaction (group
  // commit): all of them, or those before the first commit barrier after
  // the first record. Returns how many records it committed, or 0 when the
  // apply thread must exit (fatal error or shutdown); the transaction is
  // then aborted and the cursor stays at the last committed batch boundary.
  size_t ApplyBatch(std::span<const LogRecord> records);
  void RequestPlayTo(LogPos pos);
  // Removes `seq` from the pending map and fails its promise (no-op if the
  // proposal already completed).
  void FailPending(uint64_t seq, std::exception_ptr error);
  void Fatal(const std::string& message);

  std::shared_ptr<ISharedLog> log_;
  LocalStore* store_;
  BaseEngineOptions options_;
  IApplicator* upcall_ = nullptr;
  // Unique per engine instance so replayed entries from a previous
  // incarnation of this server never match this incarnation's pending
  // proposals.
  std::string instance_id_;
  std::string cursor_key_;

  std::atomic<LogPos> applied_pos_{0};
  std::atomic<LogPos> durable_pos_{0};
  std::atomic<LogPos> trim_allowed_{kNoTrimConstraint};
  std::atomic<int64_t> busy_micros_{0};
  std::atomic<uint64_t> records_applied_{0};
  std::atomic<uint64_t> batches_committed_{0};
  std::atomic<uint64_t> next_seq_{1};
  std::atomic<bool> started_{false};
  // Append and tail-check continuations still running (or queued) inside
  // the shared log. Stop() drains this to zero so no callback can touch the
  // engine after teardown.
  std::atomic<int64_t> inflight_callbacks_{0};
  // The sinks of the options, until AttachProbe replaces them.
  Probe own_probe_;
  const Probe* probe_ = &own_probe_;
  // Profiler slots of the per-record frames, and metric handles (null
  // without a profiler / registry), resolved once per probe.
  std::atomic<int64_t>* apply_slot_ = nullptr;
  std::atomic<int64_t>* postapply_slot_ = nullptr;
  std::atomic<int64_t>* complete_slot_ = nullptr;
  Histogram* batch_size_hist_ = nullptr;
  Histogram* commit_latency_hist_ = nullptr;
  Counter* records_counter_ = nullptr;
  Counter* batches_counter_ = nullptr;
  Gauge* lag_gauge_ = nullptr;
  Histogram* read_stall_hist_ = nullptr;
  Gauge* prefetch_depth_gauge_ = nullptr;

  // Injected-clock time of the last apply progress (batch committed, or the
  // stall timer restarting because the play target rose above the cursor
  // after an idle stretch). The watchdog's stall verdict is now minus this.
  std::atomic<int64_t> last_progress_micros_{0};
  // Injected-clock time at which the apply thread started waiting for its
  // current batch of log records; 0 while it is not waiting. Lets
  // HealthCheck attribute a stall to the read path rather than the upcall.
  std::atomic<int64_t> read_stall_since_micros_{0};
  std::atomic<int64_t> read_stall_total_micros_{0};

  std::atomic<bool> shutdown_{false};
  mutable std::mutex apply_mu_;
  std::condition_variable apply_cv_;  // wakes the apply thread
  LogPos play_target_ = 0;

  std::mutex pending_mu_;
  std::map<uint64_t, Promise<std::any>> pending_;
  // Proposals handed over by CompleteAfterPublish during the current
  // batch's postApply, in log order (apply thread only).
  std::vector<std::pair<Promise<std::any>, std::any>> completions_;

  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  // Syncs waiting for the next tail check.
  std::vector<Promise<ROTxn>> sync_waiters_;
  // Tail checks in flight (at most kMaxTailChecksInFlight), and the
  // outcomes their continuations stored for the sync thread, by check id,
  // in the order they returned.
  int tail_checks_in_flight_ = 0;
  std::vector<std::pair<uint64_t, Result<LogPos>>> tail_results_;
  // The lowest play target a parked sync group waits for (max when none is
  // parked). The apply thread wakes the sync thread once it publishes a
  // position at or above it.
  std::atomic<LogPos> sync_wake_at_{std::numeric_limits<LogPos>::max()};

  std::mutex flush_mu_;  // serializes FlushNow with the housekeeping thread

  // Read-ahead pipeline state (prefetch_batches > 0): the prefetch thread
  // fetches [fetched+1, fetched+span] from the log and pushes
  // play_batch_size chunks into this bounded queue; the apply thread pops.
  mutable std::mutex prefetch_mu_;
  std::condition_variable prefetch_cv_;
  std::deque<PrefetchedBatch> prefetch_queue_;

  std::thread apply_thread_;
  std::thread prefetch_thread_;
  std::thread sync_thread_;
  std::thread housekeeping_thread_;

#ifdef DELOS_MUTATIONS
  // Mutation self-test state (apply thread only): the count of normal
  // applies so far and the previously applied entry for the reorder
  // mutation.
  uint64_t mutation_applied_count_ = 0;
  LogEntry mutation_prev_entry_;
  LogPos mutation_prev_pos_ = 0;
  bool mutation_have_prev_ = false;
#endif
};

}  // namespace delos

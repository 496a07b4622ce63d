#include "src/core/base_engine.h"

#include <algorithm>
#include <iterator>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/serde.h"
#include "src/common/thread_name.h"
#include "src/common/workload.h"

namespace delos {

namespace {

constexpr char kBaseHeaderName[] = "base";

// HealthCheck thresholds: how long the apply cursor may sit behind a raised
// play target with zero progress before the engine reports DEGRADED /
// UNHEALTHY, and how many applied-but-not-yet-durable log positions count
// as a flush backlog (DEGRADED).
constexpr int64_t kStallDegradedMicros = 500'000;
constexpr int64_t kStallUnhealthyMicros = 1'500'000;
constexpr int64_t kFlushBacklogPositions = 100'000;

// Records per backend ReadRange the prefetcher issues, in play batches.
// Wider fetches amortize the per-read tail check and acceptor round trips of
// a quorum loglet; the span is re-chunked into play_batch_size batches so
// the group-commit transaction bound holds.
constexpr LogPos kPrefetchSpanBatches = 4;

std::string EncodeBaseHeader(const std::string& instance_id, uint64_t seq) {
  Serializer ser;
  ser.WriteString(instance_id);
  ser.WriteVarint(seq);
  return ser.Release();
}

// Zero-copy decode: the instance id stays a view into the header blob (the
// caller only compares it against its own id).
std::pair<std::string_view, uint64_t> DecodeBaseHeader(std::string_view blob) {
  Deserializer de(blob);
  std::string_view instance = de.ReadStringView();
  const uint64_t seq = de.ReadVarint();
  return {instance, seq};
}

std::string EncodePos(LogPos pos) {
  Serializer ser;
  ser.WriteVarint(pos);
  return ser.Release();
}

LogPos DecodePos(const std::string& bytes) {
  Deserializer de(bytes);
  return de.ReadVarint();
}

}  // namespace

BaseEngine::BaseEngine(std::shared_ptr<ISharedLog> log, LocalStore* store,
                       BaseEngineOptions options)
    : log_(std::move(log)),
      store_(store),
      options_(std::move(options)),
      cursor_key_("e/base/cursor") {
  if (options_.clock == nullptr) {
    options_.clock = RealClock::Instance();
  }
  // Instance id: server id plus a random suffix, regenerated per process
  // incarnation.
  Rng rng(static_cast<uint64_t>(RealClock::Instance()->NowMicros()) ^
          Fnv1a64(options_.server_id));
  instance_id_ = options_.server_id + "#" + rng.String(8);
  own_probe_.server_id = options_.server_id;
  own_probe_.tracer = options_.tracer;
  own_probe_.recorder = options_.recorder;
  own_probe_.workload = options_.workload;
}

void BaseEngine::AttachProbe(const Probe* probe) {
  probe_ = probe;
  apply_slot_ = probe->Slot("base.apply");
  postapply_slot_ = probe->Slot("postApply");
  complete_slot_ = probe->Slot("base.complete");
  MetricsRegistry* metrics = probe->metrics;
  if (metrics != nullptr) {
    batch_size_hist_ = metrics->GetHistogram("base.apply.batch_size");
    commit_latency_hist_ = metrics->GetHistogram("base.apply.commit_micros");
    records_counter_ = metrics->GetCounter("base.apply.records");
    batches_counter_ = metrics->GetCounter("base.apply.batches");
    lag_gauge_ = metrics->GetGauge("base.apply.lag");
    read_stall_hist_ = metrics->GetHistogram("read.stall_micros");
    prefetch_depth_gauge_ = metrics->GetGauge("read.prefetch.depth");
  }
}

BaseEngine::~BaseEngine() { Stop(); }

void BaseEngine::RegisterUpcall(IApplicator* applicator) { upcall_ = applicator; }

void BaseEngine::Start() {
  if (started_.exchange(true)) {
    return;
  }
  // Recover the playback cursor; the log replays everything after it.
  {
    ROTxn snapshot = store_->Snapshot();
    auto cursor = snapshot.Get(cursor_key_);
    applied_pos_.store(cursor.has_value() ? DecodePos(*cursor) : 0, std::memory_order_release);
    durable_pos_.store(applied_pos_.load(), std::memory_order_release);
  }
  last_progress_micros_.store(options_.clock->NowMicros(), std::memory_order_relaxed);
  apply_thread_ = std::thread([this] {
    SetCurrentThreadName("apply");
    ApplyThreadMain();
  });
  if (options_.prefetch_batches > 0) {
    prefetch_thread_ = std::thread([this] {
      SetCurrentThreadName("prefetch");
      PrefetchThreadMain();
    });
  }
  sync_thread_ = std::thread([this] {
    SetCurrentThreadName("sync");
    SyncThreadMain();
  });
  housekeeping_thread_ = std::thread([this] {
    SetCurrentThreadName("housekeeping");
    HousekeepingThreadMain();
  });
}

void BaseEngine::Stop() {
  const bool first = !shutdown_.exchange(true);
  if (first) {
    // Briefly take each mutex so no waiter can miss the flag flip.
    { std::lock_guard<std::mutex> lock(apply_mu_); }
    { std::lock_guard<std::mutex> lock(sync_mu_); }
    { std::lock_guard<std::mutex> lock(prefetch_mu_); }
    apply_cv_.notify_all();
    sync_cv_.notify_all();
    prefetch_cv_.notify_all();
    if (apply_thread_.joinable()) {
      apply_thread_.join();
    }
    if (prefetch_thread_.joinable()) {
      prefetch_thread_.join();
    }
    if (sync_thread_.joinable()) {
      sync_thread_.join();
    }
    if (housekeeping_thread_.joinable()) {
      housekeeping_thread_.join();
    }
  }
  // Drain in-flight append and tail-check continuations before touching
  // pending_: a Propose that raced this Stop, or the sync thread's last tail
  // checks, may still have a callback running inside the shared log, and it
  // dereferences `this`. Runs on every Stop() call (the destructor calls
  // Stop again) so the object never dies under a live callback.
  while (inflight_callbacks_.load(std::memory_order_acquire) != 0) {
    RealClock::Instance()->SleepMicros(50);
  }
  if (!first) {
    return;
  }
  // Fail anything still waiting.
  std::map<uint64_t, Promise<std::any>> pending;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending.swap(pending_);
  }
  for (auto& [seq, promise] : pending) {
    promise.SetException(
        std::make_exception_ptr(LogUnavailableError("engine stopped before apply")));
  }
  std::vector<Promise<ROTxn>> waiters;
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    waiters.swap(sync_waiters_);
  }
  for (auto& waiter : waiters) {
    waiter.SetException(std::make_exception_ptr(LogUnavailableError("engine stopped")));
  }
}

Future<std::any> BaseEngine::Propose(LogEntry entry) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return MakeErrorFuture<std::any>(
        std::make_exception_ptr(LogUnavailableError("engine stopped")));
  }
  // Tracing: an entry arriving without trace ids entered the stack here, so
  // this engine is the trace root (a bare BaseEngine with no middle engines
  // above it); entries stamped by a layer above keep their ids. The append
  // span brackets the shared-log round trips (quorum phases included).
  const ProposeFrame frame(*probe_, &entry);
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  entry.SetHeader(kBaseHeaderName, EngineHeader{kMsgTypeApp, EncodeBaseHeader(instance_id_, seq)});
  // The bottom layer's hand-off is the bytes actually appended to the
  // shared log.
  probe_->ChargePropose("base.append", entry);
  std::string bytes = entry.Serialize();

  Future<std::any> future;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto [it, inserted] = pending_.emplace(seq, Promise<std::any>());
    future = it->second.GetFuture();
  }
  inflight_callbacks_.fetch_add(1, std::memory_order_acq_rel);
  log_->Append(std::move(bytes))
      .Then([this, seq, frame](Result<LogPos> result) {
        frame.Span("base.append");
        probe_->Record(FlightEventKind::kAppend,
                       result.ok() ? std::string_view() : "append failed",
                       frame.first_trace_id(), result.ok() ? result.value() : 0);
        // Once shutdown began, the apply/sync machinery may already be torn
        // down: just fail the proposal instead of scheduling playback. Stop()
        // drains inflight_callbacks_, so `this` outlives this callback.
        if (shutdown_.load(std::memory_order_acquire)) {
          FailPending(seq,
                      std::make_exception_ptr(LogUnavailableError("engine stopped before apply")));
        } else if (!result.ok()) {
          FailPending(seq, result.error());
        } else {
          RequestPlayTo(result.value());
        }
        inflight_callbacks_.fetch_sub(1, std::memory_order_acq_rel);
      });
  frame.RootSpanOnCompletion(future);
  return future;
}

void BaseEngine::FailPending(uint64_t seq, std::exception_ptr error) {
  std::optional<Promise<std::any>> promise;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    auto it = pending_.find(seq);
    if (it != pending_.end()) {
      promise.emplace(std::move(it->second));
      pending_.erase(it);
    }
  }
  if (promise.has_value()) {
    promise->SetException(std::move(error));
  }
}

Future<ROTxn> BaseEngine::Sync() {
  if (shutdown_.load(std::memory_order_acquire)) {
    return MakeErrorFuture<ROTxn>(std::make_exception_ptr(LogUnavailableError("engine stopped")));
  }
  Promise<ROTxn> promise;
  Future<ROTxn> future = promise.GetFuture();
  bool wake;
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    // While every check slot is taken the sync thread cannot serve this
    // sync before a check returns, and that wakes it anyway.
    wake = sync_waiters_.empty() && tail_checks_in_flight_ < kMaxTailChecksInFlight;
    sync_waiters_.push_back(std::move(promise));
  }
  if (wake) {
    sync_cv_.notify_one();
  }
  return future;
}

void BaseEngine::SetTrimPrefix(LogPos pos) {
  trim_allowed_.store(pos, std::memory_order_release);
}

void BaseEngine::CompleteAfterPublish(Promise<std::any> promise, std::any result) {
  completions_.emplace_back(std::move(promise), std::move(result));
}

void BaseEngine::RequestPlayTo(LogPos pos) {
  LogPos target;
  LogPos old_target;
  {
    std::lock_guard<std::mutex> lock(apply_mu_);
    old_target = play_target_;
    play_target_ = std::max(play_target_, pos);
    target = play_target_;
  }
  const LogPos applied = applied_pos_.load(std::memory_order_acquire);
  // Restart the stall timer when the target rises above the cursor after an
  // idle (lag == 0) stretch — otherwise the first proposal after a long idle
  // period would instantly read as an ancient stall.
  if (old_target <= applied && target > applied) {
    last_progress_micros_.store(options_.clock->NowMicros(), std::memory_order_relaxed);
  }
  if (lag_gauge_ != nullptr) {
    lag_gauge_->Set(target > applied ? static_cast<int64_t>(target - applied) : 0);
  }
  apply_cv_.notify_all();
}

size_t BaseEngine::prefetch_queue_depth() const {
  std::lock_guard<std::mutex> lock(prefetch_mu_);
  return prefetch_queue_.size();
}

bool BaseEngine::PushPrefetched(PrefetchedBatch batch) {
  std::unique_lock<std::mutex> lock(prefetch_mu_);
  prefetch_cv_.wait(lock, [&] {
    return shutdown_.load() ||
           prefetch_queue_.size() < static_cast<size_t>(options_.prefetch_batches);
  });
  if (shutdown_.load()) {
    return false;
  }
  prefetch_queue_.push_back(std::move(batch));
  if (prefetch_depth_gauge_ != nullptr) {
    prefetch_depth_gauge_->Set(static_cast<int64_t>(prefetch_queue_.size()));
  }
  prefetch_cv_.notify_all();
  return true;
}

bool BaseEngine::PopPrefetched(PrefetchedBatch* batch) {
  std::unique_lock<std::mutex> lock(prefetch_mu_);
  prefetch_cv_.wait(lock, [&] { return shutdown_.load() || !prefetch_queue_.empty(); });
  if (prefetch_queue_.empty()) {
    return false;  // shutdown
  }
  *batch = std::move(prefetch_queue_.front());
  prefetch_queue_.pop_front();
  if (prefetch_depth_gauge_ != nullptr) {
    prefetch_depth_gauge_->Set(static_cast<int64_t>(prefetch_queue_.size()));
  }
  prefetch_cv_.notify_all();
  return true;
}

// Read-ahead: fetch wide spans of the log ahead of the apply cursor so the
// apply thread almost never blocks on the network. The fetch span (default
// 4x play_batch_size) amortizes the per-ReadRange overhead of a remote
// loglet — tail check, acceptor sweep, round trips — and is re-chunked into
// play_batch_size batches so each queue slot still maps to one group-commit
// transaction. Read failures are not handled here asymmetrically: trims are
// relayed through the queue so the apply thread Fatals exactly as it would
// have synchronously, and unavailability is retried on the injected clock.
void BaseEngine::PrefetchThreadMain() {
  const LogPos span = options_.play_batch_size * kPrefetchSpanBatches;
  LogPos fetched = applied_pos_.load(std::memory_order_acquire);
  while (true) {
    LogPos target;
    {
      std::unique_lock<std::mutex> lock(apply_mu_);
      apply_cv_.wait(lock, [&] { return shutdown_.load() || play_target_ > fetched; });
      if (shutdown_.load()) {
        return;
      }
      target = play_target_;
    }
    while (fetched < target) {
      if (shutdown_.load()) {
        return;
      }
      const LogPos lo = fetched + 1;
      const LogPos hi = std::min<LogPos>(target, lo + span - 1);
      std::vector<LogRecord> records;
      try {
        records = log_->ReadRange(lo, hi);
      } catch (const TrimmedError&) {
        PrefetchedBatch poison;
        poison.error = std::current_exception();
        PushPrefetched(std::move(poison));
        return;
      } catch (const LogUnavailableError&) {
        if (shutdown_.load()) {
          return;
        }
        options_.clock->SleepMicros(1000);
        continue;
      }
      if (records.empty()) {
        // Target beyond what the log serves right now; back off briefly and
        // re-check (the records are committed, they just have not reached
        // this replica's read path yet).
        if (shutdown_.load()) {
          return;
        }
        options_.clock->SleepMicros(200);
        continue;
      }
      fetched = records.back().pos;
      for (size_t offset = 0; offset < records.size(); offset += options_.play_batch_size) {
        const size_t end = std::min<size_t>(records.size(), offset + options_.play_batch_size);
        PrefetchedBatch batch;
        batch.records.assign(std::make_move_iterator(records.begin() + offset),
                             std::make_move_iterator(records.begin() + end));
        if (!PushPrefetched(std::move(batch))) {
          return;
        }
      }
    }
  }
}

void BaseEngine::ApplyThreadMain() {
  const bool prefetch = options_.prefetch_batches > 0;
  while (true) {
    LogPos target;
    {
      std::unique_lock<std::mutex> lock(apply_mu_);
      apply_cv_.wait(lock, [&] {
        return shutdown_.load() || play_target_ > applied_pos_.load(std::memory_order_acquire);
      });
      if (shutdown_.load()) {
        return;
      }
      target = play_target_;
    }
    while (applied_pos_.load(std::memory_order_acquire) < target) {
      std::vector<LogRecord> records;
      // Everything between here and the batch's arrival is read stall:
      // HealthCheck reads the since-stamp to attribute a wedged cursor to
      // the read path, and the histogram feeds the utilization bench.
      const int64_t stall_start = options_.clock->NowMicros();
      read_stall_since_micros_.store(stall_start, std::memory_order_relaxed);
      if (prefetch) {
        PrefetchedBatch batch;
        if (!PopPrefetched(&batch)) {
          read_stall_since_micros_.store(0, std::memory_order_relaxed);
          return;  // shutdown
        }
        if (batch.error != nullptr) {
          read_stall_since_micros_.store(0, std::memory_order_relaxed);
          try {
            std::rethrow_exception(batch.error);
          } catch (const TrimmedError&) {
            Fatal("playback cursor fell below the trim prefix");
          } catch (const std::exception& e) {
            Fatal(std::string("prefetch failed: ") + e.what());
          }
          return;
        }
        records = std::move(batch.records);
      } else {
        const LogPos lo = applied_pos_.load(std::memory_order_acquire) + 1;
        const LogPos hi = std::min<LogPos>(target, lo + options_.play_batch_size - 1);
        try {
          records = log_->ReadRange(lo, hi);
        } catch (const TrimmedError&) {
          read_stall_since_micros_.store(0, std::memory_order_relaxed);
          Fatal("playback cursor fell below the trim prefix");
          return;
        } catch (const LogUnavailableError&) {
          read_stall_since_micros_.store(0, std::memory_order_relaxed);
          if (shutdown_.load()) {
            return;
          }
          options_.clock->SleepMicros(1000);
          continue;
        }
      }
      read_stall_since_micros_.store(0, std::memory_order_relaxed);
      const int64_t stalled = options_.clock->NowMicros() - stall_start;
      read_stall_total_micros_.fetch_add(stalled, std::memory_order_relaxed);
      if (read_stall_hist_ != nullptr) {
        read_stall_hist_->Record(stalled);
      }
      if (records.empty()) {
        break;  // Target beyond the committed tail; more work will arrive.
      }
      // A commit barrier ends a group commit early; the records after it
      // open the next one.
      for (std::span<const LogRecord> rest(records); !rest.empty();) {
        const size_t applied = ApplyBatch(rest);
        if (applied == 0) {
          return;
        }
        rest = rest.subspan(applied);
      }
    }
  }
}

// Group-commit apply (the hottest path in the system): the whole ReadRange
// batch shares one LocalStore transaction, so the per-record costs of the
// old pipeline — BeginRW, cursor Put, Commit, applied-position publish, and a
// pending_mu_ acquisition — are paid once per batch. Each record still runs
// inside its own savepoint so a DeterministicError rolls back exactly that
// record (§3.4). A record after the first that carries the commit barrier
// ends the batch before it. The cursor committed with the batch equals the
// last record applied in it; if anything non-deterministic happens mid-batch
// the transaction is aborted and the store stays at the previous batch
// boundary, so replay after a reboot is exact.
size_t BaseEngine::ApplyBatch(std::span<const LogRecord> records) {
  const int64_t start_micros = options_.clock->NowMicros();

  // Per-record outcome, carried across the commit barrier to postApply and
  // promise settlement.
  struct Outcome {
    LogPos pos = kInvalidLogPos;
    LogEntry entry;
    std::any result;
    bool apply_threw = false;
    // Set when the entry's base header names this instance: a local propose
    // is waiting on `seq`.
    std::optional<uint64_t> local_seq;
  };
  std::vector<Outcome> outcomes;
  outcomes.reserve(records.size());

  RWTxn txn;
  {
    static const std::string kBeginTxLabel = "base.beginTX";
    ApplyProfiler::Scope scope(probe_->profiler, kBeginTxLabel);
    txn = store_->BeginRW();
  }

  for (const LogRecord& record : records) {
    if (shutdown_.load()) {
      txn.Abort();
      return 0;
    }
    Outcome out;
    out.pos = record.pos;
    try {
      // Borrowed parse first: validates the record and peeks the base
      // header without copying; the owning entry for the upcall chain is
      // materialized from the views in a single sized pass.
      const LogEntryView view = LogEntryView::Parse(record.payload);
      if (!outcomes.empty() && view.HasHeader(kCommitBarrierHeaderName)) {
        break;
      }
      if (auto base = view.GetHeader(kBaseHeaderName); base.has_value()) {
        const auto [instance, seq] = DecodeBaseHeader(base->blob);
        if (instance == instance_id_) {
          out.local_seq = seq;
        }
      }
      out.entry = view.Materialize();
    } catch (const SerdeError& e) {
      txn.Abort();
      Fatal(std::string("corrupt log entry: ") + e.what());
      return 0;
    }

    // Traced records get a per-replica "base.apply" span plus a flight-
    // recorder event; untraced records (the common case in bulk replay) pay
    // only a header-map lookup when tracing is on, nothing when it is off.
    {
      ApplyFrame frame(*probe_, apply_slot_, "base.apply", out.entry);
      const Savepoint savepoint = txn.MakeSavepoint();
      try {
        if (upcall_ != nullptr) {
          out.result = upcall_->Apply(txn, out.entry, record.pos);
        }
      } catch (const DeterministicError&) {
        txn.RollbackTo(savepoint);
        out.result = ApplyError{std::current_exception()};
        out.apply_threw = true;
      } catch (const std::exception& e) {
        txn.Abort();
        Fatal(std::string("non-deterministic exception in apply: ") + e.what());
        return 0;
      }
      frame.End();
      if (frame.traced()) {
        probe_->Record(FlightEventKind::kApply, "", frame.first_trace_id(), record.pos);
      }
    }
#ifdef DELOS_MUTATIONS
    // Seeded-violation hooks (see BaseEngineOptions::mutate_*): inject one
    // extra apply after the configured normal apply. Own savepoint so a
    // deterministic error rolls back only the extra; its result is
    // discarded, it gets no postApply and settles no promise.
    if (options_.mutate_double_apply_at > 0 || options_.mutate_reorder_at > 0) {
      const uint64_t nth = ++mutation_applied_count_;
      const LogEntry* extra = nullptr;
      LogPos extra_pos = kInvalidLogPos;
      if (options_.mutate_double_apply_at == nth) {
        extra = &out.entry;
        extra_pos = record.pos;
      } else if (options_.mutate_reorder_at == nth && mutation_have_prev_) {
        extra = &mutation_prev_entry_;
        extra_pos = mutation_prev_pos_;
      }
      if (extra != nullptr && upcall_ != nullptr) {
        const Savepoint savepoint = txn.MakeSavepoint();
        try {
          upcall_->Apply(txn, *extra, extra_pos);
        } catch (const DeterministicError&) {
          txn.RollbackTo(savepoint);
        } catch (const std::exception& e) {
          txn.Abort();
          Fatal(std::string("non-deterministic exception in mutated apply: ") + e.what());
          return 0;
        }
      }
      mutation_prev_entry_ = out.entry;
      mutation_prev_pos_ = record.pos;
      mutation_have_prev_ = true;
    }
#endif
    outcomes.push_back(std::move(out));
  }

  // One cursor update + one commit for the whole batch. The cursor must be
  // the last position applied in this transaction — that is the crash-
  // consistency invariant replay depends on.
  const LogPos batch_last = outcomes.back().pos;
  txn.Put(cursor_key_, EncodePos(batch_last));
  {
    static const std::string kCommitTxLabel = "base.commitTX";
    ApplyProfiler::Scope scope(probe_->profiler, kCommitTxLabel);
    const int64_t commit_start = options_.clock->NowMicros();
    try {
      txn.Commit();
    } catch (const std::exception& e) {
      Fatal(std::string("LocalStore commit failed: ") + e.what());
      return 0;
    }
    if (commit_latency_hist_ != nullptr) {
      commit_latency_hist_->Record(options_.clock->NowMicros() - commit_start);
    }
  }
  probe_->Record(FlightEventKind::kCommit, "", 0, outcomes.front().pos, batch_last);

  // Crash window between commit and publish: the batch (with its cursor) is
  // durable in the store, but nothing downstream of the commit has happened
  // yet — no postApply, no applied_pos_ store, no promise settlement. A
  // restart replays from the committed cursor, so the batch is never applied
  // twice; its proposers see "engine stopped" (the standard ambiguous
  // outcome for a crash after commit).
  if (options_.post_commit_crash_hook != nullptr && options_.post_commit_crash_hook(batch_last)) {
    probe_->Record(FlightEventKind::kCrash, "post-commit crash hook", 0, batch_last);
    return 0;
  }

  // postApply runs only when the upcall's apply committed: a layer that
  // threw directly had all its work rolled back, so it gets no postApply.
  // (Layers that converted an upstream failure into an ApplyError gate their
  // own forwarding.)
  if (upcall_ != nullptr) {
    // One profiler frame for the batch's postApply pass: the upcalls run
    // back to back, so it measures their sum at two clock reads per batch
    // rather than per record.
    ApplyProfiler::Scope scope(probe_->profiler, postapply_slot_);
    for (const Outcome& out : outcomes) {
      if (!out.apply_threw) {
        upcall_->PostApply(out.entry, out.pos);
      }
    }
  }

  // Progress counters are bumped before applied_pos_ is published so that
  // anyone woken by a Sync/propose observes counts covering this batch.
  records_applied_.fetch_add(outcomes.size(), std::memory_order_relaxed);
  batches_committed_.fetch_add(1, std::memory_order_relaxed);
  if (batch_size_hist_ != nullptr) {
    batch_size_hist_->Record(static_cast<int64_t>(outcomes.size()));
    records_counter_->Increment(outcomes.size());
    batches_counter_->Increment();
  }

  // Publish progress once per batch: after postApply, so soft state such as
  // watches is in place before a read can observe the batch, and before the
  // completion pass, so that once a propose returns, applied_position()
  // already covers it. The store and the sync thread's wait are both
  // sequentially consistent: either the sync thread sees this position when
  // it re-checks, or this thread sees its wake-up target and wakes it.
  applied_pos_.store(batch_last);
  last_progress_micros_.store(options_.clock->NowMicros(), std::memory_order_relaxed);
  if (batch_last >= sync_wake_at_.load()) {
    { std::lock_guard<std::mutex> lock(sync_mu_); }
    sync_cv_.notify_one();
  }
  if (lag_gauge_ != nullptr) {
    LogPos play_target_snapshot;
    {
      std::lock_guard<std::mutex> lock(apply_mu_);
      play_target_snapshot = play_target_;
    }
    lag_gauge_->Set(play_target_snapshot > batch_last
                        ? static_cast<int64_t>(play_target_snapshot - batch_last)
                        : 0);
  }

  // Completion pass, in its own profiler frame: first the proposals layers
  // above handed over from postApply, in log order, then this engine's own
  // pending promises, collected under one pending_mu_ acquisition and
  // settled outside it. Their continuations (a batch's waiters, a client's
  // callback) run here.
  {
    ApplyProfiler::Scope scope(probe_->profiler, complete_slot_);
    for (auto& [promise, result] : completions_) {
      SettleProposal(promise, std::move(result));
    }
    completions_.clear();
    std::vector<std::pair<Promise<std::any>, size_t>> own;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      for (size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].local_seq.has_value()) {
          continue;
        }
        auto it = pending_.find(*outcomes[i].local_seq);
        if (it != pending_.end()) {
          own.emplace_back(std::move(it->second), i);
          pending_.erase(it);
        }
      }
    }
    for (auto& [promise, index] : own) {
      SettleProposal(promise, std::move(outcomes[index].result));
    }
  }

  const int64_t busy = options_.clock->NowMicros() - start_micros;
  busy_micros_.fetch_add(busy, std::memory_order_relaxed);
  if (probe_->profiler != nullptr) {
    probe_->profiler->RecordBusy(busy);
  }
  return outcomes.size();
}

// Pipelined syncs (§3.2: syncs queue behind an outstanding tail check).
// The thread keeps up to kMaxTailChecksInFlight checks in flight; each one
// it issues serves every sync queued so far, so a sync is always served by
// a check issued after it arrived. A check's continuation hands the tail
// back, in whatever order the checks return, and the group it served parks
// under its own play target. A parked group settles here with one snapshot
// once applied_pos_ reaches its target. Groups that are ready settle before
// the next check goes out, so their callers' next syncs can still join it;
// the syncs queued meanwhile get a check as soon as a slot is free, while
// earlier groups wait for the apply thread.
void BaseEngine::SyncThreadMain() {
  constexpr LogPos kNothingParked = std::numeric_limits<LogPos>::max();
  uint64_t next_check_id = 0;
  // The syncs each tail check in flight serves, by check id.
  std::map<uint64_t, std::vector<Promise<ROTxn>>> checking;
  // Syncs whose tail check returned, by play target.
  std::map<LogPos, std::vector<Promise<ROTxn>>> parked;
  std::unique_lock<std::mutex> lock(sync_mu_);
  while (true) {
    sync_cv_.wait(lock, [&] {
      const LogPos wake_at = parked.empty() ? kNothingParked : parked.begin()->first;
      sync_wake_at_.store(wake_at);
      return shutdown_.load() || !tail_results_.empty() ||
             (tail_checks_in_flight_ < kMaxTailChecksInFlight && !sync_waiters_.empty()) ||
             applied_pos_.load() >= wake_at;
    });
    if (shutdown_.load()) {
      break;
    }
    if (!tail_results_.empty()) {
      std::vector<std::pair<uint64_t, Result<LogPos>>> results;
      results.swap(tail_results_);
      tail_checks_in_flight_ -= static_cast<int>(results.size());
      LogPos highest = 0;
      for (auto& [id, result] : results) {
        auto served = checking.extract(id);
        if (!result.ok()) {
          lock.unlock();
          for (auto& waiter : served.mapped()) {
            waiter.SetException(result.error());
          }
          lock.lock();
          continue;
        }
        const LogPos tail = result.value();
        const LogPos target = (tail == 0) ? 0 : tail - 1;
        std::vector<Promise<ROTxn>>& group = parked[target];
        group.insert(group.end(), std::make_move_iterator(served.mapped().begin()),
                     std::make_move_iterator(served.mapped().end()));
        highest = std::max(highest, target);
      }
      if (highest > 0) {
        lock.unlock();
        RequestPlayTo(highest);
        lock.lock();
      }
    }
    const LogPos applied = applied_pos_.load();
    if (!parked.empty() && parked.begin()->first <= applied) {
      std::vector<Promise<ROTxn>> ready;
      const auto end = parked.upper_bound(applied);
      for (auto it = parked.begin(); it != end; ++it) {
        ready.insert(ready.end(), std::make_move_iterator(it->second.begin()),
                     std::make_move_iterator(it->second.end()));
      }
      parked.erase(parked.begin(), end);
      lock.unlock();
      ROTxn snapshot = store_->Snapshot();
      for (auto& waiter : ready) {
        waiter.SetValue(snapshot);
      }
      lock.lock();
    }
    if (tail_checks_in_flight_ < kMaxTailChecksInFlight && !sync_waiters_.empty()) {
      const uint64_t id = next_check_id++;
      checking[id].swap(sync_waiters_);
      ++tail_checks_in_flight_;
      inflight_callbacks_.fetch_add(1, std::memory_order_acq_rel);
      lock.unlock();
      log_->CheckTail().Then([this, id](Result<LogPos> result) {
        {
          std::lock_guard<std::mutex> guard(sync_mu_);
          tail_results_.emplace_back(id, std::move(result));
        }
        sync_cv_.notify_one();
        inflight_callbacks_.fetch_sub(1, std::memory_order_acq_rel);
      });
      lock.lock();
    }
  }
  lock.unlock();
  const auto fail_all = [](auto& groups) {
    for (auto& [key, group] : groups) {
      for (auto& waiter : group) {
        waiter.SetException(std::make_exception_ptr(LogUnavailableError("engine stopped")));
      }
    }
  };
  fail_all(checking);
  fail_all(parked);
}

void BaseEngine::HousekeepingThreadMain() {
  int64_t last_flush = RealClock::Instance()->NowMicros();
  int64_t last_trim = last_flush;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(apply_mu_);
      apply_cv_.wait_for(lock, std::chrono::milliseconds(10), [&] { return shutdown_.load(); });
      if (shutdown_.load()) {
        return;
      }
    }
    const int64_t now = RealClock::Instance()->NowMicros();
    if (now - last_flush >= options_.flush_interval_micros) {
      last_flush = now;
      FlushNow();
    }
    if (now - last_trim >= options_.trim_interval_micros) {
      last_trim = now;
      TrimNow();
    }
  }
}

void BaseEngine::FlushNow() {
  std::lock_guard<std::mutex> lock(flush_mu_);
  ROTxn snapshot;
  try {
    snapshot = store_->Flush();
  } catch (const std::exception& e) {
    Fatal(std::string("LocalStore flush failed: ") + e.what());
    return;
  }
  auto cursor = snapshot.Get(cursor_key_);
  durable_pos_.store(cursor.has_value() ? DecodePos(*cursor) : 0, std::memory_order_release);
  probe_->Record(FlightEventKind::kFlush, "", 0, durable_pos_.load(std::memory_order_relaxed));
}

void BaseEngine::TrimNow() {
  const LogPos allowed = trim_allowed_.load(std::memory_order_acquire);
  if (allowed == kNoTrimConstraint || allowed == 0) {
    return;
  }
  // Never trim beyond what the local durable checkpoint covers; replay after
  // a reboot starts from there.
  const LogPos effective = std::min(allowed, durable_pos_.load(std::memory_order_acquire));
  if (effective > log_->trim_prefix()) {
    log_->Trim(effective);
    probe_->Record(FlightEventKind::kTrim, "", 0, effective);
  }
}

HealthReport BaseEngine::HealthCheck() const {
  const LogPos applied = applied_pos_.load(std::memory_order_acquire);
  LogPos target;
  {
    std::lock_guard<std::mutex> lock(apply_mu_);
    target = play_target_;
  }
  const int64_t lag = target > applied ? static_cast<int64_t>(target - applied) : 0;
  HealthReport report{"base", HealthState::kOk, "", lag};
  if (lag > 0) {
    const int64_t now = options_.clock->NowMicros();
    const int64_t stalled = now - last_progress_micros_.load(std::memory_order_relaxed);
    // Attribute the stall: a nonzero since-stamp means the apply thread is
    // sitting in batch acquisition (queue pop or synchronous ReadRange), so
    // the log read path — not the upcall — is what is wedged.
    const int64_t read_since = read_stall_since_micros_.load(std::memory_order_relaxed);
    const int64_t read_stalled = read_since > 0 ? now - read_since : 0;
    std::string attribution;
    if (read_stalled >= kStallDegradedMicros) {
      attribution =
          " (read path stalled " + std::to_string(read_stalled) + "us waiting for log records)";
    }
    // Workload attribution: when one key (or client) dominates the applied
    // traffic, name it in the stall reason — "the apply loop is behind" is
    // far more actionable as "... and 61% of ops hit one key".
    if (WorkloadAttributor* workload = probe_->workload; workload != nullptr) {
      if (auto hot = workload->HottestKey(); hot.has_value()) {
        attribution += "; hot key: " + hot->name + " (" +
                       std::to_string(static_cast<int64_t>(hot->share_pct)) + "% of applied ops)";
      }
      if (auto hot = workload->HottestClient(); hot.has_value()) {
        attribution += "; hot client: " + hot->name + " (" +
                       std::to_string(static_cast<int64_t>(hot->share_pct)) + "% of applied ops)";
      }
    }
    if (stalled >= kStallUnhealthyMicros) {
      report.state = HealthState::kUnhealthy;
      report.reason = "apply stalled " + std::to_string(stalled) + "us behind target (lag " +
                      std::to_string(lag) + ")" + attribution;
      report.value = stalled;
      return report;
    }
    if (stalled >= kStallDegradedMicros) {
      report.state = HealthState::kDegraded;
      report.reason = "apply lagging " + std::to_string(lag) + " positions for " +
                      std::to_string(stalled) + "us" + attribution;
      report.value = stalled;
      return report;
    }
  }
  const LogPos durable = durable_pos_.load(std::memory_order_acquire);
  const int64_t backlog = applied > durable ? static_cast<int64_t>(applied - durable) : 0;
  if (backlog > kFlushBacklogPositions) {
    report.state = HealthState::kDegraded;
    report.reason = "flush backlog " + std::to_string(backlog) + " positions";
    report.value = backlog;
  }
  return report;
}

void BaseEngine::Fatal(const std::string& message) {
  // The flight recorder's raison d'être: the last thing a crashing server
  // does is record why, so the ring dumped post-mortem ends with the cause.
  probe_->Record(FlightEventKind::kCrash, message);
  if (options_.fatal_handler != nullptr) {
    options_.fatal_handler(message);
    return;
  }
  LOG_FATAL << message;
}

}  // namespace delos

#include "src/sim/sim_cluster.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <thread>

#include "src/apps/delosq/delosq.h"
#include "src/apps/delostable/table_db.h"
#include "src/apps/locks/lock_service.h"
#include "src/apps/zelos/zelos.h"
#include "src/backup/backup_store.h"
#include "src/core/cluster.h"
#include "src/engines/compression_engine.h"
#include "src/engines/stacks.h"
#include "src/sharedlog/chaos_log.h"
#include "src/sharedlog/inmemory_log.h"
#include "src/verify/checker.h"
#include "src/verify/recording_client.h"

namespace delos::sim {

namespace {

// An op is retried through injected append faults and crash/restart cycles;
// a plan carries at most a handful of faults per server, so this bound is
// only ever hit when recovery is genuinely broken.
constexpr int kMaxAttemptsPerOp = 16;

}  // namespace

const char* StackShapeName(StackShape shape) {
  switch (shape) {
    case StackShape::kDelosTable:
      return "delostable";
    case StackShape::kZelos:
      return "zelos";
    case StackShape::kFullNine:
      return "full-nine";
  }
  return "unknown";
}

const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kLegacy:
      return "legacy";
    case WorkloadKind::kVerifyTable:
      return "verify-table";
    case WorkloadKind::kVerifyZelos:
      return "verify-zelos";
    case WorkloadKind::kVerifyQueue:
      return "verify-queue";
    case WorkloadKind::kVerifyLock:
      return "verify-lock";
  }
  return "unknown";
}

std::string RunReport::Summary() const {
  std::string out = "sim seed=" + std::to_string(seed) +
                    " final-tail=" + std::to_string(final_tail) +
                    " crashes=" + std::to_string(crashes_fired) +
                    " append-faults=" + std::to_string(append_faults_fired) +
                    " linearizable=" +
                    (verify_ran ? (linearizable ? "yes" : "no") : "n/a") +
                    (failures.empty() ? " OK" : " FAILED") + "\n";
  if (!failures.empty()) {
    out += plan_text;
    for (const std::string& failure : failures) {
      out += "  failure: " + failure + "\n";
    }
  }
  return out;
}

// One server's slot in the cluster: identity and fault state that survive
// crashes, plus the live incarnation (log wrapper, store+engines, app).
struct SimCluster::Rig {
  struct PendingCrash {
    uint64_t pos = 0;
    uint64_t param = 0;  // 0 = clean; else 1 + checkpoint bytes kept
  };

  uint32_t index = 0;
  std::string id;
  std::string checkpoint_path;
  // Survives crashes: append faults key off the cumulative append index.
  std::shared_ptr<std::atomic<uint64_t>> append_counter;
  FaultyLog::Faults append_faults;  // crash_at_pos filled per incarnation
  std::deque<PendingCrash> pending_crashes;
  bool sabotage = false;
  uint64_t faults_fired_accum = 0;

  // Survives crashes like the append counter: a restarted incarnation keeps
  // writing into the same ring, so a post-mortem dump spans the crash.
  std::shared_ptr<FlightRecorder> recorder;

  // Live incarnation.
  std::shared_ptr<FaultyLog> log;
  std::unique_ptr<IApplicator> app;
  zelos::ZelosApplicator* zelos_app = nullptr;
  locks::LockApplicator* lock_app = nullptr;
  // One long-lived client per incarnation (kVerifyLock): the grant callback
  // registration lives exactly as long as the applicator it points into.
  std::unique_ptr<locks::LockClient> lock_client;
  std::unique_ptr<ClusterServer> server;
  bool stopped = false;
};

class SimCluster::Impl {
 public:
  explicit Impl(SimOptions options) : options_(std::move(options)) {
    if (options_.scratch_dir.empty()) {
      options_.scratch_dir = "sim_scratch";
    }
  }

  RunReport Run(const FaultPlan& plan) {
    RunReport report;
    report.seed = plan.seed;
    report.plan_bytes = plan.Serialize();
    report.plan_text = plan.Describe();
    {
      std::lock_guard<std::mutex> lock(fatal_mu_);
      fatal_messages_.clear();
    }

    run_dir_ = options_.scratch_dir + "/run" + std::to_string(run_counter_++);
    std::error_code ec;
    std::filesystem::remove_all(run_dir_, ec);
    std::filesystem::create_directories(run_dir_, ec);

    inner_log_ = std::make_shared<InMemoryLog>();
    // One Tracer per run, shared by every server; its clock (and the
    // recorders') is a SimClock pinned at zero, so a captured trace carries
    // no wall time and renders byte-identically across replays of a seed.
    Tracer::Options tracer_options;
    tracer_options.clock = &trace_clock_;
    tracer_ = std::make_unique<Tracer>(tracer_options);
    current_seed_ = plan.seed;
    history_.reset();
    if (options_.workload != WorkloadKind::kLegacy) {
      // The recorder shares the pinned SimClock, so the rendered history
      // carries logical ticks and zero micros only — byte-identical across
      // replays of a schedule.
      history_ = std::make_unique<verify::HistoryRecorder>(options_.verify_history_capacity,
                                                           &trace_clock_);
    }
    rigs_.clear();
    rigs_.resize(static_cast<size_t>(std::max(1, options_.num_servers)));
    for (size_t i = 0; i < rigs_.size(); ++i) {
      Rig& rig = rigs_[i];
      rig.index = static_cast<uint32_t>(i);
      rig.id = "s" + std::to_string(i);
      rig.checkpoint_path = run_dir_ + "/server" + std::to_string(i) + ".ckpt";
      rig.append_counter = std::make_shared<std::atomic<uint64_t>>(0);
      rig.recorder = std::make_shared<FlightRecorder>(4096, &trace_clock_);
    }
    for (const FaultEvent& event : plan.events) {
      if (event.server >= rigs_.size()) {
        continue;  // tolerate hand-written plans sized for another cluster
      }
      Rig& rig = rigs_[event.server];
      switch (event.kind) {
        case FaultKind::kAppendTimeout:
          rig.append_faults.timeout_appends.insert(event.trigger);
          break;
        case FaultKind::kDroppedAppend:
          rig.append_faults.dropped_appends.insert(event.trigger);
          break;
        case FaultKind::kDuplicateAppend:
          rig.append_faults.duplicated_appends.insert(event.trigger);
          break;
        case FaultKind::kReorderAppend:
          rig.append_faults.reordered_appends.insert(event.trigger);
          break;
        case FaultKind::kCrash:
          rig.pending_crashes.push_back({event.trigger, event.param});
          break;
        case FaultKind::kSabotage:
          rig.sabotage = true;
          break;
      }
    }
    for (Rig& rig : rigs_) {
      std::sort(rig.pending_crashes.begin(), rig.pending_crashes.end(),
                [](const Rig::PendingCrash& a, const Rig::PendingCrash& b) {
                  return a.pos < b.pos;
                });
      BuildRig(rig, inner_log_);
    }

    // Op 0 creates the table / session; the rest are writes.
    const int total_ops = options_.num_ops + 1;
    for (int op = 0; op < total_ops; ++op) {
      if (!ExecuteOp(op, report)) {
        break;
      }
    }
    DrainFatals(report);

    if (report.ok()) {
      // Let trailing batch flushes and reorder-hold releases land; every op
      // already completed, so no new appends originate after this.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      RestartCrashed(report);
      LogPos tail = inner_log_->CheckTail().Get() - 1;
      report.final_tail = tail;
      FinalSync(report, tail);
      DrainFatals(report);
      if (report.ok()) {
        Sabotage();
        // Two beacon rounds AFTER the sabotage: the online detector must
        // convict the same corruption the offline reference diff below
        // catches. Beacons extend the log, so the capture tail moves.
        tail = DriveBeacons(report, tail);
        report.final_tail = tail;
        CaptureAndCompare(report, tail);
      }
    }
    if (history_ != nullptr) {
      CheckHistory(report);
    }

    // Teardown.
    for (Rig& rig : rigs_) {
      if (rig.server != nullptr) {
        rig.server->Stop();
      }
      if (rig.log != nullptr) {
        rig.faults_fired_accum += rig.log->faults_fired();
      }
      report.append_faults_fired += rig.faults_fired_accum;
    }
    DrainFatals(report);
    report.last_trace_id = tracer_->last_trace_id();
    if (report.last_trace_id != 0) {
      report.last_trace = tracer_->Render(report.last_trace_id);
    }
    if (!report.ok()) {
      // Failure post-mortem: concatenate every server's ring (servers are
      // stopped, so the rings are quiescent) and name the newest traced
      // apply — the proposal in flight when things went wrong.
      for (Rig& rig : rigs_) {
        if (rig.recorder == nullptr) {
          continue;
        }
        for (const FlightRecorder::Event& event : rig.recorder->Snapshot()) {
          report.failing_trace_id = std::max(report.failing_trace_id, event.trace_id);
        }
        report.flight_dump +=
            "== server " + rig.id + " flight recorder ==\n" + rig.recorder->Dump();
      }
    }
    // Latency attribution snapshot from each surviving rig (a rebuilt server
    // carries only its final incarnation's view — rebuilds are themselves
    // schedule-determined, so the text stays byte-identical per seed).
    for (Rig& rig : rigs_) {
      if (rig.server == nullptr || rig.server->latency() == nullptr) {
        continue;
      }
      report.latency_summary += "== server " + rig.id + " latency ==\n" +
                                rig.server->latency()->RenderLatency();
      report.slow_exemplars += "== server " + rig.id + " slow traces ==\n" +
                               rig.server->latency()->RenderSlowList();
    }
    // Workload attribution snapshot (same per-seed determinism argument as
    // the latency summary above): full accounting plus the heavy-hitter
    // tables, so a report names the run's hot key and top client outright.
    for (Rig& rig : rigs_) {
      if (rig.server == nullptr || rig.server->workload() == nullptr) {
        continue;
      }
      report.workload_summary += "== server " + rig.id + " workload ==\n" +
                                 rig.server->workload()->RenderWorkload() +
                                 rig.server->workload()->RenderTopKeys() +
                                 rig.server->workload()->RenderTopClients();
    }
    // Digest-beacon divergence verdicts. The summary carries only schedule-
    // determined fields — conviction windows, proposer ids, counters; never
    // absolute digest values, which fold per-incarnation engine instance ids
    // and legitimately vary across runs — so a convicting seed's summary is
    // byte-identical across replays (checkpoint flushes pinned off, as with
    // the workload suite). The artifact is the full conviction report
    // (digest pair + flight excerpt) for CI upload only.
    if (options_.digest_beacon_every > 0) {
      for (Rig& rig : rigs_) {
        if (rig.server == nullptr) {
          continue;
        }
        auto* digest = dynamic_cast<DigestEngine*>(rig.server->FindEngine("digest"));
        if (digest == nullptr) {
          continue;
        }
        const DivergenceTracker* tracker = digest->tracker();
        if (tracker->convicted()) {
          report.divergence_convicted = true;
        }
        report.divergence_mismatches += tracker->mismatches();
        const std::string reason = tracker->HealthReason();
        report.divergence_summary +=
            "server " + rig.id + ": " + (reason.empty() ? "no divergence" : reason) +
            "; beacons_checked=" + std::to_string(tracker->beacons_checked()) +
            " mismatches=" + std::to_string(tracker->mismatches()) +
            " last_verified_pos=" + std::to_string(tracker->last_verified_pos()) + "\n";
        report.divergence_artifact += "== server " + rig.id + " divergence ==\n" +
                                      tracker->Render(/*include_digests=*/true);
      }
    }
    rigs_.clear();
    inner_log_.reset();
    std::filesystem::remove_all(run_dir_, ec);
    return report;
  }

 private:
  using SteadyClock = std::chrono::steady_clock;

  void BuildShape(ClusterServer& server) {
    // Verify workloads always run the production-shaped ordering layers:
    // session order + batching. Without SessionOrder, a duplicated append is
    // legitimately applied twice — a real non-linearizability the stack is
    // supposed to (and does) prevent, so auditing a stack without it would
    // fail every duplicate-fault seed by design.
    if (options_.workload != WorkloadKind::kLegacy) {
      StackConfig config = (options_.workload == WorkloadKind::kVerifyZelos)
                               ? ZelosStackConfig(&backup_)
                               : DelosTableStackConfig(&backup_);
      config.backup_segment_size = 1'000'000;
      config.session_order = true;
      config.batching = true;
      // Beacon cadence from SimOptions (default 0 = off): existing schedules
      // must keep producing byte-identical logs, so the production default of
      // the StackConfig never leaks into a sim run.
      config.digest_beacon_every = options_.digest_beacon_every;
      BuildStack(server, config);
      return;
    }
    StackConfig config = (options_.shape == StackShape::kZelos)
                             ? ZelosStackConfig(&backup_)
                             : DelosTableStackConfig(&backup_);
    // Keep the upload worker passive: a mid-run backup bid would propose at
    // schedule-independent times and break run determinism.
    config.backup_segment_size = 1'000'000;
    // Same determinism rule as the verify branch: sim cadence only.
    config.digest_beacon_every = options_.digest_beacon_every;
    if (options_.shape == StackShape::kFullNine) {
      config.session_order = true;
      config.batching = true;
      config.time = true;
      config.lease = true;
      // No lease is ever acquired, so the renew loop never proposes; the
      // long TTL keeps even a stray acquisition from expiring mid-run.
      config.lease_ttl_micros = 600'000'000;
      config.observers = true;
    }
    BuildStack(server, config);
    if (options_.shape == StackShape::kFullNine) {
      server.AddEngine<CompressionEngine>(CompressionEngine::Options{});
    }
  }

  void BuildRig(Rig& rig, std::shared_ptr<ISharedLog> base_log) {
    FaultyLog::Faults faults = rig.append_faults;
    faults.crash_at_pos = rig.pending_crashes.empty() ? 0 : rig.pending_crashes.front().pos;
    rig.log = std::make_shared<FaultyLog>(std::move(base_log), std::move(faults),
                                          rig.append_counter);
    rig.log->set_flight_recorder(rig.recorder.get());
    LocalStore::Options store_options;
    store_options.checkpoint_path = rig.checkpoint_path;
    store_options.tolerate_torn_checkpoint = true;
    auto store = LocalStore::Open(store_options);
    BaseEngineOptions base_options;
    base_options.server_id = rig.id;
    base_options.play_batch_size = 8;
    base_options.flush_interval_micros = 2'000;
    // Trimming would let a torn-checkpoint cold start find a trimmed prefix;
    // the sim guarantees the log retains everything (see LocalStore::Options).
    base_options.trim_interval_micros = 3'600'000'000;
    base_options.fatal_handler = [this, id = rig.id](const std::string& message) {
      std::lock_guard<std::mutex> lock(fatal_mu_);
      fatal_messages_.push_back("server " + id + " fatal: " + message);
    };
    base_options.tracer = tracer_.get();
    base_options.recorder = rig.recorder.get();  // null for the ref rig
    // Determinism: reads stay synchronous events on the apply thread (no
    // prefetch races against the schedule), and the read cache — exercised
    // by default so sim coverage matches production — never write-through
    // fills, so every replayed position flows through the FaultyLog read
    // path where the crash wedge lives. Verdicts are byte-identical with
    // the cache on or off; sim_read_path coverage pins that down.
    base_options.prefetch_batches = 0;
    base_options.read_cache_capacity = options_.read_cache ? 65536 : 0;
    base_options.read_cache_write_through = false;
    if (options_.flush_interval_micros > 0) {
      base_options.flush_interval_micros = options_.flush_interval_micros;
    }
    rig.server = std::make_unique<ClusterServer>(rig.id, rig.log, std::move(store),
                                                 std::move(base_options));
    BuildShape(*rig.server);
    rig.zelos_app = nullptr;
    rig.lock_app = nullptr;
    const bool zelos_app = options_.workload == WorkloadKind::kLegacy
                               ? options_.shape == StackShape::kZelos
                               : options_.workload == WorkloadKind::kVerifyZelos;
    if (zelos_app) {
      auto app = std::make_unique<zelos::ZelosApplicator>();
      app->set_metrics(rig.server->metrics());
      rig.zelos_app = app.get();
      rig.server->RegisterApplicator(app.get(), zelos::ZelosKeyExtractor::Instance());
      rig.app = std::move(app);
    } else if (options_.workload == WorkloadKind::kVerifyQueue) {
      auto app = std::make_unique<delosq::QueueApplicator>();
      rig.server->RegisterApplicator(app.get(), delosq::QueueKeyExtractor::Instance());
      rig.app = std::move(app);
    } else if (options_.workload == WorkloadKind::kVerifyLock) {
      auto app = std::make_unique<locks::LockApplicator>();
      rig.lock_app = app.get();
      rig.server->RegisterApplicator(app.get(), locks::LockKeyExtractor::Instance());
      rig.app = std::move(app);
      rig.lock_client =
          std::make_unique<locks::LockClient>(rig.server->top(), rig.lock_app);
    } else {
      auto app = std::make_unique<table::TableApplicator>();
      rig.server->RegisterApplicator(app.get(), table::TableKeyExtractor::Instance());
      rig.app = std::move(app);
    }
    rig.stopped = false;
    rig.server->Start();
  }

  // Stops (but does not tear down) every rig whose replay wedged — failing
  // its pending promises so a worker blocked inside it unwinds.
  void StopCrashed() {
    for (Rig& rig : rigs_) {
      if (rig.log != nullptr && rig.log->crashed() && !rig.stopped) {
        rig.server->Stop();
        rig.stopped = true;
      }
    }
  }

  // Performs the kill + restart for every wedged rig. Must only run when no
  // worker thread can be inside the victim (stop first, join the worker).
  void RestartCrashed(RunReport& report) {
    for (Rig& rig : rigs_) {
      if (rig.log == nullptr || !rig.log->crashed()) {
        continue;
      }
      report.crashes_fired++;
      rig.server->Stop();
      rig.faults_fired_accum += rig.log->faults_fired();
      // The kill: engines, volatile state, and the in-memory LocalStore die
      // with the server; only the checkpoint file survives.
      rig.server.reset();
      rig.lock_client.reset();  // before its applicator
      rig.app.reset();
      rig.zelos_app = nullptr;
      rig.lock_app = nullptr;
      rig.log.reset();
      Rig::PendingCrash crash = rig.pending_crashes.front();
      rig.pending_crashes.pop_front();
      if (crash.param != 0) {
        TearCheckpoint(rig.checkpoint_path, crash.param - 1);
      }
      BuildRig(rig, inner_log_);
    }
  }

  static void TearCheckpoint(const std::string& path, uint64_t keep_bytes) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) {
      return;  // no flush happened before the crash: nothing to tear
    }
    std::filesystem::resize_file(path, std::min<uint64_t>(size, keep_bytes), ec);
  }

  // The workload body for one op, executed on a worker thread. Throws; the
  // caller classifies the exception. Legacy calls are idempotent under
  // retry; verify calls record each attempt into the history instead (an
  // attempt cut down by a fault is journaled as indeterminate before the
  // exception reaches the retry loop).
  void DoOp(Rig& rig, int op) {
    switch (options_.workload) {
      case WorkloadKind::kLegacy:
        return DoLegacyOp(rig, op);
      case WorkloadKind::kVerifyTable:
        return DoVerifyTableOp(rig, op);
      case WorkloadKind::kVerifyZelos:
        return DoVerifyZelosOp(rig, op);
      case WorkloadKind::kVerifyQueue:
        return DoVerifyQueueOp(rig, op);
      case WorkloadKind::kVerifyLock:
        return DoVerifyLockOp(rig, op);
    }
  }

  // SplitMix64 of (seed, op): every op's key and kind are a pure function of
  // the schedule, never of timing.
  uint64_t OpRand(int op) const {
    uint64_t x = current_seed_ * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(op) + 1;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }

  uint32_t ClientOf(int op) const {
    return static_cast<uint32_t>(op % std::max(1, options_.verify_clients));
  }

  uint64_t KeyOf(uint64_t r) const {
    return r % static_cast<uint64_t>(std::max(1, options_.verify_keys));
  }

  verify::RecordingClientBase::TraceIdSource TraceSource() {
    return [this] { return tracer_->last_trace_id(); };
  }

  // Mixed read/write/CAS over rows of an untracked "verify" table.
  void DoVerifyTableOp(Rig& rig, int op) {
    table::TableClient client(rig.server->top());
    // Logical client identity, stamped on every proposal so the workload
    // attribution plane names the same top clients on every replay.
    client.set_client_id(ClientOf(op));
    if (op == 0) {
      table::TableSchema schema;
      schema.name = "verify";
      schema.columns = {{"k", table::ValueType::kString}, {"v", table::ValueType::kString}};
      schema.primary_key = "k";
      try {
        client.CreateTable(schema);
      } catch (const table::DuplicateTableError&) {
        // A retried create whose first attempt committed.
      }
      return;
    }
    const uint64_t r = OpRand(op);
    const std::string key = "k" + std::to_string(KeyOf(r));
    verify::RecordingTableClient recording(&client, "verify", history_.get(), ClientOf(op),
                                           TraceSource());
    const uint64_t kind = (r >> 8) % 10;
    if (kind < 4) {
      recording.Write(key, "v" + std::to_string(op));
    } else if (kind < 8) {
      recording.Read(key);
    } else {
      // Expected = some plausible earlier value, so both CAS outcomes occur.
      recording.Cas(key, "v" + std::to_string((r >> 16) % static_cast<uint64_t>(op)),
                    "v" + std::to_string(op) + "c");
    }
  }

  // Mixed create/setdata/getdata/delete over a handful of znodes; versions
  // returned by setdata pin the write order the checker validates.
  void DoVerifyZelosOp(Rig& rig, int op) {
    zelos::ZelosClient client(rig.server->top(), rig.zelos_app);
    client.set_client_id(ClientOf(op));
    if (op == 0) {
      zelos_session_ = client.CreateSession(600'000'000);
      return;
    }
    const uint64_t r = OpRand(op);
    const std::string path = "/v" + std::to_string(KeyOf(r));
    verify::RecordingZelosClient recording(&client, zelos_session_, history_.get(),
                                           ClientOf(op), TraceSource());
    const uint64_t kind = (r >> 8) % 10;
    if (kind < 3) {
      recording.Create(path, "d" + std::to_string(op));
    } else if (kind < 6) {
      recording.SetData(path, "d" + std::to_string(op));
    } else if (kind < 9) {
      recording.GetData(path);
    } else {
      recording.Delete(path);
    }
  }

  // Push/pop over untracked-created queues; every payload is unique, so a
  // double-applied or skipped dequeue has no sequential witness.
  void DoVerifyQueueOp(Rig& rig, int op) {
    delosq::QueueClient client(rig.server->top());
    client.set_client_id(ClientOf(op));
    if (op == 0) {
      for (int k = 0; k < std::max(1, options_.verify_keys); ++k) {
        try {
          client.CreateQueue("q" + std::to_string(k));
        } catch (const delosq::QueueExistsError&) {
        }
      }
      return;
    }
    const uint64_t r = OpRand(op);
    const std::string queue = "q" + std::to_string(KeyOf(r));
    verify::RecordingQueueClient recording(&client, history_.get(), ClientOf(op),
                                           TraceSource());
    if ((r >> 8) % 10 < 6) {
      recording.Push(queue, "p" + std::to_string(op));
    } else {
      recording.Pop(queue);
    }
  }

  // Acquire/release/owner over a handful of locks; owners are the logical
  // client names, so mutual exclusion shows up as output mismatches.
  void DoVerifyLockOp(Rig& rig, int op) {
    if (op == 0) {
      return;  // locks materialize on first acquire
    }
    locks::LockClient& client = *rig.lock_client;
    client.set_client_id(ClientOf(op));
    const uint64_t r = OpRand(op);
    const std::string lock = "l" + std::to_string(KeyOf(r));
    const std::string owner = "c" + std::to_string(ClientOf(op));
    verify::RecordingLockClient recording(&client, history_.get(), ClientOf(op),
                                          TraceSource());
    const uint64_t kind = (r >> 8) % 10;
    if (kind < 4) {
      recording.Acquire(lock, owner);
    } else if (kind < 8) {
      recording.Release(lock, owner);
    } else {
      recording.Owner(lock);
    }
  }

  // Verification phase: snapshot the history, run the checker, fold the
  // verdict into the report. Runs even when an earlier phase already failed
  // (a consistency verdict on a crashed run is still evidence).
  void CheckHistory(RunReport& report) {
    report.verify_ran = true;
    const std::vector<verify::HistOp> history = history_->Snapshot();
    report.verify_ops = history.size();
    report.history_text = verify::HistoryRecorder::Render(history);
    if (history_->dropped() != 0) {
      RecordFailure(report, "verify: history journal overflowed (" +
                                std::to_string(history_->dropped()) + " ops dropped)");
    }
    verify::CheckerOptions checker_options;
    if (!rigs_.empty() && rigs_[0].server != nullptr) {
      checker_options.metrics = rigs_[0].server->metrics();
    }
    const verify::CheckResult result = verify::CheckLinearizability(history, checker_options);
    report.linearizable = result.linearizable;
    report.checker_micros = result.checker_micros;
    for (const verify::Violation& violation : result.violations) {
      report.violation_text += violation.Render();
    }
    if (result.budget_exhausted) {
      RecordFailure(report, "verify: checker state budget exhausted before a verdict");
    }
    if (!result.linearizable) {
      RecordFailure(report, "verify: history is not linearizable (" +
                                std::to_string(result.violations.size()) + " violation(s))");
    }
  }

  void DoLegacyOp(Rig& rig, int op) {
    if (options_.shape == StackShape::kZelos) {
      zelos::ZelosClient client(rig.server->top(), rig.zelos_app);
      client.set_client_id(ClientOf(op));
      if (op == 0) {
        zelos_session_ = client.CreateSession(600'000'000);
        return;
      }
      const std::string path = "/n" + std::to_string(op % 8);
      const std::string data =
          "v-" + std::to_string(op) + "-" + std::string(72, 'z');
      try {
        client.SetData(path, data);
      } catch (const zelos::NoNodeError&) {
        try {
          client.Create(zelos_session_, path, data);
        } catch (const zelos::NodeExistsError&) {
          client.SetData(path, data);
        }
      }
      return;
    }
    table::TableClient client(rig.server->top());
    client.set_client_id(ClientOf(op));
    if (op == 0) {
      table::TableSchema schema;
      schema.name = "sim";
      schema.columns = {{"id", table::ValueType::kInt64},
                        {"name", table::ValueType::kString},
                        {"city", table::ValueType::kString}};
      schema.primary_key = "id";
      schema.secondary_indexes = {"city"};
      try {
        client.CreateTable(schema);
      } catch (const table::DuplicateTableError&) {
        // A retried create whose first attempt committed.
      }
      return;
    }
    table::Row row;
    row["id"] = static_cast<int64_t>(op % 10);
    // Long enough to clear CompressionEngine's min_payload_bytes on the
    // full-nine stack.
    row["name"] = "row-" + std::to_string(op) + "-" + std::string(72, 'x');
    row["city"] = std::string((op % 2) != 0 ? "nyc" : "sfo");
    client.Upsert("sim", row);
  }

  // Runs op `op` against server op % n, retrying through injected faults and
  // crash/restart cycles. Returns false when the run cannot make progress.
  bool ExecuteOp(int op, RunReport& report) {
    Rig& rig = rigs_[static_cast<size_t>(op) % rigs_.size()];
    for (int attempt = 0; attempt < kMaxAttemptsPerOp; ++attempt) {
      RestartCrashed(report);
      // 0 = running, 1 = ok, 2 = retryable, 3 = hard failure.
      auto done = std::make_shared<std::atomic<int>>(0);
      auto error = std::make_shared<std::string>();
      std::thread worker([this, &rig, op, done, error] {
        try {
          DoOp(rig, op);
          done->store(1, std::memory_order_release);
        } catch (const LogUnavailableError&) {
          done->store(2, std::memory_order_release);
        } catch (const SealedError&) {
          done->store(2, std::memory_order_release);
        } catch (const DeterministicError&) {
          // A retry colliding with its own committed first attempt (e.g. a
          // bad-version on a znode we just wrote): the op is applied.
          done->store(1, std::memory_order_release);
        } catch (const std::exception& e) {
          *error = e.what();
          done->store(3, std::memory_order_release);
        }
      });
      const auto deadline =
          SteadyClock::now() + std::chrono::microseconds(options_.op_timeout_micros);
      bool stuck = false;
      while (done->load(std::memory_order_acquire) == 0) {
        if (SteadyClock::now() >= deadline) {
          stuck = true;
          // Force the worker out: Stop fails every pending promise.
          if (!rig.stopped) {
            rig.server->Stop();
            rig.stopped = true;
          }
          break;
        }
        // A wedged replay leaves the worker blocked on its propose; stopping
        // the victim unblocks it. The kill/restart happens after the join.
        StopCrashed();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      worker.join();
      RestartCrashed(report);
      if (stuck) {
        RecordFailure(report, "op " + std::to_string(op) +
                                  " made no progress within the op timeout");
        if (rig.stopped && rig.log != nullptr && !rig.log->crashed()) {
          // Force-stopped without a planned crash: rebuild so teardown and
          // later phases see a live server.
          rig.server.reset();
          rig.lock_client.reset();  // before its applicator
          rig.app.reset();
          rig.zelos_app = nullptr;
          rig.lock_app = nullptr;
          rig.faults_fired_accum += rig.log->faults_fired();
          rig.log.reset();
          BuildRig(rig, inner_log_);
        }
        return false;
      }
      switch (done->load(std::memory_order_acquire)) {
        case 1:
          return true;
        case 2:
          continue;  // retry
        default:
          RecordFailure(report,
                        "op " + std::to_string(op) + " failed: " + *error);
          return false;
      }
    }
    RecordFailure(report, "op " + std::to_string(op) + " exhausted its retries");
    return false;
  }

  // Drives every server's replay to the final tail, restarting any that
  // crash on the way (pending crash positions not reached by the workload
  // fire here).
  void FinalSync(RunReport& report, LogPos tail) {
    const auto deadline = SteadyClock::now() + std::chrono::seconds(30);
    std::vector<std::shared_ptr<std::atomic<bool>>> outstanding(rigs_.size());
    while (SteadyClock::now() < deadline) {
      StopCrashed();
      RestartCrashed(report);
      bool all_caught_up = true;
      for (size_t i = 0; i < rigs_.size(); ++i) {
        Rig& rig = rigs_[i];
        if (rig.server->base()->applied_position() >= tail) {
          continue;
        }
        all_caught_up = false;
        if (outstanding[i] == nullptr || !outstanding[i]->load(std::memory_order_acquire)) {
          auto flag = std::make_shared<std::atomic<bool>>(true);
          outstanding[i] = flag;
          rig.server->top()->Sync().Then([flag](Result<ROTxn> result) {
            (void)result;  // a failed sync (crash) just clears the flag
            flag->store(false, std::memory_order_release);
          });
        }
      }
      if (all_caught_up) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    RecordFailure(report, "final sync: a server failed to reach the final tail");
  }

  // Test-only divergence (kSabotage): directly corrupts a recovered store so
  // the checksum diff below must fire. The apply thread is idle here (every
  // server is at the tail and the workload has stopped).
  void Sabotage() {
    for (Rig& rig : rigs_) {
      if (!rig.sabotage) {
        continue;
      }
      auto txn = rig.server->store()->BeginRW();
      txn.Put("sim/sabotage", "divergent");
      txn.Commit();
    }
  }

  // Two deterministic digest-beacon rounds (digest_beacon_every > 0 only):
  // every server proposes a standalone beacon in index order, then everyone
  // syncs to the new tail. Round 1 publishes each replica's digest at a
  // fresh position — a sabotaged store diverges there; round 2 carries those
  // samples inside beacons so every replica cross-checks them and the
  // divergent one is convicted on all replicas. Random plans exhaust their
  // crash positions during the workload (triggers sit in [2, num_ops]), but
  // a hand-written plan may leave one armed past the old tail — the retry
  // loop restarts a wedged rig and proposes again, all schedule-determined.
  LogPos DriveBeacons(RunReport& report, LogPos tail) {
    if (options_.digest_beacon_every == 0) {
      return tail;
    }
    for (int round = 0; round < 2 && report.ok(); ++round) {
      for (Rig& rig : rigs_) {
        bool proposed = false;
        for (int attempt = 0; attempt < 4 && !proposed; ++attempt) {
          StopCrashed();
          RestartCrashed(report);
          auto* digest = dynamic_cast<DigestEngine*>(rig.server->FindEngine("digest"));
          if (digest == nullptr) {
            return tail;  // a shape without the digest layer: nothing to drive
          }
          proposed = digest->ProposeBeaconNow(options_.op_timeout_micros);
        }
        if (!proposed) {
          RecordFailure(report, "server " + rig.id + " failed to apply its digest beacon");
          return inner_log_->CheckTail().Get() - 1;
        }
      }
      tail = inner_log_->CheckTail().Get() - 1;
      FinalSync(report, tail);
      DrainFatals(report);
    }
    return tail;
  }

  // Replays the run's final log bytes through a fresh fault-free stack and
  // diffs every recovered server against it.
  void CaptureAndCompare(RunReport& report, LogPos tail) {
    auto ref_log = std::make_shared<InMemoryLog>();
    if (tail > 0) {
      for (LogRecord& record : inner_log_->ReadRange(1, tail)) {
        ref_log->Append(std::move(record.payload)).Get();
      }
    }
    Rig ref;
    ref.index = static_cast<uint32_t>(rigs_.size());
    ref.id = "ref";
    ref.append_counter = std::make_shared<std::atomic<uint64_t>>(0);
    BuildRig(ref, ref_log);
    bool ref_ok = true;
    try {
      auto snapshot = ref.server->top()->Sync().GetFor(std::chrono::microseconds(
          static_cast<int64_t>(30) * 1'000'000));
      if (!snapshot.has_value() || ref.server->base()->applied_position() < tail) {
        ref_ok = false;
      }
    } catch (const std::exception&) {
      ref_ok = false;
    }
    if (!ref_ok) {
      RecordFailure(report, "reference replay failed to reach the final tail");
    } else {
      report.reference_checksum = ref.server->store()->Checksum();
      report.reference_key_count = ref.server->store()->KeyCount();
    }
    ref.server->Stop();
    ref.server.reset();
    ref.lock_client.reset();  // before its applicator
    ref.app.reset();
    ref.log.reset();
    if (!ref_ok) {
      return;
    }

    for (Rig& rig : rigs_) {
      const uint64_t checksum = rig.server->store()->Checksum();
      report.server_checksums.push_back(checksum);
      if (rig.server->base()->applied_position() != tail) {
        RecordFailure(report, "server " + rig.id +
                                  ": applied cursor stopped short of the final tail");
      }
      if (checksum != report.reference_checksum) {
        RecordFailure(report,
                      "server " + rig.id +
                          ": recovered LocalStore diverges from the fault-free "
                          "reference replay (checksum mismatch)");
      } else if (rig.server->store()->KeyCount() != report.reference_key_count) {
        RecordFailure(report, "server " + rig.id +
                                  ": key count diverges from the reference replay");
      }
    }
  }

  void RecordFailure(RunReport& report, std::string message) {
    report.failures.push_back(std::move(message));
  }

  void DrainFatals(RunReport& report) {
    std::lock_guard<std::mutex> lock(fatal_mu_);
    for (std::string& message : fatal_messages_) {
      report.failures.push_back(std::move(message));
    }
    fatal_messages_.clear();
  }

  SimOptions options_;
  InMemoryBackupStore backup_;
  SimClock trace_clock_;  // pinned at zero: logical time for trace artifacts
  std::unique_ptr<Tracer> tracer_;
  uint64_t run_counter_ = 0;
  std::string run_dir_;
  std::shared_ptr<InMemoryLog> inner_log_;
  std::vector<Rig> rigs_;
  zelos::SessionId zelos_session_ = 0;
  uint64_t current_seed_ = 0;
  std::unique_ptr<verify::HistoryRecorder> history_;  // verify workloads only
  std::mutex fatal_mu_;
  std::vector<std::string> fatal_messages_;
};

SimCluster::SimCluster(SimOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SimCluster::~SimCluster() = default;

RunReport SimCluster::Run(const FaultPlan& plan) { return impl_->Run(plan); }

RunReport SimCluster::RunSeed(uint64_t seed, const SimOptions& options) {
  SimOptions effective = options;
  effective.plan.num_servers = effective.num_servers;
  effective.plan.num_ops = effective.num_ops;
  SimCluster cluster(effective);
  return cluster.Run(FaultPlan::Random(seed, effective.plan));
}

}  // namespace delos::sim

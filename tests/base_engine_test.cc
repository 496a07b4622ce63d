// Tests for the BaseEngine: replicated-RPC propose, linearizable sync with
// coalesced tail checks, exception relay, trim clamping, recovery-by-replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "src/core/base_engine.h"
#include "src/sharedlog/chaos_log.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

// Applicator that appends every payload to a list and echoes it back.
class EchoApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put("applied/" + std::to_string(pos), entry.payload);
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(entry.payload);
    return std::any(entry.payload);
  }
  void PostApply(const LogEntry& entry, LogPos pos) override { post_applies_.fetch_add(1); }

  std::vector<std::string> order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }
  int post_applies() const { return post_applies_.load(); }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> order_;
  std::atomic<int> post_applies_{0};
};

// Applicator that throws on demand.
class ThrowingApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    if (entry.payload == "boom-deterministic") {
      txn.Put("partial", "must-roll-back");
      throw DeterministicError("boom");
    }
    if (entry.payload == "boom-nondeterministic") {
      throw std::runtime_error("platform failure");
    }
    txn.Put("ok/" + std::to_string(pos), entry.payload);
    return std::any(Unit{});
  }
};

// Log wrapper that counts tail checks (for the coalescing test).
class TailCountingLog : public ISharedLog {
 public:
  explicit TailCountingLog(std::shared_ptr<ISharedLog> inner) : inner_(std::move(inner)) {}
  Future<LogPos> Append(std::string payload) override { return inner_->Append(std::move(payload)); }
  Future<LogPos> CheckTail() override {
    tail_checks_.fetch_add(1);
    // Slow the check down so concurrent syncs pile up behind it.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return inner_->CheckTail();
  }
  std::vector<LogRecord> ReadRange(LogPos lo, LogPos hi) override {
    return inner_->ReadRange(lo, hi);
  }
  void Trim(LogPos prefix) override { inner_->Trim(prefix); }
  LogPos trim_prefix() const override { return inner_->trim_prefix(); }
  void Seal() override { inner_->Seal(); }
  int tail_checks() const { return tail_checks_.load(); }

 private:
  std::shared_ptr<ISharedLog> inner_;
  std::atomic<int> tail_checks_{0};
};

// Log wrapper whose tail checks complete 1 ms late (on DelayedLog's timer)
// and that records how many are in flight at once.
class InFlightTailLog : public ISharedLog {
 public:
  explicit InFlightTailLog(std::shared_ptr<ISharedLog> inner)
      : inner_(std::make_shared<DelayedLog>(std::move(inner), DelayedLog::Delays{0, 1000, 0})) {}
  Future<LogPos> Append(std::string payload) override { return inner_->Append(std::move(payload)); }
  Future<LogPos> CheckTail() override {
    started_.fetch_add(1);
    const int now = in_flight_.fetch_add(1) + 1;
    int max = max_in_flight_.load();
    while (now > max && !max_in_flight_.compare_exchange_weak(max, now)) {
    }
    Future<LogPos> future = inner_->CheckTail();
    // Registered before the caller's continuation, so it runs first.
    future.Then([this](const Result<LogPos>&) {
      in_flight_.fetch_sub(1);
      completed_.fetch_add(1);
    });
    return future;
  }
  std::vector<LogRecord> ReadRange(LogPos lo, LogPos hi) override {
    return inner_->ReadRange(lo, hi);
  }
  void Trim(LogPos prefix) override { inner_->Trim(prefix); }
  LogPos trim_prefix() const override { return inner_->trim_prefix(); }
  void Seal() override { inner_->Seal(); }
  int started() const { return started_.load(); }
  int completed() const { return completed_.load(); }
  int max_in_flight() const { return max_in_flight_.load(); }

 private:
  std::shared_ptr<ISharedLog> inner_;
  std::atomic<int> started_{0};
  std::atomic<int> completed_{0};
  std::atomic<int> in_flight_{0};
  std::atomic<int> max_in_flight_{0};
};

// Log wrapper whose tail checks stay in flight until the test releases
// them, in any order. A check reads the inner log's tail when it is issued.
// Once ReleaseAll() runs, held and later checks complete at once.
class GatedTailLog : public ISharedLog {
 public:
  explicit GatedTailLog(std::shared_ptr<ISharedLog> inner) : inner_(std::move(inner)) {}
  Future<LogPos> Append(std::string payload) override { return inner_->Append(std::move(payload)); }
  Future<LogPos> CheckTail() override {
    Future<LogPos> tail = inner_->CheckTail();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!open_) {
        Promise<LogPos> promise;
        Future<LogPos> held = promise.GetFuture();
        checks_.push_back(Check{tail, std::move(promise)});
        ++in_flight_;
        max_in_flight_ = std::max(max_in_flight_, in_flight_);
        cv_.notify_all();
        return held;
      }
      checks_.emplace_back();
    }
    cv_.notify_all();
    return tail;
  }
  std::vector<LogRecord> ReadRange(LogPos lo, LogPos hi) override {
    return inner_->ReadRange(lo, hi);
  }
  void Trim(LogPos prefix) override { inner_->Trim(prefix); }
  LogPos trim_prefix() const override { return inner_->trim_prefix(); }
  void Seal() override { inner_->Seal(); }

  // Waits up to two seconds until `n` checks have been issued in all.
  bool WaitForStarted(size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(2), [&] { return checks_.size() >= n; });
  }
  // Completes the `index`-th check issued (0-based) with the tail it read.
  void Release(size_t index) {
    std::optional<Check> check;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (index < checks_.size() && checks_[index].has_value()) {
        check.swap(checks_[index]);
        --in_flight_;
      }
    }
    if (check.has_value()) {
      check->promise.SetValue(check->tail.Get());
    }
  }
  void ReleaseAll() {
    size_t issued;
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
      issued = checks_.size();
    }
    for (size_t i = 0; i < issued; ++i) {
      Release(i);
    }
  }
  size_t started() const {
    std::lock_guard<std::mutex> lock(mu_);
    return checks_.size();
  }
  int max_in_flight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_in_flight_;
  }

 private:
  struct Check {
    Future<LogPos> tail;
    Promise<LogPos> promise;
  };
  std::shared_ptr<ISharedLog> inner_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::optional<Check>> checks_;
  int in_flight_ = 0;
  int max_in_flight_ = 0;
  bool open_ = false;
};

// Releases every held tail check when the test returns, so an engine's
// Stop() never waits on a check the test left in flight.
struct ReleaseOnExit {
  GatedTailLog* log;
  ~ReleaseOnExit() { log->ReleaseAll(); }
};

// Applicator whose apply of the payload "block" waits until Release().
class LatchedApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put("applied/" + std::to_string(pos), entry.payload);
    if (entry.payload == "block") {
      entered_.store(true);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return released_; });
    }
    return std::any(pos);
  }
  bool entered() const { return entered_.load(); }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::atomic<bool> entered_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

// Polls `done` for up to two seconds.
bool WaitUntil(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

constexpr std::chrono::seconds kSettleTimeout{2};

LogEntry PayloadEntry(std::string payload) {
  LogEntry entry;
  entry.payload = std::move(payload);
  return entry;
}

TEST(BaseEngineTest, ProposeAppliesAndEchoes) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  EchoApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();

  std::any result = engine.Propose(PayloadEntry("hello")).Get();
  EXPECT_EQ(std::any_cast<std::string>(result), "hello");
  EXPECT_EQ(engine.applied_position(), 1u);
  EXPECT_EQ(app.post_applies(), 1);
  engine.Stop();
}

TEST(BaseEngineTest, ConcurrentProposalsAllApplyInLogOrder) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  EchoApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string payload = std::to_string(t) + ":" + std::to_string(i);
        EXPECT_EQ(std::any_cast<std::string>(engine.Propose(PayloadEntry(payload)).Get()),
                  payload);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto order = app.order();
  EXPECT_EQ(order.size(), static_cast<size_t>(kThreads * kPerThread));
  // Apply order must equal log order.
  auto records = log->ReadRange(1, kThreads * kPerThread);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(LogEntry::Deserialize(records[i].payload).payload, order[i]);
  }
  engine.Stop();
}

TEST(BaseEngineTest, SyncReflectsCompletedWrites) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  EchoApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();

  engine.Propose(PayloadEntry("w1")).Get();
  ROTxn snap = engine.Sync().Get();
  EXPECT_EQ(snap.Get("applied/1").value(), "w1");
  engine.Stop();
}

TEST(BaseEngineTest, SyncSeesRemoteWrites) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store_a;
  LocalStore store_b;
  EchoApplicator app_a;
  EchoApplicator app_b;
  BaseEngineOptions options_a;
  options_a.server_id = "a";
  BaseEngineOptions options_b;
  options_b.server_id = "b";
  BaseEngine engine_a(log, &store_a, options_a);
  BaseEngine engine_b(log, &store_b, options_b);
  engine_a.RegisterUpcall(&app_a);
  engine_b.RegisterUpcall(&app_b);
  engine_a.Start();
  engine_b.Start();

  engine_a.Propose(PayloadEntry("from-a")).Get();
  ROTxn snap = engine_b.Sync().Get();
  EXPECT_EQ(snap.Get("applied/1").value(), "from-a");
  // Replica state machines agree.
  EXPECT_EQ(store_a.Checksum(), store_b.Checksum());
  engine_a.Stop();
  engine_b.Stop();
}

TEST(BaseEngineTest, SyncsCoalesceBehindOneTailCheck) {
  auto counting = std::make_shared<TailCountingLog>(std::make_shared<InMemoryLog>());
  LocalStore store;
  EchoApplicator app;
  BaseEngine engine(counting, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();
  engine.Propose(PayloadEntry("seed")).Get();

  const int before = counting->tail_checks();
  constexpr int kSyncs = 32;
  std::vector<Future<ROTxn>> futures;
  futures.reserve(kSyncs);
  for (int i = 0; i < kSyncs; ++i) {
    futures.push_back(engine.Sync());
  }
  for (auto& future : futures) {
    future.Get();
  }
  const int used = counting->tail_checks() - before;
  // 32 concurrent syncs should need far fewer than 32 checks.
  EXPECT_LT(used, kSyncs / 2);
  EXPECT_GE(used, 1);
  engine.Stop();
}

// Pipelined syncs: while the first sync's group waits for an apply the app
// holds up, a second sync gets its own tail check at once. The second sync
// starts only after the first check returns, so one check is in flight at
// a time here.
TEST(BaseEngineTest, TailCheckPipelinesPastTheApplyWait) {
  auto log = std::make_shared<InFlightTailLog>(std::make_shared<InMemoryLog>());
  LocalStore store;
  LatchedApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();
  Future<std::any> blocked = engine.Propose(PayloadEntry("block"));
  ASSERT_TRUE(WaitUntil([&] { return app.entered(); }));

  // The first check returns the blocked entry's position; its sync parks.
  Future<ROTxn> first = engine.Sync();
  ASSERT_TRUE(WaitUntil([&] { return log->completed() >= 1; }));
  Future<ROTxn> second = engine.Sync();
  EXPECT_TRUE(WaitUntil([&] { return log->started() >= 2; }));
  EXPECT_FALSE(first.IsReady());

  app.Release();
  auto first_snapshot = first.GetFor(kSettleTimeout);
  ASSERT_TRUE(first_snapshot.has_value());
  EXPECT_EQ(first_snapshot->Get("applied/1").value(), "block");
  EXPECT_TRUE(second.GetFor(kSettleTimeout).has_value());
  EXPECT_EQ(std::any_cast<LogPos>(blocked.Get()), 1u);
  EXPECT_EQ(log->max_in_flight(), 1);
  engine.Stop();
}

// Stop() fails parked syncs like queued ones, even while the apply thread
// is still held up by the app.
TEST(BaseEngineTest, StopFailsParkedSyncs) {
  auto log = std::make_shared<InFlightTailLog>(std::make_shared<InMemoryLog>());
  LocalStore store;
  LatchedApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();
  Future<std::any> blocked = engine.Propose(PayloadEntry("block"));
  ASSERT_TRUE(WaitUntil([&] { return app.entered(); }));

  Future<ROTxn> first = engine.Sync();
  ASSERT_TRUE(WaitUntil([&] { return log->completed() >= 1; }));
  Future<ROTxn> second = engine.Sync();
  EXPECT_TRUE(WaitUntil([&] { return log->completed() >= 2; }));

  std::thread stopper([&] { engine.Stop(); });
  EXPECT_THROW(first.GetFor(kSettleTimeout), LogUnavailableError);
  EXPECT_THROW(second.GetFor(kSettleTimeout), LogUnavailableError);
  app.Release();
  stopper.join();
}

// The tail-check window: a sync issued while a check is in flight gets its
// own check before the first one returns.
TEST(BaseEngineTest, SyncDuringATailCheckStartsItsOwnCheck) {
  auto log = std::make_shared<GatedTailLog>(std::make_shared<InMemoryLog>());
  LocalStore store;
  EchoApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();
  ReleaseOnExit release{log.get()};

  Future<ROTxn> first = engine.Sync();
  ASSERT_TRUE(log->WaitForStarted(1));
  Future<ROTxn> second = engine.Sync();
  ASSERT_TRUE(log->WaitForStarted(2));
  EXPECT_EQ(log->max_in_flight(), 2);
  EXPECT_FALSE(first.IsReady());
  EXPECT_FALSE(second.IsReady());

  log->Release(1);
  EXPECT_TRUE(second.GetFor(kSettleTimeout).has_value());
  EXPECT_FALSE(first.IsReady());
  log->Release(0);
  EXPECT_TRUE(first.GetFor(kSettleTimeout).has_value());
  engine.Stop();
}

// Syncs issued one by one fill the window to exactly kMaxTailChecksInFlight
// checks. The syncs that arrive while it is full share the next free slot,
// and every sync is served.
TEST(BaseEngineTest, TailCheckWindowFillsToItsBound) {
  constexpr int kWindow = BaseEngine::kMaxTailChecksInFlight;
  auto log = std::make_shared<GatedTailLog>(std::make_shared<InMemoryLog>());
  LocalStore store;
  EchoApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();
  ReleaseOnExit release{log.get()};

  std::vector<Future<ROTxn>> syncs;
  for (int i = 0; i < kWindow; ++i) {
    syncs.push_back(engine.Sync());
    ASSERT_TRUE(log->WaitForStarted(i + 1));
  }
  constexpr int kQueued = 3;
  for (int i = 0; i < kQueued; ++i) {
    syncs.push_back(engine.Sync());
  }
  log->Release(0);
  ASSERT_TRUE(log->WaitForStarted(kWindow + 1));
  log->ReleaseAll();
  for (auto& sync : syncs) {
    EXPECT_TRUE(sync.GetFor(kSettleTimeout).has_value());
  }
  EXPECT_EQ(log->started(), static_cast<size_t>(kWindow + 1));
  EXPECT_EQ(log->max_in_flight(), kWindow);
  engine.Stop();
}

// Checks that return in reverse order each serve their own syncs: every
// sync's snapshot holds each write that completed before the sync was
// called. The writes come from another replica, so the reader applies only
// as far as its tail checks ask.
TEST(BaseEngineTest, TailChecksReturningInReverseServeTheirOwnSyncs) {
  constexpr int kWindow = BaseEngine::kMaxTailChecksInFlight;
  auto inner = std::make_shared<InMemoryLog>();
  auto log = std::make_shared<GatedTailLog>(inner);
  LocalStore writer_store;
  LocalStore reader_store;
  EchoApplicator writer_app;
  EchoApplicator reader_app;
  BaseEngineOptions writer_options;
  writer_options.server_id = "writer";
  BaseEngineOptions reader_options;
  reader_options.server_id = "reader";
  BaseEngine writer(inner, &writer_store, writer_options);
  BaseEngine reader(log, &reader_store, reader_options);
  writer.RegisterUpcall(&writer_app);
  reader.RegisterUpcall(&reader_app);
  writer.Start();
  reader.Start();
  ReleaseOnExit release{log.get()};

  std::vector<Future<ROTxn>> syncs;
  for (int i = 1; i <= kWindow; ++i) {
    writer.Propose(PayloadEntry("w" + std::to_string(i))).Get();
    syncs.push_back(reader.Sync());
    ASSERT_TRUE(log->WaitForStarted(i));
  }
  for (int i = kWindow - 1; i >= 0; --i) {
    log->Release(i);
    auto snapshot = syncs[i].GetFor(kSettleTimeout);
    ASSERT_TRUE(snapshot.has_value()) << "sync " << i;
    for (int w = 1; w <= i + 1; ++w) {
      EXPECT_EQ(snapshot->Get("applied/" + std::to_string(w)).value_or(""),
                "w" + std::to_string(w))
          << "sync " << i;
    }
    for (int earlier = 0; earlier < i; ++earlier) {
      EXPECT_FALSE(syncs[earlier].IsReady()) << "sync " << earlier;
    }
  }
  reader.Stop();
  writer.Stop();
}

// Stop() with a full window fails every sync: those whose checks are in
// flight, and the one queued behind them.
TEST(BaseEngineTest, StopFailsEverySyncInAFullWindow) {
  constexpr int kWindow = BaseEngine::kMaxTailChecksInFlight;
  auto log = std::make_shared<GatedTailLog>(std::make_shared<InMemoryLog>());
  LocalStore store;
  EchoApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();
  ReleaseOnExit release{log.get()};

  std::vector<Future<ROTxn>> checking;
  for (int i = 0; i < kWindow; ++i) {
    checking.push_back(engine.Sync());
    ASSERT_TRUE(log->WaitForStarted(i + 1));
  }
  Future<ROTxn> queued = engine.Sync();

  // Stop() waits for the checks' continuations, so it runs on its own
  // thread while the checks are still held.
  std::thread stopper([&] { engine.Stop(); });
  for (auto& sync : checking) {
    EXPECT_THROW(sync.GetFor(kSettleTimeout), LogUnavailableError);
  }
  log->ReleaseAll();
  stopper.join();
  EXPECT_THROW(queued.GetFor(kSettleTimeout), LogUnavailableError);
}

// The engine names its long-lived threads.
TEST(BaseEngineTest, StartedEngineNamesItsThreads) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  EchoApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();
  // A completed propose and sync mean both threads have run.
  engine.Propose(PayloadEntry("w1")).Get();
  engine.Sync().Get();

  std::set<std::string> names;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) {
      names.insert(name);
    }
  }
  EXPECT_EQ(names.count("apply"), 1u);
  EXPECT_EQ(names.count("sync"), 1u);
  engine.Stop();
}

TEST(BaseEngineTest, DeterministicExceptionRelayedAndRolledBack) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  ThrowingApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();

  EXPECT_THROW(engine.Propose(PayloadEntry("boom-deterministic")).Get(), DeterministicError);
  // The thrower's writes were rolled back, but the entry was consumed (the
  // cursor advanced) and the engine keeps going.
  EXPECT_FALSE(store.Snapshot().Get("partial").has_value());
  EXPECT_EQ(engine.applied_position(), 1u);
  engine.Propose(PayloadEntry("fine")).Get();
  EXPECT_TRUE(store.Snapshot().Get("ok/2").has_value());
  engine.Stop();
}

TEST(BaseEngineTest, NonDeterministicExceptionIsFatal) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  ThrowingApplicator app;
  std::atomic<bool> fatal{false};
  BaseEngineOptions options;
  options.fatal_handler = [&](const std::string&) { fatal = true; };
  BaseEngine engine(log, &store, options);
  engine.RegisterUpcall(&app);
  engine.Start();

  engine.Propose(PayloadEntry("boom-nondeterministic"));
  while (!fatal.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fatal.load());
  engine.Stop();
}

TEST(BaseEngineTest, InjectedCommitFaultIsFatal) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  EchoApplicator app;
  std::atomic<bool> fatal{false};
  BaseEngineOptions options;
  options.fatal_handler = [&](const std::string&) { fatal = true; };
  BaseEngine engine(log, &store, options);
  engine.RegisterUpcall(&app);
  engine.Start();

  store.InjectCommitFault();
  engine.Propose(PayloadEntry("doomed"));
  while (!fatal.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.Stop();
}

TEST(BaseEngineTest, RecoveryReplaysFromCursor) {
  auto log = std::make_shared<InMemoryLog>();
  const std::string path = testing::TempDir() + "/base_recovery.ckpt";
  std::filesystem::remove(path);
  {
    auto store = LocalStore::Open({path});
    EchoApplicator app;
    BaseEngine engine(log, store.get(), BaseEngineOptions{});
    engine.RegisterUpcall(&app);
    engine.Start();
    engine.Propose(PayloadEntry("one")).Get();
    engine.Propose(PayloadEntry("two")).Get();
    engine.FlushNow();
    engine.Propose(PayloadEntry("three")).Get();
    engine.Stop();
    // "three" was applied but never flushed: it is lost with the crash and
    // must come back from the log.
  }
  auto store = LocalStore::Open({path});
  EXPECT_FALSE(store->Snapshot().Get("applied/3").has_value());
  EchoApplicator app;
  BaseEngine engine(log, store.get(), BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();
  ROTxn snap = engine.Sync().Get();
  EXPECT_EQ(snap.Get("applied/3").value(), "three");
  // Only the unflushed suffix was replayed.
  EXPECT_EQ(app.order(), std::vector<std::string>{"three"});
  engine.Stop();
  std::filesystem::remove(path);
}

TEST(BaseEngineTest, TrimClampedToDurablePosition) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  EchoApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();
  for (int i = 0; i < 10; ++i) {
    engine.Propose(PayloadEntry("e" + std::to_string(i))).Get();
  }
  // Nothing flushed yet: durable position is 0, so nothing may be trimmed.
  engine.SetTrimPrefix(10);
  engine.TrimNow();
  EXPECT_EQ(log->trim_prefix(), 0u);

  engine.FlushNow();
  engine.TrimNow();
  EXPECT_EQ(log->trim_prefix(), 10u);
  engine.Stop();
}

TEST(BaseEngineTest, NoTrimWithoutConstraint) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  EchoApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();
  engine.Propose(PayloadEntry("x")).Get();
  engine.FlushNow();
  engine.TrimNow();
  EXPECT_EQ(log->trim_prefix(), 0u);
  engine.Stop();
}

TEST(BaseEngineTest, StopFailsPendingWork) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  EchoApplicator app;
  BaseEngine engine(log, &store, BaseEngineOptions{});
  engine.RegisterUpcall(&app);
  engine.Start();
  engine.Propose(PayloadEntry("ok")).Get();
  engine.Stop();
  EXPECT_THROW(engine.Sync().Get(), DelosError);
}

// --- group-commit pipeline ---

// The state machine must be batch-size invariant: playing the same log with
// play_batch_size 1, 8, and 128 yields byte-identical LocalStore state, even
// when records throw DeterministicError mid-batch (savepoint rollback inside
// the shared transaction must equal a rolled-back solo transaction).
TEST(BaseEngineTest, ChecksumInvariantAcrossBatchSizes) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore writer_store;
  ThrowingApplicator writer_app;
  BaseEngineOptions writer_options;
  writer_options.server_id = "writer";
  writer_options.play_batch_size = 1;
  BaseEngine writer(log, &writer_store, writer_options);
  writer.RegisterUpcall(&writer_app);
  writer.Start();
  // Interleave successful writes with deterministic failures so that large
  // batches contain rolled-back records in the middle.
  for (int i = 0; i < 100; ++i) {
    if (i % 7 == 3) {
      EXPECT_THROW(writer.Propose(PayloadEntry("boom-deterministic")).Get(), DeterministicError);
    } else {
      writer.Propose(PayloadEntry("v" + std::to_string(i))).Get();
    }
  }
  writer.Stop();

  const uint64_t want = writer_store.Checksum();
  for (const LogPos batch_size : {LogPos{1}, LogPos{8}, LogPos{128}}) {
    LocalStore store;
    ThrowingApplicator app;
    BaseEngineOptions options;
    options.server_id = "replica" + std::to_string(batch_size);
    options.play_batch_size = batch_size;
    BaseEngine replica(log, &store, options);
    replica.RegisterUpcall(&app);
    replica.Start();
    replica.Sync().Get();
    EXPECT_EQ(replica.applied_position(), 100u);
    EXPECT_EQ(store.Checksum(), want) << "batch_size=" << batch_size;
    EXPECT_EQ(replica.apply_records(), 100u);
    if (batch_size > 1) {
      // The whole backlog was available up front, so playback must have
      // grouped records instead of committing one at a time.
      EXPECT_LT(replica.apply_batches(), replica.apply_records());
    }
    replica.Stop();
  }
}

// A record marked with the commit barrier opens its own group commit. The
// 10-record log is readable at once, so with play_batch_size 128 records 3
// and 7 cut it into exactly three commits, starting at 1, 3 and 7, in both
// pipeline modes, and the store ends where a one-record-per-commit replay
// ends. A barrier on a batch's first record (record 1) adds no commit.
TEST(BaseEngineTest, CommitBarrierOpensItsOwnGroupCommit) {
  for (const std::vector<LogPos>& barriers : {std::vector<LogPos>{3, 7}, {1, 3, 7}}) {
    auto log = std::make_shared<InMemoryLog>();
    for (LogPos pos = 1; pos <= 10; ++pos) {
      LogEntry entry = PayloadEntry("r" + std::to_string(pos));
      if (std::find(barriers.begin(), barriers.end(), pos) != barriers.end()) {
        MarkCommitBarrier(&entry);
      }
      ASSERT_EQ(log->Append(entry.Serialize()).Get(), pos);
    }
    // Replays the log; returns the store checksum and the first position of
    // every commit.
    const auto replay = [&](LogPos batch_size, int prefetch_batches) {
      LocalStore store;
      EchoApplicator app;
      FlightRecorder recorder(256);
      BaseEngineOptions options;
      options.server_id = "replica";
      options.play_batch_size = batch_size;
      options.prefetch_batches = prefetch_batches;
      options.recorder = &recorder;
      BaseEngine engine(log, &store, options);
      engine.RegisterUpcall(&app);
      engine.Start();
      engine.Sync().Get();
      EXPECT_EQ(engine.applied_position(), 10u);
      EXPECT_EQ(engine.apply_records(), 10u);
      EXPECT_EQ(app.post_applies(), 10);
      engine.Stop();
      std::vector<LogPos> commit_starts;
      for (const FlightRecorder::Event& event : recorder.Snapshot()) {
        if (event.kind == FlightEventKind::kCommit) {
          commit_starts.push_back(event.a);
        }
      }
      return std::make_pair(store.Checksum(), commit_starts);
    };
    const auto [want, solo_commits] = replay(1, 0);
    EXPECT_EQ(solo_commits.size(), 10u);
    for (const int prefetch_batches : {0, 8}) {
      const auto [checksum, commits] = replay(128, prefetch_batches);
      EXPECT_EQ(commits, (std::vector<LogPos>{1, 3, 7})) << "prefetch=" << prefetch_batches;
      EXPECT_EQ(checksum, want) << "prefetch=" << prefetch_batches;
    }
  }
}

// Applicator that throws a non-deterministic error the first time it sees the
// poisoned payload, simulating a transient platform fault mid-batch.
class FaultOnceApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    if (entry.payload == "fault-once" && !faulted_.exchange(true)) {
      throw std::runtime_error("transient platform failure");
    }
    txn.Put("applied/" + std::to_string(pos), entry.payload);
    return std::any(entry.payload);
  }

 private:
  std::atomic<bool> faulted_{false};
};

// A non-deterministic failure mid-batch must abort the whole transaction:
// the store stays at the last committed batch boundary (no partial batch, no
// advanced cursor), and a restarted engine replays every record of the
// aborted batch exactly.
TEST(BaseEngineTest, FatalMidBatchAbortsWholeBatchAndReplays) {
  auto log = std::make_shared<InMemoryLog>();
  // Fill the log via a scratch writer so the records already exist before
  // the engine under test starts playing (forcing one large batch).
  {
    LocalStore scratch;
    EchoApplicator scratch_app;
    BaseEngineOptions scratch_options;
    scratch_options.server_id = "scratch";
    BaseEngine writer(log, &scratch, scratch_options);
    writer.RegisterUpcall(&scratch_app);
    writer.Start();
    for (int i = 0; i < 10; ++i) {
      writer.Propose(PayloadEntry(i == 5 ? "fault-once" : "r" + std::to_string(i))).Get();
    }
    writer.Stop();
  }

  LocalStore store;
  FaultOnceApplicator app;
  const uint64_t checksum_before = store.Checksum();
  std::atomic<bool> fatal{false};
  BaseEngineOptions options;
  options.server_id = "victim";
  options.play_batch_size = 128;
  options.fatal_handler = [&](const std::string&) { fatal = true; };
  {
    BaseEngine engine(log, &store, options);
    engine.RegisterUpcall(&app);
    engine.Start();
    engine.Sync();  // triggers playback of the 10-record backlog
    while (!fatal.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    engine.Stop();
  }
  // Records 1..5 were applied in the aborted transaction; none may be
  // visible and the cursor must not have advanced.
  EXPECT_EQ(store.Checksum(), checksum_before);
  EXPECT_FALSE(store.Snapshot().Get("applied/1").has_value());

  // Restart on the same store: the fault does not recur, and the replayed
  // batch applies all 10 records.
  BaseEngine engine(log, &store, options);
  engine.RegisterUpcall(&app);
  engine.Start();
  engine.Sync().Get();
  EXPECT_EQ(engine.applied_position(), 10u);
  for (int pos = 1; pos <= 10; ++pos) {
    EXPECT_TRUE(store.Snapshot().Get("applied/" + std::to_string(pos)).has_value()) << pos;
  }
  engine.Stop();
}

// Start/stop stress: Stop must drain in-flight append continuations before
// tearing down, so racing proposers never touch a dead engine, and every
// outstanding propose future settles (value or LogUnavailableError).
TEST(BaseEngineTest, StartStopStressWithRacingProposers) {
  for (int round = 0; round < 20; ++round) {
    auto log = std::make_shared<InMemoryLog>();
    LocalStore store;
    EchoApplicator app;
    BaseEngine engine(log, &store, BaseEngineOptions{});
    engine.RegisterUpcall(&app);
    engine.Start();

    std::vector<Future<std::any>> futures;
    std::mutex futures_mu;
    std::atomic<bool> stop_proposing{false};
    std::vector<std::thread> proposers;
    for (int t = 0; t < 3; ++t) {
      proposers.emplace_back([&, t] {
        for (int i = 0; i < 50 && !stop_proposing.load(); ++i) {
          auto future = engine.Propose(PayloadEntry(std::to_string(t) + ":" + std::to_string(i)));
          std::lock_guard<std::mutex> lock(futures_mu);
          futures.push_back(std::move(future));
        }
      });
    }
    // Stop while proposals are in flight.
    std::this_thread::sleep_for(std::chrono::microseconds(100 * (round % 5)));
    engine.Stop();
    stop_proposing = true;
    for (auto& thread : proposers) {
      thread.join();
    }
    int settled = 0;
    for (auto& future : futures) {
      try {
        future.Get();
        ++settled;
      } catch (const DelosError&) {
        ++settled;  // failed with a clean shutdown/unavailable error
      }
    }
    EXPECT_EQ(settled, static_cast<int>(futures.size()));
  }
}

}  // namespace
}  // namespace delos

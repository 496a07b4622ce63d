// Per-engine tests: ObserverEngine, ViewTrackingEngine, BrainDoctorEngine,
// BatchingEngine.
#include <gtest/gtest.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "src/common/serde.h"
#include "src/core/base_engine.h"
#include "src/engines/batching_engine.h"
#include "src/engines/brain_doctor_engine.h"
#include "src/engines/observer_engine.h"
#include "src/engines/view_tracking_engine.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

class CountingApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put("app/count", std::to_string(++applies_));
    if (entry.payload == "fail") {
      throw DeterministicError("requested failure");
    }
    if (entry.payload == "hold") {
      // Keeps the entry's batch in flight until the test opens the gate.
      std::unique_lock<std::mutex> lock(gate_mu_);
      holding_ = true;
      gate_cv_.notify_all();
      gate_cv_.wait(lock, [this] { return gate_open_; });
    }
    return std::any(std::string("r:") + entry.payload);
  }
  int applies() const { return applies_; }

  // Blocks until a "hold" entry's apply waits on the gate.
  void WaitUntilHolding() {
    std::unique_lock<std::mutex> lock(gate_mu_);
    gate_cv_.wait(lock, [this] { return holding_; });
  }

  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(gate_mu_);
      gate_open_ = true;
    }
    gate_cv_.notify_all();
  }

 private:
  int applies_ = 0;
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  bool holding_ = false;
  bool gate_open_ = false;
};

LogEntry PayloadEntry(std::string payload) {
  LogEntry entry;
  entry.payload = std::move(payload);
  return entry;
}

// A future's waiter can resume before its continuations run on the
// fulfilling thread, so metric updates are polled.
void WaitForCount(Histogram* histogram, uint64_t expected) {
  const int64_t deadline = RealClock::Instance()->NowMicros() + 1'000'000;
  while (histogram->count() < expected && RealClock::Instance()->NowMicros() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(histogram->count(), expected);
}

// --- ObserverEngine ---

TEST(ObserverEngineTest, RecordsProposeAndSyncLatency) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  MetricsRegistry metrics;
  CountingApplicator app;
  BaseEngine base(log, &store, BaseEngineOptions{});
  Probe probe;
  probe.metrics = &metrics;
  ObserverEngine::Options options;
  options.label = "base";
  ObserverEngine observer(options, &base, &store);
  observer.AttachProbe(&probe);
  observer.RegisterUpcall(&app);
  base.Start();

  observer.Propose(PayloadEntry("x")).Get();
  observer.Sync().Get();
  WaitForCount(metrics.GetHistogram("base.propose.latency_us"), 1);
  WaitForCount(metrics.GetHistogram("base.sync.latency_us"), 1);
  base.Stop();
}

TEST(ObserverEngineTest, RecordsLatencyEvenOnFailure) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  MetricsRegistry metrics;
  CountingApplicator app;
  BaseEngine base(log, &store, BaseEngineOptions{});
  Probe probe;
  probe.metrics = &metrics;
  ObserverEngine::Options options;
  options.label = "base";
  ObserverEngine observer(options, &base, &store);
  observer.AttachProbe(&probe);
  observer.RegisterUpcall(&app);
  base.Start();

  EXPECT_THROW(observer.Propose(PayloadEntry("fail")).Get(), DeterministicError);
  WaitForCount(metrics.GetHistogram("base.propose.latency_us"), 1);
  base.Stop();
}

// --- ViewTrackingEngine ---

struct VtServer {
  VtServer(const std::string& id, std::shared_ptr<ISharedLog> log,
           int64_t eject_after_micros = 0, Clock* clock = nullptr) {
    BaseEngineOptions base_options;
    base_options.server_id = id;
    base = std::make_unique<BaseEngine>(std::move(log), &store, base_options);
    ViewTrackingEngine::Options options;
    options.server_id = id;
    options.durable_position = [this] { return base->durable_position(); };
    options.eject_after_micros = eject_after_micros;
    options.clock = clock;
    vt = std::make_unique<ViewTrackingEngine>(options, base.get(), &store);
    vt->RegisterUpcall(&app);
    base->Start();
  }
  ~VtServer() { base->Stop(); }

  LocalStore store;
  CountingApplicator app;
  std::unique_ptr<BaseEngine> base;
  std::unique_ptr<ViewTrackingEngine> vt;
};

TEST(ViewTrackingTest, BuildsViewFromHeaders) {
  auto log = std::make_shared<InMemoryLog>();
  VtServer a("a", log);
  VtServer b("b", log);

  a.vt->Propose(PayloadEntry("w1")).Get();
  b.vt->Propose(PayloadEntry("w2")).Get();
  a.base->Sync().Get();

  const auto view = a.vt->View();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_TRUE(view.count("a"));
  EXPECT_TRUE(view.count("b"));
}

TEST(ViewTrackingTest, TrimFollowsSlowestServer) {
  auto log = std::make_shared<InMemoryLog>();
  VtServer a("a", log);
  VtServer b("b", log);

  // Both servers write and flush so their durable positions advance.
  for (int i = 0; i < 5; ++i) {
    a.vt->Propose(PayloadEntry("a" + std::to_string(i))).Get();
  }
  a.base->FlushNow();
  b.base->Sync().Get();
  b.base->FlushNow();
  // Stamp the durable positions into the log.
  a.vt->Propose(PayloadEntry("stamp-a")).Get();
  b.vt->Propose(PayloadEntry("stamp-b")).Get();
  a.base->Sync().Get();

  const auto view = a.vt->View();
  const LogPos safe = a.vt->SafeTrimPosition();
  EXPECT_GT(safe, 0u);
  for (const auto& [server, pos] : view) {
    EXPECT_LE(safe, pos);
  }
  // The BaseEngine may trim up to the safe position (min over the view).
  a.base->FlushNow();
  a.base->TrimNow();
  EXPECT_EQ(log->trim_prefix(), std::min(safe, a.base->durable_position()));
}

TEST(ViewTrackingTest, EjectsSilentServer) {
  auto log = std::make_shared<InMemoryLog>();
  SimClock clock;
  VtServer a("a", log, /*eject_after_micros=*/100'000, &clock);
  a.vt->Propose(PayloadEntry("a-joins")).Get();
  {
    VtServer b("b", log, 100'000, &clock);
    b.vt->Propose(PayloadEntry("b-was-here")).Get();
    a.base->Sync().Get();
    EXPECT_EQ(a.vt->View().size(), 2u);
  }
  // b is gone; advance time past the ejection threshold and give a a reason
  // to apply entries (its own writes).
  clock.Advance(200'000);
  a.vt->Propose(PayloadEntry("tick1")).Get();
  a.vt->Propose(PayloadEntry("tick2")).Get();  // applies the EJECT proposal
  a.base->Sync().Get();
  // Allow one more round for the ejection command to be applied.
  for (int i = 0; i < 10 && a.vt->View().size() > 1; ++i) {
    a.vt->Propose(PayloadEntry("tick")).Get();
  }
  const auto view = a.vt->View();
  EXPECT_EQ(view.size(), 1u);
  EXPECT_TRUE(view.count("a"));
}

TEST(ViewTrackingTest, EjectedServerRejoinsOnNextAppend) {
  auto log = std::make_shared<InMemoryLog>();
  SimClock clock;
  VtServer a("a", log, 100'000, &clock);
  VtServer b("b", log, 100'000, &clock);
  a.vt->Propose(PayloadEntry("a-joins")).Get();
  b.vt->Propose(PayloadEntry("hello")).Get();
  a.base->Sync().Get();
  ASSERT_EQ(a.vt->View().size(), 2u);

  clock.Advance(200'000);
  for (int i = 0; i < 10 && a.vt->View().size() > 1; ++i) {
    a.vt->Propose(PayloadEntry("tick")).Get();
  }
  ASSERT_EQ(a.vt->View().size(), 1u);

  b.vt->Propose(PayloadEntry("back")).Get();
  a.base->Sync().Get();
  EXPECT_EQ(a.vt->View().size(), 2u);
}

// --- BrainDoctorEngine ---

TEST(BrainDoctorTest, RawWritesApplyOnAllReplicas) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store_a;
  LocalStore store_b;
  CountingApplicator app_a;
  CountingApplicator app_b;
  BaseEngineOptions opt_a;
  opt_a.server_id = "a";
  BaseEngineOptions opt_b;
  opt_b.server_id = "b";
  BaseEngine base_a(log, &store_a, opt_a);
  BaseEngine base_b(log, &store_b, opt_b);
  BrainDoctorEngine bd_a(BrainDoctorEngine::Options{}, &base_a, &store_a);
  BrainDoctorEngine bd_b(BrainDoctorEngine::Options{}, &base_b, &store_b);
  bd_a.RegisterUpcall(&app_a);
  bd_b.RegisterUpcall(&app_b);
  base_a.Start();
  base_b.Start();

  // Seed state through the app, then surgically repair a key the app owns.
  bd_a.Propose(PayloadEntry("normal")).Get();
  const auto count =
      std::any_cast<uint64_t>(bd_a.ApplyRawWrites({{"app/count", std::string("fixed")},
                                                   {"app/bogus", std::nullopt}})
                                  .Get());
  EXPECT_EQ(count, 2u);
  base_b.Sync().Get();
  EXPECT_EQ(store_a.Snapshot().Get("app/count").value(), "fixed");
  EXPECT_EQ(store_b.Snapshot().Get("app/count").value(), "fixed");
  EXPECT_EQ(store_a.Checksum(), store_b.Checksum());
  // The control entry never reached the application.
  EXPECT_EQ(app_a.applies(), 1);

  base_a.Stop();
  base_b.Stop();
}

// --- BatchingEngine ---

// A "hold" proposal flushes at once (nothing is in flight) and its apply
// blocks until OpenGate, so the proposals after it accumulate behind a batch
// that stays in flight.
struct BatchServer {
  explicit BatchServer(std::shared_ptr<ISharedLog> log, size_t max_entries = 8) {
    base = std::make_unique<BaseEngine>(std::move(log), &store, BaseEngineOptions{});
    BatchingEngine::Options options;
    options.max_batch_entries = max_entries;
    batching = std::make_unique<BatchingEngine>(options, base.get(), &store);
    batching->RegisterUpcall(&app);
    base->Start();
  }
  ~BatchServer() {
    app.OpenGate();
    base->Stop();
  }

  LocalStore store;
  CountingApplicator app;
  std::unique_ptr<BaseEngine> base;
  std::unique_ptr<BatchingEngine> batching;
};

TEST(BatchingTest, ManyProposalsShareLogEntries) {
  auto log = std::make_shared<InMemoryLog>();
  BatchServer server(log, /*max_entries=*/8);

  Future<std::any> held = server.batching->Propose(PayloadEntry("hold"));
  constexpr int kOps = 32;
  std::vector<Future<std::any>> futures;
  futures.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    futures.push_back(server.batching->Propose(PayloadEntry("op" + std::to_string(i))));
  }
  server.app.OpenGate();
  EXPECT_EQ(std::any_cast<std::string>(held.Get()), "r:hold");
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(std::any_cast<std::string>(futures[i].Get()), "r:op" + std::to_string(i));
  }
  // The held entry alone, then 32 ops at batch size 8 -> exactly 4 more log
  // entries (every op was proposed while the held batch was in flight).
  EXPECT_EQ(log->CheckTail().Get(), 6u);
  EXPECT_EQ(server.app.applies(), kOps + 1);
  EXPECT_EQ(server.batching->batches_proposed(), 5u);
  EXPECT_EQ(server.batching->entries_batched(), static_cast<uint64_t>(kOps + 1));
}

TEST(BatchingTest, LoneProposalFlushesAtOnce) {
  auto log = std::make_shared<InMemoryLog>();
  BatchServer server(log, /*max_entries=*/100);
  EXPECT_EQ(std::any_cast<std::string>(server.batching->Propose(PayloadEntry("solo")).Get()),
            "r:solo");
  EXPECT_EQ(server.batching->batches_proposed(), 1u);
}

TEST(BatchingTest, ErrorsInsideBatchAreIsolated) {
  auto log = std::make_shared<InMemoryLog>();
  BatchServer server(log, /*max_entries=*/3);
  Future<std::any> held = server.batching->Propose(PayloadEntry("hold"));
  Future<std::any> f1 = server.batching->Propose(PayloadEntry("ok1"));
  Future<std::any> f2 = server.batching->Propose(PayloadEntry("fail"));
  Future<std::any> f3 = server.batching->Propose(PayloadEntry("ok2"));
  server.app.OpenGate();
  held.Get();
  EXPECT_EQ(std::any_cast<std::string>(f1.Get()), "r:ok1");
  EXPECT_THROW(f2.Get(), DeterministicError);
  EXPECT_EQ(std::any_cast<std::string>(f3.Get()), "r:ok2");
  // The three shared one batch.
  EXPECT_EQ(server.batching->batches_proposed(), 2u);
}

TEST(BatchingTest, DisabledBatchingPassesThrough) {
  auto log = std::make_shared<InMemoryLog>();
  BatchServer server(log, /*max_entries=*/8);
  server.batching->DisableViaLog();
  server.batching->Propose(PayloadEntry("direct")).Get();
  // Disable control entry + the direct entry = 2; no batch wrapping.
  EXPECT_EQ(log->CheckTail().Get(), 3u);
  EXPECT_EQ(server.batching->batches_proposed(), 0u);
}

TEST(BatchingTest, GroupCommitUsesOneTransactionPerBatch) {
  auto log = std::make_shared<InMemoryLog>();
  BatchServer server(log, /*max_entries=*/8);
  const uint64_t version_before = server.store.committed_version();
  Future<std::any> held = server.batching->Propose(PayloadEntry("hold"));
  // The held entry's transaction is open before the batch is appended, so
  // the apply thread cannot fold the two into one group commit.
  server.app.WaitUntilHolding();
  std::vector<Future<std::any>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.batching->Propose(PayloadEntry("op")));
  }
  server.app.OpenGate();
  held.Get();
  for (auto& future : futures) {
    future.Get();
  }
  // One LocalStore commit for the held entry and one for the whole batch of
  // eight (group commit), not nine.
  EXPECT_EQ(server.store.committed_version(), version_before + 2);
}

// Group-commit pacing, driven by a downstream whose proposals stay in flight
// until the test settles them. Everything runs on the test thread: a batch's
// completion flushes the next one inline, so each step is observable at
// once, with no sleeps.
class ScriptedDownstream : public IEngine {
 public:
  Future<std::any> Propose(LogEntry entry) override {
    proposed_.push_back(std::move(entry));
    // A deque: settling one promise can propose the next batch inline,
    // and the promise being settled must stay put.
    promises_.emplace_back();
    return promises_.back().GetFuture();
  }
  Future<ROTxn> Sync() override {
    return MakeErrorFuture<ROTxn>(std::make_exception_ptr(LogUnavailableError("scripted")));
  }
  void RegisterUpcall(IApplicator* applicator) override {}
  void SetTrimPrefix(LogPos pos) override {}

  size_t proposed() const { return proposed_.size(); }
  const LogEntry& Proposed(size_t i) const { return proposed_.at(i); }
  // The batch blob of the i-th proposal.
  std::string Blob(size_t i) const { return proposed_.at(i).GetHeader("batching")->blob; }
  // Sub-entries in the i-th proposed batch.
  size_t BatchSize(size_t i) const {
    const std::string blob = Blob(i);
    Deserializer de(blob);
    return de.ReadVarint();
  }
  // Settles the i-th batch with one result per sub-entry.
  void Succeed(size_t i) {
    std::vector<std::any> results(BatchSize(i), std::any(std::string("done")));
    promises_.at(i).SetValue(std::any(std::move(results)));
  }
  void Fail(size_t i) {
    promises_.at(i).SetException(std::make_exception_ptr(LogUnavailableError("scripted")));
  }

 private:
  std::vector<LogEntry> proposed_;
  std::deque<Promise<std::any>> promises_;
};

struct PacedBatcher {
  explicit PacedBatcher(size_t max_entries) {
    BatchingEngine::Options options;
    options.max_batch_entries = max_entries;
    batching = std::make_unique<BatchingEngine>(options, &downstream, &store);
  }

  LocalStore store;
  ScriptedDownstream downstream;
  std::unique_ptr<BatchingEngine> batching;
};

TEST(BatchingPacingTest, LoneProposalReachesDownstreamSynchronously) {
  PacedBatcher b(/*max_entries=*/64);
  Future<std::any> f = b.batching->Propose(PayloadEntry("solo"));
  ASSERT_EQ(b.downstream.proposed(), 1u);
  EXPECT_EQ(b.downstream.BatchSize(0), 1u);
  EXPECT_FALSE(f.IsReady());
  b.downstream.Succeed(0);
  EXPECT_EQ(std::any_cast<std::string>(f.Get()), "done");
}

TEST(BatchingPacingTest, ProposalsAccumulateWhileABatchIsInFlight) {
  PacedBatcher b(/*max_entries=*/64);
  Future<std::any> first = b.batching->Propose(PayloadEntry("a"));
  std::vector<Future<std::any>> rest;
  for (int i = 0; i < 5; ++i) {
    rest.push_back(b.batching->Propose(PayloadEntry("b" + std::to_string(i))));
  }
  EXPECT_EQ(b.downstream.proposed(), 1u);
  EXPECT_EQ(b.batching->HealthCheck().value, 5);  // open-batch depth

  b.downstream.Succeed(0);
  EXPECT_TRUE(first.IsReady());
  ASSERT_EQ(b.downstream.proposed(), 2u);
  EXPECT_EQ(b.downstream.BatchSize(1), 5u);
  for (const auto& f : rest) {
    EXPECT_FALSE(f.IsReady());
  }
  b.downstream.Succeed(1);
  for (const auto& f : rest) {
    EXPECT_EQ(std::any_cast<std::string>(f.Get()), "done");
  }
  EXPECT_EQ(b.batching->batches_proposed(), 2u);
  EXPECT_EQ(b.batching->entries_batched(), 6u);
}

TEST(BatchingPacingTest, FullCapFlushesWhileABatchIsInFlight) {
  PacedBatcher b(/*max_entries=*/4);
  b.batching->Propose(PayloadEntry("a"));
  for (int i = 0; i < 3; ++i) {
    b.batching->Propose(PayloadEntry("b"));
  }
  EXPECT_EQ(b.downstream.proposed(), 1u);
  b.batching->Propose(PayloadEntry("b"));  // the fourth fills the cap
  ASSERT_EQ(b.downstream.proposed(), 2u);
  EXPECT_EQ(b.downstream.BatchSize(1), 4u);

  // The byte cap flushes the same way: one oversized entry goes at once.
  b.batching->Propose(PayloadEntry(std::string(BatchingEngine::kMaxBatchBytes, 'x')));
  ASSERT_EQ(b.downstream.proposed(), 3u);
  EXPECT_EQ(b.downstream.BatchSize(2), 1u);
  b.downstream.Succeed(0);
  b.downstream.Succeed(1);
  b.downstream.Succeed(2);
}

TEST(BatchingPacingTest, PartialBatchFlushesOnlyWhenTheLastInFlightBatchSettles) {
  PacedBatcher b(/*max_entries=*/2);
  b.batching->Propose(PayloadEntry("a"));  // batch 0
  b.batching->Propose(PayloadEntry("b"));
  b.batching->Propose(PayloadEntry("c"));  // batch 1, at the cap
  Future<std::any> d = b.batching->Propose(PayloadEntry("d"));  // open, partial
  ASSERT_EQ(b.downstream.proposed(), 2u);

  b.downstream.Succeed(0);  // batch 1 is still in flight
  EXPECT_EQ(b.downstream.proposed(), 2u);
  b.downstream.Succeed(1);  // the last one settled
  ASSERT_EQ(b.downstream.proposed(), 3u);
  EXPECT_EQ(b.downstream.BatchSize(2), 1u);
  EXPECT_FALSE(d.IsReady());
  b.downstream.Succeed(2);
  EXPECT_EQ(std::any_cast<std::string>(d.Get()), "done");
}

TEST(BatchingPacingTest, FailedBatchStillReleasesThePacing) {
  PacedBatcher b(/*max_entries=*/64);
  Future<std::any> a = b.batching->Propose(PayloadEntry("a"));
  Future<std::any> c = b.batching->Propose(PayloadEntry("c"));
  b.downstream.Fail(0);
  EXPECT_THROW(a.Get(), LogUnavailableError);
  ASSERT_EQ(b.downstream.proposed(), 2u);
  b.downstream.Succeed(1);
  EXPECT_EQ(std::any_cast<std::string>(c.Get()), "done");
}

TEST(BatchingPacingTest, DestroyingWithABatchInFlightIsClean) {
  PacedBatcher b(/*max_entries=*/64);
  Future<std::any> a = b.batching->Propose(PayloadEntry("a"));
  Future<std::any> c = b.batching->Propose(PayloadEntry("c"));
  Future<std::any> d = b.batching->Propose(PayloadEntry("d"));
  b.batching.reset();
  // The destructor proposed the open batch rather than strand its waiters.
  ASSERT_EQ(b.downstream.proposed(), 2u);
  EXPECT_EQ(b.downstream.BatchSize(1), 2u);
  // Both settle after the engine is gone: the completions touch only the
  // shared pacing state and their own waiters.
  b.downstream.Succeed(0);
  b.downstream.Fail(1);
  EXPECT_EQ(std::any_cast<std::string>(a.Get()), "done");
  EXPECT_THROW(c.Get(), LogUnavailableError);
  EXPECT_THROW(d.Get(), LogUnavailableError);
}

TEST(BatchingPacingTest, EncodedBatchMatchesPerEntrySerialization) {
  PacedBatcher b(/*max_entries=*/3);
  b.batching->Propose(PayloadEntry("held"));
  std::vector<LogEntry> entries;
  for (int i = 0; i < 3; ++i) {
    LogEntry entry = PayloadEntry(std::string(40 * i + 1, static_cast<char>('a' + i)));
    entry.SetHeader("sessionorder", EngineHeader{kMsgTypeApp, std::string(300, 's')});
    entry.SetHeader("zz" + std::to_string(i), EngineHeader{7, "blob"});
    entries.push_back(entry);
    b.batching->Propose(std::move(entry));
  }
  ASSERT_EQ(b.downstream.proposed(), 2u);
  // The encoding before SerializeInto: each entry serialized to its own
  // string, then length-prefixed into the batch.
  Serializer reference;
  reference.WriteVarint(entries.size());
  for (const LogEntry& entry : entries) {
    reference.WriteString(entry.Serialize());
  }
  EXPECT_EQ(b.downstream.Blob(1), reference.buffer());
  b.downstream.Succeed(0);
  b.downstream.Succeed(1);
}

// Keeps every entry it applies.
class RecordingApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    applied.push_back(entry);
    return std::any(Unit{});
  }
  std::vector<LogEntry> applied;
};

// A batch's sub-entries reach the layer above with every header and payload
// byte intact, and a truncated batch fails its apply with SerdeError.
TEST(BatchingCodecTest, SubEntriesRoundTripAndTruncationThrows) {
  PacedBatcher b(/*max_entries=*/4);
  RecordingApplicator app;
  b.batching->RegisterUpcall(&app);
  b.batching->Propose(PayloadEntry("held"));
  std::vector<LogEntry> entries;
  {
    LogEntry traced = PayloadEntry("traced");
    SetTraceIds(&traced, {11, 12});
    SetClientIds(&traced, {3});
    entries.push_back(traced);
    LogEntry control = PayloadEntry("");
    control.SetHeader("viewtracking", EngineHeader{2, std::string("\0v\xff", 3)});
    control.SetHeader("sessionorder", EngineHeader{kMsgTypeApp, "seq"});
    entries.push_back(control);
    entries.push_back(LogEntry{});
    LogEntry binary;
    for (int i = 255; i >= 0; --i) {
      binary.payload.push_back(static_cast<char>(i));
    }
    entries.push_back(binary);
  }
  for (const LogEntry& entry : entries) {
    b.batching->Propose(entry);
  }
  ASSERT_EQ(b.downstream.proposed(), 2u);
  const LogEntry batch = b.downstream.Proposed(1);

  RWTxn txn = b.store.BeginRW();
  const std::any results = b.batching->Apply(txn, batch, /*pos=*/1);
  b.batching->PostApply(batch, 1);
  ASSERT_EQ(std::any_cast<std::vector<std::any>>(results).size(), entries.size());
  ASSERT_EQ(app.applied.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(app.applied[i].headers, entries[i].headers) << "sub-entry " << i;
    EXPECT_EQ(app.applied[i].payload, entries[i].payload) << "sub-entry " << i;
  }

  // Every strict prefix of the blob cuts into the last sub-entry (or the
  // count), so none decodes, and no sub-entry reaches the layer above.
  const EngineHeader header = *batch.GetHeader("batching");
  for (size_t keep = 0; keep < header.blob.size(); ++keep) {
    const LogEntry truncated =
        MakeControlEntry("batching", header.msgtype, header.blob.substr(0, keep));
    const LogPos pos = 2 + keep;
    const std::any result = b.batching->Apply(txn, truncated, pos);
    b.batching->PostApply(truncated, pos);
    ASSERT_TRUE(IsApplyError(result)) << "kept " << keep << " bytes";
    EXPECT_THROW(std::rethrow_exception(std::any_cast<ApplyError>(result).error), SerdeError);
  }
  EXPECT_EQ(app.applied.size(), entries.size());
  txn.Abort();
  b.downstream.Succeed(0);
  b.downstream.Succeed(1);
}

}  // namespace
}  // namespace delos

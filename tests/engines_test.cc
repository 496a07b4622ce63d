// Per-engine tests: ObserverEngine, ViewTrackingEngine, BrainDoctorEngine,
// BatchingEngine.
#include <gtest/gtest.h>

#include <thread>

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
    return std::any(std::string("r:") + entry.payload);
  }
  int applies() const { return applies_; }

 private:
  int applies_ = 0;
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

struct BatchServer {
  explicit BatchServer(std::shared_ptr<ISharedLog> log, size_t max_entries = 8,
                       int64_t max_delay = 2000) {
    base = std::make_unique<BaseEngine>(std::move(log), &store, BaseEngineOptions{});
    BatchingEngine::Options options;
    options.max_batch_entries = max_entries;
    options.max_delay_micros = max_delay;
    batching = std::make_unique<BatchingEngine>(options, base.get(), &store);
    batching->RegisterUpcall(&app);
    base->Start();
  }
  ~BatchServer() { base->Stop(); }

  LocalStore store;
  CountingApplicator app;
  std::unique_ptr<BaseEngine> base;
  std::unique_ptr<BatchingEngine> batching;
};

TEST(BatchingTest, ManyProposalsShareLogEntries) {
  auto log = std::make_shared<InMemoryLog>();
  BatchServer server(log, /*max_entries=*/8, /*max_delay=*/50'000);

  constexpr int kOps = 32;
  std::vector<Future<std::any>> futures;
  futures.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    futures.push_back(server.batching->Propose(PayloadEntry("op" + std::to_string(i))));
  }
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(std::any_cast<std::string>(futures[i].Get()), "r:op" + std::to_string(i));
  }
  // 32 ops at batch size 8 -> exactly 4 log entries (all proposals were
  // issued before any flush completed).
  EXPECT_EQ(log->CheckTail().Get(), 5u);
  EXPECT_EQ(server.app.applies(), kOps);
  EXPECT_EQ(server.batching->entries_batched(), static_cast<uint64_t>(kOps));
}

TEST(BatchingTest, DelayTimerFlushesPartialBatch) {
  auto log = std::make_shared<InMemoryLog>();
  BatchServer server(log, /*max_entries=*/100, /*max_delay=*/1000);
  EXPECT_EQ(std::any_cast<std::string>(server.batching->Propose(PayloadEntry("solo")).Get()),
            "r:solo");
  EXPECT_EQ(server.batching->batches_proposed(), 1u);
}

TEST(BatchingTest, ErrorsInsideBatchAreIsolated) {
  auto log = std::make_shared<InMemoryLog>();
  BatchServer server(log, /*max_entries=*/3, /*max_delay=*/50'000);
  Future<std::any> f1 = server.batching->Propose(PayloadEntry("ok1"));
  Future<std::any> f2 = server.batching->Propose(PayloadEntry("fail"));
  Future<std::any> f3 = server.batching->Propose(PayloadEntry("ok2"));
  EXPECT_EQ(std::any_cast<std::string>(f1.Get()), "r:ok1");
  EXPECT_THROW(f2.Get(), DeterministicError);
  EXPECT_EQ(std::any_cast<std::string>(f3.Get()), "r:ok2");
}

TEST(BatchingTest, DisabledBatchingPassesThrough) {
  auto log = std::make_shared<InMemoryLog>();
  BatchServer server(log, /*max_entries=*/8, /*max_delay=*/50'000);
  server.batching->DisableViaLog();
  server.batching->Propose(PayloadEntry("direct")).Get();
  // Disable control entry + the direct entry = 2; no batch wrapping.
  EXPECT_EQ(log->CheckTail().Get(), 3u);
  EXPECT_EQ(server.batching->batches_proposed(), 0u);
}

TEST(BatchingTest, GroupCommitUsesOneTransactionPerBatch) {
  auto log = std::make_shared<InMemoryLog>();
  BatchServer server(log, /*max_entries=*/8, /*max_delay=*/50'000);
  const uint64_t version_before = server.store.committed_version();
  std::vector<Future<std::any>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.batching->Propose(PayloadEntry("op")));
  }
  for (auto& future : futures) {
    future.Get();
  }
  // One LocalStore commit for the whole batch (group commit), not eight.
  EXPECT_EQ(server.store.committed_version(), version_before + 1);
}

}  // namespace
}  // namespace delos

// SessionOrderEngine tests: in-order fast path, disorder detection with
// re-propose, exactly-once duplicate filtering, and the short-circuit
// propose completion — driven by the ReorderingLog chaos wrapper that
// manufactures the rare log-reordering events the paper describes (§4.3).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <thread>

#include "src/core/base_engine.h"
#include "src/engines/batching_engine.h"
#include "src/engines/session_order_engine.h"
#include "src/sharedlog/chaos_log.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

// Applicator that records the order in which payloads reach the app.
class OrderRecordingApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put("app/log/" + std::to_string(pos), entry.payload);
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(entry.payload);
    return std::any(entry.payload);
  }
  std::vector<std::string> order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> order_;
};

// Applicator that returns the log position it applied the entry at. With
// a gate, every apply first waits for OpenGate().
class PositionApplicator : public IApplicator {
 public:
  explicit PositionApplicator(bool gated = false) : open_(!gated) {}
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return open_; });
    }
    txn.Put("app/log/" + std::to_string(pos), entry.payload);
    return std::any(pos);
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_;
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

LogEntry PayloadEntry(std::string payload) {
  LogEntry entry;
  entry.payload = std::move(payload);
  return entry;
}

struct SoServer {
  SoServer(const std::string& id, std::shared_ptr<ISharedLog> log) {
    BaseEngineOptions base_options;
    base_options.server_id = id;
    base = std::make_unique<BaseEngine>(std::move(log), &store, base_options);
    SessionOrderEngine::Options options;
    options.server_id = id;
    so = std::make_unique<SessionOrderEngine>(options, base.get(), &store);
    so->RegisterUpcall(&app);
    base->Start();
  }
  ~SoServer() { base->Stop(); }

  LocalStore store;
  OrderRecordingApplicator app;
  std::unique_ptr<BaseEngine> base;
  std::unique_ptr<SessionOrderEngine> so;
};

TEST(SessionOrderTest, InOrderFastPath) {
  auto log = std::make_shared<InMemoryLog>();
  SoServer server("a", log);
  for (int i = 0; i < 10; ++i) {
    const std::string payload = "op" + std::to_string(i);
    EXPECT_EQ(std::any_cast<std::string>(server.so->Propose(PayloadEntry(payload)).Get()),
              payload);
  }
  EXPECT_EQ(server.so->disorder_events(), 0u);
  EXPECT_EQ(server.app.order().size(), 10u);
}

TEST(SessionOrderTest, RepairsInjectedReordering) {
  auto inner = std::make_shared<InMemoryLog>();
  // Swap ~30% of adjacent appends.
  auto chaos = std::make_shared<ReorderingLog>(inner, 0.3, /*hold_timeout_micros=*/500);
  SoServer server("a", chaos);

  constexpr int kOps = 60;
  std::vector<Future<std::any>> futures;
  futures.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    futures.push_back(server.so->Propose(PayloadEntry("op" + std::to_string(i))));
  }
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(std::any_cast<std::string>(futures[i].Get()), "op" + std::to_string(i));
  }
  // The log really was reordered, and the engine really detected it.
  EXPECT_GT(chaos->swaps_performed(), 0u);
  EXPECT_GT(server.so->disorder_events(), 0u);

  // Despite the chaos, the app saw each op exactly once, in session order.
  const auto order = server.app.order();
  ASSERT_EQ(order.size(), static_cast<size_t>(kOps));
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(order[i], "op" + std::to_string(i));
  }
}

TEST(SessionOrderTest, ReplicasConvergeUnderReordering) {
  auto inner = std::make_shared<InMemoryLog>();
  auto chaos = std::make_shared<ReorderingLog>(inner, 0.4, 500);
  SoServer writer("w", chaos);
  // The follower plays the same (reordered + re-proposed) log directly.
  SoServer follower("f", inner);

  constexpr int kOps = 40;
  std::vector<Future<std::any>> futures;
  for (int i = 0; i < kOps; ++i) {
    futures.push_back(writer.so->Propose(PayloadEntry("op" + std::to_string(i))));
  }
  for (auto& future : futures) {
    future.Get();
  }
  writer.base->Sync().Get();
  follower.base->Sync().Get();
  EXPECT_EQ(writer.app.order(), follower.app.order());
  EXPECT_EQ(writer.store.Checksum(), follower.store.Checksum());
}

TEST(SessionOrderTest, MultiThreadedProposersKeepPerSessionOrder) {
  // The engine orders the server's session stream even when multiple client
  // threads propose concurrently: apply order equals stamp order.
  auto inner = std::make_shared<InMemoryLog>();
  auto chaos = std::make_shared<ReorderingLog>(inner, 0.2, 500);
  SoServer server("a", chaos);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        server.so->Propose(PayloadEntry(std::to_string(t) + "/" + std::to_string(i))).Get();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto order = server.app.order();
  EXPECT_EQ(order.size(), static_cast<size_t>(kThreads * kPerThread));
  // Exactly-once: no payload appears twice.
  std::set<std::string> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), order.size());
}

TEST(SessionOrderTest, SessionWriteThenReadIsOrdered) {
  // The session-ordering guarantee: issue a write, then a sync'd read
  // without waiting; the read must reflect the write once the write's
  // propose completes.
  auto log = std::make_shared<InMemoryLog>();
  SoServer server("a", log);
  Future<std::any> write = server.so->Propose(PayloadEntry("w"));
  write.Get();
  ROTxn snap = server.so->Sync().Get();
  bool found = false;
  snap.Scan("app/log/", "app/log0", [&](std::string_view, std::string_view value) {
    found = found || value == "w";
    return true;
  });
  EXPECT_TRUE(found);
}

TEST(SessionOrderTest, DisabledEnginePassesThrough) {
  auto log = std::make_shared<InMemoryLog>();
  SoServer server("a", log);
  server.so->DisableViaLog();
  EXPECT_EQ(std::any_cast<std::string>(server.so->Propose(PayloadEntry("raw")).Get()), "raw");
  EXPECT_EQ(server.so->disorder_events(), 0u);
}

// SessionOrder completes its proposals from postApply, but they settle only
// after the BaseEngine publishes the batch: a continuation on a propose
// (here, through the BatchingEngine's fan-out) already sees
// applied_position() cover the entry.
TEST(SessionOrderTest, ProposersSeeTheirEntryPublished) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  PositionApplicator app;
  BaseEngine base(log, &store, BaseEngineOptions{});
  SessionOrderEngine::Options so_options;
  so_options.server_id = "a";
  SessionOrderEngine so(so_options, &base, &store);
  BatchingEngine batching(BatchingEngine::Options{}, &so, &store);
  batching.RegisterUpcall(&app);
  base.Start();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::atomic<int> settled{0};
  std::atomic<int> unpublished{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        batching.Propose(PayloadEntry(std::to_string(t) + ":" + std::to_string(i)))
            .Then([&](const Result<std::any>& result) {
              if (!result.ok() ||
                  base.applied_position() < std::any_cast<LogPos>(result.value())) {
                unpublished.fetch_add(1);
              }
              settled.fetch_add(1);
            });
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_TRUE(WaitUntil([&] { return settled.load() == kThreads * kPerThread; }));
  EXPECT_EQ(unpublished.load(), 0);
  base.Stop();
}

// A propose continuation that holds up the apply thread (it runs in the
// BaseEngine's completion pass) must not hold up a read: the batch is
// published before the pass, so the sync's target is already applied.
TEST(SessionOrderTest, BlockedProposeContinuationDoesNotStallSync) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store;
  PositionApplicator app(/*gated=*/true);
  BaseEngine base(log, &store, BaseEngineOptions{});
  SessionOrderEngine::Options so_options;
  so_options.server_id = "a";
  SessionOrderEngine so(so_options, &base, &store);
  so.RegisterUpcall(&app);
  base.Start();

  std::mutex latch_mu;
  std::condition_variable latch_cv;
  bool released = false;
  std::atomic<bool> in_continuation{false};
  // The gate keeps the apply from running until the continuation is
  // registered, so the continuation runs on the apply thread.
  Future<std::any> propose = so.Propose(PayloadEntry("x"));
  propose.Then([&](const Result<std::any>&) {
    in_continuation.store(true);
    std::unique_lock<std::mutex> lock(latch_mu);
    latch_cv.wait(lock, [&] { return released; });
  });
  app.OpenGate();
  ASSERT_TRUE(WaitUntil([&] { return in_continuation.load(); }));

  auto snapshot = so.Sync().GetFor(std::chrono::seconds(2));
  {
    std::lock_guard<std::mutex> lock(latch_mu);
    released = true;
  }
  latch_cv.notify_all();
  ASSERT_TRUE(snapshot.has_value());
  const LogPos pos = std::any_cast<LogPos>(propose.Get());
  EXPECT_EQ(snapshot->Get("app/log/" + std::to_string(pos)).value(), "x");
  base.Stop();
}

}  // namespace
}  // namespace delos

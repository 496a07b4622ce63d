// TimeEngine tests (distributed timers, quorum firing, time-based trimming)
// and LeaseEngine tests (0-RTT reads, designated-proposer enforcement, live
// enable/disable, takeover, and the clock-skew safety property).
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <thread>

#include "src/core/base_engine.h"
#include "src/engines/lease_engine.h"
#include "src/engines/time_engine.h"
#include "src/sharedlog/chaos_log.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

class KvApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    if (!entry.payload.empty()) {
      txn.Put("kv/" + entry.payload, std::to_string(pos));
    }
    return std::any(pos);
  }
};

LogEntry PayloadEntry(std::string payload) {
  LogEntry entry;
  entry.payload = std::move(payload);
  return entry;
}

// --- TimeEngine ---

struct TimeServer {
  TimeServer(const std::string& id, std::shared_ptr<ISharedLog> log, int quorum, Clock* clock) {
    BaseEngineOptions base_options;
    base_options.server_id = id;
    base = std::make_unique<BaseEngine>(std::move(log), &store, base_options);
    TimeEngine::Options options;
    options.server_id = id;
    options.quorum = quorum;
    options.clock = clock;
    time = std::make_unique<TimeEngine>(options, base.get(), &store);
    time->RegisterUpcall(&app);
    base->Start();
  }
  ~TimeServer() {
    base->Stop();
    time.reset();
  }

  LocalStore store;
  KvApplicator app;
  std::unique_ptr<BaseEngine> base;
  std::unique_ptr<TimeEngine> time;
};

TEST(TimeEngineTest, TimerFiresAfterQuorumElapsed) {
  auto log = std::make_shared<InMemoryLog>();
  TimeServer a("a", log, /*quorum=*/2, RealClock::Instance());
  TimeServer b("b", log, 2, RealClock::Instance());

  std::atomic<bool> fired_a{false};
  a.time->OnFire([&](const std::string& id, LogPos) { fired_a = id == "t1"; });
  a.time->CreateTimer("t1", /*duration_micros=*/5000).Get();
  // b must observe the creation to start its countdown.
  b.base->Sync().Get();

  const int64_t deadline = RealClock::Instance()->NowMicros() + 3'000'000;
  while (!fired_a.load() && RealClock::Instance()->NowMicros() < deadline) {
    // Both servers need applied entries to observe the ELAPSED commands.
    a.base->Sync().Get();
    b.base->Sync().Get();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fired_a.load());
  EXPECT_TRUE(a.time->IsFired("t1"));
  b.base->Sync().Get();
  EXPECT_TRUE(b.time->IsFired("t1"));
}

TEST(TimeEngineTest, TimerWaitsForQuorumNotOneServer) {
  // quorum=2 but only one server exists: the timer must not fire.
  auto log = std::make_shared<InMemoryLog>();
  TimeServer a("a", log, /*quorum=*/2, RealClock::Instance());
  a.time->CreateTimer("t1", 1000).Get();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  a.base->Sync().Get();
  EXPECT_FALSE(a.time->IsFired("t1"));
}

TEST(TimeEngineTest, DuplicateElapsedFromOneServerCountsOnce) {
  auto log = std::make_shared<InMemoryLog>();
  TimeServer a("a", log, /*quorum=*/1, RealClock::Instance());
  a.time->CreateTimer("t1", 1000).Get();
  const int64_t deadline = RealClock::Instance()->NowMicros() + 2'000'000;
  while (!a.time->IsFired("t1") && RealClock::Instance()->NowMicros() < deadline) {
    a.base->Sync().Get();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(a.time->IsFired("t1"));
}

TEST(TimeEngineTest, TimedTrimmerReleasesPrefix) {
  auto log = std::make_shared<InMemoryLog>();
  TimeServer a("a", log, /*quorum=*/1, RealClock::Instance());
  for (int i = 0; i < 5; ++i) {
    a.time->Propose(PayloadEntry("k" + std::to_string(i))).Get();
  }
  a.base->FlushNow();
  TimedTrimmer trimmer(a.time.get(), a.time.get());
  trimmer.ScheduleTrim(5, /*delay_micros=*/2000);
  const int64_t deadline = RealClock::Instance()->NowMicros() + 2'000'000;
  while (log->trim_prefix() < 5 && RealClock::Instance()->NowMicros() < deadline) {
    a.base->Sync().Get();
    a.base->FlushNow();
    a.base->TrimNow();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(log->trim_prefix(), 5u);
}

// Countdowns share one thread per engine: 32 pending timers add at most one
// thread, and every one of them still fires once the simulated clock passes
// its deadline.
TEST(TimeEngineTest, TimersShareOneCountdownThread) {
  const auto thread_count = [] {
    return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                         std::filesystem::directory_iterator());
  };
  auto log = std::make_shared<InMemoryLog>();
  SimClock clock(1'000'000);
  TimeServer a("a", log, /*quorum=*/1, &clock);
  const auto threads_before = thread_count();
  for (int i = 0; i < 32; ++i) {
    a.time->CreateTimer("t" + std::to_string(i), /*duration_micros=*/1000 * (32 - i)).Get();
  }
  EXPECT_LE(thread_count(), threads_before + 1);
  EXPECT_FALSE(a.time->IsFired("t31"));

  clock.Advance(100'000);
  const auto fired = [&] {
    int count = 0;
    for (int i = 0; i < 32; ++i) {
      count += a.time->IsFired("t" + std::to_string(i)) ? 1 : 0;
    }
    return count;
  };
  const int64_t deadline = RealClock::Instance()->NowMicros() + 5'000'000;
  while (fired() < 32 && RealClock::Instance()->NowMicros() < deadline) {
    a.base->Sync().Get();
    std::this_thread::yield();
  }
  EXPECT_EQ(fired(), 32);
}

// --- LeaseEngine ---

struct LeaseServer {
  LeaseServer(const std::string& id, std::shared_ptr<ISharedLog> log, Clock* clock,
              int64_t ttl = 200'000, int64_t eps = 40'000, bool auto_renew = true) {
    BaseEngineOptions base_options;
    base_options.server_id = id;
    base = std::make_unique<BaseEngine>(std::move(log), &store, base_options);
    LeaseEngine::Options options;
    options.server_id = id;
    options.lease_ttl_micros = ttl;
    options.guard_epsilon_micros = eps;
    options.auto_renew = auto_renew;
    options.clock = clock;
    lease = std::make_unique<LeaseEngine>(options, base.get(), &store);
    lease->RegisterUpcall(&app);
    base->Start();
  }
  ~LeaseServer() {
    base->Stop();
    lease.reset();
  }

  LocalStore store;
  KvApplicator app;
  std::unique_ptr<BaseEngine> base;
  std::unique_ptr<LeaseEngine> lease;
};

TEST(LeaseEngineTest, AcquireGrantsAndSyncIsLocal) {
  auto inner = std::make_shared<InMemoryLog>();
  // Make tail checks visibly slow so the 0-RTT path is distinguishable.
  auto log = std::make_shared<DelayedLog>(inner, DelayedLog::Delays{.tail_check_micros = 5000});
  LeaseServer a("a", log, RealClock::Instance());

  a.lease->Propose(PayloadEntry("w1")).Get();
  EXPECT_TRUE(std::any_cast<bool>(a.lease->AcquireLease().Get()));
  EXPECT_TRUE(a.lease->HoldsValidLease());
  EXPECT_EQ(a.lease->CurrentHolder(), "a");

  const int64_t start = RealClock::Instance()->NowMicros();
  ROTxn snap = a.lease->Sync().Get();
  const int64_t elapsed = RealClock::Instance()->NowMicros() - start;
  EXPECT_LT(elapsed, 4000);  // no tail check: local read
  EXPECT_TRUE(snap.Get("kv/w1").has_value());
}

TEST(LeaseEngineTest, NonHolderProposalsRejected) {
  auto log = std::make_shared<InMemoryLog>();
  LeaseServer a("a", log, RealClock::Instance());
  LeaseServer b("b", log, RealClock::Instance());

  ASSERT_TRUE(std::any_cast<bool>(a.lease->AcquireLease().Get()));
  b.base->Sync().Get();
  EXPECT_THROW(b.lease->Propose(PayloadEntry("intruder")).Get(), ProposeRejectedError);
  // The holder still writes fine.
  a.lease->Propose(PayloadEntry("fine")).Get();
  EXPECT_TRUE(a.store.Snapshot().Get("kv/fine").has_value());
  EXPECT_FALSE(a.store.Snapshot().Get("kv/intruder").has_value());
}

TEST(LeaseEngineTest, HolderReadsReflectAllCompletedWrites) {
  auto log = std::make_shared<InMemoryLog>();
  LeaseServer a("a", log, RealClock::Instance());
  LeaseServer b("b", log, RealClock::Instance());
  // Writes from b BEFORE the lease exists...
  b.lease->Propose(PayloadEntry("pre-lease")).Get();
  // ...must be visible through a's 0-RTT reads after it acquires.
  ASSERT_TRUE(std::any_cast<bool>(a.lease->AcquireLease().Get()));
  ROTxn snap = a.lease->Sync().Get();
  EXPECT_TRUE(snap.Get("kv/pre-lease").has_value());
}

TEST(LeaseEngineTest, DisableRestoresQuorumReads) {
  auto inner = std::make_shared<InMemoryLog>();
  auto log = std::make_shared<DelayedLog>(inner, DelayedLog::Delays{.tail_check_micros = 3000});
  LeaseServer a("a", log, RealClock::Instance());
  ASSERT_TRUE(std::any_cast<bool>(a.lease->AcquireLease().Get()));

  int64_t start = RealClock::Instance()->NowMicros();
  a.lease->Sync().Get();
  EXPECT_LT(RealClock::Instance()->NowMicros() - start, 2500);

  a.lease->DisableViaLog();
  start = RealClock::Instance()->NowMicros();
  a.lease->Sync().Get();
  EXPECT_GE(RealClock::Instance()->NowMicros() - start, 3000);

  // Writes from anyone work again while disabled.
  a.lease->Propose(PayloadEntry("open")).Get();
  EXPECT_TRUE(a.store.Snapshot().Get("kv/open").has_value());
}

TEST(LeaseEngineTest, TakeoverAfterHolderStopsRenewing) {
  auto log = std::make_shared<InMemoryLog>();
  LeaseServer b("b", log, RealClock::Instance(), /*ttl=*/50'000, /*eps=*/10'000);
  {
    LeaseServer a("a", log, RealClock::Instance(), 50'000, 10'000);
    ASSERT_TRUE(std::any_cast<bool>(a.lease->AcquireLease().Get()));
    b.base->Sync().Get();
    EXPECT_EQ(b.lease->CurrentHolder(), "a");
    // a dies (stops renewing) when this scope ends.
  }
  // b waits out the lease, expires it via the log, and takes over. One
  // attempt can legitimately abort: 'a' auto-renews, and a renewal issued
  // just before 'a' died may reach b's apply thread mid-wait (the abort-on-
  // renewal behavior itself is TakeoverAbortsIfHolderRenews's subject). The
  // dead holder never renews again, so retrying must converge.
  bool took_over = false;
  for (int attempt = 0; attempt < 5 && !took_over; ++attempt) {
    took_over = b.lease->TryTakeover();
  }
  EXPECT_TRUE(took_over);
  EXPECT_EQ(b.lease->CurrentHolder(), "b");
  b.lease->Propose(PayloadEntry("b-writes")).Get();
  EXPECT_TRUE(b.store.Snapshot().Get("kv/b-writes").has_value());
}

TEST(LeaseEngineTest, TakeoverAbortsIfHolderRenews) {
  auto log = std::make_shared<InMemoryLog>();
  LeaseServer a("a", log, RealClock::Instance(), /*ttl=*/60'000, /*eps=*/10'000,
                /*auto_renew=*/true);
  LeaseServer b("b", log, RealClock::Instance(), 60'000, 10'000, false);
  ASSERT_TRUE(std::any_cast<bool>(a.lease->AcquireLease().Get()));
  // a keeps renewing in the background, so b's takeover must keep failing.
  std::thread syncer([&] {
    for (int i = 0; i < 50; ++i) {
      b.base->Sync().Get();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  EXPECT_FALSE(b.lease->TryTakeover());
  syncer.join();
  EXPECT_EQ(b.lease->CurrentHolder(), "a");
}

// Clock-skew safety property: with guard epsilon >= the skew bound, a read
// served locally by the (old) holder can never miss a write committed by a
// new holder. We place the holder on a fast-running clock (worst case) and
// verify it stops serving local reads before the expirer can free the lease.
TEST(LeaseEngineProperty, GuardEpsilonPreventsStaleReadsUnderSkew) {
  constexpr int64_t kTtl = 80'000;
  constexpr int64_t kSkew = 20'000;

  auto log = std::make_shared<InMemoryLog>();
  RealClock* real = RealClock::Instance();
  // Holder's clock runs AHEAD by kSkew: it thinks time passed faster, so it
  // gives up the lease early — the safe direction. Guard must cover skew.
  SkewedClock holder_clock(real, kSkew);
  LeaseServer a("a", log, &holder_clock, kTtl, /*eps=*/kSkew + 5000, /*auto_renew=*/false);
  LeaseServer b("b", log, real, kTtl, kSkew + 5000, false);

  ASSERT_TRUE(std::any_cast<bool>(a.lease->AcquireLease().Get()));
  b.base->Sync().Get();

  // b expires + acquires as soon as its own clock allows.
  std::thread taker([&] { ASSERT_TRUE(b.lease->TryTakeover()); });

  // While b is waiting, continuously verify: whenever a serves a 0-RTT read,
  // b must NOT yet have committed any write.
  bool violation = false;
  while (b.lease->CurrentHolder() != "b") {
    if (a.lease->HoldsValidLease()) {
      ROTxn snap = a.store.Snapshot();
      if (snap.Get("kv/b-write").has_value()) {
        // a still considers its lease valid but b already wrote: if a had
        // answered a local read it could have missed this write.
        violation = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  taker.join();
  b.lease->Propose(PayloadEntry("b-write")).Get();
  // After the takeover, a's local validity must already be over.
  EXPECT_FALSE(a.lease->HoldsValidLease());
  EXPECT_FALSE(violation);
}

}  // namespace
}  // namespace delos

// Tests for the shared-log substrate: SimNetwork RPC, in-memory loglet,
// quorum loglet (failures, seal), VirtualLog (chaining, reconfiguration),
// and the chaos wrappers.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/errors.h"
#include "src/net/sim_network.h"
#include "src/sharedlog/chaos_log.h"
#include "src/sharedlog/inmemory_log.h"
#include "src/sharedlog/quorum_loglet.h"
#include "src/sharedlog/virtual_log.h"

namespace delos {
namespace {

// --- SimNetwork ---

TEST(SimNetworkTest, BasicRpc) {
  NetworkConfig config;
  config.default_one_way_latency_micros = 100;
  SimNetwork net(config);
  net.RegisterHandler("srv", [](const NodeId& from, const std::string& method,
                                const std::string& req) { return method + ":" + req; });
  EXPECT_EQ(net.Call("cli", "srv", "echo", "hi").Get(), "echo:hi");
}

TEST(SimNetworkTest, LatencyApplied) {
  NetworkConfig config;
  config.default_one_way_latency_micros = 5000;
  SimNetwork net(config);
  net.RegisterHandler("srv", [](const NodeId&, const std::string&, const std::string&) {
    return std::string("ok");
  });
  const int64_t start = RealClock::Instance()->NowMicros();
  net.Call("cli", "srv", "m", "").Get();
  EXPECT_GE(RealClock::Instance()->NowMicros() - start, 9000);  // two one-way hops
}

TEST(SimNetworkTest, DownNodeTimesOut) {
  NetworkConfig config;
  config.call_timeout_micros = 20'000;
  SimNetwork net(config);
  net.RegisterHandler("srv", [](const NodeId&, const std::string&, const std::string&) {
    return std::string("ok");
  });
  net.SetNodeUp("srv", false);
  EXPECT_THROW(net.Call("cli", "srv", "m", "").Get(), LogUnavailableError);
  net.SetNodeUp("srv", true);
  EXPECT_EQ(net.Call("cli", "srv", "m", "").Get(), "ok");
}

// Call timeouts queue FIFO beside the event heap. After many completed
// calls, a lost call still times out on schedule, and no completed call's
// timeout fires into its future.
TEST(SimNetworkTest, TimeoutFiresAfterManyCompletedCalls) {
  NetworkConfig config;
  config.default_one_way_latency_micros = 10;
  config.call_timeout_micros = 50'000;
  SimNetwork net(config);
  net.RegisterHandler("srv", [](const NodeId&, const std::string&, const std::string& req) {
    return req;
  });
  net.RegisterHandler("down", [](const NodeId&, const std::string&, const std::string&) {
    return std::string("unreachable");
  });
  net.SetNodeUp("down", false);

  constexpr int kCalls = 1000;
  constexpr int kConcurrent = 50;
  std::vector<std::atomic<int>> settled(kCalls);
  for (int first = 0; first < kCalls; first += kConcurrent) {
    std::vector<Future<std::string>> futures;
    for (int i = first; i < first + kConcurrent; ++i) {
      futures.push_back(net.Call("cli", "srv", "m", std::to_string(i)));
      futures.back().Then([&settled, i](const Result<std::string>&) { settled[i].fetch_add(1); });
    }
    for (int i = first; i < first + kConcurrent; ++i) {
      EXPECT_EQ(futures[i - first].Get(), std::to_string(i));
    }
  }

  const int64_t start = RealClock::Instance()->NowMicros();
  EXPECT_THROW(net.Call("cli", "down", "m", "").Get(), LogUnavailableError);
  EXPECT_GE(RealClock::Instance()->NowMicros() - start, config.call_timeout_micros);
  // Every completed call's timeout was due before the lost call's.
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(settled[i].load(), 1) << "call " << i;
  }
}

TEST(SimNetworkTest, PartitionBlocksBothWays) {
  NetworkConfig config;
  config.call_timeout_micros = 20'000;
  SimNetwork net(config);
  net.RegisterHandler("a", [](const NodeId&, const std::string&, const std::string&) {
    return std::string("from-a");
  });
  net.SetPartitioned("a", "b", true);
  EXPECT_THROW(net.Call("b", "a", "m", "").Get(), LogUnavailableError);
  net.SetPartitioned("a", "b", false);
  EXPECT_EQ(net.Call("b", "a", "m", "").Get(), "from-a");
}

TEST(SimNetworkTest, AsyncHandlerRepliesLater) {
  SimNetwork net;
  SimNetwork::ReplyFn saved;
  std::mutex mu;
  net.RegisterAsyncHandler("srv", [&](const NodeId&, const std::string&, const std::string&,
                                      SimNetwork::ReplyFn reply) {
    std::lock_guard<std::mutex> lock(mu);
    saved = std::move(reply);
  });
  Future<std::string> future = net.Call("cli", "srv", "m", "");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(future.IsReady());
  {
    std::lock_guard<std::mutex> lock(mu);
    saved("deferred");
  }
  EXPECT_EQ(future.Get(), "deferred");
}

// --- InMemoryLog ---

TEST(InMemoryLogTest, AppendReadTail) {
  InMemoryLog log;
  EXPECT_EQ(log.CheckTail().Get(), 1u);
  EXPECT_EQ(log.Append("a").Get(), 1u);
  EXPECT_EQ(log.Append("b").Get(), 2u);
  EXPECT_EQ(log.CheckTail().Get(), 3u);
  auto records = log.ReadRange(1, 10);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, "a");
  EXPECT_EQ(records[1].pos, 2u);
}

TEST(InMemoryLogTest, TrimForbidsOldReads) {
  InMemoryLog log;
  log.Append("a").Get();
  log.Append("b").Get();
  log.Append("c").Get();
  log.Trim(2);
  EXPECT_EQ(log.trim_prefix(), 2u);
  EXPECT_THROW(log.ReadRange(1, 3), TrimmedError);
  auto records = log.ReadRange(3, 3);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "c");
}

TEST(InMemoryLogTest, SealStopsAppends) {
  InMemoryLog log;
  log.Append("a").Get();
  log.Seal();
  EXPECT_THROW(log.Append("b").Get(), SealedError);
  EXPECT_EQ(log.CheckTail().Get(), 2u);  // tail still readable
}

TEST(InMemoryLogTest, StartPosOffsets) {
  InMemoryLog log(100);
  EXPECT_EQ(log.CheckTail().Get(), 100u);
  EXPECT_EQ(log.Append("x").Get(), 100u);
  EXPECT_EQ(log.ReadRange(100, 100)[0].payload, "x");
}

// --- QuorumLoglet ---

class QuorumLogletTest : public testing::Test {
 protected:
  QuorumLogletTest() {
    NetworkConfig net_config;
    net_config.default_one_way_latency_micros = 50;
    net_config.call_timeout_micros = 300'000;
    network_ = std::make_unique<SimNetwork>(net_config);
    QuorumLogletConfig config;
    config.num_acceptors = 3;
    ensemble_ = std::make_unique<QuorumEnsemble>(network_.get(), config);
    client_ = std::make_unique<QuorumLogletClient>(network_.get(), "client0", config);
  }

  // The delivery thread may still be running ensemble or client handlers;
  // stop it before the objects it calls into die.
  ~QuorumLogletTest() override { network_.reset(); }

  std::unique_ptr<SimNetwork> network_;
  std::unique_ptr<QuorumEnsemble> ensemble_;
  std::unique_ptr<QuorumLogletClient> client_;
};

TEST_F(QuorumLogletTest, AppendAssignsSequentialPositions) {
  EXPECT_EQ(client_->Append("a").Get(), 1u);
  EXPECT_EQ(client_->Append("b").Get(), 2u);
  EXPECT_EQ(client_->CheckTail().Get(), 3u);
}

TEST_F(QuorumLogletTest, ReadsBackCommittedEntries) {
  client_->Append("a").Get();
  client_->Append("b").Get();
  auto records = client_->ReadRange(1, 2);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, "a");
  EXPECT_EQ(records[1].payload, "b");
}

TEST_F(QuorumLogletTest, SurvivesMinorityAcceptorFailure) {
  ensemble_->SetAcceptorUp(0, false);
  EXPECT_EQ(client_->Append("a").Get(), 1u);
  auto records = client_->ReadRange(1, 1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "a");
}

TEST_F(QuorumLogletTest, MajorityFailureBlocksAppends) {
  ensemble_->SetAcceptorUp(0, false);
  ensemble_->SetAcceptorUp(1, false);
  EXPECT_THROW(client_->Append("a").Get(), LogUnavailableError);
}

TEST_F(QuorumLogletTest, CompletedAppendIsBelowCheckedTail) {
  // Linearizability anchor: after an append completes, a tail check must
  // cover it.
  for (int i = 0; i < 20; ++i) {
    const LogPos pos = client_->Append("x").Get();
    EXPECT_GT(client_->CheckTail().Get(), pos);
  }
}

TEST_F(QuorumLogletTest, ConcurrentAppendsAllCommitDistinctPositions) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::mutex mu;
  std::set<LogPos> positions;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const LogPos pos = client_->Append("t" + std::to_string(t)).Get();
        std::lock_guard<std::mutex> lock(mu);
        positions.insert(pos);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(positions.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(*positions.rbegin(), static_cast<LogPos>(kThreads * kPerThread));
}

TEST_F(QuorumLogletTest, SealStopsAppendsButNotTail) {
  client_->Append("a").Get();
  client_->Seal();
  EXPECT_THROW(client_->Append("b").Get(), SealedError);
  EXPECT_EQ(client_->CheckTail().Get(), 2u);
  EXPECT_EQ(client_->ReadRange(1, 1).size(), 1u);
}

TEST_F(QuorumLogletTest, TrimRemovesPrefix) {
  client_->Append("a").Get();
  client_->Append("b").Get();
  client_->Trim(1);
  EXPECT_THROW(client_->ReadRange(1, 2), TrimmedError);
  // Give the async trim a moment to reach acceptors.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto records = client_->ReadRange(2, 2);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "b");
}

TEST_F(QuorumLogletTest, ReadMergesAcrossAcceptors) {
  // Kill acceptor 0 for the first append, acceptor 1 for the second; reads
  // preferring each acceptor must still reassemble the full range.
  ensemble_->SetAcceptorUp(0, false);
  client_->Append("a").Get();
  ensemble_->SetAcceptorUp(0, true);
  ensemble_->SetAcceptorUp(1, false);
  client_->Append("b").Get();
  ensemble_->SetAcceptorUp(1, true);
  QuorumLogletConfig config;
  config.num_acceptors = 3;
  QuorumLogletClient reader(network_.get(), "reader", config, /*preferred_acceptor=*/0);
  auto records = reader.ReadRange(1, 2);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, "a");
  EXPECT_EQ(records[1].payload, "b");
}

// --- VirtualLog ---

TEST(VirtualLogTest, AppendAndReadThroughChain) {
  auto meta = std::make_shared<MetaStore>(
      std::vector<LogletSegment>{{1, std::make_shared<InMemoryLog>(1)}});
  VirtualLog vlog(meta);
  EXPECT_EQ(vlog.Append("a").Get(), 1u);
  EXPECT_EQ(vlog.Append("b").Get(), 2u);
  auto records = vlog.ReadRange(1, 2);
  ASSERT_EQ(records.size(), 2u);
}

TEST(VirtualLogTest, ReconfigureChainsNewLoglet) {
  auto meta = std::make_shared<MetaStore>(
      std::vector<LogletSegment>{{1, std::make_shared<InMemoryLog>(1)}});
  VirtualLog vlog(meta);
  vlog.Append("a").Get();
  vlog.Append("b").Get();
  vlog.Reconfigure([](LogPos start, uint64_t) { return std::make_shared<InMemoryLog>(start); });
  EXPECT_EQ(vlog.ChainLength(), 2u);
  // Positions continue across the seam.
  EXPECT_EQ(vlog.Append("c").Get(), 3u);
  auto records = vlog.ReadRange(1, 3);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].payload, "c");
}

TEST(VirtualLogTest, AppendRetriesAcrossSeal) {
  auto inner = std::make_shared<InMemoryLog>(1);
  auto meta = std::make_shared<MetaStore>(std::vector<LogletSegment>{{1, inner}});
  VirtualLog vlog(meta,
                  [](LogPos start, uint64_t) { return std::make_shared<InMemoryLog>(start); });
  vlog.Append("a").Get();
  inner->Seal();  // simulate a seal racing this client
  // The default factory lets the appender repair the chain itself.
  EXPECT_EQ(vlog.Append("b").Get(), 2u);
  EXPECT_EQ(vlog.ChainLength(), 2u);
}

TEST(VirtualLogTest, ConcurrentReconfigureOneWins) {
  auto meta = std::make_shared<MetaStore>(
      std::vector<LogletSegment>{{1, std::make_shared<InMemoryLog>(1)}});
  VirtualLog a(meta);
  VirtualLog b(meta);
  a.Append("x").Get();
  std::thread ta([&] {
    a.Reconfigure([](LogPos s, uint64_t) { return std::make_shared<InMemoryLog>(s); });
  });
  std::thread tb([&] {
    b.Reconfigure([](LogPos s, uint64_t) { return std::make_shared<InMemoryLog>(s); });
  });
  ta.join();
  tb.join();
  // At most one new segment per winning CAS; chain stays consistent.
  EXPECT_GE(meta->GetChain().size(), 2u);
  EXPECT_EQ(a.Append("y").Get(), 2u);
}

TEST(VirtualLogTest, TrimRoutesToSegments) {
  auto first = std::make_shared<InMemoryLog>(1);
  auto meta = std::make_shared<MetaStore>(std::vector<LogletSegment>{{1, first}});
  VirtualLog vlog(meta);
  vlog.Append("a").Get();
  vlog.Append("b").Get();
  vlog.Reconfigure([](LogPos s, uint64_t) { return std::make_shared<InMemoryLog>(s); });
  vlog.Append("c").Get();
  vlog.Trim(2);
  EXPECT_EQ(vlog.trim_prefix(), 2u);
  EXPECT_THROW(vlog.ReadRange(1, 3), TrimmedError);
  auto records = vlog.ReadRange(3, 3);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "c");
}

// --- chaos wrappers ---

TEST(DelayedLogTest, AddsAppendLatency) {
  auto inner = std::make_shared<InMemoryLog>();
  DelayedLog log(inner, DelayedLog::Delays{.append_micros = 5000});
  const int64_t start = RealClock::Instance()->NowMicros();
  EXPECT_EQ(log.Append("a").Get(), 1u);
  EXPECT_GE(RealClock::Instance()->NowMicros() - start, 4500);
}

TEST(ReorderingLogTest, SwapsAdjacentAppends) {
  auto inner = std::make_shared<InMemoryLog>();
  // Swap every append that can be swapped.
  ReorderingLog log(inner, /*swap_probability=*/1.0, /*hold_timeout_micros=*/50'000);
  Future<LogPos> first = log.Append("first");
  Future<LogPos> second = log.Append("second");
  EXPECT_EQ(second.Get(), 1u);  // swapped: second landed first
  EXPECT_EQ(first.Get(), 2u);
  EXPECT_EQ(log.swaps_performed(), 1u);
  EXPECT_EQ(inner->ReadRange(1, 1)[0].payload, "second");
}

TEST(ReorderingLogTest, HoldTimeoutReleasesLoneAppend) {
  auto inner = std::make_shared<InMemoryLog>();
  ReorderingLog log(inner, 1.0, /*hold_timeout_micros=*/2000);
  Future<LogPos> only = log.Append("solo");
  EXPECT_EQ(only.Get(), 1u);  // released by the safety valve
}

}  // namespace
}  // namespace delos

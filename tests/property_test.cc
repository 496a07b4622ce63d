// Parameterized property sweeps (TEST_P):
//  * replica convergence under swept chaos/batching configurations,
//  * the LocalStore-vs-model property over many seeds,
//  * order-preserving codec over random typed values,
//  * lease safety over a sweep of clock skews,
//  * serde round-trip fuzzing over seeds.
#include <gtest/gtest.h>

#include <thread>

#include "src/apps/delostable/value.h"
#include "src/apps/zelos/zelos.h"
#include "src/common/random.h"
#include "src/core/base_engine.h"
#include "src/engines/batching_engine.h"
#include "src/engines/lease_engine.h"
#include "src/engines/session_order_engine.h"
#include "src/sharedlog/chaos_log.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

// --- replica convergence under chaos --------------------------------------

struct ConvergenceParam {
  double swap_probability;
  bool batching;
  size_t batch_size;
};

class ConvergenceUnderChaos : public testing::TestWithParam<ConvergenceParam> {};

TEST_P(ConvergenceUnderChaos, WriterAndFollowerAgree) {
  const ConvergenceParam param = GetParam();
  auto inner = std::make_shared<InMemoryLog>();
  auto chaos = std::make_shared<ReorderingLog>(inner, param.swap_probability, 500);

  struct Server {
    Server(const std::string& id, std::shared_ptr<ISharedLog> log, const ConvergenceParam& p) {
      BaseEngineOptions base_options;
      base_options.server_id = id;
      base = std::make_unique<BaseEngine>(std::move(log), &store, base_options);
      IEngine* top = base.get();
      SessionOrderEngine::Options so_options;
      so_options.server_id = id;
      so = std::make_unique<SessionOrderEngine>(so_options, top, &store);
      top = so.get();
      if (p.batching) {
        BatchingEngine::Options batch_options;
        batch_options.max_batch_entries = p.batch_size;
        batching = std::make_unique<BatchingEngine>(batch_options, top, &store);
        top = batching.get();
      }
      top->RegisterUpcall(&app);
      base->Start();
      client = std::make_unique<zelos::ZelosClient>(top, &app);
    }
    ~Server() { base->Stop(); }
    LocalStore store;
    zelos::ZelosApplicator app;
    std::unique_ptr<BaseEngine> base;
    std::unique_ptr<SessionOrderEngine> so;
    std::unique_ptr<BatchingEngine> batching;
    std::unique_ptr<zelos::ZelosClient> client;
  };

  Server writer("w", chaos, param);
  Server follower("f", inner, param);

  const zelos::SessionId session = writer.client->CreateSession();
  writer.client->Create(session, "/root-node", "");
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        try {
          writer.client->Create(session,
                                "/root-node/c" + std::to_string(t) + "-" + std::to_string(i),
                                "d");
        } catch (const DeterministicError&) {
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  writer.base->Sync().Get();
  follower.base->Sync().Get();
  EXPECT_EQ(writer.store.Checksum(), follower.store.Checksum());
  EXPECT_EQ(writer.client->GetChildren("/root-node").size(), 40u);
}

INSTANTIATE_TEST_SUITE_P(
    ChaosSweep, ConvergenceUnderChaos,
    testing::Values(ConvergenceParam{0.0, false, 0}, ConvergenceParam{0.2, false, 0},
                    ConvergenceParam{0.5, false, 0}, ConvergenceParam{0.0, true, 4},
                    ConvergenceParam{0.2, true, 4}, ConvergenceParam{0.2, true, 16},
                    ConvergenceParam{0.5, true, 8}),
    [](const testing::TestParamInfo<ConvergenceParam>& info) {
      return "swap" + std::to_string(static_cast<int>(info.param.swap_probability * 100)) +
             (info.param.batching ? "_batch" + std::to_string(info.param.batch_size)
                                  : "_nobatch");
    });

// --- LocalStore vs model over seeds ----------------------------------------

class LocalStoreModelSweep : public testing::TestWithParam<uint64_t> {};

TEST_P(LocalStoreModelSweep, MatchesStdMap) {
  Rng rng(GetParam());
  LocalStore store;
  std::map<std::string, std::string> model;
  std::vector<ROTxn> held_snapshots;
  std::vector<std::map<std::string, std::string>> held_models;

  for (int round = 0; round < 120; ++round) {
    RWTxn txn = store.BeginRW();
    auto txn_model = model;
    std::vector<std::pair<size_t, std::map<std::string, std::string>>> savepoints;
    const int ops = static_cast<int>(rng.Uniform(1, 8));
    std::vector<Savepoint> sps;
    for (int i = 0; i < ops; ++i) {
      const double dice = rng.UniformDouble();
      const std::string key = "k" + std::to_string(rng.Uniform(0, 20));
      if (dice < 0.35) {
        const std::string value = rng.String(6);
        txn.Put(key, value);
        txn_model[key] = value;
      } else if (dice < 0.55) {
        txn.Delete(key);
        txn_model.erase(key);
      } else if (dice < 0.70) {
        EXPECT_EQ(txn.Get(key), (txn_model.count(key) ? std::optional<std::string>(txn_model[key])
                                                      : std::nullopt));
      } else if (dice < 0.85) {
        sps.push_back(txn.MakeSavepoint());
        savepoints.emplace_back(sps.size() - 1, txn_model);
      } else if (!savepoints.empty()) {
        auto [index, saved_model] = savepoints.back();
        savepoints.pop_back();
        txn.RollbackTo(sps[index]);
        txn_model = std::move(saved_model);
      }
    }
    if (rng.Bernoulli(0.15)) {
      txn.Abort();
    } else {
      txn.Commit();
      model = std::move(txn_model);
    }
    if (rng.Bernoulli(0.1)) {
      held_snapshots.push_back(store.Snapshot());
      held_models.push_back(model);
    }
    if (held_snapshots.size() > 3) {
      held_snapshots.erase(held_snapshots.begin());
      held_models.erase(held_models.begin());
    }
  }
  // Final state matches the model.
  std::map<std::string, std::string> actual;
  for (const auto& [key, value] : store.Snapshot().ScanPrefix("")) {
    actual[key] = value;
  }
  EXPECT_EQ(actual, model);
  // Every held snapshot still reads its historical state (MVCC).
  for (size_t i = 0; i < held_snapshots.size(); ++i) {
    std::map<std::string, std::string> snap_actual;
    for (const auto& [key, value] : held_snapshots[i].ScanPrefix("")) {
      snap_actual[key] = value;
    }
    EXPECT_EQ(snap_actual, held_models[i]) << "snapshot " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalStoreModelSweep,
                         testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u, 55u, 89u));

// --- ordered codec over random values ---------------------------------------

class OrderedCodecSweep : public testing::TestWithParam<uint64_t> {
 protected:
  static table::Value RandomValue(Rng& rng) {
    switch (rng.Uniform(0, 4)) {
      case 0:
        return table::Value{};
      case 1:
        return table::Value{rng.Bernoulli(0.5)};
      case 2:
        return table::Value{rng.Uniform(INT64_MIN / 2, INT64_MAX / 2)};
      case 3:
        return table::Value{(rng.UniformDouble() - 0.5) * 1e12};
      default: {
        std::string s = rng.String(rng.Uniform(0, 12));
        // Sprinkle NULs to stress the escaping.
        if (rng.Bernoulli(0.3) && !s.empty()) {
          s[rng.Uniform(0, s.size() - 1)] = '\0';
        }
        return table::Value{std::move(s)};
      }
    }
  }
};

TEST_P(OrderedCodecSweep, EncodingOrderMatchesValueOrder) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const table::Value a = RandomValue(rng);
    const table::Value b = RandomValue(rng);
    const std::string ea = table::EncodeOrdered(a);
    const std::string eb = table::EncodeOrdered(b);
    // variant's operator< orders by index first, then value — exactly the
    // type-tag-then-value order the codec promises.
    EXPECT_EQ(a < b, ea < eb) << table::ToString(a) << " vs " << table::ToString(b);
    // Round trip.
    size_t offset = 0;
    EXPECT_EQ(table::DecodeOrdered(ea, &offset), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderedCodecSweep, testing::Values(101u, 202u, 303u, 404u));

// --- lease safety over skews -------------------------------------------------

class LeaseSkewSweep : public testing::TestWithParam<int64_t> {};

TEST_P(LeaseSkewSweep, NoStaleLocalReadsAfterTakeover) {
  const int64_t skew = GetParam();
  constexpr int64_t kTtl = 60'000;
  auto log = std::make_shared<InMemoryLog>();

  struct Node {
    Node(const std::string& id, std::shared_ptr<ISharedLog> log, Clock* clock, int64_t eps) {
      BaseEngineOptions base_options;
      base_options.server_id = id;
      base = std::make_unique<BaseEngine>(std::move(log), &store, base_options);
      LeaseEngine::Options options;
      options.server_id = id;
      options.lease_ttl_micros = kTtl;
      options.guard_epsilon_micros = eps;
      options.auto_renew = false;
      options.clock = clock;
      lease = std::make_unique<LeaseEngine>(options, base.get(), &store);
      lease->RegisterUpcall(&app);
      base->Start();
    }
    ~Node() { base->Stop(); }
    struct App : IApplicator {
      std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
        if (!entry.payload.empty()) {
          txn.Put("kv/" + entry.payload, "1");
        }
        return std::any(Unit{});
      }
    } app;
    LocalStore store;
    std::unique_ptr<BaseEngine> base;
    std::unique_ptr<LeaseEngine> lease;
  };

  // Holder's clock runs fast by `skew`; the guard covers it.
  SkewedClock holder_clock(RealClock::Instance(), skew);
  Node a("a", log, &holder_clock, skew + 5000);
  Node b("b", log, RealClock::Instance(), skew + 5000);

  ASSERT_TRUE(std::any_cast<bool>(a.lease->AcquireLease().Get()));
  b.base->Sync().Get();
  std::thread taker([&] { ASSERT_TRUE(b.lease->TryTakeover()); });
  // Invariant: whenever a still considers its lease valid, b has not
  // committed any write yet.
  bool violation = false;
  while (b.lease->CurrentHolder() != "b") {
    if (a.lease->HoldsValidLease() &&
        a.store.Snapshot().Get("kv/b-write").has_value()) {
      violation = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  taker.join();
  LogEntry entry;
  entry.payload = "b-write";
  b.lease->Propose(entry).Get();
  EXPECT_FALSE(violation);
  EXPECT_FALSE(a.lease->HoldsValidLease());
}

INSTANTIATE_TEST_SUITE_P(Skews, LeaseSkewSweep,
                         testing::Values(0L, 5'000L, 15'000L, 30'000L));

// --- serde round-trip fuzz ----------------------------------------------------

class SerdeFuzzSweep : public testing::TestWithParam<uint64_t> {};

TEST_P(SerdeFuzzSweep, RandomStructuresRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Serializer ser;
    std::vector<uint64_t> varints;
    std::vector<int64_t> signeds;
    std::vector<std::string> strings;
    const int fields = static_cast<int>(rng.Uniform(1, 12));
    std::string plan;
    for (int f = 0; f < fields; ++f) {
      switch (rng.Uniform(0, 2)) {
        case 0: {
          const auto v = static_cast<uint64_t>(rng.Uniform(0, INT64_MAX));
          varints.push_back(v);
          ser.WriteVarint(v);
          plan += 'v';
          break;
        }
        case 1: {
          const int64_t v = rng.Uniform(INT64_MIN / 2, INT64_MAX / 2);
          signeds.push_back(v);
          ser.WriteSigned(v);
          plan += 's';
          break;
        }
        default: {
          std::string s = rng.String(rng.Uniform(0, 40));
          ser.WriteString(s);
          strings.push_back(std::move(s));
          plan += 't';
          break;
        }
      }
    }
    Deserializer de(ser.buffer());
    size_t vi = 0;
    size_t si = 0;
    size_t ti = 0;
    for (const char c : plan) {
      if (c == 'v') {
        EXPECT_EQ(de.ReadVarint(), varints[vi++]);
      } else if (c == 's') {
        EXPECT_EQ(de.ReadSigned(), signeds[si++]);
      } else {
        EXPECT_EQ(de.ReadString(), strings[ti++]);
      }
    }
    EXPECT_TRUE(de.AtEnd());
  }
}

TEST_P(SerdeFuzzSweep, TruncationAlwaysThrowsNeverCrashes) {
  Rng rng(GetParam() ^ 0xdead);
  for (int i = 0; i < 200; ++i) {
    Serializer ser;
    ser.WriteVarint(rng.Uniform(0, INT64_MAX));
    ser.WriteString(rng.String(rng.Uniform(1, 30)));
    ser.WriteSigned(rng.Uniform(INT64_MIN / 2, INT64_MAX / 2));
    const std::string full = ser.buffer();
    const auto cut = static_cast<size_t>(rng.Uniform(0, full.size() - 1));
    // The deserializer holds a view; the truncated buffer must outlive it.
    const std::string truncated = full.substr(0, cut);
    Deserializer de(truncated);
    try {
      de.ReadVarint();
      de.ReadString();
      de.ReadSigned();
      // Short reads may still succeed if the cut landed past all fields —
      // impossible here since cut < full.size(); at least one must throw.
      FAIL() << "expected SerdeError at cut " << cut;
    } catch (const SerdeError&) {
      // Expected.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeFuzzSweep, testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace delos

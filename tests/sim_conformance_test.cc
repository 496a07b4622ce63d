// Engine crash-recovery conformance: every engine type, stacked alone above
// the BaseEngine, is run through a crash at *every* log position — kill the
// server after it has applied exactly c entries (alternating warm recovery
// from a flushed checkpoint and cold recovery by full replay), restart it,
// replay to the tail, and require the recovered LocalStore to be
// byte-identical (checksum and key count) to a fault-free reference run of
// the same log. This is the per-engine distillation of the SimCluster
// invariant: local state is a pure function of the applied log prefix.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/delostable/table_db.h"
#include "src/backup/backup_store.h"
#include "src/core/cluster.h"
#include "src/engines/compression_engine.h"
#include "src/engines/stacks.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

// A StackConfig with nothing enabled (the defaults enable the DelosTable
// production pair).
StackConfig BareConfig() {
  StackConfig config;
  config.view_tracking = false;
  config.brain_doctor = false;
  return config;
}

struct EngineCase {
  const char* name;
  std::function<void(ClusterServer&, BackupStore*)> build;
};

std::vector<EngineCase> EngineCases() {
  return {
      {"observer",
       [](ClusterServer& server, BackupStore*) {
         StackConfig config = BareConfig();
         config.observers = true;  // wraps the BaseEngine in an ObserverEngine
         BuildStack(server, config);
       }},
      {"log_backup",
       [](ClusterServer& server, BackupStore* backup) {
         StackConfig config = BareConfig();
         config.log_backup = true;
         config.backup_store = backup;
         config.backup_segment_size = 1'000'000;  // passive during the test
         BuildStack(server, config);
       }},
      {"brain_doctor",
       [](ClusterServer& server, BackupStore*) {
         StackConfig config = BareConfig();
         config.brain_doctor = true;
         BuildStack(server, config);
       }},
      {"view_tracking",
       [](ClusterServer& server, BackupStore*) {
         StackConfig config = BareConfig();
         config.view_tracking = true;
         BuildStack(server, config);
       }},
      {"time",
       [](ClusterServer& server, BackupStore*) {
         StackConfig config = BareConfig();
         config.time = true;
         BuildStack(server, config);
       }},
      {"session_order",
       [](ClusterServer& server, BackupStore*) {
         StackConfig config = BareConfig();
         config.session_order = true;
         BuildStack(server, config);
       }},
      {"lease",
       [](ClusterServer& server, BackupStore*) {
         StackConfig config = BareConfig();
         config.lease = true;
         config.lease_ttl_micros = 600'000'000;
         BuildStack(server, config);
       }},
      {"batching",
       [](ClusterServer& server, BackupStore*) {
         StackConfig config = BareConfig();
         config.batching = true;
         BuildStack(server, config);
       }},
      {"compression",
       [](ClusterServer& server, BackupStore*) {
         BuildStack(server, BareConfig());
         CompressionEngine::Options options;
         server.AddEngine<CompressionEngine>(options);
       }},
  };
}

class EngineConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "delos_sim_conformance";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  BaseEngineOptions BaseOptions(const std::string& id) {
    BaseEngineOptions options;
    options.server_id = id;
    options.play_batch_size = 4;
    options.flush_interval_micros = 1'000'000'000;  // flushes only on demand
    options.trim_interval_micros = 1'000'000'000;
    options.fatal_handler = [this](const std::string& message) {
      fatals_.push_back(message);
    };
    return options;
  }

  std::unique_ptr<ClusterServer> MakeServer(const EngineCase& engine_case,
                                            const std::string& id,
                                            std::shared_ptr<ISharedLog> log,
                                            const std::string& checkpoint_path) {
    LocalStore::Options store_options;
    store_options.checkpoint_path = checkpoint_path;
    auto server = std::make_unique<ClusterServer>(id, std::move(log),
                                                  LocalStore::Open(store_options),
                                                  BaseOptions(id));
    engine_case.build(*server, &backup_);
    auto app = std::make_unique<table::TableApplicator>();
    server->RegisterApplicator(app.get());
    apps_.push_back(std::move(app));
    server->Start();
    return server;
  }

  // Runs the identical workload every case uses: one schema + eight upserts
  // (values long enough to engage the CompressionEngine's threshold).
  static void RunWorkload(ClusterServer& server) {
    table::TableClient client(server.top());
    table::TableSchema schema;
    schema.name = "conf";
    schema.columns = {{"id", table::ValueType::kInt64},
                      {"payload", table::ValueType::kString}};
    schema.primary_key = "id";
    client.CreateTable(schema);
    for (int i = 0; i < 8; ++i) {
      table::Row row;
      row["id"] = static_cast<int64_t>(i);
      row["payload"] = "value-" + std::to_string(i) + "-" + std::string(90, 'p');
      client.Upsert("conf", row);
    }
  }

  std::filesystem::path dir_;
  InMemoryBackupStore backup_;
  std::vector<std::unique_ptr<IApplicator>> apps_;
  std::vector<std::string> fatals_;
};

TEST_F(EngineConformanceTest, EveryEngineSurvivesCrashAtEveryPosition) {
  for (const EngineCase& engine_case : EngineCases()) {
    SCOPED_TRACE(engine_case.name);

    // Fault-free reference run: produces the canonical log bytes and the
    // canonical recovered state.
    auto ref_log = std::make_shared<InMemoryLog>();
    uint64_t reference_checksum = 0;
    size_t reference_key_count = 0;
    LogPos tail = 0;
    {
      auto ref = MakeServer(engine_case, "ref", ref_log, "");
      RunWorkload(*ref);
      // Sync before reading the cursor: the SessionOrderEngine's postApply
      // short-circuit settles the last propose a hair before the BaseEngine
      // publishes applied_position.
      ref->base()->Sync().Get();
      tail = ref_log->CheckTail().Get() - 1;
      ASSERT_EQ(ref->base()->applied_position(), tail);
      reference_checksum = ref->store()->Checksum();
      reference_key_count = ref->store()->KeyCount();
      ref->Stop();
    }
    ASSERT_GE(tail, 9u);
    const auto records = ref_log->ReadRange(1, tail);
    ASSERT_EQ(records.size(), tail);

    for (LogPos crash_at = 0; crash_at <= tail; ++crash_at) {
      SCOPED_TRACE("crash after applying " + std::to_string(crash_at) + "/" +
                   std::to_string(tail) + " entries");
      const std::string checkpoint =
          (dir_ / (std::string(engine_case.name) + "_" + std::to_string(crash_at) + ".ckpt"))
              .string();
      auto replay_log = std::make_shared<InMemoryLog>();
      for (LogPos i = 0; i < crash_at; ++i) {
        replay_log->Append(records[i].payload).Get();
      }
      // Incarnation one: applies exactly the first crash_at entries, then
      // dies. Odd positions flush first (warm recovery from the checkpoint);
      // even ones don't (cold recovery by full replay).
      {
        auto first = MakeServer(engine_case, "a", replay_log, checkpoint);
        first->base()->Sync().Get();
        ASSERT_EQ(first->base()->applied_position(), crash_at);
        if (crash_at % 2 == 1) {
          first->base()->FlushNow();
        }
        first->Stop();
      }
      // The rest of the log arrives while the server is down.
      for (LogPos i = crash_at; i < tail; ++i) {
        replay_log->Append(records[i].payload).Get();
      }
      // Incarnation two: recover + replay to the tail.
      {
        auto second = MakeServer(engine_case, "b", replay_log, checkpoint);
        second->base()->Sync().Get();
        EXPECT_EQ(second->base()->applied_position(), tail);
        EXPECT_EQ(second->store()->Checksum(), reference_checksum)
            << "recovered state diverges from the reference";
        EXPECT_EQ(second->store()->KeyCount(), reference_key_count);
        second->Stop();
      }
    }
    EXPECT_TRUE(fatals_.empty()) << fatals_.front();
  }
}

}  // namespace
}  // namespace delos

// Linearizability verification, part 4: end-to-end audits.
//
//  * Fault sweep: SimCluster runs seed-derived mixed workloads (table rows,
//    znodes, queues, locks) through the recording clients concurrently with
//    randomized crash / timeout / duplicate / reorder schedules, and the
//    checker must pass every seed. DELOS_VERIFY_SCHEDULES scales the sweep;
//    a failing seed writes its plan, history, violations, and flight dump to
//    DELOS_VERIFY_ARTIFACT_DIR for CI to upload.
//  * Replay determinism: the same seed renders a byte-identical history.
//  * Mutation self-test: a BaseEngine with a build-time-injected consistency
//    bug (double-apply one entry / re-apply a stale entry) must be flagged
//    by the checker on EVERY seed, with a minimal sub-history — the checker
//    checking itself.
//  * Reconfiguration: live VirtualLog loglet swaps under concurrent recorded
//    traffic stay linearizable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/delosq/delosq.h"
#include "src/apps/delostable/table_db.h"
#include "src/common/clock.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"
#include "src/sharedlog/inmemory_log.h"
#include "src/sim/sim_cluster.h"
#include "src/verify/checker.h"
#include "src/verify/history.h"
#include "src/verify/recording_client.h"

namespace delos {
namespace {

using sim::RunReport;
using sim::SimCluster;
using sim::SimOptions;
using sim::WorkloadKind;
using sim::WorkloadKindName;

int EnvInt(const char* name, int fallback, int floor) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  const int parsed = std::atoi(value);
  return parsed < floor ? floor : parsed;
}

std::filesystem::path ArtifactDir() {
  const char* dir = std::getenv("DELOS_VERIFY_ARTIFACT_DIR");
  return (dir != nullptr && *dir != '\0') ? std::filesystem::path(dir)
                                          : std::filesystem::path("verify_artifacts");
}

// Writes everything needed to chase a failing seed offline: the fault plan,
// the failure strings, the full history, every violation's minimal
// sub-history, and the flight-recorder dump. ci.yml uploads this directory
// when the verify suite fails.
void DumpArtifacts(const RunReport& report, WorkloadKind kind) {
  const std::filesystem::path dir = ArtifactDir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string prefix =
      "seed_" + std::to_string(report.seed) + "_" + WorkloadKindName(kind);
  {
    std::ofstream out(dir / (prefix + "_plan.txt"));
    out << report.Summary() << "\n\nfault plan:\n" << report.plan_text << "\nfailures:\n";
    for (const std::string& failure : report.failures) {
      out << "  " << failure << "\n";
    }
  }
  std::ofstream(dir / (prefix + "_history.txt")) << report.history_text;
  std::ofstream(dir / (prefix + "_violations.txt")) << report.violation_text;
  std::ofstream(dir / (prefix + "_flight.txt")) << report.flight_dump;
}

SimOptions SweepOptions(WorkloadKind kind, const std::filesystem::path& scratch) {
  SimOptions options;
  options.workload = kind;
  options.num_servers = 3;
  options.num_ops = 30;
  options.plan.num_ops = 30;
  options.scratch_dir = scratch.string();
  return options;
}

// The sweep: DELOS_VERIFY_SCHEDULES seeds (default 24, so each of the four
// models gets six), each a full SimCluster run with crashes, torn flushes,
// and append faults (timeout / drop / duplicate / reorder) active. Every
// seed must hold both the replica-checksum verdict and the linearizability
// verdict.
TEST(VerifySweep, FaultSweepIsLinearizableForAllModels) {
  const int seeds = EnvInt("DELOS_VERIFY_SCHEDULES", 24, 4);
  const WorkloadKind kinds[] = {WorkloadKind::kVerifyTable, WorkloadKind::kVerifyZelos,
                                WorkloadKind::kVerifyQueue, WorkloadKind::kVerifyLock};
  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() / "delos_verify_sweep";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  for (int seed = 1; seed <= seeds; ++seed) {
    const WorkloadKind kind = kinds[seed % 4];
    SCOPED_TRACE("seed " + std::to_string(seed) + " workload " + WorkloadKindName(kind));
    const SimOptions options = SweepOptions(kind, scratch / ("s" + std::to_string(seed)));
    const RunReport report = SimCluster::RunSeed(static_cast<uint64_t>(seed), options);
    if (!report.ok()) {
      DumpArtifacts(report, kind);
    }
    EXPECT_TRUE(report.ok()) << report.Summary() << "\n" << report.plan_text;
    EXPECT_TRUE(report.verify_ran);
    EXPECT_TRUE(report.linearizable) << report.violation_text;
    EXPECT_GT(report.verify_ops, 0u);
    EXPECT_NE(report.Summary().find("linearizable=yes"), std::string::npos)
        << report.Summary();
  }
  std::filesystem::remove_all(scratch);
}

// The tentpole's replay contract: histories render byte-identically across
// runs of the same seed — same ops, same ticks, same injected-clock stamps,
// same trace ids — so a failing seed's history artifact is reproducible.
TEST(VerifySweep, HistoryRendersByteIdenticallyAcrossReplays) {
  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() / "delos_verify_replay";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  for (const WorkloadKind kind :
       {WorkloadKind::kVerifyTable, WorkloadKind::kVerifyQueue}) {
    SCOPED_TRACE(WorkloadKindName(kind));
    const SimOptions options = SweepOptions(kind, scratch / WorkloadKindName(kind));
    const RunReport first = SimCluster::RunSeed(11, options);
    const RunReport second = SimCluster::RunSeed(11, options);
    ASSERT_TRUE(first.ok()) << first.Summary();
    ASSERT_TRUE(second.ok()) << second.Summary();
    EXPECT_FALSE(first.history_text.empty());
    EXPECT_EQ(first.history_text, second.history_text);
    EXPECT_EQ(first.Summary(), second.Summary());
  }
  std::filesystem::remove_all(scratch);
}

// Legacy workloads keep their old report shape: the linearizability column
// reads "n/a" and no history is captured.
TEST(VerifySweep, LegacyWorkloadReportsNoVerdict) {
  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() / "delos_verify_legacy";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  SimOptions options = SweepOptions(WorkloadKind::kLegacy, scratch);
  options.num_ops = 12;
  options.plan.num_ops = 12;
  const RunReport report = SimCluster::RunSeed(2, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_FALSE(report.verify_ran);
  EXPECT_TRUE(report.history_text.empty());
  EXPECT_NE(report.Summary().find("linearizable=n/a"), std::string::npos);
  std::filesystem::remove_all(scratch);
}

#ifdef DELOS_MUTATIONS

// Mutation self-test: prove the checker actually catches consistency bugs by
// compiling one into the BaseEngine. Each run builds a bare single-server
// rig (no middle engines — a SessionOrderEngine would mask exactly the bugs
// we inject) with a seed-parametrized mutation trigger, scripts a workload
// guaranteed to expose it, and requires a violation with a minimal
// sub-history on EVERY seed.
class MutationSelfTest : public ::testing::Test {
 protected:
  BaseEngineOptions BaseOptions(uint64_t double_apply_at, uint64_t reorder_at) {
    BaseEngineOptions options;
    options.server_id = "mut";
    options.play_batch_size = 4;
    options.flush_interval_micros = 1'000'000'000;
    options.trim_interval_micros = 1'000'000'000;
    options.mutate_double_apply_at = double_apply_at;
    options.mutate_reorder_at = reorder_at;
    options.fatal_handler = [this](const std::string& message) {
      fatals_.push_back(message);
    };
    return options;
  }

  // Re-apply-previous-entry mutation against the "reg" model. Applied log
  // records on the bare stack: create-table = 1, E warmup writes = 2..E+1
  // (E = seed % 4), write(k,"a") = E+2, write(k,"b") = E+3 — the trigger:
  // right after applying "b" the engine re-applies the stale "a", so the
  // recorded read sees "a" after an acknowledged write of "b".
  verify::CheckResult RunReorder(uint64_t seed, std::string* violation_render) {
    const uint64_t warmups = seed % 4;
    auto log = std::make_shared<InMemoryLog>();
    ClusterServer server("mut", log, LocalStore::Open(LocalStore::Options{}),
                         BaseOptions(0, warmups + 3));
    table::TableApplicator app;
    server.RegisterApplicator(&app);
    server.Start();
    table::TableClient client(server.top());
    table::TableSchema schema;
    schema.name = "t";
    schema.columns = {{"k", table::ValueType::kString}, {"v", table::ValueType::kString}};
    schema.primary_key = "k";
    client.CreateTable(schema);  // untracked setup

    SimClock clock;  // never advanced: deterministic display stamps
    verify::HistoryRecorder recorder(64, &clock);
    verify::RecordingTableClient recording(&client, "t", &recorder, 0);
    for (uint64_t i = 0; i < warmups; ++i) {
      recording.Write("warm" + std::to_string(i), "w");
    }
    recording.Write("k", "a");
    recording.Write("k", "b");
    recording.Read("k");
    server.Stop();

    const verify::CheckResult result = verify::CheckLinearizability(recorder.Snapshot());
    RenderViolations(result, violation_render);
    return result;
  }

  // Double-apply mutation against the "queue" model. Applied records:
  // create-queue = 1, P pushes = 2..P+1 (P = 3 + seed % 4), first pop = P+2
  // — the trigger: the pop applies twice, silently consuming two elements,
  // so the recorded pop sequence skips one payload.
  verify::CheckResult RunDoubleApply(uint64_t seed, std::string* violation_render) {
    const uint64_t pushes = 3 + seed % 4;
    auto log = std::make_shared<InMemoryLog>();
    ClusterServer server("mut", log, LocalStore::Open(LocalStore::Options{}),
                         BaseOptions(pushes + 2, 0));
    delosq::QueueApplicator app;
    server.RegisterApplicator(&app);
    server.Start();
    delosq::QueueClient client(server.top());
    client.CreateQueue("q");  // untracked setup

    SimClock clock;
    verify::HistoryRecorder recorder(64, &clock);
    verify::RecordingQueueClient recording(&client, &recorder, 0);
    for (uint64_t i = 1; i <= pushes; ++i) {
      recording.Push("q", "p" + std::to_string(i));
    }
    for (uint64_t i = 1; i <= pushes; ++i) {
      recording.Pop("q");
    }
    server.Stop();

    const verify::CheckResult result = verify::CheckLinearizability(recorder.Snapshot());
    RenderViolations(result, violation_render);
    return result;
  }

  static void RenderViolations(const verify::CheckResult& result, std::string* render) {
    render->clear();
    for (const verify::Violation& violation : result.violations) {
      *render += violation.Render();
    }
  }

  std::vector<std::string> fatals_;
};

TEST_F(MutationSelfTest, ReorderMutationIsFlaggedOnEverySeed) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string render;
    const verify::CheckResult result = RunReorder(seed, &render);
    EXPECT_FALSE(result.budget_exhausted);
    ASSERT_FALSE(result.linearizable) << "seeded stale re-apply went undetected";
    ASSERT_FALSE(result.violations.empty());
    EXPECT_FALSE(result.violations[0].minimal.empty());
    EXPECT_FALSE(render.empty());
    EXPECT_TRUE(fatals_.empty());
  }
}

TEST_F(MutationSelfTest, DoubleApplyMutationIsFlaggedOnEverySeed) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string render;
    const verify::CheckResult result = RunDoubleApply(seed, &render);
    EXPECT_FALSE(result.budget_exhausted);
    ASSERT_FALSE(result.linearizable) << "seeded double-apply went undetected";
    ASSERT_FALSE(result.violations.empty());
    EXPECT_FALSE(result.violations[0].minimal.empty());
    EXPECT_FALSE(render.empty());
    EXPECT_TRUE(fatals_.empty());
  }
}

// The violation report itself is deterministic: two identical runs produce
// byte-identical minimal sub-history renders (the repro contract extends to
// the checker's output, not just the history).
TEST_F(MutationSelfTest, ViolationReportIsDeterministic) {
  std::string first;
  std::string second;
  RunReorder(3, &first);
  RunReorder(3, &second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  RunDoubleApply(5, &first);
  RunDoubleApply(5, &second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

#endif  // DELOS_MUTATIONS

// Live log reconfiguration under recorded concurrent traffic: three client
// threads mix writes, reads, and CAS through recording clients while the
// VirtualLog seals its active loglet and chains fresh ones, twice. The
// merged history must be linearizable — reconfiguration may slow ops, never
// tear them.
TEST(VerifyReconfigure, CheckerIsCleanAcrossLogReconfiguration) {
  Cluster::Options options;
  options.num_servers = 3;
  options.log_kind = Cluster::LogKind::kVirtual;
  std::map<std::string, std::unique_ptr<table::TableApplicator>> applicators;
  Cluster cluster(options, [&](ClusterServer& server) {
    BuildStack(server, DelosTableStackConfig(nullptr));
    auto app = std::make_unique<table::TableApplicator>();
    server.RegisterApplicator(app.get());
    applicators[server.id()] = std::move(app);
  });

  table::TableClient setup(cluster.server(0).top());
  table::TableSchema schema;
  schema.name = "t";
  schema.columns = {{"k", table::ValueType::kString}, {"v", table::ValueType::kString}};
  schema.primary_key = "k";
  setup.CreateTable(schema);

  verify::HistoryRecorder recorder(1024);
  std::atomic<int> completed{0};
  std::vector<std::thread> workers;
  for (uint32_t c = 0; c < 3; ++c) {
    workers.emplace_back([&, c] {
      table::TableClient client(cluster.server(static_cast<int>(c)).top());
      verify::RecordingTableClient recording(&client, "t", &recorder, c);
      for (int i = 0; i < 25; ++i) {
        const std::string key = "k" + std::to_string((c + i) % 4);
        try {
          switch (i % 3) {
            case 0:
              recording.Write(key, "c" + std::to_string(c) + "i" + std::to_string(i));
              break;
            case 1:
              recording.Read(key);
              break;
            default:
              recording.Cas(key, "never", "x");
              break;
          }
        } catch (const std::exception&) {
          // Indeterminate attempt (already journaled as such); keep going.
        }
        completed.fetch_add(1);
      }
    });
  }
  while (completed.load() < 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.ReconfigureLog();
  while (completed.load() < 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.ReconfigureLog();
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(cluster.LogChainLength(), 3u);
  EXPECT_EQ(recorder.dropped(), 0u);

  const verify::CheckResult result = verify::CheckLinearizability(recorder.Snapshot());
  EXPECT_FALSE(result.budget_exhausted);
  std::string violations;
  for (const verify::Violation& violation : result.violations) {
    violations += violation.Render();
  }
  EXPECT_TRUE(result.linearizable) << violations;
  EXPECT_EQ(result.ops_checked, 75u);
}

}  // namespace
}  // namespace delos

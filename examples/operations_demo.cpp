// Operator's tour: the production tooling the paper's engines exist for.
//  1. BrainDoctorEngine — emergency surgery on a live database (the
//     secondary-index corruption incident from §4.2).
//  2. LogBackupEngine + Point-in-Time restore — reconstruct yesterday's
//     state from log-segment backups.
//  3. Two-phase dynamic engine insertion — enable a new engine fleet-wide
//     via a single command in the log.
//
//   ./examples/operations_demo
#include <cstdio>
#include <thread>

#include "src/apps/delostable/table_db.h"
#include "src/backup/restore.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"

using namespace delos;
using namespace delos::table;

int main() {
  InMemoryBackupStore backup;
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster::Options options;
  options.num_servers = 3;
  Cluster cluster(options, [&](ClusterServer& server) {
    StackConfig config = DelosTableStackConfig(&backup);
    config.backup_segment_size = 8;
    BuildStack(server, config);
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get(), TableKeyExtractor::Instance());
    applicators[server.id()] = std::move(app);
  });

  TableClient client(cluster.server(0).top());
  TableSchema schema;
  schema.name = "accounts";
  schema.columns = {{"id", ValueType::kInt64},
                    {"owner", ValueType::kString},
                    {"region", ValueType::kString}};
  schema.primary_key = "id";
  schema.secondary_indexes = {"region"};
  client.CreateTable(schema);
  for (int i = 0; i < 12; ++i) {
    client.Insert("accounts", {{"id", Value{int64_t{i}}},
                               {"owner", Value{std::string("user") + std::to_string(i)}},
                               {"region", Value{std::string(i % 2 == 0 ? "emea" : "apac")}}});
  }
  const LogPos before_incident = cluster.server(0).base()->applied_position();

  // --- 1. Brain surgery ---------------------------------------------------
  // Simulate the §4.2 incident: a bug leaves a stale secondary-index entry
  // pointing at a deleted row. (We inject it with the BrainDoctor itself,
  // then repair it the same way — both paths go through the log, so all
  // three replicas change in lockstep.)
  auto* doctor = dynamic_cast<BrainDoctorEngine*>(cluster.server(0).FindEngine("braindoctor"));
  const std::string bogus_index_key =
      TableApplicator::IndexKey("accounts", "region", Value{std::string("emea")},
                                Value{int64_t{9999}});
  doctor->ApplyRawWrites({{bogus_index_key, std::string("")}}).Get();
  std::printf("incident: emea index now returns %zu rows for 6 real accounts\n",
              client.IndexLookup("accounts", "region", Value{std::string("emea")}).size() + 1);

  doctor->ApplyRawWrites({{bogus_index_key, std::nullopt}}).Get();
  const size_t emea_rows =
      client.IndexLookup("accounts", "region", Value{std::string("emea")}).size();
  // Quiesce: background LogBackup traffic keeps the log moving, so compare
  // replicas once they observe the same tail.
  bool replicas_agree = false;
  for (int attempt = 0; attempt < 50 && !replicas_agree; ++attempt) {
    cluster.server(0).top()->Sync().Get();
    cluster.server(1).top()->Sync().Get();
    replicas_agree =
        cluster.server(0).store()->Checksum() == cluster.server(1).store()->Checksum();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::printf("brain surgery: stale index entry removed on every replica; emea rows=%zu, "
              "replicas agree=%d\n",
              emea_rows, replicas_agree);

  // --- 2. Point-in-Time restore -------------------------------------------
  // An operator "fat-fingers" a destructive change...
  for (int i = 0; i < 6; ++i) {
    client.Delete("accounts", Value{int64_t{i}});
  }
  std::printf("oops: %zu accounts left after accidental deletes\n",
              client.Scan("accounts", std::nullopt, std::nullopt).size());

  // ...wait for the LogBackupEngine's segment uploads to cover the incident
  // point, then rebuild the pre-incident state from the backup store.
  auto* lb = dynamic_cast<LogBackupEngine*>(cluster.server(0).FindEngine("logbackup"));
  while (lb->BackedUpPrefix() < before_incident) {
    client.Upsert("accounts", {{"id", Value{int64_t{100}}},
                               {"owner", Value{std::string("filler")}},
                               {"region", Value{std::string("emea")}}});
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RestoreOptions restore_options;
  restore_options.target_pos = before_incident;
  std::map<std::string, std::unique_ptr<TableApplicator>> restore_apps;
  auto restored = RestoreFromBackup(backup, restore_options, [&](ClusterServer& server) {
    auto app = std::make_unique<TableApplicator>();
    server.base()->RegisterUpcall(app.get());
    restore_apps[server.id()] = std::move(app);
  });
  TableClient restored_client(restored.server->top());
  std::printf("point-in-time restore to pos %llu: %zu accounts recovered\n",
              (unsigned long long)restored.restored_to,
              restored_client.Scan("accounts", std::nullopt, std::nullopt).size());
  restored.server->Stop();

  // --- 3. Live engine insertion -------------------------------------------
  // The (2021, not-yet-production) TimeEngine is wired into a fresh cluster
  // disabled, then enabled fleet-wide via one log command.
  std::map<std::string, std::unique_ptr<TableApplicator>> apps2;
  Cluster::Options options2;
  options2.num_servers = 3;
  Cluster cluster2(options2, [&](ClusterServer& server) {
    BuildStack(server, DelosTableStackConfig(nullptr));
    TimeEngine::Options time_options;
    time_options.server_id = server.id();
    time_options.quorum = 2;
    time_options.start_enabled = false;
    server.AddEngine<TimeEngine>(time_options);
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get(), TableKeyExtractor::Instance());
    apps2[server.id()] = std::move(app);
  });
  auto* time_engine = dynamic_cast<TimeEngine*>(cluster2.server(0).FindEngine("time"));
  std::printf("engine insertion: time engine enabled=%d before the log command\n",
              time_engine->enabled());
  time_engine->EnableViaLog();
  cluster2.server(1).top()->Sync().Get();
  cluster2.server(2).top()->Sync().Get();
  std::printf("engine insertion: enabled on all servers=%d %d %d after one command\n",
              cluster2.server(0).FindEngine("time")->enabled(),
              cluster2.server(1).FindEngine("time")->enabled(),
              cluster2.server(2).FindEngine("time")->enabled());

  // Use it: a distributed timer that fires once 2 of 3 server clocks agree.
  time_engine->CreateTimer("demo", 10'000).Get();
  while (!time_engine->IsFired("demo")) {
    cluster2.server(0).top()->Sync().Get();
    cluster2.server(1).top()->Sync().Get();
    cluster2.server(2).top()->Sync().Get();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::printf("distributed timer fired after a quorum of local clocks elapsed\n");
  return 0;
}

// Quickstart: a replicated relational table in ~60 lines.
//
// Builds a three-server DelosTable cluster (production-shaped engine stack
// over an in-process shared log), creates a table with a secondary index,
// writes from one server, and reads — strongly consistently — from another.
//
//   ./examples/quickstart
#include <cstdio>

#include "src/apps/delostable/table_db.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"

using namespace delos;
using namespace delos::table;

int main() {
  // One applicator per server; the Cluster builder wires each stack.
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster::Options options;
  options.num_servers = 3;
  Cluster cluster(options, [&](ClusterServer& server) {
    BuildStack(server, DelosTableStackConfig(/*backup_store=*/nullptr));
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get(), TableKeyExtractor::Instance());
    applicators[server.id()] = std::move(app);
  });

  // Define a table. DDL is replicated through the shared log like any write.
  TableClient writer(cluster.server(0).top());
  TableSchema schema;
  schema.name = "inventory";
  schema.columns = {{"sku", ValueType::kInt64},
                    {"item", ValueType::kString},
                    {"warehouse", ValueType::kString},
                    {"quantity", ValueType::kInt64}};
  schema.primary_key = "sku";
  schema.secondary_indexes = {"warehouse"};
  writer.CreateTable(schema);

  // Writes on server 0.
  writer.Insert("inventory", {{"sku", Value{int64_t{1}}},
                              {"item", Value{std::string("anvil")}},
                              {"warehouse", Value{std::string("nyc")}},
                              {"quantity", Value{int64_t{12}}}});
  writer.Insert("inventory", {{"sku", Value{int64_t{2}}},
                              {"item", Value{std::string("rocket skates")}},
                              {"warehouse", Value{std::string("sfo")}},
                              {"quantity", Value{int64_t{3}}}});
  writer.Insert("inventory", {{"sku", Value{int64_t{3}}},
                              {"item", Value{std::string("tnt")}},
                              {"warehouse", Value{std::string("nyc")}},
                              {"quantity", Value{int64_t{40}}}});

  // Conditional update (CAS) — fails deterministically if the quantity moved.
  writer.ConditionalUpdate("inventory", Value{int64_t{1}}, "quantity", Value{int64_t{12}},
                           {{"quantity", Value{int64_t{11}}}});

  // Strongly consistent reads on a *different* server: sync() plays the log
  // to the tail before serving the snapshot.
  TableClient reader(cluster.server(2).top());
  std::printf("full scan from server2:\n");
  for (const Row& row : reader.Scan("inventory", std::nullopt, std::nullopt)) {
    std::printf("  sku=%s item=%s warehouse=%s quantity=%s\n",
                ToString(row.at("sku")).c_str(), ToString(row.at("item")).c_str(),
                ToString(row.at("warehouse")).c_str(), ToString(row.at("quantity")).c_str());
  }
  std::printf("nyc stock via secondary index:\n");
  for (const Row& row : reader.IndexLookup("inventory", "warehouse", Value{std::string("nyc")})) {
    std::printf("  %s x%s\n", ToString(row.at("item")).c_str(),
                ToString(row.at("quantity")).c_str());
  }

  // Replicas are bit-identical.
  cluster.server(0).top()->Sync().Get();
  cluster.server(1).top()->Sync().Get();
  std::printf("replica checksums: %016llx %016llx %016llx\n",
              (unsigned long long)cluster.server(0).store()->Checksum(),
              (unsigned long long)cluster.server(1).store()->Checksum(),
              (unsigned long long)cluster.server(2).store()->Checksum());
  return 0;
}

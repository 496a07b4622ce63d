// Analytics on DelosTable: the declarative query layer (planner with index
// selection) and atomic multi-row write batches, over a replicated 3-server
// deployment.
//
//   ./examples/table_analytics
#include <cstdio>

#include "src/apps/delostable/query.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"

using namespace delos;
using namespace delos::table;

namespace {

const char* AccessName(QueryPlan::Access access) {
  switch (access) {
    case QueryPlan::Access::kIndexLookup:
      return "index-lookup";
    case QueryPlan::Access::kPkRange:
      return "pk-range-scan";
    case QueryPlan::Access::kFullScan:
      return "full-scan";
  }
  return "?";
}

}  // namespace

int main() {
  std::map<std::string, std::unique_ptr<TableApplicator>> applicators;
  Cluster::Options options;
  options.num_servers = 3;
  Cluster cluster(options, [&](ClusterServer& server) {
    BuildStack(server, DelosTableStackConfig(nullptr));
    auto app = std::make_unique<TableApplicator>();
    server.RegisterApplicator(app.get(), TableKeyExtractor::Instance());
    applicators[server.id()] = std::move(app);
  });

  TableClient client(cluster.server(0).top());
  TableSchema schema;
  schema.name = "orders";
  schema.columns = {{"id", ValueType::kInt64},
                    {"customer", ValueType::kString},
                    {"region", ValueType::kString},
                    {"total", ValueType::kDouble}};
  schema.primary_key = "id";
  schema.secondary_indexes = {"region", "customer"};
  client.CreateTable(schema);

  // Load data with atomic multi-row batches (one log entry, one LocalStore
  // transaction per batch).
  const char* regions[] = {"emea", "apac", "amer"};
  for (int chunk = 0; chunk < 4; ++chunk) {
    std::vector<TableClient::BatchOp> batch;
    for (int i = 0; i < 25; ++i) {
      const int64_t id = chunk * 25 + i;
      batch.push_back({TableClient::BatchOp::Kind::kInsert, "orders",
                       Row{{"id", Value{id}},
                           {"customer", Value{std::string("cust") + std::to_string(id % 10)}},
                           {"region", Value{std::string(regions[id % 3])}},
                           {"total", Value{static_cast<double>((id * 37) % 500) + 0.99}}},
                       Value{}});
    }
    client.ApplyBatch(batch);
  }
  std::printf("loaded 100 orders in 4 atomic batches\n\n");

  // Queries from a different replica (linearizable reads).
  TableClient reader(cluster.server(2).top());
  QueryEngine queries(&reader);

  struct Demo {
    const char* label;
    Query query;
  };
  std::vector<Demo> demos;
  demos.push_back({"orders in emea",
                   {"orders",
                    {{"region", Predicate::Op::kEq, Value{std::string("emea")}}},
                    SIZE_MAX}});
  demos.push_back({"big emea orders (total > 400)",
                   {"orders",
                    {{"region", Predicate::Op::kEq, Value{std::string("emea")}},
                     {"total", Predicate::Op::kGt, Value{400.0}}},
                    SIZE_MAX}});
  demos.push_back({"orders with 10 <= id < 20",
                   {"orders",
                    {{"id", Predicate::Op::kGe, Value{int64_t{10}}},
                     {"id", Predicate::Op::kLt, Value{int64_t{20}}}},
                    SIZE_MAX}});
  demos.push_back({"orders by cust3",
                   {"orders",
                    {{"customer", Predicate::Op::kEq, Value{std::string("cust3")}}},
                    SIZE_MAX}});
  demos.push_back({"expensive orders anywhere (total > 450, full scan)",
                   {"orders", {{"total", Predicate::Op::kGt, Value{450.0}}}, SIZE_MAX}});

  std::printf("%-50s %-15s %8s\n", "query", "plan", "rows");
  for (const Demo& demo : demos) {
    const QueryPlan plan = queries.Plan(demo.query);
    const size_t count = queries.Count(demo.query);
    std::printf("%-50s %-15s %8zu\n", demo.label, AccessName(plan.access), count);
  }

  // An all-or-nothing transfer that fails midway leaves no trace.
  std::printf("\natomic batch rollback: ");
  std::vector<TableClient::BatchOp> bad;
  bad.push_back({TableClient::BatchOp::Kind::kInsert, "orders",
                 Row{{"id", Value{int64_t{999}}},
                     {"customer", Value{std::string("ghost")}},
                     {"region", Value{std::string("emea")}},
                     {"total", Value{1.0}}},
                 Value{}});
  bad.push_back({TableClient::BatchOp::Kind::kDelete, "orders", Row{}, Value{int64_t{12345}}});
  try {
    client.ApplyBatch(bad);
  } catch (const RowNotFoundError&) {
    std::printf("second op failed, first op rolled back (order 999 exists: %d)\n",
                reader.Get("orders", Value{int64_t{999}}).has_value());
  }
  return 0;
}

// Zelos coordination recipes: the classic ZooKeeper patterns — leader
// election with ephemeral-sequential nodes, configuration watches, and a
// service-discovery group — running on the full production Zelos stack
// (Batching + SessionOrder + ViewTracking + BrainDoctor + Base).
//
//   ./examples/zelos_coordination
#include <cstdio>

#include "src/apps/zelos/zelos.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"

using namespace delos;
using namespace delos::zelos;

namespace {

// Leader election: each candidate creates an ephemeral-sequential node under
// /election; the lowest sequence number leads. Losing candidates watch the
// next-lower node (no herd effect).
std::string RunElection(ZelosClient& client, SessionId session, const std::string& me) {
  const std::string my_node =
      client.Create(session, "/election/candidate-", me, kEphemeral | kSequential);
  auto children = client.GetChildren("/election");
  std::sort(children.begin(), children.end());
  const std::string leader_node = "/election/" + children.front();
  const auto leader = client.GetData(leader_node);
  return leader.has_value() ? leader->first : me;
}

}  // namespace

int main() {
  std::map<std::string, std::unique_ptr<ZelosApplicator>> applicators;
  Cluster::Options options;
  options.num_servers = 3;
  Cluster cluster(options, [&](ClusterServer& server) {
    BuildStack(server, ZelosStackConfig(/*backup_store=*/nullptr));
    auto app = std::make_unique<ZelosApplicator>();
    server.RegisterApplicator(app.get(), ZelosKeyExtractor::Instance());
    applicators[server.id()] = std::move(app);
  });

  ZelosClient client0(cluster.server(0).top(), applicators["server0"].get());
  ZelosClient client1(cluster.server(1).top(), applicators["server1"].get());

  // --- Leader election ---
  client0.Create(client0.CreateSession(), "/election", "");
  const SessionId alice = client0.CreateSession();
  const SessionId bob = client1.CreateSession();
  RunElection(client0, alice, "alice");
  std::printf("election: leader is %s\n", RunElection(client1, bob, "bob").c_str());

  // The leader's ephemeral node vanishes when its session dies; the
  // runner-up takes over.
  client0.CloseSession(alice);
  auto remaining = client1.GetChildren("/election");
  std::printf("election: after leader session closed, %zu candidate(s) remain; leader is %s\n",
              remaining.size(),
              client1.GetData("/election/" + remaining.front())->first.c_str());

  // --- Configuration watch ---
  const SessionId cfg_session = client0.CreateSession();
  client0.Create(cfg_session, "/config", "v1");
  std::atomic<int> watch_fires{0};
  // The watch is local soft state on server1, triggered from postApply.
  client1.GetData("/config", [&](const WatchEvent& event) {
    std::printf("watch: /config changed (type=%d)\n", static_cast<int>(event.type));
    watch_fires.fetch_add(1);
  });
  client0.SetData("/config", "v2");
  cluster.server(1).top()->Sync().Get();
  std::printf("watch fired %d time(s); config now: %s\n", watch_fires.load(),
              client1.GetData("/config")->first.c_str());

  // --- Service discovery group ---
  client0.Create(cfg_session, "/services", "");
  client0.Create(cfg_session, "/services/web", "", 0);
  for (int i = 0; i < 3; ++i) {
    const SessionId worker = client0.CreateSession();
    client0.Create(worker, "/services/web/instance-", "10.0.0." + std::to_string(i),
                   kEphemeral | kSequential);
  }
  std::printf("service group /services/web members:\n");
  for (const std::string& child : client1.GetChildren("/services/web")) {
    std::printf("  %s -> %s\n", child.c_str(),
                client1.GetData("/services/web/" + child)->first.c_str());
  }

  // --- Atomic multi-op: move a node ---
  std::vector<ZelosClient::Op> multi;
  multi.push_back({ZelosClient::Op::Kind::kCreate, "/config-v2", "v2", kPersistent, -1,
                   cfg_session});
  multi.push_back({ZelosClient::Op::Kind::kDelete, "/config", "", 0, -1, cfg_session});
  client0.Multi(multi);
  std::printf("multi: /config moved to /config-v2 atomically (exists=%d, old exists=%d)\n",
              client1.Exists("/config-v2").has_value(), client1.Exists("/config").has_value());
  return 0;
}

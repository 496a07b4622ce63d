// A work pipeline on DelosQ + DelosLock: producers on one server push jobs,
// competing consumers on other servers pop them exactly once, and a
// replicated lock serializes a critical section — all three services over
// one shared log and one engine-stack codebase (the §6 "hourglass" story).
//
//   ./examples/queue_pipeline
#include <cstdio>
#include <thread>

#include "src/apps/delosq/delosq.h"
#include "src/apps/locks/lock_service.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"

using namespace delos;

namespace {

// One applicator that demuxes to the queue and lock applicators by op-code
// range would be possible; simpler (and what Delos does) is one database per
// cluster. We run two small clusters sharing nothing but this binary.
struct QueueCluster {
  QueueCluster() {
    Cluster::Options options;
    options.num_servers = 3;
    cluster = std::make_unique<Cluster>(options, [&](ClusterServer& server) {
      BuildStack(server, DelosTableStackConfig(nullptr));
      auto app = std::make_unique<delosq::QueueApplicator>();
      server.RegisterApplicator(app.get(), delosq::QueueKeyExtractor::Instance());
      applicators[server.id()] = std::move(app);
    });
  }
  std::map<std::string, std::unique_ptr<delosq::QueueApplicator>> applicators;
  std::unique_ptr<Cluster> cluster;
};

}  // namespace

int main() {
  QueueCluster queues;
  delosq::QueueClient producer(queues.cluster->server(0).top());
  producer.CreateQueue("jobs");
  producer.CreateQueue("results");

  constexpr int kJobs = 24;
  std::thread producer_thread([&] {
    for (int i = 0; i < kJobs; ++i) {
      producer.Push("jobs", "job-" + std::to_string(i));
    }
    std::printf("producer: pushed %d jobs (queue size now %llu)\n", kJobs,
                (unsigned long long)producer.Size("jobs"));
  });

  // Two consumers on different servers race to pop; the log serializes them,
  // so every job is processed exactly once.
  std::atomic<int> processed{0};
  auto consume = [&](int server_index) {
    delosq::QueueClient consumer(queues.cluster->server(server_index).top());
    int mine = 0;
    while (processed.load() < kJobs) {
      auto job = consumer.Pop("jobs");
      if (!job.has_value()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      consumer.Push("results", *job + ":done-by-server" + std::to_string(server_index));
      processed.fetch_add(1);
      ++mine;
    }
    std::printf("consumer on server%d processed %d jobs\n", server_index, mine);
  };
  std::thread consumer1([&] { consume(1); });
  std::thread consumer2([&] { consume(2); });
  producer_thread.join();
  consumer1.join();
  consumer2.join();

  delosq::QueueClient checker(queues.cluster->server(0).top());
  std::printf("pipeline: %llu results, jobs queue drained (%llu left)\n",
              (unsigned long long)checker.Size("results"),
              (unsigned long long)checker.Size("jobs"));

  // --- A replicated lock guarding a critical section across servers ---
  Cluster::Options lock_options;
  lock_options.num_servers = 2;
  std::map<std::string, std::unique_ptr<locks::LockApplicator>> lock_apps;
  Cluster lock_cluster(lock_options, [&](ClusterServer& server) {
    BuildStack(server, DelosTableStackConfig(nullptr));
    auto app = std::make_unique<locks::LockApplicator>();
    server.RegisterApplicator(app.get(), locks::LockKeyExtractor::Instance());
    lock_apps[server.id()] = std::move(app);
  });
  locks::LockClient alice(lock_cluster.server(0).top(), lock_apps["server0"].get());
  locks::LockClient bob(lock_cluster.server(1).top(), lock_apps["server1"].get());

  alice.Acquire("deploy", "alice");
  std::printf("lock: owner=%s; bob queues behind\n", alice.Owner("deploy").c_str());
  std::thread bob_thread([&] {
    if (bob.AcquireWait("deploy", "bob", 2'000'000)) {
      std::printf("lock: bob granted after alice released\n");
      bob.Release("deploy", "bob");
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  alice.Release("deploy", "alice");
  bob_thread.join();
  std::printf("lock: final owner='%s' (free)\n", alice.Owner("deploy").c_str());
  return 0;
}

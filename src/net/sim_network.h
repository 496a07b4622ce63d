// In-process network simulation.
//
// The reproduction replaces Facebook's datacenter fabric with a message
// scheduler: nodes register RPC handlers; calls are delivered after a
// configurable one-way latency (one default plus jitter), can be dropped
// probabilistically, and respect partitions and node up/down state. The
// quorum loglet runs its sequencer/acceptor traffic over this, which is what
// gives `append` and `checkTail` their quorum-round-trip cost — the latency
// structure the LeaseEngine experiment (Figure 10) depends on.
//
// Handlers execute on the delivery thread and must not block; simulated
// processing time belongs in the latency configuration, not in handlers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "src/common/future.h"
#include "src/common/random.h"

namespace delos {

using NodeId = std::string;

struct NetworkConfig {
  int64_t default_one_way_latency_micros = 50;
  int64_t jitter_micros = 0;         // uniform in [0, jitter]
  double drop_probability = 0.0;     // applied independently per direction
  int64_t call_timeout_micros = 1'000'000;
  uint64_t seed = 1;
};

class SimNetwork {
 public:
  using Handler =
      std::function<std::string(const NodeId& from, const std::string& method,
                                const std::string& request)>;

  // Reply callback handed to async handlers. May be invoked from any thread,
  // at most once; later invocations are ignored (the call may already have
  // timed out).
  using ReplyFn = std::function<void(std::string reply)>;
  using AsyncHandler = std::function<void(const NodeId& from, const std::string& method,
                                          const std::string& request, ReplyFn reply)>;

  explicit SimNetwork(NetworkConfig config = NetworkConfig{});
  ~SimNetwork();

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  // Registers (or replaces) the RPC handler for a node and marks it up.
  void RegisterHandler(const NodeId& node, Handler handler);

  // Async variant: the handler replies later (e.g. a sequencer that waits
  // for acceptor acks). The reply traverses the simulated link like any
  // other message.
  void RegisterAsyncHandler(const NodeId& node, AsyncHandler handler);

  // A down node neither receives requests nor sends replies.
  void SetNodeUp(const NodeId& node, bool up);

  // Blocks traffic between a and b in both directions.
  void SetPartitioned(const NodeId& a, const NodeId& b, bool partitioned);

  // Deterministic injection hook for the simulation harness: consulted for
  // every message (request and reply legs) with a monotonically increasing
  // message index; return true to drop that message. Unlike
  // NetworkConfig::drop_probability, a hook keyed to the index reproduces
  // the same drops on every run of a schedule. The hook runs under the
  // network lock and must not call back into the network.
  using FaultHook = std::function<bool(const NodeId& from, const NodeId& to,
                                       const std::string& method, uint64_t message_index)>;
  void SetFaultHook(FaultHook hook);

  // Issues an RPC. The future is fulfilled with the handler's reply, or with
  // LogUnavailableError if the call times out (drop, partition, down node)
  // or the network is being destroyed.
  Future<std::string> Call(const NodeId& from, const NodeId& to, const std::string& method,
                           std::string request);

  // Total messages scheduled so far (requests + replies), for tests.
  uint64_t MessageCount() const;

 private:
  struct Event {
    int64_t due_micros;
    uint64_t sequence;  // FIFO tiebreak for equal timestamps
    std::function<void()> action;
    bool operator>(const Event& other) const {
      return std::tie(due_micros, sequence) > std::tie(other.due_micros, other.sequence);
    }
  };

  struct PendingCall {
    Promise<std::string> promise;
    bool done = false;  // delivery thread only, once the call is scheduled
  };

  // A call's timeout. Every call shares call_timeout_micros, so timeouts
  // fall due in the order they were scheduled: they queue FIFO beside the
  // event heap, and a settled call's timeout leaves as soon as it reaches
  // the front.
  struct Timeout {
    int64_t due_micros;
    uint64_t sequence;  // drawn from the events' sequence
    std::shared_ptr<PendingCall> call;
    NodeId to;
    std::string method;
  };

  void DeliveryLoop();
  void ScheduleLocked(int64_t delay_micros, std::function<void()> action);
  int64_t LatencyLocked();
  bool LinkOpenLocked(const NodeId& a, const NodeId& b);

  NetworkConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::deque<Timeout> timeouts_;
  // Shared so that a delivery copies a pointer, not the handler's closure.
  std::map<NodeId, std::shared_ptr<const AsyncHandler>> handlers_;
  std::set<NodeId> down_nodes_;
  std::set<std::pair<NodeId, NodeId>> partitions_;
  FaultHook fault_hook_;
  Rng rng_;
  uint64_t next_sequence_ = 0;
  uint64_t message_count_ = 0;
  bool shutdown_ = false;
  std::thread delivery_thread_;
};

}  // namespace delos

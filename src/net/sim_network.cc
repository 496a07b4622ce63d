#include "src/net/sim_network.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/common/errors.h"

namespace delos {

namespace {

std::pair<NodeId, NodeId> OrderedPair(const NodeId& a, const NodeId& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

SimNetwork::SimNetwork(NetworkConfig config) : config_(config), rng_(config.seed) {
  delivery_thread_ = std::thread([this] { DeliveryLoop(); });
}

SimNetwork::~SimNetwork() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  delivery_thread_.join();
  // Undelivered events own pending calls whose promises break when dropped,
  // and their continuations may call again (a sequencer retransmitting a
  // store). Drop them while every member is still alive; calls fail fast
  // once shut down, so each chain ends within its caller's retry budget.
  while (true) {
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> undelivered;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (events_.empty()) {
        break;
      }
      undelivered.swap(events_);
    }
  }
}

void SimNetwork::RegisterHandler(const NodeId& node, Handler handler) {
  RegisterAsyncHandler(node, [handler = std::move(handler)](const NodeId& from,
                                                            const std::string& method,
                                                            const std::string& request,
                                                            ReplyFn reply) {
    reply(handler(from, method, request));
  });
}

void SimNetwork::RegisterAsyncHandler(const NodeId& node, AsyncHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[node] = std::move(handler);
  down_nodes_.erase(node);
}

void SimNetwork::SetNodeUp(const NodeId& node, bool up) {
  std::lock_guard<std::mutex> lock(mu_);
  if (up) {
    down_nodes_.erase(node);
  } else {
    down_nodes_.insert(node);
  }
}

void SimNetwork::SetFaultHook(FaultHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_hook_ = std::move(hook);
}

void SimNetwork::SetPartitioned(const NodeId& a, const NodeId& b, bool partitioned) {
  std::lock_guard<std::mutex> lock(mu_);
  if (partitioned) {
    partitions_.insert(OrderedPair(a, b));
  } else {
    partitions_.erase(OrderedPair(a, b));
  }
}

uint64_t SimNetwork::MessageCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return message_count_;
}

int64_t SimNetwork::LatencyLocked() {
  int64_t base = config_.default_one_way_latency_micros;
  if (config_.jitter_micros > 0) {
    base += rng_.Uniform(0, config_.jitter_micros);
  }
  return base;
}

bool SimNetwork::LinkOpenLocked(const NodeId& a, const NodeId& b) {
  if (down_nodes_.count(a) != 0 || down_nodes_.count(b) != 0) {
    return false;
  }
  if (partitions_.count(OrderedPair(a, b)) != 0) {
    return false;
  }
  if (config_.drop_probability > 0.0 && rng_.Bernoulli(config_.drop_probability)) {
    return false;
  }
  return true;
}

Future<std::string> SimNetwork::Call(const NodeId& from, const NodeId& to,
                                     const std::string& method, std::string request) {
  auto call = std::make_shared<PendingCall>();
  Future<std::string> future = call->promise.GetFuture();

  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    // Fail outside the lock: the continuation may call again.
    lock.unlock();
    call->done = true;
    call->promise.SetException(
        std::make_exception_ptr(LogUnavailableError("network stopped: " + to + "/" + method)));
    return future;
  }
  const uint64_t request_index = ++message_count_;

  // Timeout covers drops, partitions, and down nodes uniformly.
  ScheduleLocked(config_.call_timeout_micros, [call, to, method] {
    if (!call->done) {
      call->done = true;
      call->promise.SetException(std::make_exception_ptr(
          LogUnavailableError("rpc timeout: " + to + "/" + method)));
    }
  });

  if (!LinkOpenLocked(from, to)) {
    return future;  // Dropped on the request path; the timeout will fire.
  }
  if (fault_hook_ != nullptr && fault_hook_(from, to, method, request_index)) {
    return future;  // Injected drop; the timeout will fire.
  }

  const int64_t request_latency = LatencyLocked();
  ScheduleLocked(request_latency, [this, call, from, to, method, request = std::move(request)] {
    AsyncHandler handler;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (down_nodes_.count(to) != 0) {
        return;  // Node died before delivery.
      }
      auto it = handlers_.find(to);
      if (it == handlers_.end()) {
        return;
      }
      handler = it->second;
    }
    ReplyFn reply_fn = [this, call, from, to, method](std::string reply) {
      std::lock_guard<std::mutex> lock(mu_);
      const uint64_t reply_index = ++message_count_;
      if (!LinkOpenLocked(to, from)) {
        return;  // Reply dropped; the timeout will fire.
      }
      if (fault_hook_ != nullptr && fault_hook_(to, from, method, reply_index)) {
        return;  // Injected drop; the timeout will fire.
      }
      const int64_t reply_latency = LatencyLocked();
      ScheduleLocked(reply_latency, [call, reply = std::move(reply)]() mutable {
        if (!call->done) {
          call->done = true;
          call->promise.SetValue(std::move(reply));
        }
      });
    };
    handler(from, method, request, std::move(reply_fn));
  });
  return future;
}

void SimNetwork::ScheduleLocked(int64_t delay_micros, std::function<void()> action) {
  events_.push(Event{RealClock::Instance()->NowMicros() + delay_micros, next_sequence_++,
                     std::move(action)});
  cv_.notify_all();
}

void SimNetwork::DeliveryLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (shutdown_) {
      return;
    }
    if (events_.empty()) {
      cv_.wait(lock, [&] { return shutdown_ || !events_.empty(); });
      continue;
    }
    const int64_t now = RealClock::Instance()->NowMicros();
    const Event& next = events_.top();
    if (next.due_micros > now) {
      cv_.wait_for(lock, std::chrono::microseconds(next.due_micros - now));
      continue;
    }
    auto action = std::move(const_cast<Event&>(next).action);
    events_.pop();
    lock.unlock();
    action();
    lock.lock();
  }
}

}  // namespace delos

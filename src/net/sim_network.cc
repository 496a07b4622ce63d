#include "src/net/sim_network.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/common/errors.h"
#include "src/common/thread_name.h"

namespace delos {

namespace {

std::pair<NodeId, NodeId> OrderedPair(const NodeId& a, const NodeId& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

SimNetwork::SimNetwork(NetworkConfig config) : config_(config), rng_(config.seed) {
  delivery_thread_ = std::thread([this] {
    SetCurrentThreadName("net-delivery");
    DeliveryLoop();
  });
}

SimNetwork::~SimNetwork() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  delivery_thread_.join();
  // Undelivered events and timeouts own pending calls whose promises break
  // when dropped, and their continuations may call again (a sequencer
  // retransmitting a store). Drop them while every member is still alive;
  // calls fail fast once shut down, so each chain ends within its caller's
  // retry budget.
  while (true) {
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> undelivered;
    std::deque<Timeout> unexpired;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (events_.empty() && timeouts_.empty()) {
        break;
      }
      undelivered.swap(events_);
      unexpired.swap(timeouts_);
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
  handlers_[node] = std::make_shared<const AsyncHandler>(std::move(handler));
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

  // Timeout covers drops, partitions, and down nodes uniformly. The
  // delivery loop sleeps without a deadline only while the heap and the
  // queue are both empty; otherwise it already waits for an earlier due
  // time than this one.
  if (events_.empty() && timeouts_.empty()) {
    cv_.notify_all();
  }
  timeouts_.push_back(Timeout{RealClock::Instance()->NowMicros() + config_.call_timeout_micros,
                              next_sequence_++, call, to, method});

  if (!LinkOpenLocked(from, to)) {
    return future;  // Dropped on the request path; the timeout will fire.
  }
  if (fault_hook_ != nullptr && fault_hook_(from, to, method, request_index)) {
    return future;  // Injected drop; the timeout will fire.
  }

  const int64_t request_latency = LatencyLocked();
  ScheduleLocked(request_latency, [this, call, from, to, method, request = std::move(request)] {
    std::shared_ptr<const AsyncHandler> handler;
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
    (*handler)(from, method, request, std::move(reply_fn));
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
    while (!timeouts_.empty() && timeouts_.front().call->done) {
      timeouts_.pop_front();
    }
    if (events_.empty() && timeouts_.empty()) {
      cv_.wait(lock, [&] { return shutdown_ || !events_.empty() || !timeouts_.empty(); });
      continue;
    }
    // The earlier of the heap's top and the oldest timeout, by (due,
    // sequence): the order one heap holding both would give.
    const bool timeout_next =
        !timeouts_.empty() &&
        (events_.empty() ||
         std::tie(timeouts_.front().due_micros, timeouts_.front().sequence) <
             std::tie(events_.top().due_micros, events_.top().sequence));
    const int64_t due = timeout_next ? timeouts_.front().due_micros : events_.top().due_micros;
    const int64_t now = RealClock::Instance()->NowMicros();
    if (due > now) {
      cv_.wait_for(lock, std::chrono::microseconds(due - now));
      continue;
    }
    if (timeout_next) {
      Timeout timeout = std::move(timeouts_.front());
      timeouts_.pop_front();
      lock.unlock();
      timeout.call->done = true;
      timeout.call->promise.SetException(std::make_exception_ptr(
          LogUnavailableError("rpc timeout: " + timeout.to + "/" + timeout.method)));
      lock.lock();
      continue;
    }
    auto action = std::move(const_cast<Event&>(events_.top()).action);
    events_.pop();
    lock.unlock();
    action();
    lock.lock();
  }
}

}  // namespace delos

// Single-threaded deadline scheduler: run a callback after a delay.
// Used by the chaos/delay log wrappers and engine background timers.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/clock.h"
#include "src/common/thread_name.h"

namespace delos {

class TimerScheduler {
 public:
  TimerScheduler() : thread_([this] {
    SetCurrentThreadName("timer-sched");
    Loop();
  }) {}

  ~TimerScheduler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  TimerScheduler(const TimerScheduler&) = delete;
  TimerScheduler& operator=(const TimerScheduler&) = delete;

  // Runs fn on the scheduler thread after delay_micros. Callbacks must not
  // block for long; they share one thread.
  void Schedule(int64_t delay_micros, std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) {
        return;
      }
      tasks_.push(Task{RealClock::Instance()->NowMicros() + delay_micros, next_seq_++,
                       std::move(fn)});
    }
    cv_.notify_all();
  }

 private:
  struct Task {
    int64_t due_micros;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Task& other) const {
      return std::tie(due_micros, seq) > std::tie(other.due_micros, other.seq);
    }
  };

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (shutdown_) {
        return;
      }
      if (tasks_.empty()) {
        cv_.wait(lock, [&] { return shutdown_ || !tasks_.empty(); });
        continue;
      }
      const int64_t now = RealClock::Instance()->NowMicros();
      if (tasks_.top().due_micros > now) {
        cv_.wait_for(lock, std::chrono::microseconds(tasks_.top().due_micros - now));
        continue;
      }
      auto fn = std::move(const_cast<Task&>(tasks_.top()).fn);
      tasks_.pop();
      lock.unlock();
      fn();
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Task, std::vector<Task>, std::greater<Task>> tasks_;
  uint64_t next_seq_ = 0;
  bool shutdown_ = false;
  std::thread thread_;
};

}  // namespace delos

// ApplyProfiler: per-layer accounting of apply-thread time.
//
// Figure 7 of the paper samples the apply thread's stack fleet-wide and
// reports, per engine, the fraction of samples that include that engine's
// apply frame. We measure the same quantity deterministically: every layer
// wraps its apply work in a Scope; the profiler accumulates *inclusive*
// time per label plus the total busy time, and the Figure 7 bench reports
// inclusive-share percentages (a stack sample includes a frame iff that
// frame is on the stack, i.e. with probability proportional to its
// inclusive time).
//
// Time comes from the RealClock: the profiler measures real apply-thread
// cost, and fig7 and perfbench read its shares. The hot path is sharded:
// each label resolves once to a per-label atomic slot (shared-lock lookup;
// the exclusive lock is only taken to insert a new label), so concurrent
// scopes never serialize the apply batch loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "src/common/clock.h"

namespace delos {

class ApplyProfiler {
 public:
  class Scope {
   public:
    // A null profiler makes the scope a no-op, so layers can be profiled
    // only when a bench asks for it.
    Scope(ApplyProfiler* profiler, const std::string& label)
        : profiler_(profiler),
          slot_(profiler != nullptr ? profiler->LabelSlot(label) : nullptr),
          start_micros_(profiler != nullptr ? profiler->NowMicros() : 0) {}

    // Hot-path variant: the caller resolved the slot once (LabelSlot) and
    // reuses it, skipping the shared-lock label lookup on every record.
    Scope(ApplyProfiler* profiler, std::atomic<int64_t>* slot)
        : profiler_(profiler),
          slot_(slot),
          start_micros_(profiler != nullptr ? profiler->NowMicros() : 0) {}

    ~Scope() {
      if (profiler_ != nullptr) {
        slot_->fetch_add(profiler_->NowMicros() - start_micros_, std::memory_order_relaxed);
      }
    }

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ApplyProfiler* profiler_;
    std::atomic<int64_t>* slot_;
    int64_t start_micros_;
  };

  int64_t NowMicros() const { return RealClock::Instance()->NowMicros(); }

  // Adds to the total apply-thread busy time (recorded once per group-commit
  // batch by the BaseEngine, spanning beginTX..promise settlement).
  void RecordBusy(int64_t micros) {
    total_busy_micros_.fetch_add(micros, std::memory_order_relaxed);
  }

  std::map<std::string, int64_t> InclusiveMicros() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::map<std::string, int64_t> snapshot;
    for (const auto& [label, slot] : slots_) {
      snapshot[label] = slot->load(std::memory_order_relaxed);
    }
    return snapshot;
  }

  int64_t TotalBusyMicros() const { return total_busy_micros_.load(std::memory_order_relaxed); }

  void Reset() {
    std::unique_lock<std::shared_mutex> lock(mu_);
    for (auto& [_, slot] : slots_) {
      slot->store(0, std::memory_order_relaxed);
    }
    total_busy_micros_.store(0, std::memory_order_relaxed);
  }

  // Resolves a label to its accumulator. The common case (label already
  // registered) takes only the shared lock; the slot pointer stays stable
  // for the profiler's lifetime (Reset zeroes slots in place), so callers on
  // a per-record path resolve once and construct Scopes from the raw slot.
  std::atomic<int64_t>* LabelSlot(const std::string& label) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = slots_.find(label);
      if (it != slots_.end()) {
        return it->second.get();
      }
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto& slot = slots_[label];
    if (slot == nullptr) {
      slot = std::make_unique<std::atomic<int64_t>>(0);
    }
    return slot.get();
  }

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<std::atomic<int64_t>>> slots_;
  std::atomic<int64_t> total_busy_micros_{0};
};

}  // namespace delos

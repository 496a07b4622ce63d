// BatchingEngine (paper §4.4, 2020; production in Zelos, reusable by both
// databases with zero customization).
//
// Accumulates concurrent proposals and proposes them as one batch entry.
// Placement in the engine stack is what enables *group commit*: the whole
// batch is applied within a single LocalStore transaction (one BaseEngine
// entry = one transaction), unlike batching below the stack, where the
// BaseEngine would open a transaction per sub-entry, or batching in the
// database, which each application would have to re-implement.
//
// A batch is flushed when it reaches `max_batch_entries` or when the oldest
// entry has waited `max_delay_micros` (the accumulation latency visible in
// the Figure 11 dashboard).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "src/common/scheduler.h"
#include "src/core/stackable_engine.h"

namespace delos {

class BatchingEngine : public StackableEngine {
 public:
  struct Options {
    size_t max_batch_entries = 64;
    int64_t max_delay_micros = 500;
    bool start_enabled = true;
    // Clock for health math (open-batch age). Defaults to RealClock; the
    // flush timer itself stays on the TimerScheduler.
    Clock* clock = nullptr;
  };

  BatchingEngine(Options options, IEngine* downstream, LocalStore* store);
  ~BatchingEngine() override;

  Future<std::any> Propose(LogEntry entry) override;

  // Judges the age of the open batch (soft state under mu_).
  HealthReport HealthCheck() const override;

  uint64_t batches_proposed() const { return batches_proposed_.load(std::memory_order_relaxed); }
  uint64_t entries_batched() const { return entries_batched_.load(std::memory_order_relaxed); }

 protected:
  void OnProbeAttached(const Probe& probe) override;
  std::any ApplyControl(RWTxn& txn, const EngineHeader& header, const LogEntry& entry,
                        LogPos pos) override;
  void PostApplyControl(const EngineHeader& header, const LogEntry& entry, LogPos pos) override;

 private:
  static constexpr uint64_t kMsgTypeBatch = 1;

  struct Waiter {
    std::shared_ptr<Promise<std::any>> promise;
    // The sub-entry's trace context, opened when it entered the queue (a
    // root frame when this engine minted its id).
    ProposeFrame frame;
  };

  void FlushLocked(std::unique_lock<std::mutex>& lock);

  Options options_;
  // Live queue depth ("how full is the open batch right now"), null without
  // a registry.
  Gauge* queue_depth_gauge_ = nullptr;
  mutable std::mutex mu_;
  std::vector<LogEntry> batch_entries_;
  std::vector<Waiter> batch_waiters_;
  uint64_t batch_ticket_ = 0;  // identifies the open batch for the timer
  // Injected-clock time the open batch received its first entry (0 when no
  // batch is open); HealthCheck's queue-age verdict reads it under mu_.
  int64_t open_batch_since_micros_ = 0;
  std::atomic<uint64_t> batches_proposed_{0};
  std::atomic<uint64_t> entries_batched_{0};
  TimerScheduler scheduler_;

  // Apply-thread-only scratch parked per position: decoded sub-entries of an
  // applied batch and whether each sub-apply ran (for postApply forwarding).
  struct AppliedBatch {
    std::vector<LogEntry> entries;
    std::vector<bool> ok;
  };
  ApplyCarry<AppliedBatch> applying_carry_;
};

}  // namespace delos

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
// The log paces the batches (group commit), so the batch size follows the
// load rather than a clock:
//  * a proposal that finds no batch in flight flushes at once, so a lone
//    writer pays no accumulation delay;
//  * an open batch that reaches `max_batch_entries` entries or
//    `kMaxBatchBytes` serialized bytes flushes at once, even while other
//    batches are in flight;
//  * any other open batch waits, and flushes when the last in-flight batch's
//    downstream future settles (with a value or an error).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "src/core/stackable_engine.h"

namespace delos {

class BatchingEngine : public StackableEngine {
 public:
  struct Options {
    size_t max_batch_entries = 64;
    bool start_enabled = true;
    // Clock for health math (open-batch age). Defaults to RealClock.
    Clock* clock = nullptr;
  };

  // An open batch whose sub-entries serialize to at least this many bytes
  // flushes without waiting for the in-flight batches.
  static constexpr size_t kMaxBatchBytes = 1 << 20;

  BatchingEngine(Options options, IEngine* downstream, LocalStore* store);
  ~BatchingEngine() override;

  Future<std::any> Propose(LogEntry entry) override;

  // Judges the age of the open batch. An open batch waits only on an
  // in-flight batch, so an old one means the downstream is wedged.
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
    Promise<std::any> promise;
    // The sub-entry's trace context, opened when it entered the queue (a
    // root frame when this engine minted its id).
    ProposeFrame frame;
  };

  struct Batch {
    std::vector<LogEntry> entries;
    std::vector<Waiter> waiters;
  };

  // The open batch and the in-flight count, shared with the completion
  // callbacks of in-flight batches (which may outlive the engine).
  struct Pacing;

  // Proposes the open batch for as long as one is due. Called and returns
  // with the pacing lock held.
  void FlushDue(std::unique_lock<std::mutex>& lock);
  // Moves the open batch out and counts it in flight (pacing lock held).
  Batch TakeOpenBatch();
  // Proposes one batch downstream; its completion releases the pacing and
  // settles the waiters.
  void ProposeBatch(Batch batch);

  Options options_;
  // Live queue depth ("how full is the open batch right now"), null without
  // a registry.
  Gauge* queue_depth_gauge_ = nullptr;
  std::shared_ptr<Pacing> pacing_;
  std::atomic<uint64_t> batches_proposed_{0};
  std::atomic<uint64_t> entries_batched_{0};

  // Apply-thread-only scratch parked per position: decoded sub-entries of an
  // applied batch and whether each sub-apply ran (for postApply forwarding).
  struct AppliedBatch {
    std::vector<LogEntry> entries;
    std::vector<bool> ok;
  };
  ApplyCarry<AppliedBatch> applying_carry_;
};

}  // namespace delos

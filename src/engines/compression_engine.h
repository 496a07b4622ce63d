// CompressionEngine: a pure protocol layer demonstrating the entry-mutation
// capability of log-structured protocols (§1: an engine can "batch, encrypt,
// compress, or otherwise mutate entries en route to lower layers").
//
// On propose, application payloads at or above a size threshold are
// compressed and the engine's header records that fact; on apply, the
// payload is restored before the entry continues upstream — the layers above
// (and the application) never know. Stateless (State/Prot: No/Yes, like the
// ObserverEngine).
#pragma once

#include <atomic>

#include "src/core/stackable_engine.h"

namespace delos {

class CompressionEngine : public StackableEngine {
 public:
  struct Options {
    // Payloads shorter than this are passed through unchanged.
    size_t min_payload_bytes = 64;
    bool start_enabled = true;
  };

  CompressionEngine(Options options, IEngine* downstream, LocalStore* store);

  uint64_t bytes_in() const { return bytes_in_.load(std::memory_order_relaxed); }
  uint64_t bytes_out() const { return bytes_out_.load(std::memory_order_relaxed); }

 protected:
  void OnPropose(LogEntry* entry) override;
  std::any ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) override;
  void PostApplyData(const LogEntry& entry, LogPos pos) override;

 private:
  // Header blob: "1" = payload compressed, "0" = passthrough.
  Options options_;
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  // Apply-thread scratch parked per position: the decompressed entry
  // forwarded upstream for an applied entry (postApply must forward the same
  // view). Empty optional = the original entry was forwarded unchanged.
  ApplyCarry<std::optional<LogEntry>> decompressed_carry_;
};

}  // namespace delos

// SessionOrderEngine (paper §4.3, 2020; production in Zelos).
//
// Enforces ZooKeeper's session-ordering guarantee (stronger than
// linearizability: within a session, a read issued after a write — even
// concurrently — must reflect it) and exactly-once execution.
//
//  * Outgoing proposals are stamped with a per-session sequence number.
//  * On apply, entries must arrive in sequence order. A duplicate
//    (seq < expected) is filtered — exactly-once. A gap (seq > expected)
//    means the log reordered entries (leader change in the log
//    implementation, stack code change, ...): the entry is filtered and the
//    proposing server re-proposes everything since the disorder event with
//    the *same* sequence numbers.
//  * Unlike other engines, propose is not 1:1 with a sub-stack propose
//    (retries), so the engine does its own RPC bookkeeping: each propose is
//    completed from postApply directly — the short-circuit visible in the
//    Figure 11 dashboard, where this engine's propose latency can sit below
//    the BaseEngine's. PostApply hands the promise down the stack
//    (CompleteAfterPublish), and the BaseEngine settles it once the batch
//    is published, ahead of its own proposers.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/core/stackable_engine.h"

namespace delos {

class SessionOrderEngine : public StackableEngine {
 public:
  struct Options {
    std::string server_id;
    bool start_enabled = true;
    // Clock for health math (oldest-pending age). Defaults to RealClock.
    Clock* clock = nullptr;
  };

  SessionOrderEngine(Options options, IEngine* downstream, LocalStore* store);

  Future<std::any> Propose(LogEntry entry) override;

  // Judges the age of the oldest pending (stamped, not yet applied-in-order)
  // proposal.
  HealthReport HealthCheck() const override;

  // Observability: disorder events detected (gaps) and duplicates filtered.
  uint64_t disorder_events() const;
  uint64_t duplicates_filtered() const;

 protected:
  std::any ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) override;
  void PostApplyData(const LogEntry& entry, LogPos pos) override;

 private:
  struct PendingPropose {
    LogEntry stamped_entry;  // retains the original sequence number
    Promise<std::any> promise;
    // Sub-stack append failures survived so far (see ProposeStamped).
    int append_retries = 0;
    // Injected-clock time the proposal was stamped (HealthCheck age base).
    int64_t stamped_micros = 0;
  };

  enum class Outcome { kNone, kApplied, kDuplicate, kGap };

  // Apply-thread scratch connecting Apply to PostApply for one entry, parked
  // per log position because the group-commit pipeline applies a whole batch
  // before running any postApply.
  struct Carried {
    Outcome outcome = Outcome::kNone;
    bool was_ours = false;
    uint64_t seq = 0;
    std::any result;
  };

  std::any ApplyDataImpl(RWTxn& txn, const LogEntry& entry, LogPos pos, Carried& carried);
  void ReproposeFrom(uint64_t first_seq);
  // Proposes a seq-stamped entry into the sub-stack, retrying the SAME
  // stamped entry (same sequence number) on append failure. Without the
  // retry, a lost append would leave a permanent hole in the session
  // sequence: that seq never commits, so every later entry from this
  // session applies as a gap and is filtered forever. Exactly-once makes
  // the retry safe — if the failure was ambiguous (the entry actually
  // committed), the duplicate is filtered on apply.
  void ProposeStamped(LogEntry stamped, uint64_t seq);

  Options options_;
  // The session id: unique per engine incarnation so replayed entries from a
  // previous life never interleave with this life's sequence space.
  std::string session_id_;

  mutable std::mutex pending_mu_;
  std::map<uint64_t, PendingPropose> pending_;
  uint64_t next_seq_ = 1;

  std::atomic<uint64_t> disorder_events_{0};
  std::atomic<uint64_t> duplicates_filtered_{0};

  ApplyCarry<Carried> carry_;
};

}  // namespace delos

// LeaseEngine (paper §4.4, 2021).
//
// The BaseEngine is leaderless: any server proposes, and a strongly
// consistent read costs a sync (a round trip to the shared log). The
// LeaseEngine elects a *designated proposer* above the shared log: while a
// server holds a valid lease, its sync returns immediately from the local
// store — 0-RTT strongly consistent reads (the 100× latency drop of Figure
// 10) — and data proposals from every other server are deterministically
// rejected at apply time, which is what makes the local read safe (every
// completed write went through the holder's own propose, which returns only
// after the holder applied it locally).
//
// Lease state machine (all transitions via the log, hence consistent even
// across enable/disable, as the paper's Figure 10 experiment stresses):
//  * ACQUIRE(server): grants if the lease is free; renews if `server`
//    already holds it. Each grant/renewal bumps renewal_seq.
//  * EXPIRE(epoch, renewal_seq): proposed by a server that has observed no
//    renewal for ttl + epsilon on its own clock since *it applied* the last
//    renewal; valid only if (epoch, renewal_seq) still match — i.e. no
//    renewal slipped in — and frees the lease.
//
// Clock-skew safety: the holder treats its lease as valid for
// ttl - epsilon after it applied its own renewal; an expirer waits
// ttl + epsilon after applying that same renewal, and the apply necessarily
// happened after the holder's stamp. With epsilon >= the maximum clock-rate
// divergence over a ttl, the holder always stops serving local reads before
// anyone can free the lease (property-tested in lease_engine_test).
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/clock.h"
#include "src/core/stackable_engine.h"

namespace delos {

class LeaseEngine : public StackableEngine {
 public:
  struct Options {
    std::string server_id;
    int64_t lease_ttl_micros = 500'000;
    // Safety guard subtracted from the holder's validity window and added to
    // the expirer's patience.
    int64_t guard_epsilon_micros = 50'000;
    // When true, the engine renews its own lease in the background while it
    // is the holder.
    bool auto_renew = true;
    Clock* clock = nullptr;  // defaults to RealClock
    bool start_enabled = true;
  };

  LeaseEngine(Options options, IEngine* downstream, LocalStore* store);
  ~LeaseEngine() override;

  // Proposes an ACQUIRE for this server. Resolves to true if granted (or
  // renewed), false if another server holds the lease.
  Future<std::any> AcquireLease();

  // Proposes EXPIRE if this server has observed the current holder silent
  // long enough; then tries to acquire. Returns true once this server holds
  // the lease. Used for takeover after a holder failure.
  bool TryTakeover();

  // 0-RTT when this server holds a valid lease; falls through to the
  // sub-stack otherwise.
  Future<ROTxn> Sync() override;
  Future<std::any> Propose(LogEntry entry) override;

  bool HoldsValidLease() const;
  std::string CurrentHolder() const;

  // Judges lease liveness: held-but-expired without renewal (renew loop dead
  // or propose path wedged), or another holder silent past ttl + epsilon
  // (takeover candidate). Both are DEGRADED — syncs still work, they just
  // lose the 0-RTT fast path.
  HealthReport HealthCheck() const override;

 protected:
  void OnProbeAttached(const Probe& probe) override;
  void OnPropose(LogEntry* entry) override;
  std::any ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) override;
  std::any ApplyControl(RWTxn& txn, const EngineHeader& header, const LogEntry& entry,
                        LogPos pos) override;
  void PostApplyControl(const EngineHeader& header, const LogEntry& entry, LogPos pos) override;

 private:
  static constexpr uint64_t kMsgTypeAcquire = 1;
  static constexpr uint64_t kMsgTypeExpire = 2;

  struct LeaseState {
    std::string holder;
    uint64_t epoch = 0;
    uint64_t renewal_seq = 0;
    std::string Encode() const;
    static LeaseState Decode(std::string_view bytes);
  };

  LeaseState ReadState(RWTxn& txn) const;
  LeaseState ReadStateSnapshot() const;
  void RenewLoopMain();

  Options options_;
  Clock* clock_;
  // Live count of granted leases as seen by this replica (0 or 1), null
  // without a registry.
  Gauge* active_gauge_ = nullptr;

  // Soft, replica-local view maintained in postApply.
  mutable std::mutex soft_mu_;
  bool held_by_self_ = false;
  int64_t valid_until_micros_ = 0;     // local-clock validity when we hold it
  uint64_t observed_epoch_ = 0;        // last holder state we applied
  uint64_t observed_renewal_seq_ = 0;
  std::string observed_holder_;
  int64_t observed_at_micros_ = 0;     // local-clock time we applied it

  // Apply-thread scratch parked per position: did an applied entry grant or
  // renew the lease for us?
  struct LeaseCarry {
    bool acquired_self = false;
    bool renewed_self = false;
  };
  ApplyCarry<LeaseCarry> lease_carry_;

  std::atomic<bool> shutdown_{false};
  std::thread renew_thread_;
};

}  // namespace delos

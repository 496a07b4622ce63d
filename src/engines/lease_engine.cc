#include "src/engines/lease_engine.h"

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/common/thread_name.h"

namespace delos {

namespace {

constexpr char kEngineName[] = "lease";

std::string EncodeExpire(uint64_t epoch, uint64_t renewal_seq) {
  Serializer ser;
  ser.WriteVarint(epoch);
  ser.WriteVarint(renewal_seq);
  return ser.Release();
}

}  // namespace

std::string LeaseEngine::LeaseState::Encode() const {
  Serializer ser;
  ser.WriteString(holder);
  ser.WriteVarint(epoch);
  ser.WriteVarint(renewal_seq);
  return ser.Release();
}

LeaseEngine::LeaseState LeaseEngine::LeaseState::Decode(std::string_view bytes) {
  Deserializer de(bytes);
  LeaseState state;
  state.holder = de.ReadString();
  state.epoch = de.ReadVarint();
  state.renewal_seq = de.ReadVarint();
  return state;
}

LeaseEngine::LeaseEngine(Options options, IEngine* downstream, LocalStore* store)
    : StackableEngine(kEngineName, downstream, store,
                      StackableEngineOptions{options.start_enabled}),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : RealClock::Instance()) {
  if (options_.auto_renew) {
    renew_thread_ = std::thread([this] {
      SetCurrentThreadName("lease-renew");
      RenewLoopMain();
    });
  }
}

void LeaseEngine::OnProbeAttached(const Probe& probe) {
  active_gauge_ = probe.GetGauge("lease.active");
}

LeaseEngine::~LeaseEngine() {
  shutdown_.store(true, std::memory_order_release);
  if (renew_thread_.joinable()) {
    renew_thread_.join();
  }
}

LeaseEngine::LeaseState LeaseEngine::ReadState(RWTxn& txn) const {
  auto self = const_cast<LeaseEngine*>(this);
  auto bytes = txn.Get(self->space().Key("state"));
  return bytes.has_value() ? LeaseState::Decode(*bytes) : LeaseState{};
}

LeaseEngine::LeaseState LeaseEngine::ReadStateSnapshot() const {
  auto self = const_cast<LeaseEngine*>(this);
  auto bytes = self->store()->Snapshot().Get(self->space().Key("state"));
  return bytes.has_value() ? LeaseState::Decode(*bytes) : LeaseState{};
}

Future<std::any> LeaseEngine::AcquireLease() {
  Serializer ser;
  ser.WriteString(options_.server_id);
  return ProposeControl(kMsgTypeAcquire, ser.Release());
}

bool LeaseEngine::HoldsValidLease() const {
  std::lock_guard<std::mutex> lock(soft_mu_);
  return held_by_self_ && clock_->NowMicros() < valid_until_micros_;
}

std::string LeaseEngine::CurrentHolder() const { return ReadStateSnapshot().holder; }

Future<ROTxn> LeaseEngine::Sync() {
  if (enabled() && HoldsValidLease()) {
    // 0-RTT strongly consistent read: every completed write was proposed by
    // us (others are rejected at apply) and is already in our local store.
    return MakeReadyFuture<ROTxn>(store()->Snapshot());
  }
  return downstream()->Sync();
}

void LeaseEngine::OnPropose(LogEntry* entry) {
  // Stamp the proposer; apply uses it to enforce the designated proposer.
  Serializer ser;
  ser.WriteString(options_.server_id);
  entry->SetHeader(name(), EngineHeader{kMsgTypeApp, ser.Release()});
}

Future<std::any> LeaseEngine::Propose(LogEntry entry) {
  if (enabled()) {
    const LeaseState state = ReadStateSnapshot();
    if (!state.holder.empty() && state.holder != options_.server_id) {
      // Fast local fail (the apply-side check is authoritative).
      return MakeErrorFuture<std::any>(std::make_exception_ptr(ProposeRejectedError(
          "lease held by " + state.holder + "; proposals must go through the holder")));
    }
  }
  return StackableEngine::Propose(std::move(entry));
}

std::any LeaseEngine::ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  const LeaseState state = ReadState(txn);
  if (!state.holder.empty()) {
    const std::optional<EngineHeaderView>& header = apply_header();
    if (header.has_value()) {
      Deserializer de(header->blob);
      const std::string proposer = de.ReadString();
      if (proposer != state.holder) {
        // Deterministic rejection on every replica: the entry is filtered
        // and the proposer's propose gets an exception.
        return std::any(ApplyError{std::make_exception_ptr(
            ProposeRejectedError("lease held by " + state.holder))});
      }
    }
  }
  return CallUpstream(txn, entry, pos);
}

std::any LeaseEngine::ApplyControl(RWTxn& txn, const EngineHeader& header, const LogEntry& entry,
                                   LogPos pos) {
  const std::string state_key = space().Key("state");

  if (header.msgtype == kMsgTypeAcquire) {
    Deserializer de(header.blob);
    const std::string requester = de.ReadString();
    LeaseState state = ReadState(txn);
    LeaseCarry carry;
    if (state.holder.empty()) {
      state.holder = requester;
      state.epoch += 1;
      state.renewal_seq += 1;
      txn.Put(state_key, state.Encode());
      carry.acquired_self = (requester == options_.server_id);
      lease_carry_.Push(pos, carry);
      probe().Record(FlightEventKind::kLease, "granted to " + requester, 0, pos, state.epoch);
      return std::any(true);
    }
    if (state.holder == requester) {
      state.renewal_seq += 1;
      txn.Put(state_key, state.Encode());
      carry.renewed_self = (requester == options_.server_id);
      lease_carry_.Push(pos, carry);
      return std::any(true);
    }
    return std::any(false);
  }

  if (header.msgtype == kMsgTypeExpire) {
    Deserializer de(header.blob);
    const uint64_t epoch = de.ReadVarint();
    const uint64_t renewal_seq = de.ReadVarint();
    LeaseState state = ReadState(txn);
    if (!state.holder.empty() && state.epoch == epoch && state.renewal_seq == renewal_seq) {
      // No renewal since the expirer's observation: free the lease.
      LOG_INFO << "lease: holder " << state.holder << " expired (epoch " << epoch << ")";
      probe().Record(FlightEventKind::kLease, "expired holder " + state.holder, 0, pos, epoch);
      state.holder.clear();
      txn.Put(state_key, state.Encode());
      return std::any(true);
    }
    return std::any(false);
  }
  return std::any(Unit{});
}

void LeaseEngine::PostApplyControl(const EngineHeader& header, const LogEntry& entry,
                                   LogPos pos) {
  const LeaseCarry carry = lease_carry_.Take(pos).value_or(LeaseCarry{});
  const LeaseState state = ReadStateSnapshot();
  if (active_gauge_ != nullptr) {
    // This replica's view of how many leases are currently granted (0 or 1).
    active_gauge_->Set(state.holder.empty() ? 0 : 1);
  }
  std::lock_guard<std::mutex> lock(soft_mu_);
  const int64_t now = clock_->NowMicros();
  observed_epoch_ = state.epoch;
  observed_renewal_seq_ = state.renewal_seq;
  observed_holder_ = state.holder;
  observed_at_micros_ = now;
  if (carry.acquired_self || carry.renewed_self) {
    held_by_self_ = true;
    valid_until_micros_ = now + options_.lease_ttl_micros - options_.guard_epsilon_micros;
  } else if (state.holder != options_.server_id) {
    held_by_self_ = false;
    valid_until_micros_ = 0;
  }
}

bool LeaseEngine::TryTakeover() {
  // Wait until the last-applied renewal is stale on our clock, then expire
  // and acquire.
  uint64_t epoch;
  uint64_t renewal_seq;
  std::string holder;
  int64_t observed_at;
  {
    std::lock_guard<std::mutex> lock(soft_mu_);
    epoch = observed_epoch_;
    renewal_seq = observed_renewal_seq_;
    holder = observed_holder_;
    observed_at = observed_at_micros_;
  }
  if (holder.empty()) {
    try {
      return std::any_cast<bool>(AcquireLease().Get());
    } catch (const std::exception&) {
      return false;
    }
  }
  if (holder == options_.server_id) {
    return true;
  }
  const int64_t patience = options_.lease_ttl_micros + options_.guard_epsilon_micros;
  while (clock_->NowMicros() - observed_at < patience) {
    if (shutdown_.load(std::memory_order_acquire)) {
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(soft_mu_);
      if (observed_renewal_seq_ != renewal_seq || observed_epoch_ != epoch) {
        return false;  // The holder renewed; takeover aborted.
      }
    }
    RealClock::Instance()->SleepMicros(1000);
  }
  try {
    ProposeControl(kMsgTypeExpire, EncodeExpire(epoch, renewal_seq)).Get();
    return std::any_cast<bool>(AcquireLease().Get());
  } catch (const std::exception&) {
    return false;
  }
}

HealthReport LeaseEngine::HealthCheck() const {
  bool held;
  int64_t valid_until;
  std::string holder;
  int64_t observed_at;
  {
    std::lock_guard<std::mutex> lock(soft_mu_);
    held = held_by_self_;
    valid_until = valid_until_micros_;
    holder = observed_holder_;
    observed_at = observed_at_micros_;
  }
  HealthReport report{name(), HealthState::kOk, "", 0};
  const int64_t now = clock_->NowMicros();
  if (held) {
    if (now >= valid_until) {
      const int64_t overdue = now - valid_until;
      report.state = HealthState::kDegraded;
      report.reason = "held lease expired " + std::to_string(overdue) +
                      "us ago without renewal";
      report.value = overdue;
    }
    return report;
  }
  if (!holder.empty() && holder != options_.server_id && observed_at > 0) {
    const int64_t silent = now - observed_at;
    const int64_t patience = options_.lease_ttl_micros + options_.guard_epsilon_micros;
    if (silent > patience) {
      report.state = HealthState::kDegraded;
      report.reason = "holder " + holder + " silent " + std::to_string(silent) +
                      "us (takeover candidate)";
      report.value = silent;
    }
  }
  return report;
}

void LeaseEngine::RenewLoopMain() {
  const int64_t interval = std::max<int64_t>(options_.lease_ttl_micros / 3, 1000);
  int64_t last_renew = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    const int64_t now = clock_->NowMicros();
    bool should_renew = false;
    {
      std::lock_guard<std::mutex> lock(soft_mu_);
      should_renew = held_by_self_ && (now - last_renew >= interval);
    }
    if (should_renew && enabled()) {
      last_renew = now;
      AcquireLease();  // Renewal; fire and forget.
    }
    RealClock::Instance()->SleepMicros(1000);
  }
}

}  // namespace delos

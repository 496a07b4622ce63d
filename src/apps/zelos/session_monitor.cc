#include "src/apps/zelos/session_monitor.h"

#include "src/common/logging.h"
#include "src/common/thread_name.h"

namespace delos::zelos {

SessionMonitor::SessionMonitor(ZelosClient* client, LocalStore* store, Options options)
    : client_(client),
      store_(store),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : RealClock::Instance()) {
  thread_ = std::thread([this] {
    SetCurrentThreadName("session-monitor");
    MonitorLoop();
  });
}

SessionMonitor::~SessionMonitor() {
  shutdown_.store(true, std::memory_order_release);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void SessionMonitor::MonitorLoop() {
  while (!shutdown_.load(std::memory_order_acquire)) {
    CheckOnce();
    RealClock::Instance()->SleepMicros(options_.check_interval_micros);
  }
}

void SessionMonitor::CheckOnce() {
  ROTxn snapshot = store_->Snapshot();
  const int64_t now = clock_->NowMicros();
  std::map<SessionId, Observation> live;
  std::vector<SessionId> to_expire;

  for (const auto& [key, record] : snapshot.ScanPrefix(ZelosApplicator::kSessionPrefix)) {
    const SessionId id = ZelosApplicator::SessionIdFromKey(key);
    const int64_t timeout = ZelosApplicator::DecodeSessionTimeout(record);
    const std::string heartbeat =
        snapshot.Get(ZelosApplicator::HeartbeatKey(id)).value_or("");
    auto it = observations_.find(id);
    if (it == observations_.end() || it->second.heartbeat_state != heartbeat) {
      // First sighting or fresh heartbeat: restart the countdown.
      live[id] = Observation{heartbeat, now, timeout};
      continue;
    }
    live[id] = it->second;
    if (timeout > 0 && now - it->second.observed_at_micros > timeout) {
      to_expire.push_back(id);
    }
  }
  observations_ = std::move(live);

  for (const SessionId id : to_expire) {
    try {
      client_->ExpireSession(id);
      expired_.fetch_add(1, std::memory_order_relaxed);
      observations_.erase(id);
      LOG_INFO << "session monitor: expired session " << id;
    } catch (const std::exception& e) {
      LOG_WARNING << "session monitor: expire " << id << " failed: " << e.what();
    }
  }
}

}  // namespace delos::zelos

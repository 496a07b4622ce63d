#include "src/engines/view_tracking_engine.h"

#include <algorithm>

#include "src/common/serde.h"
#include "src/common/thread_name.h"

namespace delos {

namespace {

constexpr char kEngineName[] = "viewtracking";

std::string EncodePositionHeader(const std::string& server, LogPos durable) {
  Serializer ser;
  ser.WriteString(server);
  ser.WriteVarint(durable);
  return ser.Release();
}

std::string EncodePos(LogPos pos) {
  Serializer ser;
  ser.WriteVarint(pos);
  return ser.Release();
}

LogPos DecodePos(const std::string& bytes) {
  Deserializer de(bytes);
  return de.ReadVarint();
}

}  // namespace

ViewTrackingEngine::ViewTrackingEngine(Options options, IEngine* downstream, LocalStore* store)
    : StackableEngine(kEngineName, downstream, store,
                      StackableEngineOptions{options.start_enabled}),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : RealClock::Instance()) {
  if (options_.heartbeat_interval_micros > 0) {
    heartbeat_thread_ = std::thread([this] {
      SetCurrentThreadName("vt-heartbeat");
      HeartbeatLoopMain();
    });
  }
}

void ViewTrackingEngine::OnProbeAttached(const Probe& probe) {
  members_gauge_ = probe.GetGauge("viewtracking.members");
}

ViewTrackingEngine::~ViewTrackingEngine() {
  shutdown_.store(true, std::memory_order_release);
  if (heartbeat_thread_.joinable()) {
    heartbeat_thread_.join();
  }
}

void ViewTrackingEngine::HeartbeatLoopMain() {
  int64_t last = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    const int64_t now = RealClock::Instance()->NowMicros();
    if (now - last >= options_.heartbeat_interval_micros) {
      last = now;
      const LogPos durable =
          options_.durable_position != nullptr ? options_.durable_position() : 0;
      ProposeControl(kMsgTypeHeartbeat, EncodePositionHeader(options_.server_id, durable));
    }
    RealClock::Instance()->SleepMicros(
        std::min<int64_t>(options_.heartbeat_interval_micros / 4 + 1, 5000));
  }
}

void ViewTrackingEngine::ApplyPositionReport(RWTxn& txn, const std::string& server,
                                             LogPos durable) {
  const std::string view_key = space().Key("view/" + server);
  auto existing = txn.Get(view_key);
  const LogPos known = existing.has_value() ? DecodePos(*existing) : 0;
  // Positions only move forward; a lagging header (stamped before an
  // earlier one committed) must not regress the view.
  if (!existing.has_value() || durable > known) {
    txn.Put(view_key, EncodePos(durable));
  }
  if (!existing.has_value()) {
    probe().Record(FlightEventKind::kViewChange, "join " + server, 0, durable);
  }
  RecomputeTrimOpinion(txn);
  {
    std::lock_guard<std::mutex> lock(soft_mu_);
    last_seen_micros_[server] = clock_->NowMicros();
  }
}

void ViewTrackingEngine::OnPropose(LogEntry* entry) {
  const LogPos durable =
      options_.durable_position != nullptr ? options_.durable_position() : 0;
  entry->SetHeader(name(),
                   EngineHeader{kMsgTypeApp, EncodePositionHeader(options_.server_id, durable)});
}

std::any ViewTrackingEngine::ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  const std::optional<EngineHeaderView>& header = apply_header();
  if (header.has_value()) {
    Deserializer de(header->blob);
    const std::string server = de.ReadString();
    const LogPos durable = de.ReadVarint();
    ApplyPositionReport(txn, server, durable);
  }
  return CallUpstream(txn, entry, pos);
}

std::any ViewTrackingEngine::ApplyControl(RWTxn& txn, const EngineHeader& header,
                                          const LogEntry& entry, LogPos pos) {
  if (header.msgtype == kMsgTypeHeartbeat) {
    Deserializer de(header.blob);
    const std::string server = de.ReadString();
    const LogPos durable = de.ReadVarint();
    ApplyPositionReport(txn, server, durable);
    return std::any(Unit{});
  }
  if (header.msgtype == kMsgTypeEject) {
    Deserializer de(header.blob);
    const std::string server = de.ReadString();
    probe().Record(FlightEventKind::kViewChange, "eject " + server, 0, pos);
    txn.Delete(space().Key("view/" + server));
    RecomputeTrimOpinion(txn);
    std::lock_guard<std::mutex> lock(soft_mu_);
    last_seen_micros_.erase(server);
  }
  return std::any(Unit{});
}

void ViewTrackingEngine::RecomputeTrimOpinion(RWTxn& txn) {
  LogPos min_pos = kNoTrimConstraint;
  int64_t members = 0;
  txn.Scan(space().Key("view/"), space().Key("view0"),
           [&](std::string_view key, std::string_view value) {
             min_pos = std::min(min_pos, DecodePos(std::string(value)));
             members += 1;
             return true;
           });
  pending_trim_opinion_ = members > 0 ? min_pos : kNoTrimConstraint;
  if (members_gauge_ != nullptr) {
    members_gauge_->Set(members);
  }
}

void ViewTrackingEngine::PostApplyControl(const EngineHeader& header, const LogEntry& entry,
                                          LogPos pos) {
  if (pending_trim_opinion_ != kNoTrimConstraint) {
    SetOwnTrimOpinion(pending_trim_opinion_);
  }
  MaybeProposeEjections();
}

void ViewTrackingEngine::PostApplyData(const LogEntry& entry, LogPos pos) {
  // Relay the opinion computed during apply; doing it post-commit keeps the
  // trim decision based only on committed state.
  if (pending_trim_opinion_ != kNoTrimConstraint) {
    SetOwnTrimOpinion(pending_trim_opinion_);
  }
  MaybeProposeEjections();
  ForwardPostApply(entry, pos);
}

void ViewTrackingEngine::MaybeProposeEjections() {
  if (options_.eject_after_micros <= 0) {
    return;
  }
  const int64_t now = clock_->NowMicros();
  std::vector<std::string> to_eject;
  {
    std::lock_guard<std::mutex> lock(soft_mu_);
    for (const auto& [server, last_seen] : last_seen_micros_) {
      if (server == options_.server_id) {
        continue;
      }
      if (now - last_seen < options_.eject_after_micros) {
        continue;
      }
      auto& last_attempt = last_eject_attempt_micros_[server];
      if (now - last_attempt < options_.eject_after_micros) {
        continue;  // Rate-limit repeated ejection proposals.
      }
      last_attempt = now;
      to_eject.push_back(server);
    }
  }
  for (const std::string& server : to_eject) {
    Serializer ser;
    ser.WriteString(server);
    // Fire and forget; the command takes effect when applied.
    ProposeControl(kMsgTypeEject, ser.Release());
  }
}

std::map<std::string, LogPos> ViewTrackingEngine::View() const {
  std::map<std::string, LogPos> view;
  auto self = const_cast<ViewTrackingEngine*>(this);
  ROTxn snapshot = self->store()->Snapshot();
  const std::string prefix = self->space().Key("view/");
  for (const auto& [key, value] : snapshot.ScanPrefix(prefix)) {
    view[key.substr(prefix.size())] = DecodePos(value);
  }
  return view;
}

HealthReport ViewTrackingEngine::HealthCheck() const {
  HealthReport report{name(), HealthState::kOk, "", 0};
  if (options_.eject_after_micros <= 0) {
    return report;
  }
  const int64_t now = clock_->NowMicros();
  int64_t silent_members = 0;
  std::string worst;
  int64_t worst_silence = 0;
  {
    std::lock_guard<std::mutex> lock(soft_mu_);
    for (const auto& [server, last_seen] : last_seen_micros_) {
      if (server == options_.server_id) {
        continue;
      }
      const int64_t silence = now - last_seen;
      if (silence > options_.eject_after_micros) {
        ++silent_members;
        if (silence > worst_silence) {
          worst_silence = silence;
          worst = server;
        }
      }
    }
  }
  if (silent_members > 0) {
    report.state = HealthState::kDegraded;
    report.reason = std::to_string(silent_members) + " member(s) silent past ejection timeout (" +
                    worst + " " + std::to_string(worst_silence) + "us; trim held back)";
    report.value = silent_members;
  }
  return report;
}

LogPos ViewTrackingEngine::SafeTrimPosition() const {
  LogPos min_pos = kNoTrimConstraint;
  bool any = false;
  for (const auto& [server, pos] : View()) {
    min_pos = std::min(min_pos, pos);
    any = true;
  }
  return any ? min_pos : 0;
}

}  // namespace delos

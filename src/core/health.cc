#include "src/core/health.h"

#include <algorithm>
#include <chrono>

#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/thread_name.h"
#include "src/common/trace.h"
#include "src/common/metrics_ts.h"

namespace delos {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kOk:
      return "OK";
    case HealthState::kDegraded:
      return "DEGRADED";
    case HealthState::kUnhealthy:
      return "UNHEALTHY";
  }
  return "?";
}

HealthState AggregateHealth(const std::vector<HealthReport>& reports) {
  HealthState worst = HealthState::kOk;
  for (const HealthReport& report : reports) {
    if (static_cast<uint8_t>(report.state) > static_cast<uint8_t>(worst)) {
      worst = report.state;
    }
  }
  return worst;
}

std::string RenderHealthJson(const std::vector<HealthReport>& reports) {
  JsonWriter json;
  json.BeginObject().Key("state").String(HealthStateName(AggregateHealth(reports)));
  json.Key("components").BeginArray();
  for (const HealthReport& report : reports) {
    json.BeginObject()
        .Key("component").String(report.component)
        .Key("state").String(HealthStateName(report.state))
        .Key("reason").String(report.reason)
        .Key("value").Int(report.value)
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

Watchdog::Watchdog(WatchdogOptions options) : options_(std::move(options)) {
  if (options_.clock == nullptr) {
    options_.clock = RealClock::Instance();
  }
}

Watchdog::~Watchdog() { Stop(); }

void Watchdog::AddTarget(IHealthCheckable* target) {
  std::lock_guard<std::mutex> lock(mu_);
  targets_.push_back(target);
}

void Watchdog::RemoveTarget(IHealthCheckable* target) {
  std::lock_guard<std::mutex> lock(mu_);
  targets_.erase(std::remove(targets_.begin(), targets_.end(), target), targets_.end());
}

std::vector<HealthReport> Watchdog::Evaluate() {
  // Snapshot the target list, then run checks outside the watchdog lock:
  // HealthCheck implementations take engine-internal locks, and holding mu_
  // across them would order it against every engine lock in the stack.
  std::vector<IHealthCheckable*> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    targets = targets_;
  }
  std::vector<HealthReport> reports;
  reports.reserve(targets.size());
  for (IHealthCheckable* target : targets) {
    reports.push_back(target->HealthCheck());
  }
  const HealthState aggregate = AggregateHealth(reports);
  const int64_t now = options_.clock->NowMicros();

  struct Transition {
    HealthReport report;
    HealthState previous;
  };
  std::vector<Transition> fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++evaluations_;
    for (const HealthReport& report : reports) {
      auto it = previous_.find(report.component);
      const HealthState prev = (it == previous_.end()) ? HealthState::kOk : it->second;
      if (report.state != prev) {
        ++transitions_;
        if (report.state != HealthState::kOk) {
          ++non_ok_transitions_;
        }
        fired.push_back({report, prev});
      }
      previous_[report.component] = report.state;
    }
    last_reports_ = reports;
    aggregate_ = aggregate;
  }

  for (const Transition& t : fired) {
    if (options_.recorder != nullptr) {
      options_.recorder->Record(
          FlightEventKind::kHealth,
          t.report.component + " " + HealthStateName(t.previous) + "->" +
              HealthStateName(t.report.state) +
              (t.report.reason.empty() ? "" : (" " + t.report.reason)),
          /*trace_id=*/0, /*a=*/static_cast<uint64_t>(t.report.state),
          /*b=*/static_cast<uint64_t>(t.report.value));
    }
    if (options_.metrics != nullptr) {
      options_.metrics->GetCounter("health.transitions")->Increment();
      if (t.report.state != HealthState::kOk) {
        options_.metrics->GetCounter("health.transitions.non_ok")->Increment();
      }
    }
  }
  if (options_.metrics != nullptr) {
    for (const HealthReport& report : reports) {
      options_.metrics->GetGauge("health.state." + report.component)
          ->Set(static_cast<int64_t>(report.state));
    }
    options_.metrics->GetGauge("health.state")->Set(static_cast<int64_t>(aggregate));
    if (options_.series != nullptr) {
      // One health evaluation == one closed metrics window: rates and the
      // verdict share a timeline.
      options_.metrics->SnapshotInto(*options_.series, now);
    }
  }
  if (options_.on_transition) {
    for (const Transition& t : fired) {
      options_.on_transition(t.report, t.previous);
    }
  }
  return reports;
}

void Watchdog::Start() {
  std::lock_guard<std::mutex> lock(run_mu_);
  if (running_) {
    return;
  }
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] {
    SetCurrentThreadName("watchdog");
    ThreadMain();
  });
}

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    if (!running_) {
      return;
    }
    stop_requested_ = true;
    run_cv_.notify_all();
  }
  thread_.join();
  std::lock_guard<std::mutex> lock(run_mu_);
  running_ = false;
}

void Watchdog::ThreadMain() {
  // The cadence wait uses real time deliberately: a SimClock only advances
  // when told, and blocking the thread on it would hang shutdown. Simulated
  // runs drive Evaluate() directly and never Start() the thread.
  std::unique_lock<std::mutex> lock(run_mu_);
  while (!stop_requested_) {
    if (run_cv_.wait_for(lock, std::chrono::microseconds(options_.cadence_micros),
                         [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    Evaluate();
    lock.lock();
  }
}

HealthState Watchdog::aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aggregate_;
}

std::vector<HealthReport> Watchdog::last_reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_reports_;
}

uint64_t Watchdog::evaluations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evaluations_;
}

uint64_t Watchdog::transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transitions_;
}

uint64_t Watchdog::non_ok_transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return non_ok_transitions_;
}

}  // namespace delos

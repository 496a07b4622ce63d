#include "src/common/divergence.h"

#include <algorithm>
#include <sstream>

#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace delos {

namespace {

// Flight events / trace ids captured into the conviction report.
constexpr size_t kExcerptEvents = 16;
constexpr size_t kExcerptTraceIds = 8;

}  // namespace

DivergenceTracker::DivergenceTracker(DivergenceOptions options) : options_(std::move(options)) {
  AttachSinks(options_.metrics, options_.recorder);
}

void DivergenceTracker::AttachSinks(MetricsRegistry* metrics, FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.metrics = metrics;
  options_.recorder = recorder;
  if (metrics != nullptr) {
    appended_counter_ = metrics->GetCounter("digest.beacons_appended");
    checked_counter_ = metrics->GetCounter("digest.beacons_checked");
    mismatch_counter_ = metrics->GetCounter("digest.mismatches");
    verified_gauge_ = metrics->GetGauge("digest.last_verified_pos");
  }
}

void DivergenceTracker::OnBeaconAppended() {
  std::lock_guard<std::mutex> lock(mu_);
  ++beacons_appended_;
  if (appended_counter_ != nullptr) {
    appended_counter_->Increment();
  }
}

void DivergenceTracker::OnBeaconChecked(uint64_t pos, std::string_view proposer) {
  std::lock_guard<std::mutex> lock(mu_);
  ++beacons_checked_;
  last_proposer_.assign(proposer);
  if (checked_counter_ != nullptr) {
    checked_counter_->Increment();
  }
  (void)pos;
}

void DivergenceTracker::OnSampleMatch(uint64_t pos) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pos > last_verified_pos_) {
    last_verified_pos_ = pos;
    if (verified_gauge_ != nullptr) {
      verified_gauge_->Set(static_cast<int64_t>(pos));
    }
  }
}

void DivergenceTracker::OnSampleMismatch(uint64_t window_lo, uint64_t pos, uint64_t local_digest,
                                         uint64_t remote_digest, std::string_view proposer,
                                         uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ++mismatches_;
  if (mismatch_counter_ != nullptr) {
    mismatch_counter_->Increment();
  }
  if (!convicted_) {
    CaptureConvictionLocked(window_lo, pos, local_digest, remote_digest, proposer, trace_id);
  }
}

void DivergenceTracker::CaptureConvictionLocked(uint64_t window_lo, uint64_t pos,
                                                uint64_t local_digest, uint64_t remote_digest,
                                                std::string_view proposer, uint64_t trace_id) {
  convicted_ = true;
  window_lo_ = window_lo;
  window_hi_ = pos;
  local_digest_ = local_digest;
  remote_digest_ = remote_digest;
  proposer_.assign(proposer);
  trace_id_ = trace_id;
  // Snapshot the flight ring BEFORE recording the kDivergence event, so the
  // excerpt shows what led up to the conviction, not the conviction itself.
  if (options_.recorder != nullptr) {
    std::vector<FlightRecorder::Event> window = options_.recorder->Snapshot();
    if (window.size() > kExcerptEvents) {
      window.erase(window.begin(), window.end() - static_cast<ptrdiff_t>(kExcerptEvents));
    }
    std::ostringstream out;
    for (const FlightRecorder::Event& event : window) {
      out << "  #" << event.seq << " [" << event.micros << "us] "
          << FlightEventKindName(event.kind);
      if (event.trace_id != 0) {
        out << " trace=" << event.trace_id;
        if (window_trace_ids_.size() < kExcerptTraceIds &&
            std::find(window_trace_ids_.begin(), window_trace_ids_.end(), event.trace_id) ==
                window_trace_ids_.end()) {
          window_trace_ids_.push_back(event.trace_id);
        }
      }
      if (event.a != 0 || event.b != 0) {
        out << " a=" << event.a << " b=" << event.b;
      }
      if (!event.detail.empty()) {
        out << " " << event.detail;
      }
      out << "\n";
    }
    flight_excerpt_ = out.str();
    options_.recorder->Record(FlightEventKind::kDivergence,
                              "digest mismatch vs " + proposer_, trace_id, window_lo_, window_hi_);
  }
}

bool DivergenceTracker::convicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return convicted_;
}

uint64_t DivergenceTracker::window_lo() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_lo_;
}

uint64_t DivergenceTracker::window_hi() const {
  std::lock_guard<std::mutex> lock(mu_);
  return window_hi_;
}

uint64_t DivergenceTracker::last_verified_pos() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_verified_pos_;
}

uint64_t DivergenceTracker::beacons_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return beacons_appended_;
}

uint64_t DivergenceTracker::beacons_checked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return beacons_checked_;
}

uint64_t DivergenceTracker::mismatches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mismatches_;
}

std::string DivergenceTracker::HealthReason() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!convicted_) {
    return "";
  }
  std::ostringstream out;
  out << "digest divergence convicted in (" << window_lo_ << ", " << window_hi_ << "] vs "
      << proposer_;
  return out.str();
}

std::string DivergenceTracker::Render(bool include_digests) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "divergence report for " << options_.server << "\n";
  out << "  beacons appended: " << beacons_appended_ << "\n";
  out << "  beacons checked: " << beacons_checked_ << "\n";
  out << "  mismatches: " << mismatches_ << "\n";
  out << "  last verified pos: " << last_verified_pos_ << "\n";
  if (!convicted_) {
    out << "  verdict: no divergence\n";
    return out.str();
  }
  out << "  verdict: DIVERGED in (" << window_lo_ << ", " << window_hi_ << "] vs " << proposer_
      << "\n";
  if (include_digests) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  digest pair: local=%016llx remote=%016llx\n",
                  static_cast<unsigned long long>(local_digest_),
                  static_cast<unsigned long long>(remote_digest_));
    out << buf;
  }
  if (trace_id_ != 0) {
    out << "  beacon trace: " << trace_id_ << "\n";
  }
  if (!window_trace_ids_.empty()) {
    out << "  last traces in window:";
    for (const uint64_t id : window_trace_ids_) {
      out << " " << id;
    }
    out << "\n";
  }
  if (include_digests && !flight_excerpt_.empty()) {
    out << "  flight excerpt:\n" << flight_excerpt_;
  }
  return out.str();
}

std::string DivergenceTracker::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.BeginObject()
      .Key("server").String(options_.server)
      .Key("convicted").Bool(convicted_)
      .Key("beacons_appended").Int(beacons_appended_)
      .Key("beacons_checked").Int(beacons_checked_)
      .Key("mismatches").Int(mismatches_)
      .Key("last_verified_pos").Int(last_verified_pos_);
  if (convicted_) {
    json.Key("window_lo").Int(window_lo_)
        .Key("window_hi").Int(window_hi_)
        .Key("local_digest").Int(local_digest_)
        .Key("remote_digest").Int(remote_digest_)
        .Key("proposer").String(proposer_)
        .Key("beacon_trace").Int(trace_id_)
        .Key("window_traces").BeginArray();
    for (const uint64_t id : window_trace_ids_) {
      json.Int(id);
    }
    json.EndArray().Key("flight_excerpt").String(flight_excerpt_);
  }
  json.EndObject();
  return json.str();
}

}  // namespace delos

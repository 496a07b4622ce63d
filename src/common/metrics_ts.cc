#include "src/common/metrics_ts.h"

#include <algorithm>
#include <sstream>

#include "src/common/json.h"
#include "src/common/metrics.h"

namespace delos {

TimeSeriesStore::TimeSeriesStore(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

void TimeSeriesStore::Commit(int64_t now_micros, std::map<std::string, uint64_t> counters,
                             std::map<std::string, int64_t> gauges,
                             std::map<std::string, Cumulative::Hist> histograms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!have_baseline_) {
    // First snapshot only establishes the baseline; there is no window to
    // close because we don't know when these cumulative values accrued.
    have_baseline_ = true;
    last_snapshot_micros_ = now_micros;
    prev_.counters = std::move(counters);
    prev_.histograms = std::move(histograms);
    return;
  }

  MetricWindow window;
  window.index = next_index_++;
  window.start_micros = last_snapshot_micros_;
  // A backward clock jump (NTP step, sim clock reuse) must not produce a
  // negative-width window: clamp the close to the open. Rates over the
  // zero-width window read 0 (RatePerSecond guards span <= 0).
  window.end_micros = std::max(now_micros, window.start_micros);

  for (const auto& [name, value] : counters) {
    uint64_t delta = value;
    auto it = prev_.counters.find(name);
    // Counter::Reset() can move a cumulative value backward; clamp to 0
    // rather than report a huge unsigned wraparound rate.
    if (it != prev_.counters.end()) {
      delta = value >= it->second ? value - it->second : 0;
    }
    window.counter_deltas[name] = delta;
  }
  window.gauges = std::move(gauges);

  for (const auto& [name, hist] : histograms) {
    MetricWindow::HistogramDelta delta;
    std::vector<uint64_t> bucket_delta = hist.buckets;
    auto it = prev_.histograms.find(name);
    if (it != prev_.histograms.end()) {
      const Cumulative::Hist& old = it->second;
      const size_t n = std::min(bucket_delta.size(), old.buckets.size());
      bool reset = false;
      for (size_t i = 0; i < n; ++i) {
        if (bucket_delta[i] < old.buckets[i]) {
          reset = true;  // Histogram::Reset() mid-window: treat as fresh
          break;
        }
        bucket_delta[i] -= old.buckets[i];
      }
      if (reset) {
        bucket_delta = hist.buckets;
        delta.count = hist.count;
        delta.sum = hist.sum;
      } else {
        delta.count = hist.count >= old.count ? hist.count - old.count : hist.count;
        delta.sum = hist.sum - old.sum;
      }
    } else {
      delta.count = hist.count;
      delta.sum = hist.sum;
    }
    delta.p50 = Histogram::PercentileOfBuckets(bucket_delta, 50);
    delta.p99 = Histogram::PercentileOfBuckets(bucket_delta, 99);
    delta.p999 = Histogram::PercentileOfBuckets(bucket_delta, 99.9);
    delta.max = Histogram::MaxOfBuckets(bucket_delta);
    window.histograms[name] = delta;
  }

  const int64_t window_end = window.end_micros;
  windows_.push_back(std::move(window));
  while (windows_.size() > capacity_) {
    windows_.pop_front();
  }
  // Track the clamped close, not the raw timestamp, so a backward jump does
  // not drag subsequent window opens backward in time.
  last_snapshot_micros_ = window_end;
  prev_.counters = std::move(counters);
  prev_.histograms = std::move(histograms);
}

std::vector<MetricWindow> TimeSeriesStore::Windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<MetricWindow>(windows_.begin(), windows_.end());
}

std::optional<MetricWindow> TimeSeriesStore::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (windows_.empty()) {
    return std::nullopt;
  }
  return windows_.back();
}

size_t TimeSeriesStore::window_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_.size();
}

uint64_t TimeSeriesStore::windows_committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_index_;
}

double TimeSeriesStore::RatePerSecond(const std::string& counter, size_t last_n) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (windows_.empty() || last_n == 0) {
    return 0.0;
  }
  const size_t n = std::min(last_n, windows_.size());
  uint64_t total = 0;
  int64_t span_micros = 0;
  for (size_t i = windows_.size() - n; i < windows_.size(); ++i) {
    const MetricWindow& w = windows_[i];
    auto it = w.counter_deltas.find(counter);
    if (it != w.counter_deltas.end()) {
      total += it->second;
    }
    span_micros += w.width_micros();
  }
  if (span_micros <= 0) {
    return 0.0;
  }
  return static_cast<double>(total) / (static_cast<double>(span_micros) / 1e6);
}

std::optional<int64_t> TimeSeriesStore::LatestGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
    auto g = it->gauges.find(name);
    if (g != it->gauges.end()) {
      return g->second;
    }
  }
  return std::nullopt;
}

std::string TimeSeriesStore::RenderJson(size_t last_n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = (last_n == 0) ? windows_.size() : std::min(last_n, windows_.size());
  JsonWriter json;
  json.BeginObject()
      .Key("capacity").Int(capacity_)
      .Key("windows_committed").Int(next_index_)
      .Key("windows").BeginArray();
  for (size_t i = windows_.size() - n; i < windows_.size(); ++i) {
    const MetricWindow& w = windows_[i];
    json.BeginObject()
        .Key("index").Int(w.index)
        .Key("start_micros").Int(w.start_micros)
        .Key("end_micros").Int(w.end_micros)
        .Key("counters").BeginObject();
    for (const auto& [name, delta] : w.counter_deltas) {
      json.Key(name).Int(delta);
    }
    json.EndObject().Key("gauges").BeginObject();
    for (const auto& [name, value] : w.gauges) {
      json.Key(name).Int(value);
    }
    json.EndObject().Key("histograms").BeginObject();
    for (const auto& [name, h] : w.histograms) {
      json.Key(name).BeginObject()
          .Key("count").Int(h.count)
          .Key("sum").Int(h.sum)
          .Key("p50").Int(h.p50).Key("p99").Int(h.p99)
          .Key("p999").Int(h.p999).Key("max").Int(h.max)
          .EndObject();
    }
    json.EndObject().EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

std::string TimeSeriesStore::RenderTable(size_t last_n) const {
  // Collect the union of metric names over the tail, then one row per metric.
  std::vector<MetricWindow> tail;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t n = std::min(last_n == 0 ? windows_.size() : last_n, windows_.size());
    tail.assign(windows_.end() - static_cast<ptrdiff_t>(n), windows_.end());
  }
  std::ostringstream out;
  if (tail.empty()) {
    out << "(no closed windows yet)\n";
    return out.str();
  }
  int64_t span_micros = 0;
  std::map<std::string, uint64_t> counter_totals;
  std::map<std::string, int64_t> gauge_latest;
  std::map<std::string, MetricWindow::HistogramDelta> hist_latest;
  for (const MetricWindow& w : tail) {
    span_micros += w.width_micros();
    for (const auto& [name, delta] : w.counter_deltas) {
      counter_totals[name] += delta;
    }
    for (const auto& [name, value] : w.gauges) {
      gauge_latest[name] = value;  // later windows overwrite: last-value
    }
    for (const auto& [name, h] : w.histograms) {
      if (h.count > 0) {
        hist_latest[name] = h;
      }
    }
  }
  const double span_sec = static_cast<double>(span_micros) / 1e6;
  char line[256];
  std::snprintf(line, sizeof(line), "%-44s %14s  (over %zu windows, %.1fs)\n", "counter",
                "rate/s", tail.size(), span_sec);
  out << line;
  for (const auto& [name, total] : counter_totals) {
    const double rate = span_sec > 0 ? static_cast<double>(total) / span_sec : 0.0;
    std::snprintf(line, sizeof(line), "%-44s %14.1f\n", name.c_str(), rate);
    out << line;
  }
  std::snprintf(line, sizeof(line), "%-44s %14s\n", "gauge", "value");
  out << line;
  for (const auto& [name, value] : gauge_latest) {
    std::snprintf(line, sizeof(line), "%-44s %14lld\n", name.c_str(), (long long)value);
    out << line;
  }
  std::snprintf(line, sizeof(line), "%-44s %8s %8s %8s %8s %8s\n", "histogram (latest window)",
                "count", "p50", "p99", "p999", "max");
  out << line;
  for (const auto& [name, h] : hist_latest) {
    std::snprintf(line, sizeof(line), "%-44s %8llu %8lld %8lld %8lld %8lld\n", name.c_str(),
                  (unsigned long long)h.count, (long long)h.p50, (long long)h.p99,
                  (long long)h.p999, (long long)h.max);
    out << line;
  }
  return out.str();
}

void TimeSeriesStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  windows_.clear();
  next_index_ = 0;
  have_baseline_ = false;
  last_snapshot_micros_ = 0;
  prev_ = Cumulative{};
}

}  // namespace delos

// Windowed time-series metrics: history for every registered metric.
//
// A point-in-time scrape (RenderPrometheus) answers "what are the counters
// now"; operators need "how fast is the apply pipeline moving" and "when did
// the queue start growing" — rates and trends. TimeSeriesStore keeps a
// fixed-capacity ring of closed windows. Each window holds, for every metric
// registered at snapshot time:
//   * counters:   the delta accumulated during the window (delta / width is
//                 the rate the dashboard plots);
//   * gauges:     the value at window close (last-value semantics);
//   * histograms: the samples recorded during the window — count/sum deltas
//                 plus p50/p99/max computed from the per-window bucket delta,
//                 so a latency spike is visible in its window instead of
//                 being averaged into the lifetime distribution.
//
// Windows are closed by MetricsRegistry::SnapshotInto(store, now_micros):
// the caller (normally the health Watchdog's cadence) supplies timestamps
// from its injected Clock, so under the simulator the series is a pure
// function of the schedule. The store itself owns no thread and no clock.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace delos {

class MetricsRegistry;

// One closed window of metric activity.
struct MetricWindow {
  struct HistogramDelta {
    uint64_t count = 0;
    int64_t sum = 0;
    int64_t p50 = 0;
    int64_t p99 = 0;
    int64_t p999 = 0;
    int64_t max = 0;  // max of the window's samples (bucket upper bound)
  };

  uint64_t index = 0;  // 0-based window number since the store was created
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  std::map<std::string, uint64_t> counter_deltas;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramDelta> histograms;

  int64_t width_micros() const { return end_micros - start_micros; }
};

class TimeSeriesStore {
 public:
  // Capacity is the number of closed windows retained (the ring).
  explicit TimeSeriesStore(size_t capacity = 120);

  // Ring contents, oldest first.
  std::vector<MetricWindow> Windows() const;
  std::optional<MetricWindow> Latest() const;
  size_t window_count() const;
  uint64_t windows_committed() const;
  size_t capacity() const { return capacity_; }

  // Per-second rate of `counter` over the most recent `last_n` windows
  // (0 when the counter or the windows are absent, or time stood still).
  double RatePerSecond(const std::string& counter, size_t last_n = 1) const;
  // Gauge value at the latest window close (nullopt if never captured).
  std::optional<int64_t> LatestGauge(const std::string& name) const;

  // JSON for the admin endpoint: {"windows":[{...}]}, oldest first.
  std::string RenderJson(size_t last_n = 0) const;
  // Human-readable per-metric table over the last `last_n` windows (the
  // `delosctl top` body): one row per counter (rate/s) and gauge (value).
  std::string RenderTable(size_t last_n = 10) const;

  void Clear();

 private:
  friend class MetricsRegistry;

  // Cumulative readings at the previous snapshot; deltas are computed
  // against these. Histograms keep their full bucket vectors so per-window
  // percentiles come from bucket deltas.
  struct Cumulative {
    std::map<std::string, uint64_t> counters;
    struct Hist {
      std::vector<uint64_t> buckets;
      uint64_t count = 0;
      int64_t sum = 0;
    };
    std::map<std::string, Hist> histograms;
  };

  // Called (only) by MetricsRegistry::SnapshotInto with the registry's
  // current cumulative readings. Closes one window.
  void Commit(int64_t now_micros, std::map<std::string, uint64_t> counters,
              std::map<std::string, int64_t> gauges,
              std::map<std::string, Cumulative::Hist> histograms);

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t next_index_ = 0;
  bool have_baseline_ = false;
  int64_t last_snapshot_micros_ = 0;
  Cumulative prev_;
  std::deque<MetricWindow> windows_;
};

}  // namespace delos

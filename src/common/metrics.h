// Counters and latency histograms.
//
// The ObserverEngine (§4.1) measures per-layer propose/sync latency into
// named histograms; the Figure 8/10/11 benches query percentiles from them.
// Every metric is per-server. Histograms share one log-bucketed layout
// (≈7% relative error) and are lock-free on the record path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace delos {

class TimeSeriesStore;

// Maps an internal dotted name onto the Prometheus exposition grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*: invalid characters become '_' and a leading
// digit is prefixed with '_'.
std::string PrometheusName(const std::string& name);

class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// A live signed value (queue depth, cursor lag, open sessions, held leases)
// — unlike a Counter it moves both ways. Set for sampled values, Add for
// up/down tracking.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-bucketed histogram for microsecond latencies (covers 1 µs .. ~36 min
// in the fixed linear+log layout below; Max() keeps the exact value).
class Histogram {
 public:
  Histogram();

  void Record(int64_t value_micros);

  uint64_t count() const;
  double Mean() const;
  // Returns an approximate value at percentile p in [0, 100].
  int64_t Percentile(double p) const;
  int64_t Max() const { return max_seen_.load(std::memory_order_relaxed); }

  void Reset();

  // Cumulative reading for windowed time-series snapshots (metrics_ts):
  // the full bucket vector plus count/sum, so per-window percentiles can be
  // computed from bucket deltas.
  struct CumulativeSnapshot {
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    int64_t sum = 0;
  };
  CumulativeSnapshot Snapshot() const;

  // Approximate percentile over a raw bucket-count vector (e.g. the delta
  // between two CumulativeSnapshots). Returns 0 for an empty vector.
  static int64_t PercentileOfBuckets(const std::vector<uint64_t>& buckets, double p);
  // Upper bound of the highest non-empty bucket (a window's max estimate).
  static int64_t MaxOfBuckets(const std::vector<uint64_t>& buckets);

 private:
  // 32 linear buckets + 16 sub-buckets per power of two up to 2^31 µs
  // (~36 minutes).
  static constexpr int kBuckets = 32 + 26 * 16;
  static int BucketFor(int64_t value);
  static int64_t BucketUpperBound(int index);

  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> total_count_{0};
  std::atomic<int64_t> total_sum_{0};
  std::atomic<int64_t> max_seen_{0};
};

// Named metric registry. One per server (or per bench); engines receive a
// pointer and create metrics lazily by name.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  Gauge* GetGauge(const std::string& name);

  // Snapshot of all metric names currently registered.
  std::vector<std::string> CounterNames() const;
  std::vector<std::string> HistogramNames() const;
  std::vector<std::string> GaugeNames() const;

  // Renders "name count=.. p50=.. p99=.." lines (dashboard-style output used
  // by the Figure 11 bench).
  std::string Render() const;

  // Machine-readable exposition for `delosctl --json`:
  // {"counters":{..},"gauges":{..},"histograms":{name:{count,mean,p50,p99,
  // p999,max}}}.
  std::string RenderJson() const;

  // Prometheus-style text exposition: one "# TYPE" comment per metric,
  // counters/gauges as bare samples, histograms as summaries (quantile
  // series plus _sum/_count). Metric names are sanitized via
  // PrometheusName.
  std::string RenderPrometheus() const;

  // Closes one time-series window: reads every registered metric's current
  // cumulative value and commits the delta since the previous snapshot into
  // `store` (see metrics_ts.h). `now_micros` comes from the caller's
  // (injected) clock so the series is deterministic under the simulator.
  void SnapshotInto(TimeSeriesStore& store, int64_t now_micros) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

}  // namespace delos

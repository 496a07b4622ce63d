#include "src/common/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/json.h"
#include "src/common/metrics_ts.h"

namespace delos {

namespace {

// Bucket layout: 32 linear buckets for [0, 32), then 16 sub-buckets per
// power of two. Gives <= ~6% relative error across the range.
constexpr int kLinearBuckets = 32;
constexpr int kSubBuckets = 16;

}  // namespace

Histogram::Histogram() : buckets_(kBuckets) {}

int Histogram::BucketFor(int64_t value) {
  if (value < 0) {
    value = 0;
  }
  if (value < kLinearBuckets) {
    return static_cast<int>(value);
  }
  // Position of the highest set bit.
  const int log2 = 63 - __builtin_clzll(static_cast<uint64_t>(value));
  const int base_log = 5;  // log2(kLinearBuckets)
  const int sub = static_cast<int>((value >> (log2 - 4)) & (kSubBuckets - 1));
  const int index = kLinearBuckets + (log2 - base_log) * kSubBuckets + sub;
  return std::min(index, kBuckets - 1);
}

int64_t Histogram::BucketUpperBound(int index) {
  if (index < kLinearBuckets) {
    return index;
  }
  const int base_log = 5;
  const int tier = (index - kLinearBuckets) / kSubBuckets;
  const int sub = (index - kLinearBuckets) % kSubBuckets;
  const int log2 = base_log + tier;
  const int64_t base = int64_t{1} << log2;
  const int64_t step = base / kSubBuckets;
  return base + step * (sub + 1) - 1;
}

void Histogram::Record(int64_t value_micros) {
  buckets_[BucketFor(value_micros)].fetch_add(1, std::memory_order_relaxed);
  total_count_.fetch_add(1, std::memory_order_relaxed);
  total_sum_.fetch_add(value_micros < 0 ? 0 : value_micros, std::memory_order_relaxed);
  int64_t prev = max_seen_.load(std::memory_order_relaxed);
  while (value_micros > prev &&
         !max_seen_.compare_exchange_weak(prev, value_micros, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::count() const { return total_count_.load(std::memory_order_relaxed); }

double Histogram::Mean() const {
  const uint64_t n = count();
  if (n == 0) {
    return 0.0;
  }
  return static_cast<double>(total_sum_.load(std::memory_order_relaxed)) / static_cast<double>(n);
}

int64_t Histogram::Percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) {
    return 0;
  }
  const auto target = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target && seen > 0) {
      return BucketUpperBound(i);
    }
  }
  return Max();
}

void Histogram::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  total_count_.store(0, std::memory_order_relaxed);
  total_sum_.store(0, std::memory_order_relaxed);
  max_seen_.store(0, std::memory_order_relaxed);
}

Histogram::CumulativeSnapshot Histogram::Snapshot() const {
  CumulativeSnapshot snapshot;
  snapshot.buckets.resize(kBuckets);
  for (int i = 0; i < kBuckets; ++i) {
    snapshot.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snapshot.count = total_count_.load(std::memory_order_relaxed);
  snapshot.sum = total_sum_.load(std::memory_order_relaxed);
  return snapshot;
}

int64_t Histogram::PercentileOfBuckets(const std::vector<uint64_t>& buckets, double p) {
  uint64_t total = 0;
  for (const uint64_t b : buckets) {
    total += b;
  }
  if (total == 0) {
    return 0;
  }
  const auto target = static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(total)));
  uint64_t seen = 0;
  const int n = static_cast<int>(std::min(buckets.size(), static_cast<size_t>(kBuckets)));
  for (int i = 0; i < n; ++i) {
    seen += buckets[i];
    if (seen >= target && seen > 0) {
      return BucketUpperBound(i);
    }
  }
  return BucketUpperBound(n - 1);
}

int64_t Histogram::MaxOfBuckets(const std::vector<uint64_t>& buckets) {
  const int n = static_cast<int>(std::min(buckets.size(), static_cast<size_t>(kBuckets)));
  for (int i = n - 1; i >= 0; --i) {
    if (buckets[i] != 0) {
      return BucketUpperBound(i);
    }
  }
  return 0;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

std::vector<std::string> MetricsRegistry::CounterNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, _] : counters_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> MetricsRegistry::HistogramNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, _] : histograms_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> MetricsRegistry::GaugeNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(gauges_.size());
  for (const auto& [name, _] : gauges_) {
    names.push_back(name);
  }
  return names;
}

std::string MetricsRegistry::Render() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    out << name << " value=" << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out << name << " gauge=" << gauge->value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    out << name << " count=" << histogram->count() << " mean=" << histogram->Mean()
        << " p50=" << histogram->Percentile(50) << " p99=" << histogram->Percentile(99)
        << " p999=" << histogram->Percentile(99.9) << " max=" << histogram->Max() << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json.Key(name).Int(counter->value());
  }
  json.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json.Key(name).Int(gauge->value());
  }
  json.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    json.Key(name).BeginObject()
        .Key("count").Int(histogram->count())
        .Key("mean").Double(histogram->Mean())
        .Key("p50").Int(histogram->Percentile(50)).Key("p99").Int(histogram->Percentile(99))
        .Key("p999").Int(histogram->Percentile(99.9)).Key("max").Int(histogram->Max())
        .EndObject();
  }
  json.EndObject().EndObject();
  return json.str();
}

std::string PrometheusName(const std::string& name) {
  std::string sanitized = name;
  for (char& c : sanitized) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) {
      c = '_';
    }
  }
  // The grammar's first character excludes digits ([a-zA-Z_:][a-zA-Z0-9_:]*).
  if (sanitized.empty() || (sanitized[0] >= '0' && sanitized[0] <= '9')) {
    sanitized.insert(sanitized.begin(), '_');
  }
  return sanitized;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, counter] : counters_) {
    const std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " counter\n";
    out << pname << " " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " gauge\n";
    out << pname << " " << gauge->value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " summary\n";
    out << pname << "{quantile=\"0.5\"} " << histogram->Percentile(50) << "\n";
    out << pname << "{quantile=\"0.99\"} " << histogram->Percentile(99) << "\n";
    out << pname << "{quantile=\"0.999\"} " << histogram->Percentile(99.9) << "\n";
    out << pname << "_sum " << static_cast<int64_t>(histogram->Mean() *
                                                    static_cast<double>(histogram->count()))
        << "\n";
    out << pname << "_count " << histogram->count() << "\n";
  }
  return out.str();
}

void MetricsRegistry::SnapshotInto(TimeSeriesStore& store, int64_t now_micros) const {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, TimeSeriesStore::Cumulative::Hist> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) {
      counters[name] = counter->value();
    }
    for (const auto& [name, gauge] : gauges_) {
      gauges[name] = gauge->value();
    }
    for (const auto& [name, histogram] : histograms_) {
      Histogram::CumulativeSnapshot snapshot = histogram->Snapshot();
      TimeSeriesStore::Cumulative::Hist hist;
      hist.buckets = std::move(snapshot.buckets);
      hist.count = snapshot.count;
      hist.sum = snapshot.sum;
      histograms[name] = std::move(hist);
    }
  }
  store.Commit(now_micros, std::move(counters), std::move(gauges), std::move(histograms));
}

}  // namespace delos

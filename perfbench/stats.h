// Exact statistics over raw samples, and the metric sheet a run prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of raw samples (sorts a copy): the smallest
// sample with at least q% of the samples at or below it.
double Percentile(std::vector<int64_t> samples, double q);

// Latency samples (ns), kept as runs in completion order (one run per
// generator thread and load phase) so they can be cut into time slices.
struct LatencySamples {
  std::vector<std::vector<int64_t>> runs;

  void Add(std::vector<int64_t> run);
  void Merge(LatencySamples&& other);
  size_t count() const;
  std::vector<int64_t> Pooled() const;
};

// A latency distribution summarised from raw samples. p50 is exact over all
// samples. p99 is the median of the exact p99s of up to ten consecutive
// slices of the samples, each large enough to hold at least ten samples
// above its p99, so one stall of the host moves one slice, not the result.
// With fewer than 1,000 samples the p99 is unsupported.
struct LatencySummary {
  size_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
  bool p99_supported = false;
};
LatencySummary Summarize(const LatencySamples& samples);
LatencySummary Summarize(const std::vector<int64_t>& nanos);

double Median(std::vector<double> values);

// Metrics of one run, in print order.
class MetricSheet {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  double Get(const std::string& name) const;

  // "name  value unit  note" lines for humans.
  std::string RenderTable() const;
  // {"name": {"value": v, "unit": u}, ...} with full precision.
  std::string RenderJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
  std::map<std::string, size_t> index_;
};

std::string JsonEscape(const std::string& text);
std::string FormatDouble(double value);

}  // namespace perfbench

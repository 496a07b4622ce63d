#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

namespace {

// Index of the nearest-rank q-th percentile in `n` sorted samples (n > 0).
size_t RankIndex(size_t n, double q) {
  const double rank = std::ceil(q / 100.0 * static_cast<double>(n));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

double Percentile(std::vector<int64_t> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  return static_cast<double>(samples[RankIndex(samples.size(), q)]);
}

void LatencySamples::Add(std::vector<int64_t> run) {
  if (!run.empty()) {
    runs.push_back(std::move(run));
  }
}

void LatencySamples::Merge(LatencySamples&& other) {
  for (auto& run : other.runs) {
    runs.push_back(std::move(run));
  }
}

size_t LatencySamples::count() const {
  size_t n = 0;
  for (const auto& run : runs) {
    n += run.size();
  }
  return n;
}

std::vector<int64_t> LatencySamples::Pooled() const {
  std::vector<int64_t> all;
  all.reserve(count());
  for (const auto& run : runs) {
    all.insert(all.end(), run.begin(), run.end());
  }
  return all;
}

LatencySummary Summarize(const LatencySamples& samples) {
  constexpr size_t kMinSlice = 1000;  // >= 10 samples above the p99
  constexpr size_t kMaxSlices = 10;
  LatencySummary summary;
  summary.count = samples.count();
  if (summary.count == 0) {
    return summary;
  }
  summary.p50_us = Percentile(samples.Pooled(), 50) / 1000.0;
  const size_t slices = std::min(kMaxSlices, summary.count / kMinSlice);
  if (slices == 0) {
    summary.p99_us = Percentile(samples.Pooled(), 99) / 1000.0;
    return summary;
  }
  // Slice j takes the j-th of `slices` equal parts of every run, so each
  // slice covers the same stretch of time.
  std::vector<double> p99s;
  summary.p99_supported = true;
  for (size_t j = 0; j < slices; ++j) {
    std::vector<int64_t> slice;
    for (const auto& run : samples.runs) {
      slice.insert(slice.end(), run.begin() + static_cast<std::ptrdiff_t>(run.size() * j / slices),
                   run.begin() + static_cast<std::ptrdiff_t>(run.size() * (j + 1) / slices));
    }
    if (slice.size() - 1 - RankIndex(slice.size(), 99) < 10) {
      summary.p99_supported = false;
    }
    p99s.push_back(Percentile(std::move(slice), 99));
  }
  summary.p99_us = Median(p99s) / 1000.0;
  return summary;
}

LatencySummary Summarize(const std::vector<int64_t>& nanos) {
  LatencySamples samples;
  samples.Add(nanos);
  return Summarize(samples);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

void MetricSheet::Set(const std::string& name, double value, const std::string& unit,
                      const std::string& note) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  auto it = index_.find(name);
  if (it != index_.end()) {
    entries_[it->second] = Entry{name, value, unit, note};
    return;
  }
  index_[name] = entries_.size();
  entries_.push_back(Entry{name, value, unit, note});
}

double MetricSheet::Get(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0 : entries_[it->second].value;
}

std::string MetricSheet::RenderTable() const {
  std::ostringstream out;
  for (const Entry& entry : entries_) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-36s %16.4f %-6s %s\n", entry.name.c_str(),
                  entry.value, entry.unit.c_str(), entry.note.c_str());
    out << line;
  }
  return out.str();
}

std::string MetricSheet::RenderJson() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) {
      out << ", ";
    }
    out << "\"" << JsonEscape(entries_[i].name) << "\": {\"value\": "
        << FormatDouble(entries_[i].value) << ", \"unit\": \"" << JsonEscape(entries_[i].unit)
        << "\"}";
  }
  out << "}";
  return out.str();
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench

#include "src/common/latency.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <tuple>

#include "src/common/json.h"
#include "src/common/metrics.h"

namespace delos {

namespace {

constexpr const char* kRootSpanName = "client.propose";
// Bound on concurrently-open per-trace span buffers (FIFO evicted) and on
// the spans one buffer keeps.
constexpr size_t kMaxOpenTraces = 4096;
constexpr size_t kMaxSpansPerTrace = 128;
// Flight events kept in one exemplar's excerpt (the newest win).
constexpr size_t kFlightExcerptEvents = 16;

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

void SortSpans(std::vector<TraceSpan>& spans) {
  std::sort(spans.begin(), spans.end(), [](const TraceSpan& x, const TraceSpan& y) {
    return std::tie(x.start_micros, x.end_micros, x.server, x.name) <
           std::tie(y.start_micros, y.end_micros, y.server, y.name);
  });
}

// The stage with the largest critical-path share (first-touch order breaks
// ties), or "-" for an empty path.
std::string DominantStage(const CriticalPath& path) {
  const StageShare* best = nullptr;
  for (const StageShare& seg : path.segments) {
    if (best == nullptr || seg.micros > best->micros) {
      best = &seg;
    }
  }
  return best == nullptr ? "-" : best->stage;
}

double ShareOf(int64_t part, int64_t total) {
  if (total <= 0) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(part) / static_cast<double>(total);
}

}  // namespace

// --- SlowTraceStore ---

SlowTraceStore::SlowTraceStore(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

void SlowTraceStore::Add(SlowTrace trace) {
  std::lock_guard<std::mutex> lock(mu_);
  ++captured_;
  traces_.push_back(std::move(trace));
  while (traces_.size() > capacity_) {
    traces_.pop_front();
    ++evicted_;
  }
}

std::vector<SlowTrace> SlowTraceStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SlowTrace>(traces_.begin(), traces_.end());
}

std::optional<SlowTrace> SlowTraceStore::Find(uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = traces_.rbegin(); it != traces_.rend(); ++it) {
    if (it->trace_id == trace_id) {
      return *it;
    }
  }
  return std::nullopt;
}

size_t SlowTraceStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_.size();
}

uint64_t SlowTraceStore::captured() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captured_;
}

uint64_t SlowTraceStore::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

// --- LatencyAttributor ---

LatencyAttributor::LatencyAttributor(Options options)
    : options_(std::move(options)),
      e2e_hist_(options_.metrics->GetHistogram("latency.e2e")),
      slow_(options_.slow_capacity) {}

Histogram* LatencyAttributor::StageHistogramLocked(const std::string& stage) {
  auto it = stage_hists_.find(stage);
  if (it == stage_hists_.end()) {
    it = stage_hists_.emplace(stage, options_.metrics->GetHistogram("latency.stage." + stage))
             .first;
  }
  // Publish the node for the lock-free cache; the map is insert-only and
  // node-based, so the pointee never moves or dies before the attributor.
  last_stage_entry_.store(&*it, std::memory_order_release);
  return it->second;
}

void LatencyAttributor::OnSpan(const TraceSpan& span) {
  if (span.server != options_.server) {
    return;
  }
  const int64_t duration = std::max<int64_t>(0, span.end_micros - span.start_micros);
  if (span.name == kRootSpanName) {
    e2e_hist_->Record(duration);
    CompleteTrace(span);
    return;
  }
  const bool is_apply = EndsWith(span.name, ".apply");
  // Stage aggregation. Histogram::Record is lock-free, and a replica's
  // apply loop records the same stage name back-to-back, so the one-entry
  // cache makes the common case a single string compare — no mutex.
  const auto* cached = last_stage_entry_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->first == span.name) {
    cached->second->Record(duration);
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    StageHistogramLocked(span.name)->Record(duration);
  }
  // Span-tree buffering. Propose-path spans open a trace buffer; apply
  // spans join one only if the trace is already open locally. A trace whose
  // propose is not pending on this server (a remote replica's apply
  // traffic, or a log replay) never opens a buffer, so the hot apply path
  // never takes mu_ while nothing is open anywhere.
  if (is_apply && open_count_.load(std::memory_order_relaxed) == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(span.trace_id);
  if (it == open_.end()) {
    if (is_apply) {
      return;
    }
    while (open_.size() >= kMaxOpenTraces) {
      // FIFO-evict the oldest still-open buffer; order entries for traces
      // already completed are skipped lazily.
      if (open_order_.empty()) {
        open_.clear();
        break;
      }
      const uint64_t victim = open_order_.front();
      open_order_.pop_front();
      open_.erase(victim);
    }
    it = open_.emplace(span.trace_id, OpenTrace{}).first;
    open_order_.push_back(span.trace_id);
  }
  open_count_.store(open_.size(), std::memory_order_relaxed);
  if (it->second.spans.size() < kMaxSpansPerTrace) {
    it->second.spans.push_back(span);
  }
}

void LatencyAttributor::CompleteTrace(const TraceSpan& root) {
  const int64_t e2e = std::max<int64_t>(0, root.end_micros - root.start_micros);
  std::vector<TraceSpan> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++traces_completed_;
    auto it = open_.find(root.trace_id);
    if (it != open_.end()) {
      spans = std::move(it->second.spans);
      open_.erase(it);
      open_count_.store(open_.size(), std::memory_order_relaxed);
    }
  }
  spans.push_back(root);
  SortSpans(spans);
  const CriticalPath path = ComputeCriticalPath(spans, root);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const StageShare& seg : path.segments) {
      auto& slot = dominance_[seg.stage];
      slot.first += seg.micros;
      ++slot.second;
    }
    unattributed_total_ += path.unattributed_micros;
    e2e_total_ += path.total_micros;
  }
  options_.metrics->GetCounter("latency.traces.completed")->Increment();

  // Tail-based sampling. Strictly-greater keeps the simulator deterministic:
  // with the sim trace clock pinned, every e2e is 0 and only errored
  // proposals — a pure function of the schedule — are captured.
  const int64_t threshold = SlowThresholdMicros();
  if (!root.failed && e2e <= threshold) {
    return;
  }
  SlowTrace slow;
  slow.trace_id = root.trace_id;
  slow.start_micros = root.start_micros;
  slow.end_micros = root.end_micros;
  slow.e2e_micros = e2e;
  slow.errored = root.failed;
  slow.spans = std::move(spans);
  slow.critical_path = path;
  if (options_.recorder != nullptr) {
    const int64_t lo = root.start_micros - options_.flight_excerpt_margin_micros;
    const int64_t hi = root.end_micros + options_.flight_excerpt_margin_micros;
    std::vector<FlightRecorder::Event> window;
    for (const FlightRecorder::Event& event : options_.recorder->Snapshot()) {
      if (event.trace_id == root.trace_id || (event.micros >= lo && event.micros <= hi)) {
        window.push_back(event);
      }
    }
    if (window.size() > kFlightExcerptEvents) {
      window.erase(window.begin(), window.end() - static_cast<ptrdiff_t>(kFlightExcerptEvents));
    }
    std::ostringstream out;
    for (const FlightRecorder::Event& event : window) {
      out << "  #" << event.seq << " [" << event.micros << "us] "
          << FlightEventKindName(event.kind);
      if (event.trace_id != 0) {
        out << " trace=" << event.trace_id;
      }
      if (event.a != 0 || event.b != 0) {
        out << " a=" << event.a << " b=" << event.b;
      }
      if (!event.detail.empty()) {
        out << " " << event.detail;
      }
      out << "\n";
    }
    slow.flight_excerpt = out.str();
  }
  slow_.Add(std::move(slow));
  options_.metrics->GetCounter("latency.slow.captured")->Increment();
}

CriticalPath LatencyAttributor::ComputeCriticalPath(const std::vector<TraceSpan>& spans,
                                                    const TraceSpan& root) {
  CriticalPath path;
  path.total_micros = std::max<int64_t>(0, root.end_micros - root.start_micros);
  if (path.total_micros == 0) {
    return path;
  }
  // Candidates, content-sorted so the walk is independent of arrival order.
  std::vector<TraceSpan> cands;
  cands.reserve(spans.size());
  for (const TraceSpan& span : spans) {
    if (span.name != kRootSpanName && span.end_micros > span.start_micros) {
      cands.push_back(span);
    }
  }
  SortSpans(cands);

  std::map<std::string, size_t> index;
  auto attribute = [&](const std::string& stage, int64_t micros) {
    auto [it, inserted] = index.emplace(stage, path.segments.size());
    if (inserted) {
      path.segments.push_back(StageShare{stage, 0});
    }
    path.segments[it->second].micros += micros;
  };

  // Greedy chain walk: at each moment follow the covering span that ends
  // latest; when nothing covers the moment, the gap is unattributed. The
  // walk partitions [root.start, root.end], so contributions sum exactly to
  // the end-to-end latency.
  int64_t cursor = root.start_micros;
  const int64_t end = root.end_micros;
  while (cursor < end) {
    const TraceSpan* best = nullptr;
    int64_t next_start = std::numeric_limits<int64_t>::max();
    for (const TraceSpan& c : cands) {
      if (c.start_micros > cursor) {
        next_start = std::min(next_start, c.start_micros);
        break;  // sorted by start: everything after starts even later
      }
      if (c.end_micros > cursor && (best == nullptr || c.end_micros > best->end_micros)) {
        best = &c;
      }
    }
    if (best != nullptr) {
      const int64_t to = std::min(best->end_micros, end);
      attribute(best->name, to - cursor);
      cursor = to;
    } else if (next_start < end) {
      path.unattributed_micros += next_start - cursor;
      cursor = next_start;
    } else {
      path.unattributed_micros += end - cursor;
      cursor = end;
    }
  }
  return path;
}

int64_t LatencyAttributor::SlowThresholdMicros() const {
  if (e2e_hist_->count() < options_.min_tail_samples) {
    return std::numeric_limits<int64_t>::max();
  }
  return e2e_hist_->Percentile(options_.tail_quantile);
}

uint64_t LatencyAttributor::traces_completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_completed_;
}

LatencyAttributor::StageTotals LatencyAttributor::SnapshotStages() const {
  StageTotals totals;
  {
    std::lock_guard<std::mutex> lock(mu_);
    totals.stages.assign(stage_hists_.begin(), stage_hists_.end());
    totals.dominance = dominance_;
    totals.completed = traces_completed_;
    totals.unattributed = unattributed_total_;
    totals.e2e_total = e2e_total_;
  }
  std::sort(totals.stages.begin(), totals.stages.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  return totals;
}

std::string LatencyAttributor::RenderLatency() const {
  const auto [stages, dominance, completed, unattributed, e2e_total] = SnapshotStages();

  std::ostringstream out;
  out << "latency attribution: server " << options_.server << "\n";
  out << "traces completed: " << completed << ", slow captured: " << slow_.captured()
      << " (evicted " << slow_.evicted() << ", capacity " << slow_.capacity() << ")\n";
  const int64_t threshold = SlowThresholdMicros();
  if (threshold == std::numeric_limits<int64_t>::max()) {
    out << "tail threshold: warming up (" << e2e_hist_->count() << "/"
        << options_.min_tail_samples << " samples)\n";
  } else {
    out << "tail threshold: " << threshold << "us (p" << options_.tail_quantile
        << " of e2e)\n";
  }
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %8s %8s %8s %8s %8s %12s %8s\n", "stage", "count",
                "p50", "p99", "p999", "max", "cp_total_us", "cp_share");
  out << line;
  auto stage_row = [&](const std::string& label, const Histogram* hist, int64_t cp_micros) {
    std::snprintf(line, sizeof(line),
                  "%-28s %8llu %8lld %8lld %8lld %8lld %12lld %7.1f%%\n", label.c_str(),
                  hist != nullptr ? (unsigned long long)hist->count() : 0ull,
                  hist != nullptr ? (long long)hist->Percentile(50) : 0ll,
                  hist != nullptr ? (long long)hist->Percentile(99) : 0ll,
                  hist != nullptr ? (long long)hist->Percentile(99.9) : 0ll,
                  hist != nullptr ? (long long)hist->Max() : 0ll, (long long)cp_micros,
                  ShareOf(cp_micros, e2e_total));
    out << line;
  };
  stage_row("e2e", e2e_hist_, 0);
  int64_t attributed_sum = 0;
  for (const auto& [stage, hist] : stages) {
    const auto it = dominance.find(stage);
    const int64_t cp = it == dominance.end() ? 0 : it->second.first;
    attributed_sum += cp;
    stage_row(stage, hist, cp);
  }
  // Stages on the critical path with no histogram yet (possible only if the
  // stage histogram registration raced the walk; keep them visible anyway).
  for (const auto& [stage, share] : dominance) {
    bool rendered = false;
    for (const auto& [name, _] : stages) {
      if (name == stage) {
        rendered = true;
        break;
      }
    }
    if (!rendered) {
      attributed_sum += share.first;
      stage_row(stage, nullptr, share.first);
    }
  }
  stage_row("unattributed", nullptr, unattributed);
  std::snprintf(line, sizeof(line),
                "critical path: %lld us attributed + %lld us unattributed = %lld us e2e "
                "(%.1f%% of end-to-end)\n",
                (long long)attributed_sum, (long long)unattributed, (long long)e2e_total,
                ShareOf(attributed_sum + unattributed, e2e_total));
  out << line;
  return out.str();
}

std::string LatencyAttributor::RenderLatencyJson() const {
  const auto [stages, dominance, completed, unattributed, e2e_total] = SnapshotStages();
  const int64_t threshold = SlowThresholdMicros();
  JsonWriter json;
  json.BeginObject()
      .Key("server").String(options_.server)
      .Key("traces_completed").Int(completed)
      .Key("slow_captured").Int(slow_.captured())
      .Key("slow_evicted").Int(slow_.evicted())
      .Key("tail_threshold_us")
      .Int(threshold == std::numeric_limits<int64_t>::max() ? -1 : threshold)
      .Key("e2e").BeginObject()
      .Key("count").Int(e2e_hist_->count())
      .Key("p50").Int(e2e_hist_->Percentile(50)).Key("p99").Int(e2e_hist_->Percentile(99))
      .Key("p999").Int(e2e_hist_->Percentile(99.9)).Key("max").Int(e2e_hist_->Max())
      .Key("total_us").Int(e2e_total)
      .Key("unattributed_us").Int(unattributed)
      .EndObject()
      .Key("stages").BeginArray();
  for (const auto& [stage, hist] : stages) {
    const auto it = dominance.find(stage);
    json.BeginObject()
        .Key("stage").String(stage)
        .Key("count").Int(hist->count())
        .Key("p50").Int(hist->Percentile(50)).Key("p99").Int(hist->Percentile(99))
        .Key("p999").Int(hist->Percentile(99.9)).Key("max").Int(hist->Max())
        .Key("cp_total_us").Int(it == dominance.end() ? 0 : it->second.first)
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

std::string LatencyAttributor::RenderSlowList() const {
  const std::vector<SlowTrace> traces = slow_.Snapshot();
  std::ostringstream out;
  out << "slow traces: " << traces.size() << " retained, " << slow_.captured()
      << " captured, " << slow_.evicted() << " evicted (capacity " << slow_.capacity()
      << ")\n";
  for (const SlowTrace& trace : traces) {
    out << "trace " << trace.trace_id << " e2e=" << trace.e2e_micros << "us errored="
        << (trace.errored ? 1 : 0) << " dominant=" << DominantStage(trace.critical_path)
        << " spans=" << trace.spans.size() << "\n";
  }
  return out.str();
}

std::string LatencyAttributor::RenderSlowListJson() const {
  JsonWriter json;
  json.BeginObject()
      .Key("captured").Int(slow_.captured())
      .Key("evicted").Int(slow_.evicted())
      .Key("capacity").Int(slow_.capacity())
      .Key("traces").BeginArray();
  for (const SlowTrace& trace : slow_.Snapshot()) {
    json.BeginObject()
        .Key("trace_id").Int(trace.trace_id)
        .Key("e2e_us").Int(trace.e2e_micros)
        .Key("errored").Bool(trace.errored)
        .Key("dominant").String(DominantStage(trace.critical_path))
        .Key("spans").Int(trace.spans.size())
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

std::optional<std::string> LatencyAttributor::RenderSlowDetail(uint64_t trace_id) const {
  const std::optional<SlowTrace> trace = slow_.Find(trace_id);
  if (!trace.has_value()) {
    return std::nullopt;
  }
  std::ostringstream out;
  out << "slow trace " << trace->trace_id << ": e2e=" << trace->e2e_micros << "us errored="
      << (trace->errored ? 1 : 0) << " [" << trace->start_micros << ".." << trace->end_micros
      << "us]\n";
  out << "critical path:\n";
  for (const StageShare& seg : trace->critical_path.segments) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %10lld us %6.1f%%\n", seg.stage.c_str(),
                  (long long)seg.micros,
                  ShareOf(seg.micros, trace->critical_path.total_micros));
    out << line;
  }
  if (trace->critical_path.unattributed_micros > 0) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %10lld us %6.1f%%\n", "unattributed",
                  (long long)trace->critical_path.unattributed_micros,
                  ShareOf(trace->critical_path.unattributed_micros,
                          trace->critical_path.total_micros));
    out << line;
  }
  out << "spans:\n";
  for (const TraceSpan& span : trace->spans) {
    out << "  [" << span.start_micros << ".." << span.end_micros << "us] "
        << (span.server.empty() ? "client" : span.server) << " " << span.name
        << (span.failed ? " FAILED" : "") << "\n";
  }
  out << "flight excerpt:\n";
  out << (trace->flight_excerpt.empty() ? "  (none)\n" : trace->flight_excerpt);
  return out.str();
}

std::optional<std::string> LatencyAttributor::RenderSlowDetailJson(uint64_t trace_id) const {
  const std::optional<SlowTrace> trace = slow_.Find(trace_id);
  if (!trace.has_value()) {
    return std::nullopt;
  }
  JsonWriter json;
  json.BeginObject()
      .Key("trace_id").Int(trace->trace_id)
      .Key("e2e_us").Int(trace->e2e_micros)
      .Key("errored").Bool(trace->errored)
      .Key("start_us").Int(trace->start_micros)
      .Key("end_us").Int(trace->end_micros)
      .Key("critical_path").BeginArray();
  for (const StageShare& seg : trace->critical_path.segments) {
    json.BeginObject().Key("stage").String(seg.stage).Key("micros").Int(seg.micros).EndObject();
  }
  json.EndArray()
      .Key("unattributed_us").Int(trace->critical_path.unattributed_micros)
      .Key("spans").BeginArray();
  for (const TraceSpan& span : trace->spans) {
    json.BeginObject()
        .Key("name").String(span.name)
        .Key("server").String(span.server)
        .Key("start_us").Int(span.start_micros)
        .Key("end_us").Int(span.end_micros)
        .Key("failed").Bool(span.failed)
        .EndObject();
  }
  json.EndArray().Key("flight_excerpt").String(trace->flight_excerpt).EndObject();
  return json.str();
}

}  // namespace delos

// Tail-latency attribution: per-stage aggregation, critical-path analysis,
// and tail-based exemplar capture.
//
// A proposal in a layered Delos stack crosses many engines (client →
// batching → sessionorder → base.append → per-layer apply); PR 3's Tracer
// records one span per hop, but only renders them per trace id. The
// production question — "p99 propose is 8 ms, *which layer* is it spent in"
// — needs aggregation across proposals. The LatencyAttributor subscribes to
// the cluster Tracer as a span observer and, per server:
//
//  * aggregates every stage's duration into `latency.stage.<name>`
//    histograms in the server's MetricsRegistry (p50/p99/p999/max, fed into
//    the TimeSeriesStore windows by the existing watchdog cadence), plus
//    `latency.e2e` for the client-visible root span;
//
//  * computes each completed proposal's critical path: a greedy chain walk
//    over [root.start, root.end] that always follows the overlapping span
//    ending latest, attributing every microsecond to exactly one stage (or
//    to "unattributed" when no span covers the moment). Batching merges
//    union trace ids onto the batch entry, so a merged proposal's chain
//    walks through the shared batch spans naturally. Because the walk
//    partitions the root window, per-stage contributions plus unattributed
//    time sum *exactly* to end-to-end latency — the stage-dominance
//    breakdown ("base.append contributes 61%") is conservation-checked by
//    construction;
//
//  * runs tail-based sampling (the LogPlayer lesson: keep full detail only
//    for the anomalous few): a full span tree is retained in the bounded
//    SlowTraceStore only when end-to-end latency strictly exceeds a rolling
//    quantile threshold of `latency.e2e`, or the proposal errored. Each
//    exemplar carries the trace id, critical-path breakdown, and a
//    FlightRecorder excerpt around the slow window.
//
// Determinism: all timestamps come from the Tracer's injected clock. Under
// the simulator the trace clock is pinned, every duration is 0, and the
// strictly-greater threshold test never fires — so exemplar selection
// reduces to "errored proposals", a pure function of the schedule, and two
// replays of one seed produce byte-identical stage breakdowns and exemplar
// sets (flight excerpts, like flight dumps elsewhere, are excluded from the
// determinism-checked renderings).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/trace.h"

namespace delos {

class MetricsRegistry;
class Histogram;

// One stage's share of a proposal's critical path.
struct StageShare {
  std::string stage;
  int64_t micros = 0;
};

// Result of the critical-path chain walk over one proposal's span tree.
struct CriticalPath {
  std::vector<StageShare> segments;  // first-touch order, merged per stage
  int64_t unattributed_micros = 0;   // moments no span covered
  int64_t total_micros = 0;          // root end - start; == sum(segments) + unattributed
};

// A retained slow-proposal exemplar.
struct SlowTrace {
  uint64_t trace_id = 0;
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  int64_t e2e_micros = 0;
  bool errored = false;
  std::vector<TraceSpan> spans;  // full tree, content-ordered
  CriticalPath critical_path;
  std::string flight_excerpt;  // FlightRecorder events around the slow window
};

// Bounded FIFO store of slow-proposal exemplars: oldest evicted first, so
// retention is a pure function of the capture sequence (deterministic under
// the simulator).
class SlowTraceStore {
 public:
  explicit SlowTraceStore(size_t capacity);

  void Add(SlowTrace trace);
  std::vector<SlowTrace> Snapshot() const;
  std::optional<SlowTrace> Find(uint64_t trace_id) const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t captured() const;
  uint64_t evicted() const;

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t captured_ = 0;
  uint64_t evicted_ = 0;
  std::deque<SlowTrace> traces_;
};

class LatencyAttributor {
 public:
  struct Options {
    MetricsRegistry* metrics = nullptr;  // required
    // Only spans carrying this server label are consumed: each server's
    // attributor answers for its own proposals, and the sim's reference rig
    // (which shares the cluster Tracer) never pollutes a real server's view.
    std::string server;
    FlightRecorder* recorder = nullptr;  // optional exemplar excerpt source
    // Rolling tail threshold: capture when e2e strictly exceeds this
    // percentile of `latency.e2e`, once min_tail_samples have been seen.
    double tail_quantile = 99.0;
    uint64_t min_tail_samples = 64;
    size_t slow_capacity = 32;
    int64_t flight_excerpt_margin_micros = 1000;
  };

  explicit LatencyAttributor(Options options);

  // Span feed (wired as a Tracer observer). Thread-safe; cheap for spans
  // that are not part of a locally-rooted open trace.
  void OnSpan(const TraceSpan& span);

  // The greedy interval-chain walk (exposed for tests and the simulator).
  // `spans` need not be sorted; the walk is order-independent.
  static CriticalPath ComputeCriticalPath(const std::vector<TraceSpan>& spans,
                                          const TraceSpan& root);

  // Current capture threshold in micros (INT64_MAX until min_tail_samples).
  int64_t SlowThresholdMicros() const;

  uint64_t traces_completed() const;

  const SlowTraceStore& slow_traces() const { return slow_; }

  // Deterministic renderings for /latency and /slow (and `delosctl`):
  // stage table + dominance breakdown, exemplar list, one exemplar's detail
  // (the only place the flight excerpt appears). The *Json variants back
  // `--json`.
  std::string RenderLatency() const;
  std::string RenderLatencyJson() const;
  std::string RenderSlowList() const;
  std::string RenderSlowListJson() const;
  std::optional<std::string> RenderSlowDetail(uint64_t trace_id) const;
  std::optional<std::string> RenderSlowDetailJson(uint64_t trace_id) const;

 private:
  struct OpenTrace {
    std::vector<TraceSpan> spans;
  };

  // What RenderLatency and RenderLatencyJson read, copied under mu_: the
  // stage histograms in name order and the dominance accumulators.
  struct StageTotals {
    std::vector<std::pair<std::string, Histogram*>> stages;
    std::map<std::string, std::pair<int64_t, uint64_t>> dominance;
    uint64_t completed = 0;
    int64_t unattributed = 0;
    int64_t e2e_total = 0;
  };

  StageTotals SnapshotStages() const;
  Histogram* StageHistogramLocked(const std::string& stage);
  void CompleteTrace(const TraceSpan& root);

  Options options_;
  Histogram* e2e_hist_ = nullptr;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Histogram*> stage_hists_;
  // Lock-free one-entry cache of the last stage-histogram lookup. It points
  // at a node of stage_hists_, which is insert-only and node-based, so the
  // pointee is stable for the attributor's lifetime; a replica's apply loop
  // records the same stage back-to-back and skips mu_ entirely.
  std::atomic<const std::pair<const std::string, Histogram*>*> last_stage_entry_{nullptr};
  // Mirrors open_.size() so apply spans can skip mu_ while nothing is open.
  std::atomic<size_t> open_count_{0};
  std::unordered_map<uint64_t, OpenTrace> open_;
  std::deque<uint64_t> open_order_;  // FIFO eviction of open trace buffers
  uint64_t traces_completed_ = 0;
  // Dominance accumulators: critical-path micros (and touch count) per
  // stage, plus the unattributed remainder, summed over completed traces.
  std::map<std::string, std::pair<int64_t, uint64_t>> dominance_;
  int64_t unattributed_total_ = 0;
  int64_t e2e_total_ = 0;

  SlowTraceStore slow_;
};

}  // namespace delos

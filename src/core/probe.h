// Probe: the one instrumentation seam of a server.
//
// Figure 7 attributes apply-thread time to each engine's frame with a
// profiler the engines never see, so each engine stays a small protocol
// (§3). Here the same holds for every observability sink: a layer reaches
// the apply profiler, the metrics registry, the tracer, the flight recorder
// and the workload attributor only through its server's Probe, and the
// per-record work is done by three frames the probe defines:
//
//  * ApplyFrame — one layer's apply of one record: the layer's profiler
//    frame and, for a traced record, the layer's span on this replica.
//  * ProposeFrame — one layer's propose hand-off: the entry's trace ids
//    (minted when it has none; the layer is then the trace root), the
//    layer's down span, and the root's client-visible "client.propose" span.
//  * AppFrame — the application's applicator at the top of the stack: the
//    "app.apply" / "app.postApply" profiler frames, the "app.apply" span and
//    the workload apply tap.
//
// ClusterServer owns one Probe and hands it to its BaseEngine and, in
// AddEngine, to every middle engine (AttachProbe); RegisterApplicator wraps
// the app in an AppFrame over it. Every sink may be null: an engine with no
// probe attached sees an empty one and records nothing.
#pragma once

#include <any>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/future.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/common/workload.h"
#include "src/core/apply_profiler.h"
#include "src/core/engine.h"
#include "src/core/entry.h"

namespace delos {

struct Probe {
  // Which replica the sinks belong to; the server label on every span.
  std::string server_id;
  ApplyProfiler* profiler = nullptr;
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
  FlightRecorder* recorder = nullptr;
  WorkloadAttributor* workload = nullptr;

  // The probe of an engine that has none attached: every sink null.
  static const Probe& Empty();

  // Resolves a profiler label once for a frame on a per-record path (null
  // without a profiler).
  std::atomic<int64_t>* Slot(const std::string& label) const {
    return profiler != nullptr ? profiler->LabelSlot(label) : nullptr;
  }
  // Registry handles for engines that export gauges or histograms (null
  // without a registry).
  Gauge* GetGauge(const std::string& name) const {
    return metrics != nullptr ? metrics->GetGauge(name) : nullptr;
  }
  Histogram* GetHistogram(const std::string& name) const {
    return metrics != nullptr ? metrics->GetHistogram(name) : nullptr;
  }

  // A flight-recorder event (no-op without a recorder).
  void Record(FlightEventKind kind, std::string_view detail, uint64_t trace_id = 0,
              uint64_t a = 0, uint64_t b = 0) const {
    if (recorder != nullptr) {
      recorder->Record(kind, detail, trace_id, a, b);
    }
  }

  // Propose-path workload tap: charges `layer`'s hand-off of `entry` (its
  // serialized size, headers included) to the entry's clients.
  void ChargePropose(std::string_view layer, const LogEntry& entry) const;
};

class ApplyFrame {
 public:
  // Opens `span`'s frame for one record: the profiler frame on `slot` (from
  // probe.Slot) runs until the frame is destroyed, and a traced record's
  // span starts now.
  ApplyFrame(const Probe& probe, std::atomic<int64_t>* slot, std::string_view span,
             const LogEntry& entry);

  ApplyFrame(const ApplyFrame&) = delete;
  ApplyFrame& operator=(const ApplyFrame&) = delete;

  // Records the span for every trace id the record carries. Called once the
  // layer's apply returned; an apply that throws records no span.
  void End() const;

  bool traced() const { return trace_ids_.has_value(); }
  uint64_t first_trace_id() const { return traced() ? trace_ids_->front() : 0; }

 private:
  const Probe& probe_;
  ApplyProfiler::Scope scope_;
  std::string_view span_;
  // Engaged only for a traced record, so an untraced one builds no id list.
  std::optional<IdList> trace_ids_;
  int64_t start_micros_ = 0;
};

class ProposeFrame {
 public:
  // An untraced frame (tracing off).
  ProposeFrame() = default;
  // Opens the hand-off: with tracing on, the entry keeps its trace ids or
  // gets a fresh one — this layer is then the trace root — and the
  // hand-off clock starts.
  ProposeFrame(const Probe& probe, LogEntry* entry);

  const IdList& trace_ids() const { return trace_ids_; }
  uint64_t first_trace_id() const { return trace_ids_.empty() ? 0 : trace_ids_.front(); }

  // Records `span` over [start, end] for every trace id (end defaults to
  // now).
  void Span(std::string_view span) const;
  void Span(std::string_view span, int64_t end_micros) const;
  // The root's "client.propose" span over [start, end]; no-op unless this
  // layer minted the trace id.
  void RootSpan(int64_t end_micros, bool failed) const;
  // RootSpan once `future` settles, failed when it settles with an error.
  void RootSpanOnCompletion(Future<std::any>& future) const;

 private:
  const Probe* probe_ = nullptr;
  IdList trace_ids_;
  int64_t start_micros_ = 0;
  bool root_ = false;
};

class AppFrame : public IApplicator {
 public:
  // `extractor` (owned by the caller) pulls the semantic key out of an op
  // payload for the workload tap; null attributes ops, bytes and clients
  // but no keys.
  AppFrame(IApplicator* app, const Probe* probe, const IKeyExtractor* extractor);

  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override;
  void PostApply(const LogEntry& entry, LogPos pos) override;

 private:
  IApplicator* app_;
  const Probe* probe_;
  const IKeyExtractor* extractor_;
  std::atomic<int64_t>* apply_slot_;
  std::atomic<int64_t>* postapply_slot_;
};

}  // namespace delos

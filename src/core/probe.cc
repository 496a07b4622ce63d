#include "src/core/probe.h"

namespace delos {

const Probe& Probe::Empty() {
  static const Probe kEmpty;
  return kEmpty;
}

void Probe::ChargePropose(std::string_view layer, const LogEntry& entry) const {
  if (workload != nullptr) {
    workload->ChargePropose(layer, ParseIds(entry, kClientHeaderName), entry.SerializedSize());
  }
}

ApplyFrame::ApplyFrame(const Probe& probe, std::atomic<int64_t>* slot, std::string_view span,
                       const LogEntry& entry)
    : probe_(probe), scope_(probe.profiler, slot), span_(span) {
  // Untraced records (tracer off, or no trace header) pay at most the
  // header lookup.
  if (probe_.tracer != nullptr) {
    IdList ids = ParseIds(entry, kTraceHeaderName);
    if (!ids.empty()) {
      trace_ids_.emplace(std::move(ids));
      start_micros_ = probe_.tracer->NowMicros();
    }
  }
}

void ApplyFrame::End() const {
  if (!traced()) {
    return;
  }
  const int64_t end = probe_.tracer->NowMicros();
  for (const uint64_t id : *trace_ids_) {
    probe_.tracer->RecordSpan(id, span_, probe_.server_id, start_micros_, end);
  }
}

ProposeFrame::ProposeFrame(const Probe& probe, LogEntry* entry) {
  Tracer* tracer = probe.tracer;
  if (tracer == nullptr) {
    return;
  }
  probe_ = &probe;
  trace_ids_ = ParseIds(*entry, kTraceHeaderName);
  if (trace_ids_.empty()) {
    const uint64_t id = tracer->NextTraceId();
    SetTraceIds(entry, {id});
    trace_ids_.push_back(id);
    root_ = true;
  }
  start_micros_ = tracer->NowMicros();
}

void ProposeFrame::Span(std::string_view span) const {
  if (probe_ != nullptr) {
    Span(span, probe_->tracer->NowMicros());
  }
}

void ProposeFrame::Span(std::string_view span, int64_t end_micros) const {
  if (probe_ == nullptr) {
    return;
  }
  for (const uint64_t id : trace_ids_) {
    probe_->tracer->RecordSpan(id, span, probe_->server_id, start_micros_, end_micros);
  }
}

void ProposeFrame::RootSpan(int64_t end_micros, bool failed) const {
  if (!root_) {
    return;
  }
  for (const uint64_t id : trace_ids_) {
    probe_->tracer->RecordSpan(id, "client.propose", probe_->server_id, start_micros_,
                               end_micros, failed);
  }
}

void ProposeFrame::RootSpanOnCompletion(Future<std::any>& future) const {
  if (!root_) {
    return;
  }
  // The frame outlives its engine call; the tracer and ids are captured by
  // value so the span lands even if the proposal settles during teardown.
  future.Then([tracer = probe_->tracer, server = probe_->server_id, ids = trace_ids_,
               start = start_micros_](Result<std::any> result) {
    const int64_t end = tracer->NowMicros();
    for (const uint64_t id : ids) {
      tracer->RecordSpan(id, "client.propose", server, start, end, !result.ok());
    }
  });
}

AppFrame::AppFrame(IApplicator* app, const Probe* probe, const IKeyExtractor* extractor)
    : app_(app),
      probe_(probe),
      extractor_(extractor),
      apply_slot_(probe->Slot("app.apply")),
      postapply_slot_(probe->Slot("app.postApply")) {}

std::any AppFrame::Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  ApplyFrame frame(*probe_, apply_slot_, "app.apply", entry);
  // Sitting at the top of the stack, the tap sees batch sub-entries one by
  // one (BatchingEngine decodes them before calling upstream), so per-key
  // and per-client attribution is exact and, apply being log-driven,
  // identical on every replica. BeginApply keeps the op/byte totals exact
  // for every record; only the sampled subset pays for key extraction,
  // client-id parsing and the sketch updates.
  WorkloadAttributor* workload = probe_->workload;
  if (workload != nullptr && workload->BeginApply(entry.payload.size())) {
    workload->ChargeApplySampled(extractor_ != nullptr ? extractor_->KeyOf(entry.payload) : "",
                                 ParseIds(entry, kClientHeaderName), entry.payload.size());
  }
  std::any result = app_->Apply(txn, entry, pos);
  frame.End();
  return result;
}

void AppFrame::PostApply(const LogEntry& entry, LogPos pos) {
  ApplyProfiler::Scope scope(probe_->profiler, postapply_slot_);
  app_->PostApply(entry, pos);
}

}  // namespace delos

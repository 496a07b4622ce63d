#include "src/core/stackable_engine.h"

#include <algorithm>

#include "src/common/logging.h"

namespace delos {

StackableEngine::StackableEngine(std::string name, IEngine* downstream, LocalStore* store,
                                 StackableEngineOptions options)
    : name_(std::move(name)),
      apply_label_(name_ + ".apply"),
      down_label_(name_ + ".down"),
      downstream_(downstream),
      store_(store),
      space_("e/" + name_ + "/"),
      enabled_key_(space_.Key("enabled")) {
  // Recover the enabled flag; absent means "configured statically".
  auto flag = store_->Snapshot().Get(enabled_key_);
  if (flag.has_value()) {
    enabled_.store(*flag == "1", std::memory_order_release);
  } else {
    enabled_.store(options.start_enabled, std::memory_order_release);
  }
  downstream_->RegisterUpcall(this);
}

void StackableEngine::AttachProbe(const Probe* probe) {
  apply_slot_ = probe->Slot(apply_label_);
  postapply_slot_ = probe->Slot(name_ + ".postApply");
  OnProbeAttached(*probe);
  probe_.store(probe, std::memory_order_release);
}

Future<std::any> StackableEngine::Propose(LogEntry entry) {
  // Even a not-yet-enabled engine may piggyback its header (phase one of the
  // two-phase insertion protocol); it just must not act on it in apply.
  OnPropose(&entry);
  // This layer's hand-off, charged with the entry as it descends (headers
  // included), and its down span: the synchronous hand-off through every
  // layer below. The topmost engine an entry touches mints its trace id and
  // records the client-visible end-to-end span when the propose settles.
  probe().ChargePropose(down_label_, entry);
  ProposeFrame frame(probe(), &entry);
  Future<std::any> future = downstream_->Propose(std::move(entry));
  frame.Span(down_label_);
  frame.RootSpanOnCompletion(future);
  return future;
}

void StackableEngine::SetTrimPrefix(LogPos pos) {
  upstream_constraint_.store(pos, std::memory_order_release);
  RelayTrim();
}

void StackableEngine::SetOwnTrimOpinion(LogPos pos) {
  own_trim_opinion_.store(pos, std::memory_order_release);
  RelayTrim();
}

void StackableEngine::RelayTrim() {
  downstream_->SetTrimPrefix(std::min(upstream_constraint_.load(std::memory_order_acquire),
                                      own_trim_opinion_.load(std::memory_order_acquire)));
}

std::any StackableEngine::Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  // Up-path frame: this layer's profiler frame and, for a traced entry, its
  // apply span on this replica.
  ApplyFrame frame(probe(), apply_slot_, apply_label_, entry);
  upstream_applied_ = false;
  std::any result = ApplyImpl(txn, entry, pos);
  outcome_carry_.Push(
      pos, ApplyOutcome{upstream_applied_,
                        apply_header_.has_value() && apply_header_->msgtype != kMsgTypeApp});
  frame.End();
  return result;
}

std::any StackableEngine::ApplyImpl(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  // Borrowed header peek: the app-data hot path only needs the msgtype, so
  // no blob is copied; the control path materializes the header it consumes.
  // Stashed for the hooks (apply_header()) so they never look it up again.
  apply_header_ = entry.GetHeaderView(name_);
  const std::optional<EngineHeaderView>& header = apply_header_;
  if (header.has_value() && header->msgtype != kMsgTypeApp) {
    // Engine-generated control entry: consumed here, never forwarded.
    if (header->msgtype == kMsgTypeEnable) {
      txn.Put(enabled_key_, "1");
      return std::any(Unit{});
    }
    if (header->msgtype == kMsgTypeDisable) {
      txn.Put(enabled_key_, "0");
      return std::any(Unit{});
    }
    if (!enabled()) {
      return std::any(Unit{});
    }
    const Savepoint savepoint = txn.MakeSavepoint();
    try {
      return ApplyControl(txn, header->Materialize(), entry, pos);
    } catch (const DeterministicError&) {
      txn.RollbackTo(savepoint);
      return std::any(ApplyError{std::current_exception()});
    }
  }

  // Application data path.
  if (!enabled()) {
    return CallUpstream(txn, entry, pos);
  }
  const Savepoint savepoint = txn.MakeSavepoint();
  try {
    return ApplyData(txn, entry, pos);
  } catch (const DeterministicError&) {
    txn.RollbackTo(savepoint);
    upstream_applied_ = false;
    return std::any(ApplyError{std::current_exception()});
  }
}

std::any StackableEngine::CallUpstream(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  if (upstream_ == nullptr) {
    upstream_applied_ = true;
    return std::any(Unit{});
  }
  const Savepoint savepoint = txn.MakeSavepoint();
  try {
    std::any result = upstream_->Apply(txn, entry, pos);
    // A returned ApplyError came from a layer further up that the layer
    // above us already rolled back; the layer above us still applied.
    upstream_applied_ = true;
    return result;
  } catch (const DeterministicError&) {
    txn.RollbackTo(savepoint);
    upstream_applied_ = false;
    return std::any(ApplyError{std::current_exception()});
  }
}

void StackableEngine::PostApply(const LogEntry& entry, LogPos pos) {
  ApplyProfiler::Scope scope(probe().profiler, postapply_slot_);
  // Restore this entry's parked outcome before dispatching so
  // ForwardPostApply (called from the hooks below) sees the value Apply
  // computed for `pos`, not for whatever record the batch applied last. The
  // outcome also says whether this was our control entry, so the data path
  // — every applied record — skips the header lookup; only control entries
  // (and the rare no-outcome fallback, when Apply never ran for `pos`)
  // re-fetch the header.
  bool control = false;
  if (auto outcome = outcome_carry_.Take(pos); outcome.has_value()) {
    upstream_applied_ = outcome->upstream_applied;
    control = outcome->control;
  } else {
    upstream_applied_ = false;
    auto peek = entry.GetHeaderView(name_);
    control = peek.has_value() && peek->msgtype != kMsgTypeApp;
  }
  if (control) {
    auto header = entry.GetHeaderView(name_);
    if (!header.has_value()) {
      return;
    }
    if (header->msgtype == kMsgTypeEnable) {
      enabled_.store(true, std::memory_order_release);
      LOG_INFO << "engine " << name_ << " enabled via log at pos " << pos;
      probe().Record(FlightEventKind::kControl, name_ + " enabled", 0, pos);
      return;
    }
    if (header->msgtype == kMsgTypeDisable) {
      enabled_.store(false, std::memory_order_release);
      LOG_INFO << "engine " << name_ << " disabled via log at pos " << pos;
      probe().Record(FlightEventKind::kControl, name_ + " disabled", 0, pos);
      return;
    }
    if (enabled()) {
      PostApplyControl(header->Materialize(), entry, pos);
    }
    return;
  }
  if (enabled()) {
    PostApplyData(entry, pos);
  } else {
    ForwardPostApply(entry, pos);
  }
}

void StackableEngine::ForwardPostApply(const LogEntry& entry, LogPos pos) {
  if (upstream_ != nullptr && upstream_applied_) {
    upstream_->PostApply(entry, pos);
  }
}

Future<std::any> StackableEngine::ProposeControl(uint64_t msgtype, std::string blob) {
  LogEntry entry = MakeControlEntry(name_, msgtype, std::move(blob));
  return downstream_->Propose(std::move(entry));
}

void StackableEngine::EnableViaLog() { ProposeControl(kMsgTypeEnable, "").Get(); }

void StackableEngine::DisableViaLog() { ProposeControl(kMsgTypeDisable, "").Get(); }

}  // namespace delos

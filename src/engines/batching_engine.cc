#include "src/engines/batching_engine.h"

#include <algorithm>
#include <condition_variable>
#include <utility>

#include "src/common/serde.h"

namespace delos {

namespace {

constexpr char kEngineName[] = "batching";

// An open batch waits only on an in-flight batch, so one older than these
// bounds means the downstream propose path is wedged.
constexpr int64_t kQueueDegradedMicros = 100'000;
constexpr int64_t kQueueUnhealthyMicros = 1'000'000;

// The sub-entries, each length-prefixed, written into one exactly sized
// buffer (the same bytes as prefixing each entry's Serialize()).
std::string EncodeBatch(const std::vector<LogEntry>& entries) {
  size_t total = Serializer::VarintSize(entries.size());
  for (const LogEntry& entry : entries) {
    const size_t size = entry.SerializedSize();
    total += Serializer::VarintSize(size) + size;
  }
  Serializer ser(total);
  ser.WriteVarint(entries.size());
  for (const LogEntry& entry : entries) {
    ser.WriteVarint(entry.SerializedSize());
    entry.SerializeInto(ser);
  }
  return ser.Release();
}

std::vector<LogEntry> DecodeBatch(std::string_view blob) {
  Deserializer de(blob);
  const uint64_t count = de.ReadVarint();
  std::vector<LogEntry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    entries.push_back(LogEntry::Deserialize(de.ReadStringView()));
  }
  return entries;
}

}  // namespace

struct BatchingEngine::Pacing {
  std::mutex mu;
  // Signalled when `flushers` drops to zero; the destructor waits on it.
  std::condition_variable idle;
  // The engine while it lives. The destructor detaches it, after which a
  // settling batch releases only its own waiters.
  BatchingEngine* engine = nullptr;
  Batch open;
  // Serialized bytes of the open batch's sub-entries.
  size_t open_bytes = 0;
  // Injected-clock time the open batch received its first entry (0 when no
  // batch is open); HealthCheck's queue-age verdict reads it.
  int64_t open_since_micros = 0;
  // Batches proposed downstream whose futures have not settled.
  size_t in_flight = 0;
  // Threads inside FlushDue's downstream propose. Each re-checks for a due
  // batch when it is back, so a settling batch need not start another.
  size_t flushers = 0;
};

BatchingEngine::BatchingEngine(Options options, IEngine* downstream, LocalStore* store)
    : StackableEngine(kEngineName, downstream, store,
                      StackableEngineOptions{options.start_enabled}),
      options_(options),
      pacing_(std::make_shared<Pacing>()) {
  if (options_.clock == nullptr) {
    options_.clock = RealClock::Instance();
  }
  pacing_->engine = this;
}

void BatchingEngine::OnProbeAttached(const Probe& probe) {
  queue_depth_gauge_ = probe.GetGauge("batching.queue.depth");
}

BatchingEngine::~BatchingEngine() {
  std::unique_lock<std::mutex> lock(pacing_->mu);
  // Detach, then wait out any flush in progress: from here on no settling
  // batch reaches this engine. Whatever is still open is proposed once more
  // so its waiters are not left hanging.
  pacing_->engine = nullptr;
  pacing_->idle.wait(lock, [this] { return pacing_->flushers == 0; });
  if (pacing_->open.entries.empty()) {
    return;
  }
  Batch batch = TakeOpenBatch();
  lock.unlock();
  ProposeBatch(std::move(batch));
}

Future<std::any> BatchingEngine::Propose(LogEntry entry) {
  if (!enabled()) {
    return downstream()->Propose(std::move(entry));
  }
  // The queue hand-off (this engine bypasses the generic
  // StackableEngine::Propose). The layers below charge the merged batch entry
  // once, carrying the union of client ids. Queue-wait accounting starts
  // now and its span is recorded at flush; an entry entering the stack at
  // this layer is stamped here, so batched proposals are traced even with
  // no engine above.
  probe().ChargePropose("batching.queue", entry);
  Waiter waiter;
  Future<std::any> future = waiter.promise.GetFuture();
  waiter.frame = ProposeFrame(probe(), &entry);
  const size_t bytes = entry.SerializedSize();
  std::unique_lock<std::mutex> lock(pacing_->mu);
  Pacing& pacing = *pacing_;
  if (pacing.open.entries.empty()) {
    pacing.open_since_micros = options_.clock->NowMicros();
  }
  pacing.open.entries.push_back(std::move(entry));
  pacing.open.waiters.push_back(std::move(waiter));
  pacing.open_bytes += bytes;
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<int64_t>(pacing.open.entries.size()));
  }
  FlushDue(lock);
  return future;
}

void BatchingEngine::FlushDue(std::unique_lock<std::mutex>& lock) {
  Pacing& pacing = *pacing_;
  while (pacing.engine != nullptr && !pacing.open.entries.empty() &&
         (pacing.in_flight == 0 || pacing.open.entries.size() >= options_.max_batch_entries ||
          pacing.open_bytes >= kMaxBatchBytes)) {
    Batch batch = TakeOpenBatch();
    ++pacing.flushers;
    lock.unlock();
    ProposeBatch(std::move(batch));
    lock.lock();
    if (--pacing.flushers == 0) {
      pacing.idle.notify_all();
    }
  }
}

BatchingEngine::Batch BatchingEngine::TakeOpenBatch() {
  Pacing& pacing = *pacing_;
  Batch batch = std::exchange(pacing.open, Batch{});
  pacing.open_bytes = 0;
  pacing.open_since_micros = 0;
  pacing.in_flight += 1;
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(0);
  }
  return batch;
}

void BatchingEngine::ProposeBatch(Batch batch) {
  std::vector<LogEntry>& entries = batch.entries;
  // One shared vector holds the batch's waiters for the completion
  // callback (whose std::function must be copyable).
  auto waiters = std::make_shared<std::vector<Waiter>>(std::move(batch.waiters));
  batches_proposed_.fetch_add(1, std::memory_order_relaxed);
  entries_batched_.fetch_add(entries.size(), std::memory_order_relaxed);

  LogEntry entry = MakeControlEntry(name(), kMsgTypeBatch, EncodeBatch(entries));
  // Stamp the batch with the union of the constituents' client ids (exactly
  // like trace ids below): the shared append downstream attributes to every
  // proposing client.
  std::vector<uint64_t> merged_clients;
  for (const LogEntry& sub : entries) {
    for (const uint64_t id : ParseIds(sub, kClientHeaderName)) {
      merged_clients.push_back(id);
    }
  }
  std::sort(merged_clients.begin(), merged_clients.end());
  merged_clients.erase(std::unique(merged_clients.begin(), merged_clients.end()),
                       merged_clients.end());
  if (!merged_clients.empty()) {
    SetClientIds(&entry, merged_clients);
  }
  Tracer* tracer = probe().tracer;
  if (tracer != nullptr) {
    // Close every sub-entry's queue-wait span and stamp the batch control
    // entry with the *union* of their ids: the batch never gets an id of its
    // own, so the shared append downstream attributes to each constituent
    // proposal's trace.
    const int64_t flush_micros = tracer->NowMicros();
    std::vector<uint64_t> merged;
    for (const Waiter& waiter : *waiters) {
      waiter.frame.Span("batching.queue", flush_micros);
      merged.insert(merged.end(), waiter.frame.trace_ids().begin(),
                    waiter.frame.trace_ids().end());
    }
    if (!merged.empty()) {
      SetTraceIds(&entry, merged);
    }
  }
  downstream()
      ->Propose(std::move(entry))
      .Then([pacing = pacing_, waiters, tracer](Result<std::any> result) {
        {
          // Release the pacing first: when this was the last batch in
          // flight, the open batch goes downstream now. A flusher already
          // inside FlushDue re-checks on its own.
          std::unique_lock<std::mutex> lock(pacing->mu);
          pacing->in_flight -= 1;
          if (pacing->engine != nullptr && pacing->flushers == 0) {
            pacing->engine->FlushDue(lock);
          }
        }
        // The callback owns its copy of the result, so the sub-results are
        // moved out to the waiters.
        std::any value;
        std::vector<std::any>* batch_results = nullptr;
        if (result.ok()) {
          value = std::move(result).value();
          batch_results = std::any_cast<std::vector<std::any>>(&value);
        }
        if (tracer != nullptr) {
          // Sub-entries whose ids were minted here get their client-visible
          // root span now that the batch's outcome is known — including the
          // per-sub-entry outcome, so a failed constituent is marked failed
          // even when the batch as a whole committed.
          const int64_t end = tracer->NowMicros();
          for (size_t i = 0; i < waiters->size(); ++i) {
            const bool failed = batch_results == nullptr || i >= batch_results->size() ||
                                IsApplyError((*batch_results)[i]);
            (*waiters)[i].frame.RootSpan(end, failed);
          }
        }
        if (!result.ok()) {
          for (Waiter& waiter : *waiters) {
            waiter.promise.SetException(result.error());
          }
          return;
        }
        // The batch apply returned one result per sub-entry.
        std::vector<std::any>& results = *batch_results;
        for (size_t i = 0; i < waiters->size(); ++i) {
          Promise<std::any>& promise = (*waiters)[i].promise;
          if (i >= results.size()) {
            promise.SetException(std::make_exception_ptr(
                DelosError("batch result missing for sub-entry")));
            continue;
          }
          SettleProposal(promise, std::move(results[i]));
        }
      });
}

HealthReport BatchingEngine::HealthCheck() const {
  int64_t since;
  int64_t depth;
  {
    std::lock_guard<std::mutex> lock(pacing_->mu);
    since = pacing_->open_since_micros;
    depth = static_cast<int64_t>(pacing_->open.entries.size());
  }
  HealthReport report{name(), HealthState::kOk, "", depth};
  if (depth == 0 || since == 0) {
    return report;
  }
  const int64_t age = options_.clock->NowMicros() - since;
  if (age >= kQueueUnhealthyMicros) {
    report.state = HealthState::kUnhealthy;
    report.reason = "open batch stuck " + std::to_string(age) + "us (" + std::to_string(depth) +
                    " entries) behind an in-flight batch; downstream wedged";
    report.value = age;
  } else if (age >= kQueueDegradedMicros) {
    report.state = HealthState::kDegraded;
    report.reason = "open batch aged " + std::to_string(age) + "us (" + std::to_string(depth) +
                    " entries) behind an in-flight batch";
    report.value = age;
  }
  return report;
}

std::any BatchingEngine::ApplyControl(RWTxn& txn, const EngineHeader& header,
                                      const LogEntry& entry, LogPos pos) {
  if (header.msgtype != kMsgTypeBatch) {
    return std::any(Unit{});
  }
  // Group commit: every sub-entry applies within this one transaction.
  AppliedBatch applied;
  applied.entries = DecodeBatch(header.blob);
  applied.ok.assign(applied.entries.size(), false);
  std::vector<std::any> results;
  results.reserve(applied.entries.size());
  for (size_t i = 0; i < applied.entries.size(); ++i) {
    std::any result = CallUpstream(txn, applied.entries[i], pos);
    applied.ok[i] = !IsApplyError(result);
    results.push_back(std::move(result));
  }
  applying_carry_.Push(pos, std::move(applied));
  return std::any(std::move(results));
}

void BatchingEngine::PostApplyControl(const EngineHeader& header, const LogEntry& entry,
                                      LogPos pos) {
  if (header.msgtype != kMsgTypeBatch || upstream() == nullptr) {
    return;
  }
  const AppliedBatch applied = applying_carry_.Take(pos).value_or(AppliedBatch{});
  for (size_t i = 0; i < applied.entries.size(); ++i) {
    if (applied.ok[i]) {
      upstream()->PostApply(applied.entries[i], pos);
    }
  }
}

}  // namespace delos

#include "src/engines/session_order_engine.h"

#include <optional>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/serde.h"

namespace delos {

namespace {

constexpr char kEngineName[] = "sessionorder";

// A proposal pending longer than these bounds means its seq never applied —
// a session-sequence hole the retries failed to plug, or a wedged sub-stack.
constexpr int64_t kPendingDegradedMicros = 1'000'000;
constexpr int64_t kPendingUnhealthyMicros = 5'000'000;

std::string EncodeSessionHeader(const std::string& session, uint64_t seq) {
  Serializer ser;
  ser.WriteString(session);
  ser.WriteVarint(seq);
  return ser.Release();
}

std::pair<std::string, uint64_t> DecodeSessionHeader(std::string_view blob) {
  Deserializer de(blob);
  std::string session = de.ReadString();
  const uint64_t seq = de.ReadVarint();
  return {std::move(session), seq};
}

std::string EncodeSeq(uint64_t seq) {
  Serializer ser;
  ser.WriteVarint(seq);
  return ser.Release();
}

uint64_t DecodeSeq(const std::string& bytes) {
  Deserializer de(bytes);
  return de.ReadVarint();
}

// Bound on same-seq re-appends after a sub-stack append failure. The retries
// exist to plug holes in the session sequence (a seq that never commits
// blocks every later seq forever); the bound keeps a dead log from looping.
constexpr int kMaxAppendRetries = 8;

}  // namespace

SessionOrderEngine::SessionOrderEngine(Options options, IEngine* downstream, LocalStore* store)
    : StackableEngine(kEngineName, downstream, store,
                      StackableEngineOptions{options.start_enabled}),
      options_(std::move(options)) {
  if (options_.clock == nullptr) {
    options_.clock = RealClock::Instance();
  }
  Rng rng(static_cast<uint64_t>(RealClock::Instance()->NowMicros()) ^
          Fnv1a64(options_.server_id) ^ 0x5e55104uLL);
  session_id_ = options_.server_id + "#" + rng.String(8);
}

Future<std::any> SessionOrderEngine::Propose(LogEntry entry) {
  if (!enabled()) {
    return downstream()->Propose(std::move(entry));
  }
  Promise<std::any> promise;
  Future<std::any> future = promise.GetFuture();
  // Trace ids are stamped before the entry is copied into the pending map so
  // retries re-propose the same ids — a retried append shows up as extra
  // spans on the *original* trace, which is exactly the causality a debugger
  // wants to see.
  const ProposeFrame frame(probe(), &entry);
  LogEntry stamped;
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    seq = next_seq_++;
    entry.SetHeader(name(), EngineHeader{kMsgTypeApp, EncodeSessionHeader(session_id_, seq)});
    stamped = entry;
    pending_.emplace(seq, PendingPropose{std::move(entry), std::move(promise), 0,
                                         options_.clock->NowMicros()});
  }
  // The sub-stack's return value is ignored: this propose is completed from
  // postApply when its sequence number applies in order. Append failures are
  // retried with the same sequence number (see ProposeStamped).
  ProposeStamped(std::move(stamped), seq);
  // Sequencing span: stamping plus the synchronous hand-off of the first
  // append attempt.
  frame.Span("sessionorder.seq");
  frame.RootSpanOnCompletion(future);
  return future;
}

void SessionOrderEngine::ProposeStamped(LogEntry stamped, uint64_t seq) {
  downstream()->Propose(std::move(stamped)).Then([this, seq](Result<std::any> result) {
    if (result.ok()) {
      return;
    }
    // The append failed — or *may* have failed (a timeout is ambiguous). The
    // seq must still commit or every later seq in this session is filtered as
    // a gap, so retry the same stamped entry. If the first append actually
    // committed, the retry applies as seq < expected and is filtered.
    std::optional<Promise<std::any>> to_fail;
    std::optional<LogEntry> to_retry;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      auto it = pending_.find(seq);
      if (it == pending_.end()) {
        // Already completed from postApply (the "failed" append committed).
        return;
      }
      if (++it->second.append_retries <= kMaxAppendRetries) {
        to_retry = it->second.stamped_entry;
      } else {
        to_fail.emplace(std::move(it->second.promise));
        pending_.erase(it);
      }
    }
    if (to_retry.has_value()) {
      ProposeStamped(*std::move(to_retry), seq);
      return;
    }
    to_fail->SetException(result.error());
  });
}

std::any SessionOrderEngine::ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  Carried carried;
  std::any result = ApplyDataImpl(txn, entry, pos, carried);
  carry_.Push(pos, std::move(carried));
  return result;
}

std::any SessionOrderEngine::ApplyDataImpl(RWTxn& txn, const LogEntry& entry, LogPos pos,
                                           Carried& carried) {
  const std::optional<EngineHeaderView>& header = apply_header();
  if (!header.has_value()) {
    // Entry from a stack iteration without this engine: pass through.
    return CallUpstream(txn, entry, pos);
  }
  auto [session, seq] = DecodeSessionHeader(header->blob);
  carried.was_ours = (session == session_id_);
  carried.seq = seq;

  const std::string next_key = space().Key("next/" + session);
  auto stored = txn.Get(next_key);
  const uint64_t expected = stored.has_value() ? DecodeSeq(*stored) : 1;

  if (seq == expected) {
    txn.Put(next_key, EncodeSeq(seq + 1));
    carried.outcome = Outcome::kApplied;
    std::any result = CallUpstream(txn, entry, pos);
    if (!carried.was_ours) {
      return result;
    }
    // Our own proposal: its promise gets the result, and the stamped
    // propose below us (which only checks for failure) gets just the error
    // or a unit, so the result is never copied.
    carried.result = std::move(result);
    return IsApplyError(carried.result) ? carried.result : std::any(Unit{});
  }
  if (seq < expected) {
    // Duplicate from a re-propose: filtered — exactly-once semantics.
    duplicates_filtered_.fetch_add(1, std::memory_order_relaxed);
    carried.outcome = Outcome::kDuplicate;
    return std::any(Unit{});
  }
  // Gap: the log reordered this session's entries. Filter; the proposer
  // re-proposes everything from `expected` on.
  disorder_events_.fetch_add(1, std::memory_order_relaxed);
  carried.outcome = Outcome::kGap;
  return std::any(Unit{});
}

void SessionOrderEngine::PostApplyData(const LogEntry& entry, LogPos pos) {
  Carried carried = carry_.Take(pos).value_or(Carried{});
  switch (carried.outcome) {
    case Outcome::kApplied:
      if (carried.was_ours) {
        // Short-circuit: complete the waiting propose directly, once the
        // batch is published (the BaseEngine's completion pass).
        std::optional<Promise<std::any>> promise;
        {
          std::lock_guard<std::mutex> lock(pending_mu_);
          auto it = pending_.find(carried.seq);
          if (it != pending_.end()) {
            promise.emplace(std::move(it->second.promise));
            pending_.erase(it);
          }
        }
        if (promise.has_value()) {
          downstream()->CompleteAfterPublish(*std::move(promise), std::move(carried.result));
        }
      }
      break;
    case Outcome::kGap:
      if (carried.was_ours) {
        // Our own entry arrived out of order: re-propose the whole pending
        // window starting at the gap, with original sequence numbers.
        ReproposeFrom(0);
      }
      break;
    case Outcome::kDuplicate:
    case Outcome::kNone:
      break;
  }
  ForwardPostApply(entry, pos);
}

void SessionOrderEngine::ReproposeFrom(uint64_t first_seq) {
  std::vector<std::pair<uint64_t, LogEntry>> to_repropose;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (const auto& [seq, pending] : pending_) {
      if (seq >= first_seq) {
        to_repropose.emplace_back(seq, pending.stamped_entry);
      }
    }
  }
  LOG_DEBUG << "sessionorder: re-proposing " << to_repropose.size() << " entries after disorder";
  for (auto& [seq, entry] : to_repropose) {
    ProposeStamped(std::move(entry), seq);
  }
}

HealthReport SessionOrderEngine::HealthCheck() const {
  int64_t oldest = 0;
  int64_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    depth = static_cast<int64_t>(pending_.size());
    // pending_ is keyed by seq; the lowest seq is the oldest stamp.
    if (!pending_.empty()) {
      oldest = pending_.begin()->second.stamped_micros;
    }
  }
  HealthReport report{name(), HealthState::kOk, "", depth};
  if (depth == 0) {
    return report;
  }
  const int64_t age = options_.clock->NowMicros() - oldest;
  if (age >= kPendingUnhealthyMicros) {
    report.state = HealthState::kUnhealthy;
    report.reason = "oldest pending seq stalled " + std::to_string(age) + "us (" +
                    std::to_string(depth) + " pending; session-sequence hole)";
    report.value = age;
  } else if (age >= kPendingDegradedMicros) {
    report.state = HealthState::kDegraded;
    report.reason = "oldest pending seq waiting " + std::to_string(age) + "us (" +
                    std::to_string(depth) + " pending)";
    report.value = age;
  }
  return report;
}

uint64_t SessionOrderEngine::disorder_events() const {
  return disorder_events_.load(std::memory_order_relaxed);
}

uint64_t SessionOrderEngine::duplicates_filtered() const {
  return duplicates_filtered_.load(std::memory_order_relaxed);
}

}  // namespace delos

#include "src/common/trace.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <tuple>

#include "src/common/metrics.h"

namespace delos {

namespace {

constexpr size_t kMaxSpans = 1 << 16;

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

Tracer::Tracer() : Tracer(Options{}) {}

Tracer::Tracer(Options options) : options_(options) {
  if (options_.clock == nullptr) {
    options_.clock = RealClock::Instance();
  }
}

uint64_t Tracer::NextTraceId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

uint64_t Tracer::last_trace_id() const {
  return next_id_.load(std::memory_order_relaxed) - 1;
}

int64_t Tracer::NowMicros() const { return options_.clock->NowMicros(); }

void Tracer::RecordSpan(uint64_t trace_id, std::string_view name, std::string_view server,
                        int64_t start_micros, int64_t end_micros, bool failed) {
  TraceSpan span;
  span.trace_id = trace_id;
  span.name = std::string(name);
  span.server = std::string(server);
  span.start_micros = start_micros;
  span.end_micros = end_micros;
  span.failed = failed;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [_, observer] : observers_) {
    observer(span);
  }
  spans_.push_back(std::move(span));
  while (spans_.size() > kMaxSpans) {
    spans_.pop_front();
  }
}

uint64_t Tracer::AddObserver(SpanObserver observer) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_observer_id_++;
  observers_.emplace_back(id, std::move(observer));
  return id;
}

void Tracer::RemoveObserver(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (it->first == id) {
      observers_.erase(it);
      break;
    }
  }
}

std::vector<TraceSpan> Tracer::Collect(uint64_t trace_id) const {
  std::vector<TraceSpan> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const TraceSpan& span : spans_) {
      if (span.trace_id == trace_id) {
        spans.push_back(span);
      }
    }
  }
  // Deterministic order: spans arrive from many threads (every replica's
  // apply thread plus the proposer), so sort by content, not arrival.
  std::sort(spans.begin(), spans.end(), [](const TraceSpan& x, const TraceSpan& y) {
    return std::tie(x.start_micros, x.end_micros, x.server, x.name) <
           std::tie(y.start_micros, y.end_micros, y.server, y.name);
  });
  return spans;
}

std::string Tracer::Render(uint64_t trace_id) const {
  const std::vector<TraceSpan> spans = Collect(trace_id);
  std::ostringstream out;
  out << "trace " << trace_id << " (" << spans.size() << " spans)\n";
  for (const TraceSpan& span : spans) {
    out << "  [" << span.start_micros << ".." << span.end_micros << "us] "
        << (span.server.empty() ? "client" : span.server) << " " << span.name
        << (span.failed ? " FAILED" : "") << "\n";
  }
  return out.str();
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kAppend:
      return "append";
    case FlightEventKind::kApply:
      return "apply";
    case FlightEventKind::kCommit:
      return "commit";
    case FlightEventKind::kViewChange:
      return "view";
    case FlightEventKind::kLease:
      return "lease";
    case FlightEventKind::kFault:
      return "fault";
    case FlightEventKind::kCrash:
      return "crash";
    case FlightEventKind::kControl:
      return "control";
    case FlightEventKind::kFlush:
      return "flush";
    case FlightEventKind::kTrim:
      return "trim";
    case FlightEventKind::kHealth:
      return "health";
    case FlightEventKind::kWorkload:
      return "workload";
    case FlightEventKind::kDivergence:
      return "divergence";
    case FlightEventKind::kSeal:
      return "seal";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity, Clock* clock)
    : clock_(clock != nullptr ? clock : RealClock::Instance()),
      slots_(RoundUpPow2(std::max<size_t>(capacity, 2))),
      mask_(slots_.size() - 1) {}

void FlightRecorder::Record(FlightEventKind kind, std::string_view detail, uint64_t trace_id,
                            uint64_t a, uint64_t b) {
  const int64_t now = clock_->NowMicros();
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & mask_];
  // Claim the slot by CAS-ing its version to our odd (mid-write) value. Two
  // writers can hold sequence numbers that map to the same slot when the
  // ring wraps within the duration of one Record; without the claim, the
  // slower writer's stores could interleave with the faster one's and then
  // publish an even version over the torn payload — a tear the reader's
  // version check cannot detect. The claim makes ownership exclusive: if the
  // slot is mid-write (odd) or already carries a claim/publish newer than
  // ours, we are the lapped writer and drop the event (writers never wait;
  // losing an event when the ring wraps faster than one store sequence is
  // the documented best-effort contract).
  const uint64_t claim = 2 * seq + 1;
  uint64_t expected = slot.version.load(std::memory_order_relaxed);
  do {
    if ((expected & 1) != 0 || expected > claim) {
      return;
    }
  } while (!slot.version.compare_exchange_weak(expected, claim, std::memory_order_acq_rel,
                                               std::memory_order_relaxed));
  // Seqlock write side: the release fence orders the odd claim before the
  // payload stores, so a reader that observes any of our payload observes
  // the odd version on its re-check.
  std::atomic_thread_fence(std::memory_order_release);
  slot.micros.store(now, std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  const size_t len = std::min(detail.size(), kDetailWords * sizeof(uint64_t));
  slot.kind_len.store(static_cast<uint64_t>(kind) | (static_cast<uint64_t>(len) << 8),
                      std::memory_order_relaxed);
  for (size_t w = 0; w < kDetailWords; ++w) {
    uint64_t word = 0;
    const size_t off = w * sizeof(uint64_t);
    if (off < len) {
      std::memcpy(&word, detail.data() + off, std::min(sizeof(uint64_t), len - off));
    }
    slot.detail[w].store(word, std::memory_order_relaxed);
  }
  slot.version.store(2 * (seq + 1), std::memory_order_release);
}

std::vector<FlightRecorder::Event> FlightRecorder::Snapshot() const {
  std::vector<Event> events;
  events.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1) != 0) {
      continue;  // never written, or a write is in progress
    }
    Event event;
    event.seq = v1 / 2 - 1;
    event.micros = slot.micros.load(std::memory_order_relaxed);
    event.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    event.a = slot.a.load(std::memory_order_relaxed);
    event.b = slot.b.load(std::memory_order_relaxed);
    const uint64_t kind_len = slot.kind_len.load(std::memory_order_relaxed);
    event.kind = static_cast<FlightEventKind>(kind_len & 0xff);
    const size_t len = std::min<size_t>(kind_len >> 8, kDetailWords * sizeof(uint64_t));
    char buffer[kDetailWords * sizeof(uint64_t)];
    for (size_t w = 0; w < kDetailWords; ++w) {
      const uint64_t word = slot.detail[w].load(std::memory_order_relaxed);
      std::memcpy(buffer + w * sizeof(uint64_t), &word, sizeof(uint64_t));
    }
    event.detail.assign(buffer, len);
    // Seqlock read side: the acquire fence orders the payload loads above
    // before the version re-read, closing the window where a torn payload
    // could pass a reordered version check.
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t v2 = slot.version.load(std::memory_order_relaxed);
    if (v1 != v2) {
      continue;  // overwritten while we read it
    }
    events.push_back(std::move(event));
  }
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.seq < y.seq; });
  return events;
}

std::string FlightRecorder::Dump() const {
  const std::vector<Event> events = Snapshot();
  std::ostringstream out;
  out << "flight recorder: " << events_recorded() << " events recorded, " << events.size()
      << " in ring (capacity " << capacity() << ")\n";
  for (const Event& event : events) {
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
  return out.str();
}

std::string DebugDump(const MetricsRegistry* metrics, const FlightRecorder* recorder) {
  std::ostringstream out;
  out << "== metrics ==\n";
  if (metrics != nullptr) {
    out << metrics->RenderPrometheus();
  }
  out << "== flight recorder ==\n";
  if (recorder != nullptr) {
    out << recorder->Dump();
  }
  return out.str();
}

}  // namespace delos

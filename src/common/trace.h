// Per-proposal tracing and the always-on flight recorder.
//
// The per-layer aggregates driving Figures 7/8/11 answer "where does the
// stack spend time on average"; what production debugging actually chases is
// per-proposal causality — where did *this* propose go as it flowed down
// through the header map, into the shared log, and back up through apply on
// every replica. Two complementary mechanisms:
//
//  * Tracer — assigns each propose a trace id (carried Delos-style as one
//    more piggybacked header; see core/entry.h) and collects named spans
//    from every hop: the client-visible propose, each engine's down-path
//    hand-off, the quorum append, and the per-replica apply of every layer.
//    Ids come from a plain counter and timestamps from an injected Clock, so
//    a trace captured under the simulator is byte-identical across replays
//    of the same schedule. One Tracer is shared by every server of a cluster
//    (it is the cross-replica aggregation point), so Render(id) reconstructs
//    the full lifecycle of one proposal across the fleet.
//
//  * FlightRecorder — a fixed-size lock-free ring of recent structured
//    events (appends, batch commits, view changes, lease transitions, fault
//    injections, crashes). It is always on: recording is a handful of
//    relaxed atomic stores with no allocation, so servers keep it running in
//    production and dump the ring only when something goes wrong — on crash,
//    on demand via DebugDump(), or automatically by the simulator when a
//    conformance verdict fails. Readers use a per-slot version (seqlock
//    style) to discard events they raced with; writers never wait.
//
// This header lives in src/common and knows nothing about LogEntry; the
// trace-id <-> header-map plumbing is in src/core/entry.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/clock.h"

namespace delos {

class MetricsRegistry;

// One hop of one proposal's lifecycle. `server` is empty for client-side
// spans recorded before the entry reaches a particular replica's stack.
struct TraceSpan {
  uint64_t trace_id = 0;
  std::string name;    // e.g. "batching.queue", "base.append", "lease.apply"
  std::string server;  // replica that recorded the span
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  // True when the operation the span covers ended in error. Only root
  // ("client.propose") spans set this today; the latency attributor uses it
  // to force-capture failed proposals as slow-trace exemplars.
  bool failed = false;
};

// Collects spans for all proposals of one cluster. Record is cheap (one
// mutex push per span — tracing is opt-in, unlike the flight recorder) and
// bounded: the oldest spans fall off once 2^16 are held.
class Tracer {
 public:
  struct Options {
    Clock* clock = nullptr;  // defaults to RealClock; sims inject a SimClock
  };

  Tracer();
  explicit Tracer(Options options);

  // Fresh trace id for a proposal entering the stack. Ids are sequential
  // starting at 1, so under a deterministic schedule proposal k always gets
  // id k — the property the sim's replay-identical-trace check leans on.
  uint64_t NextTraceId();
  // The most recently assigned id (0 if none): "the trace of the propose I
  // just did" for benches and smoke tests.
  uint64_t last_trace_id() const;

  int64_t NowMicros() const;

  void RecordSpan(uint64_t trace_id, std::string_view name, std::string_view server,
                  int64_t start_micros, int64_t end_micros, bool failed = false);

  // Span observers (the latency attributor's feed). Each completed span is
  // delivered synchronously on the recording thread, under the same mutex
  // that guards the span ring — dispatch adds zero extra synchronization to
  // the record path, and with no observers the loop body never runs.
  // AddObserver returns a registration id; observers MUST be removed before
  // their owner dies — sim servers are torn down and rebuilt mid-run while
  // the cluster-wide Tracer lives on. Observers must not call back into the
  // Tracer (Collect/Render/RecordSpan) or they would self-deadlock.
  using SpanObserver = std::function<void(const TraceSpan&)>;
  uint64_t AddObserver(SpanObserver observer);
  void RemoveObserver(uint64_t id);

  // All spans recorded for `trace_id`, deterministically ordered by
  // (start, end, server, name) — thread arrival order never shows through.
  std::vector<TraceSpan> Collect(uint64_t trace_id) const;

  // Human-readable rendering of one trace, byte-identical for identical
  // span sets.
  std::string Render(uint64_t trace_id) const;

  size_t span_count() const;
  void Clear();

 private:
  Options options_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::deque<TraceSpan> spans_;
  uint64_t next_observer_id_ = 1;
  std::vector<std::pair<uint64_t, SpanObserver>> observers_;
};

// Event kinds the flight recorder knows about. Fixed small enum so a dump
// stays greppable; free-form context goes in the (truncated) detail field.
enum class FlightEventKind : uint8_t {
  kAppend = 0,      // shared-log append completed (a = pos, 0 on failure)
  kApply = 1,       // a traced record applied locally (a = pos)
  kCommit = 2,      // group-commit batch committed (a = first pos, b = last)
  kViewChange = 3,  // membership changed (join/eject)
  kLease = 4,       // lease acquired/renewed/expired
  kFault = 5,       // injected fault fired (sim)
  kCrash = 6,       // server crashed / fatal error / crash hook fired
  kControl = 7,     // engine control command (enable/disable, ...)
  kFlush = 8,       // LocalStore checkpoint flushed (a = durable pos)
  kTrim = 9,        // log trimmed (a = new trim prefix)
  kHealth = 11,     // watchdog health transition (a = new state, b = value)
  kWorkload = 12,   // hot key/client crossed the share threshold (a = ops, b = share %)
  kDivergence = 13, // digest beacon mismatch convicted divergence (a = window lo, b = window hi)
  kSeal = 14,       // loglet sealed (a = cached records invalidated by the seal)
};

const char* FlightEventKindName(FlightEventKind kind);

// Always-on bounded ring of recent events. Writers are lock-free: one
// fetch_add to claim a slot plus relaxed stores into it, bracketed by a
// per-slot version (odd = write in progress). Readers snapshot the ring and
// drop any slot whose version changed under them, so a dump taken during a
// crash is best-effort-consistent without ever stalling the hot path.
class FlightRecorder {
 public:
  static constexpr size_t kDetailWords = 6;  // 48 bytes of detail text

  struct Event {
    uint64_t seq = 0;  // global record order (monotonic)
    int64_t micros = 0;
    uint64_t trace_id = 0;
    uint64_t a = 0;
    uint64_t b = 0;
    FlightEventKind kind = FlightEventKind::kAppend;
    std::string detail;
  };

  // Capacity is rounded up to a power of two. The clock defaults to
  // RealClock; the simulator injects its own so dumps replay identically.
  explicit FlightRecorder(size_t capacity = 4096, Clock* clock = nullptr);

  void Record(FlightEventKind kind, std::string_view detail, uint64_t trace_id = 0,
              uint64_t a = 0, uint64_t b = 0);

  // Events currently in the ring, oldest first. Slots being overwritten
  // concurrently are skipped.
  std::vector<Event> Snapshot() const;

  // Text dump of Snapshot(), one line per event.
  std::string Dump() const;

  uint64_t events_recorded() const { return next_.load(std::memory_order_relaxed); }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    // 0 = never written; odd = write in progress; even = 2 * (seq + 1).
    std::atomic<uint64_t> version{0};
    std::atomic<int64_t> micros{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> kind_len{0};  // kind | (detail length << 8)
    std::atomic<uint64_t> detail[kDetailWords] = {};
  };

  Clock* clock_;
  std::vector<Slot> slots_;
  size_t mask_;
  std::atomic<uint64_t> next_{0};
};

// The on-demand debug endpoint: Prometheus-style exposition of every
// counter / histogram / gauge in `metrics`, followed by the flight-recorder
// ring. Either argument may be null.
std::string DebugDump(const MetricsRegistry* metrics, const FlightRecorder* recorder);

}  // namespace delos

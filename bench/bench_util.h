// Shared load-generation and reporting helpers for the paper-reproduction
// benches. Open-loop drivers measure response time (queueing included) at an
// offered rate — the methodology behind the paper's throughput/latency
// curves; closed-loop drivers measure peak throughput. The replay rig at the
// bottom (one backlog builder, one replay function, one paired gate and one
// stamped JSON writer) is what every apply-path measurement goes through.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/apps/zelos/zelos.h"
#include "src/common/blocking_queue.h"
#include "src/common/checksum.h"
#include "src/common/clock.h"
#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/serde.h"
#include "src/core/base_engine.h"
#include "src/core/cluster.h"
#include "src/core/entry.h"
#include "src/engines/stacks.h"

namespace delos::bench {

struct LoadResult {
  double achieved_per_sec = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  std::shared_ptr<Histogram> latency = std::make_shared<Histogram>();  // response time, us
};

// Offers `rate_per_sec` ops for `duration_micros`; `workers` threads execute
// them. Response time = completion - scheduled issue time, so overload shows
// up as queueing delay (an open-loop load generator).
inline LoadResult RunOpenLoop(double rate_per_sec, int64_t duration_micros, int workers,
                              const std::function<void()>& op) {
  LoadResult result;
  BlockingQueue<int64_t> issue_queue;  // scheduled issue timestamps
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> errors{0};

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      while (true) {
        auto issued_at = issue_queue.Pop();
        if (!issued_at.has_value()) {
          return;
        }
        try {
          op();
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        result.latency->Record(RealClock::Instance()->NowMicros() - *issued_at);
      }
    });
  }

  const int64_t start = RealClock::Instance()->NowMicros();
  const int64_t gap_micros = static_cast<int64_t>(1e6 / rate_per_sec);
  int64_t next_issue = start;
  while (true) {
    const int64_t now = RealClock::Instance()->NowMicros();
    if (now - start >= duration_micros) {
      break;
    }
    if (now >= next_issue) {
      issue_queue.Push(next_issue);
      next_issue += gap_micros;
    } else {
      RealClock::Instance()->SleepMicros(std::min<int64_t>(next_issue - now, 200));
    }
  }
  issue_queue.Close();
  for (auto& thread : threads) {
    thread.join();
  }
  const int64_t elapsed = RealClock::Instance()->NowMicros() - start;
  result.completed = completed.load();
  result.errors = errors.load();
  result.achieved_per_sec = 1e6 * static_cast<double>(result.completed) /
                            static_cast<double>(elapsed > 0 ? elapsed : 1);
  return result;
}

// `threads` workers call op back-to-back for duration_micros.
inline LoadResult RunClosedLoop(int threads, int64_t duration_micros,
                                const std::function<void()>& op) {
  LoadResult result;
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> errors{0};
  const int64_t start = RealClock::Instance()->NowMicros();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      while (RealClock::Instance()->NowMicros() - start < duration_micros) {
        const int64_t op_start = RealClock::Instance()->NowMicros();
        try {
          op();
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        result.latency->Record(RealClock::Instance()->NowMicros() - op_start);
      }
    });
  }
  for (auto& thread : pool) {
    thread.join();
  }
  const int64_t elapsed = RealClock::Instance()->NowMicros() - start;
  result.completed = completed.load();
  result.errors = errors.load();
  result.achieved_per_sec = 1e6 * static_cast<double>(result.completed) /
                            static_cast<double>(elapsed > 0 ? elapsed : 1);
  return result;
}

inline void PrintBanner(const std::string& title, const std::string& paper_claim) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================================\n");
}

// --- replay rig ---
//
// Replay speed is recovery speed: a rebuilding replica plays the log
// through the same apply path. Every apply-path figure (Figure 8's group
// commit and read path, and each plane's overhead gate) replays a backlog
// built here through Replay().

// Stamps FillBacklog can add to the backlog's SetData records.
struct BacklogStamps {
  // A distinct trace id on every record, so each apply records a
  // "base.apply" span (the worst case for a span observer).
  bool trace_ids = false;
  // A digest beacon header, with the commit barrier the DigestEngine marks
  // its beacons with, on every k-th record (0 = none).
  uint64_t beacon_every = 0;
};

inline constexpr int kBacklogKeys = 64;

// A beacon blob shaped like DigestEngine::BuildBeaconBlob's output:
// proposer id, apply position, sample-table hash, then a full production
// window (8 samples). The sample positions sit below every backlog record,
// so a replaying replica's window never contains them: the comparison sweep
// runs at full width and every lookup misses, which is the plane's cost
// shape without manufacturing divergence.
inline std::string BacklogBeaconBlob() {
  Serializer samples;
  samples.WriteVarint(8);
  for (uint64_t pos = 1; pos <= 8; ++pos) {
    samples.WriteVarint(pos);
    samples.WriteFixed64(0x9e3779b97f4a7c15ULL * pos);
  }
  std::string sample_bytes = samples.Release();
  Serializer ser;
  ser.WriteString("bench-proposer");
  ser.WriteVarint(0);
  ser.WriteFixed64(Fnv1a64(sample_bytes));
  ser.WriteString(sample_bytes);
  return ser.Release();
}

// Appends a replay backlog to `log`: a short producer run creates
// kBacklogKeys znodes through the Zelos stack (so every replayed SetData
// mutates real state), then `records` pre-serialized SetData ops stamped
// with client ids are appended directly — the bytes a batching-free
// proposer would write. Appends are windowed, so a remote loglet fills at
// its pipelined rate.
inline void FillBacklog(const std::shared_ptr<ISharedLog>& log, LogPos records,
                        BacklogStamps stamps = {}) {
  {
    BaseEngineOptions base_options;
    base_options.workload_attribution = false;
    // The producer never checkpoints, so the view entry it piggybacks names
    // durable position 0 and no replaying stack's ViewTracking lets it trim
    // the backlog the next replay starts from.
    base_options.flush_interval_micros = 3'600'000'000;
    ClusterServer producer("producer", log, std::make_unique<LocalStore>(), base_options);
    StackConfig config = ZelosStackConfig(nullptr);
    config.digest = false;  // beacons, when wanted, are stamped below
    BuildStack(producer, config);
    zelos::ZelosApplicator app;
    producer.RegisterApplicator(&app);
    producer.Start();
    zelos::ZelosClient client(producer.top(), &app);
    const zelos::SessionId session = client.CreateSession();
    for (int i = 0; i < kBacklogKeys; ++i) {
      client.Create(session, "/replay" + std::to_string(i), "v");
    }
    producer.top()->Sync().Get();
    producer.Stop();
  }
  constexpr size_t kAppendWindow = 2'048;
  const std::string beacon_blob = BacklogBeaconBlob();
  const std::string value(100, 'v');
  std::vector<Future<LogPos>> inflight;
  inflight.reserve(records);
  size_t next_wait = 0;
  for (LogPos i = 0; i < records; ++i) {
    Serializer ser;
    ser.WriteVarint(zelos::ZelosClient::kSetData);
    ser.WriteString("/replay" + std::to_string(i % kBacklogKeys));
    ser.WriteString(value);
    ser.WriteSigned(-1);
    LogEntry entry;
    entry.payload = ser.Release();
    SetClientIds(&entry, {i % 8});
    if (stamps.trace_ids) {
      SetTraceIds(&entry, {i + 1});
    }
    if (stamps.beacon_every > 0 && (i + 1) % stamps.beacon_every == 0) {
      entry.SetHeader("digest", EngineHeader{kMsgTypeApp, beacon_blob});
      MarkCommitBarrier(&entry);
    }
    inflight.push_back(log->Append(entry.Serialize()));
    if (inflight.size() - next_wait >= kAppendWindow) {
      inflight[next_wait++].Get();
    }
  }
  for (; next_wait < inflight.size(); ++next_wait) {
    inflight[next_wait].Get();
  }
}

// The bare-base replay applicator: one Put per record.
class PutPerRecordApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put("k/" + std::to_string(pos % 512), entry.payload);
    return std::any(Unit{});
  }
};

// The stack a replay runs through.
struct ReplayStack {
  // false: a bare BaseEngine with a PutPerRecordApplicator. true: the
  // production Zelos stack on a ClusterServer with the real ZelosApplicator
  // (the recovery path a rebuilding replica drives).
  bool zelos = false;
  // The base engine's options: the pipeline shape and sinks (tracer,
  // recorder) of the bare base; the plane switches of the Zelos server.
  BaseEngineOptions base;
  // Zelos only: false deploys the digest layer disabled (the resting state
  // of two-phase insertion), so it forwards records but checks no beacons.
  bool digest_enabled = true;
};

struct ReplayRun {
  double records_per_sec = 0;
  double mean_batch_size = 0;
  double apply_busy_pct = 0;  // apply-thread busy time / replay wall time
  uint64_t checksum = 0;      // LocalStore checksum after the replay
};

// Plays the whole of `log` through a fresh `stack`. On the Zelos stack,
// `inspect` reads the plane counters the caller wants before the server
// stops; bare-base sinks belong to the caller, who reads them afterwards.
inline ReplayRun Replay(const std::shared_ptr<ISharedLog>& log, const ReplayStack& stack,
                        const std::function<void(ClusterServer&)>& inspect = nullptr) {
  ReplayRun run;
  const auto measure = [&run](BaseEngine& engine, IEngine& top) {
    const int64_t start = RealClock::Instance()->NowMicros();
    engine.Start();
    top.Sync().Get();  // plays the whole backlog
    const double elapsed =
        static_cast<double>(std::max<int64_t>(RealClock::Instance()->NowMicros() - start, 1));
    const auto records = static_cast<double>(engine.apply_records());
    run.records_per_sec = 1e6 * records / elapsed;
    run.mean_batch_size =
        records / static_cast<double>(std::max<uint64_t>(engine.apply_batches(), 1));
    run.apply_busy_pct = 100.0 * static_cast<double>(engine.apply_busy_micros()) / elapsed;
  };
  if (!stack.zelos) {
    LocalStore store;
    PutPerRecordApplicator app;
    BaseEngine engine(log, &store, stack.base);
    engine.RegisterUpcall(&app);
    measure(engine, engine);
    engine.Stop();
    run.checksum = store.Checksum();
    return run;
  }
  ClusterServer server("replay", log, std::make_unique<LocalStore>(), stack.base);
  StackConfig config = ZelosStackConfig(nullptr);
  config.digest_start_enabled = stack.digest_enabled;
  BuildStack(server, config);
  zelos::ZelosApplicator app;
  server.RegisterApplicator(&app, zelos::ZelosKeyExtractor::Instance());
  measure(*server.base(), *server.top());
  if (inspect) {
    inspect(server);
  }
  server.Stop();
  run.checksum = server.store()->Checksum();
  return run;
}

// --- paired overhead gate ---

// Every plane may cost the apply path at most this much replay throughput.
inline constexpr double kOverheadBudgetPct = 5.0;
inline constexpr int kGatePairs = 10;

struct GateResult {
  double off_per_sec = 0;  // median records/s with the plane off
  double on_per_sec = 0;   // median records/s with the plane on
  double median_pct = 0;   // median per-pair overhead: the point estimate
  double p25_pct = 0;      // 25th-percentile per-pair overhead: the gate
  std::vector<double> pair_pcts;  // per-pair overheads, in run order
  bool within_budget = false;
};

// One warm-up replay (pages in the backlog for both sides), then kGatePairs
// off/on pairs. The two sides of a pair run back to back, so they see the
// same machine state, and the order within a pair alternates, so a
// monotonic drift (CPU-frequency ramp, thermal throttling) cannot bias
// every pair the same way. The gate reads the 25th percentile of the
// per-pair overheads: a burst of shared-machine noise can drag the median
// of a ~1% true cost past 5%, but cannot push three quarters of the pairs
// over, while a real regression lifts every pair. `replay(on)` returns
// records/s.
inline GateResult PairedGate(const std::function<double(bool on)>& replay) {
  replay(false);
  GateResult result;
  std::vector<double> off_rates;
  std::vector<double> on_rates;
  for (int i = 0; i < kGatePairs; ++i) {
    const bool on_first = i % 2 == 1;
    const double first = replay(on_first);
    const double second = replay(!on_first);
    const double off = on_first ? second : first;
    const double on = on_first ? first : second;
    off_rates.push_back(off);
    on_rates.push_back(on);
    result.pair_pcts.push_back(100.0 * (off - on) / off);
  }
  const auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return (values[kGatePairs / 2 - 1] + values[kGatePairs / 2]) / 2.0;
  };
  result.off_per_sec = median(off_rates);
  result.on_per_sec = median(on_rates);
  result.median_pct = median(result.pair_pcts);
  std::vector<double> sorted = result.pair_pcts;
  std::sort(sorted.begin(), sorted.end());
  result.p25_pct = sorted[kGatePairs / 4];
  result.within_budget = result.p25_pct <= kOverheadBudgetPct;
  return result;
}

// --- stamped JSON reports ---

// A JSON object built field by field; values render compactly, the top
// level of a report one field per line.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value, int decimals = 1) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + JsonEscape(value) + "\"");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.Render(false));
  }
  // `json` must already be valid JSON (an embedded plane render).
  JsonObject& Raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }

  std::string Render(bool multiline) const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += i == 0 ? "" : ",";
      out += multiline ? "\n  " : (i == 0 ? "" : " ");
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + (multiline ? "\n}\n" : "}");
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// A JSON array of one-decimal numbers.
inline std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.1f", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "]";
}

// Writes `text` to <source dir>/<file>; the path is compile-time absolute,
// so benches run from any working directory.
inline bool WriteSourceFile(const std::string& file, const std::string& text) {
  const std::string path = std::string(DELOS_SOURCE_DIR) + "/" + file;
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(text.c_str(), out);
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

// The commit of the source checkout the bench runs from (HEAD), suffixed
// "-dirty" when the working tree differs from it. The BENCH_* outputs are
// left out: a bench rewrites them before it stamps its report.
inline std::string SourceCommit() {
  const std::string git = std::string("git -C '") + DELOS_SOURCE_DIR + "' ";
  const std::string command = git + "rev-parse HEAD 2>/dev/null && { " + git +
                              "diff --quiet HEAD -- ':(exclude)BENCH_*' 2>/dev/null" +
                              " || echo dirty; }";
  std::string commit;
  if (FILE* pipe = popen(command.c_str(), "r"); pipe != nullptr) {
    char buf[64];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
      commit += buf;
    }
    pclose(pipe);
  }
  while (!commit.empty() && commit.back() == '\n') {
    commit.pop_back();
  }
  std::replace(commit.begin(), commit.end(), '\n', '-');
  return commit.empty() ? "unknown" : commit;
}

// A BENCH_*.json report, stamped with the benchmark name, the commit, the
// build type and the machine's core count, so a stored number says what
// produced it. Callers add their fields and write it with WriteSourceFile.
inline JsonObject StampedReport(const std::string& benchmark) {
  JsonObject report;
  report.Str("benchmark", benchmark)
      .Str("commit", SourceCommit())
      .Str("build_type", DELOS_BUILD_TYPE)
      .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  return report;
}

}  // namespace delos::bench

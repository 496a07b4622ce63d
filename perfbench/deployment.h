// The benchmark's Delos deployment: the Figure 6 stacks over a 3-acceptor
// quorum loglet on SimNetwork, with per-server checkpoint files.
//
// The deployment is wired from public pieces (SimNetwork, QuorumEnsemble,
// QuorumLogletClient, ClusterServer, BuildStack) rather than through
// Cluster, so that a traced deployment can slip the benchmark's own
// decorators between the layers: a TimedLog around each server's loglet
// client and a TimedApplicator around each server's app. An untraced
// deployment has neither; it is the shape every end-to-end number is
// measured on.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/apps/delostable/table_db.h"
#include "src/apps/zelos/zelos.h"
#include "src/backup/backup_store.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"

namespace perfbench {

using delos::LogPos;

// Every SimNetwork link delays each message by this much, one way, with no
// jitter and no loss: a quorum append costs about four hops.
inline constexpr int64_t kOneWayDelayMicros = 100;

// Monotonic nanoseconds (steady_clock); every benchmark timestamp uses it.
int64_t NowNanos();

// ISharedLog decorator: times each append and tail check from call to
// completion, and counts backend reads. Sits below the server's read cache,
// so ReadRange here is a cache miss served by the acceptors.
class TimedLog : public delos::ISharedLog {
 public:
  explicit TimedLog(std::shared_ptr<delos::ISharedLog> inner) : inner_(std::move(inner)) {}

  delos::Future<LogPos> Append(std::string payload) override;
  delos::Future<LogPos> CheckTail() override;
  std::vector<delos::LogRecord> ReadRange(LogPos lo, LogPos hi) override;
  void Trim(LogPos prefix) override { inner_->Trim(prefix); }
  LogPos trim_prefix() const override { return inner_->trim_prefix(); }
  void Seal() override { inner_->Seal(); }

  struct Counters {
    size_t appends = 0;      // completed appends (= append samples so far)
    size_t check_tails = 0;  // completed tail checks
    uint64_t read_records = 0;
    int64_t read_nanos = 0;
  };
  Counters counters() const;
  // Latency samples (ns) with index in [from, to), in completion order.
  std::vector<int64_t> AppendSamples(size_t from, size_t to) const;
  std::vector<int64_t> CheckTailSamples(size_t from, size_t to) const;

 private:
  // Shared with completion callbacks, which may run after this log dies.
  struct Samples {
    std::mutex mu;
    std::vector<int64_t> append_nanos;
    std::vector<int64_t> check_tail_nanos;
  };

  std::shared_ptr<delos::ISharedLog> inner_;
  std::shared_ptr<Samples> samples_ = std::make_shared<Samples>();
  std::atomic<uint64_t> read_records_{0};
  std::atomic<int64_t> read_nanos_{0};
};

// IApplicator decorator: times the app's apply and postApply per op.
class TimedApplicator : public delos::IApplicator {
 public:
  explicit TimedApplicator(delos::IApplicator* inner) : inner_(inner) {}

  std::any Apply(delos::RWTxn& txn, const delos::LogEntry& entry, LogPos pos) override;
  void PostApply(const delos::LogEntry& entry, LogPos pos) override;

  struct Counters {
    uint64_t applies = 0;
    int64_t apply_nanos = 0;
    uint64_t post_applies = 0;
    int64_t post_apply_nanos = 0;
  };
  Counters counters() const;

 private:
  delos::IApplicator* inner_;
  std::atomic<uint64_t> applies_{0};
  std::atomic<int64_t> apply_nanos_{0};
  std::atomic<uint64_t> post_applies_{0};
  std::atomic<int64_t> post_apply_nanos_{0};
};

enum class AppKind { kZelos, kTable };

struct DeploymentOptions {
  AppKind app = AppKind::kZelos;
  int servers = 1;
  // Traced: a Tracer through BaseEngineOptions::tracer plus the decorators.
  bool traced = false;
  // Per-server checkpoint files live here (must exist).
  std::string checkpoint_dir;
};

class Deployment {
 public:
  explicit Deployment(DeploymentOptions options);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  int size() const { return static_cast<int>(servers_.size()); }
  delos::ClusterServer& server(int index) { return *servers_[index].server; }
  delos::IEngine* top(int index) { return servers_[index].server->top(); }
  // The decorators (null on an untraced deployment).
  TimedLog* timed_log(int index) { return servers_[index].timed_log.get(); }
  TimedApplicator* timed_app(int index) { return servers_[index].timed_app.get(); }

  // Crash: tears server `index` down; its checkpoint file survives.
  void Stop(int index);
  // Reopens the store from its checkpoint, rebuilds the stack and starts it.
  void Restart(int index);

  delos::Tracer* tracer() { return tracer_.get(); }
  delos::SimNetwork* network() { return network_.get(); }

 private:
  struct Server {
    std::shared_ptr<TimedLog> timed_log;
    std::unique_ptr<delos::IApplicator> app;
    std::unique_ptr<TimedApplicator> timed_app;
    std::unique_ptr<delos::ClusterServer> server;
  };

  void Build(int index);

  DeploymentOptions options_;
  std::unique_ptr<delos::Tracer> tracer_;
  std::unique_ptr<delos::InMemoryBackupStore> backup_store_;
  std::unique_ptr<delos::SimNetwork> network_;
  std::unique_ptr<delos::QuorumEnsemble> ensemble_;
  std::vector<Server> servers_;
};

}  // namespace perfbench

// Cluster harness: wires N Delos servers over one shared log.
//
// Each server owns a LocalStore, a BaseEngine, and a stack of middle
// engines; the application attaches on top. The harness supports the two
// log substrates (zero-latency in-memory; quorum-replicated over the
// simulated network), per-server checkpoint files, and server restart —
// which exercises recovery-by-replay and, with a stack builder that differs
// across restarts, rolling upgrades for the two-phase engine insertion
// protocol.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/latency.h"
#include "src/common/metrics_ts.h"
#include "src/core/base_engine.h"
#include "src/core/health.h"
#include "src/core/stackable_engine.h"
#include "src/net/sim_network.h"
#include "src/sharedlog/quorum_loglet.h"
#include "src/sharedlog/read_cache.h"
#include "src/sharedlog/shared_log.h"
#include "src/sharedlog/virtual_log.h"

namespace delos {

class ClusterServer {
 public:
  ClusterServer(std::string id, std::shared_ptr<ISharedLog> log,
                std::unique_ptr<LocalStore> store, BaseEngineOptions base_options);
  ~ClusterServer();

  // Constructs a middle engine with (name..., downstream = current top,
  // store) and pushes it on the stack. Engines must be added bottom-up
  // before Start().
  template <typename Engine, typename... Args>
  Engine* AddEngine(Args&&... args) {
    auto engine = std::make_unique<Engine>(std::forward<Args>(args)..., top_, store_.get());
    Engine* raw = engine.get();
    // Every engine of this server instruments through the server's probe,
    // handed over here so stack builders need no plumbing.
    raw->AttachProbe(&probe_);
    // And every engine is a watchdog target: its HealthCheck verdict shows
    // up in /healthz and the health.state gauges without registration code
    // in the stack builder.
    watchdog_->AddTarget(raw);
    middle_.push_back(std::move(engine));
    top_ = raw;
    return raw;
  }

  void Start() { base_->Start(); }
  void Stop() {
    // The watchdog thread (when started) must quiesce before engines die
    // under its health checks.
    watchdog_->Stop();
    base_->Stop();
  }

  const std::string& id() const { return id_; }
  IEngine* top() { return top_; }
  BaseEngine* base() { return base_.get(); }
  LocalStore* store() { return store_.get(); }
  // The server's log view; cache-wrapped when read_cache_capacity > 0.
  ISharedLog* log() { return log_.get(); }
  // The per-server read cache, or nullptr when disabled.
  ReadCachingLog* read_cache() { return read_cache_.get(); }
  // The server's instrumentation seam: its id plus the five sinks below.
  const Probe* probe() const { return &probe_; }
  ApplyProfiler* profiler() { return &profiler_; }
  MetricsRegistry* metrics() { return &metrics_; }
  // The server's always-on flight recorder (the server's own ring unless the
  // base options injected one) and the cluster-wide tracer (null when
  // tracing is off).
  FlightRecorder* flight_recorder() { return recorder_; }
  Tracer* tracer() { return tracer_; }
  // The tail-latency attribution plane (nullptr when tracing is off or
  // latency_attribution was disabled in the base options).
  LatencyAttributor* latency() { return latency_.get(); }
  // The workload attribution plane (nullptr when workload_attribution was
  // disabled in the base options).
  WorkloadAttributor* workload() { return workload_.get(); }

  // Attaches the application's applicator to the top of the stack inside
  // an AppFrame over the server's probe: the app.* profiler frames, the
  // app.apply span and the workload apply tap. The extractor (owned by the
  // caller, typically the applicator itself) pulls the semantic key out of
  // each op payload; null attributes ops/bytes/clients but no keys.
  void RegisterApplicator(IApplicator* app, const IKeyExtractor* extractor = nullptr);

  // Health plane. The watchdog holds every engine of this server (base
  // included) plus any applicator registered via RegisterHealthTarget; it is
  // NOT auto-started — production callers Start() it for cadence evaluation,
  // tests and the simulator drive Evaluate() (via CollectHealth) manually.
  Watchdog* watchdog() { return watchdog_.get(); }
  TimeSeriesStore* series() { return &series_; }
  // One watchdog pass: fresh per-component reports (and one closed
  // time-series window — including the workload plane's accounting window,
  // so distinct-key/client gauges land in the same snapshot).
  std::vector<HealthReport> CollectHealth() {
    if (workload_ != nullptr) {
      workload_->CloseWindow(clock_->NowMicros());
    }
    return watchdog_->Evaluate();
  }
  // Applications sit above the stack and are not StackableEngines; stack
  // builders register their applicators here to include them in /healthz.
  void RegisterHealthTarget(IHealthCheckable* target) { watchdog_->AddTarget(target); }

  // The on-demand debug endpoint: Prometheus-style metrics exposition plus
  // the flight-recorder ring.
  std::string DebugDump() const { return delos::DebugDump(&metrics_, recorder_); }

  // Finds a middle engine by name (nullptr if absent).
  StackableEngine* FindEngine(const std::string& name);
  // The middle engines, bottom-up (stack introspection for /stack).
  std::vector<StackableEngine*> engines() {
    std::vector<StackableEngine*> result;
    result.reserve(middle_.size());
    for (auto& engine : middle_) {
      result.push_back(engine.get());
    }
    return result;
  }

 private:
  friend class Cluster;
  std::string id_;
  std::shared_ptr<ISharedLog> log_;
  std::shared_ptr<ReadCachingLog> read_cache_;  // null when disabled
  std::unique_ptr<LocalStore> store_;
  ApplyProfiler profiler_;
  MetricsRegistry metrics_;
  FlightRecorder own_recorder_;
  FlightRecorder* recorder_ = nullptr;  // = own_recorder_ unless injected
  Tracer* tracer_ = nullptr;
  Clock* clock_ = nullptr;
  std::unique_ptr<LatencyAttributor> latency_;
  std::unique_ptr<WorkloadAttributor> workload_;
  Probe probe_;
  // App frames built by RegisterApplicator (one per registered app); they
  // must outlive the engines whose upcalls point at them.
  std::vector<std::unique_ptr<AppFrame>> app_frames_;
  uint64_t tracer_observer_id_ = 0;  // 0 = not registered
  TimeSeriesStore series_;
  std::unique_ptr<Watchdog> watchdog_;
  std::unique_ptr<BaseEngine> base_;
  std::vector<std::unique_ptr<StackableEngine>> middle_;
  IEngine* top_;
};

class Cluster {
 public:
  enum class LogKind {
    kInMemory,  // one shared zero-latency log object
    kQuorum,    // sequencer + acceptors over the simulated network
    kVirtual,   // VirtualLog over a sealable loglet chain (reconfigurable)
  };

  struct Options {
    int num_servers = 3;
    LogKind log_kind = LogKind::kInMemory;
    NetworkConfig net_config;
    QuorumLogletConfig loglet_config;
    BaseEngineOptions base_options;  // server_id is overwritten per server
    // Per-server checkpoint files live here when non-empty (enables restart
    // with durable-state recovery).
    std::string checkpoint_dir;
  };

  // The builder adds this server's middle engines (bottom-up) and attaches
  // the application; re-invoked when a server restarts.
  using StackBuilder = std::function<void(ClusterServer& server)>;

  Cluster(Options options, StackBuilder builder);
  ~Cluster();

  int size() const { return static_cast<int>(servers_.size()); }
  ClusterServer& server(int index) { return *servers_[index]; }

  // Stops a server and tears it down (simulated crash: volatile state lost;
  // the checkpoint file, if any, survives).
  void StopServer(int index);
  // Rebuilds a stopped server: reopens the store from its checkpoint,
  // rebuilds the stack via `builder` (or a replacement builder, for rolling
  // upgrades), and starts it.
  void RestartServer(int index, StackBuilder builder = nullptr);

  SimNetwork* network() { return network_.get(); }
  QuorumEnsemble* ensemble() { return ensemble_.get(); }

  // kVirtual only: seals the active loglet and chains a fresh one — the
  // paper's online consensus-protocol swap, driven while traffic flows.
  void ReconfigureLog();
  uint64_t LogChainLength() const;

 private:
  std::unique_ptr<ClusterServer> BuildServer(int index);
  std::string CheckpointPath(int index) const;

  Options options_;
  StackBuilder builder_;
  std::unique_ptr<SimNetwork> network_;
  std::unique_ptr<QuorumEnsemble> ensemble_;
  std::shared_ptr<ISharedLog> shared_inmemory_log_;
  std::shared_ptr<MetaStore> meta_store_;
  std::vector<std::unique_ptr<ClusterServer>> servers_;
};

}  // namespace delos

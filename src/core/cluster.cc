#include "src/core/cluster.h"

#include "src/common/logging.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {

ClusterServer::ClusterServer(std::string id, std::shared_ptr<ISharedLog> log,
                             std::unique_ptr<LocalStore> store, BaseEngineOptions base_options)
    : id_(std::move(id)), log_(std::move(log)), store_(std::move(store)) {
  base_options.server_id = id_;
  // The flight recorder is always on: default to this server's own ring.
  // Tracing stays opt-in (a Tracer injected through the base options is
  // shared by the whole cluster so one trace spans every replica).
  if (base_options.recorder == nullptr) {
    base_options.recorder = &own_recorder_;
  }
  recorder_ = base_options.recorder;
  tracer_ = base_options.tracer;
  if (base_options.clock == nullptr) {
    base_options.clock = RealClock::Instance();
  }
  clock_ = base_options.clock;
  // Workload attribution plane: one attributor per server (sketch state is
  // replica-local; the apply tap makes it replica-consistent). Built before
  // the BaseEngine so the same pointer taps the append path; an attributor
  // injected through the base options wins (benches share one instance).
  if (base_options.workload_attribution && base_options.workload == nullptr) {
    WorkloadAttributor::Options workload_options;
    workload_options.metrics = &metrics_;
    workload_options.server = id_;
    workload_options.recorder = recorder_;
    workload_ = std::make_unique<WorkloadAttributor>(std::move(workload_options));
    base_options.workload = workload_.get();
  }
  // Tail-latency attribution plane: one attributor per server, subscribed
  // to the cluster-wide Tracer and filtering on this server's span label.
  // The observer registration is explicitly undone in the destructor —
  // servers are torn down and rebuilt on (simulated) crash while the tracer
  // lives on.
  if (tracer_ != nullptr && base_options.latency_attribution) {
    LatencyAttributor::Options latency_options;
    latency_options.metrics = &metrics_;
    latency_options.server = id_;
    latency_options.recorder = recorder_;
    latency_ = std::make_unique<LatencyAttributor>(std::move(latency_options));
    LatencyAttributor* attributor = latency_.get();
    tracer_observer_id_ =
        tracer_->AddObserver([attributor](const TraceSpan& span) { attributor->OnSpan(span); });
  }
  // Per-server read cache: wrap the shared log before anything holds a
  // reference, so the base engine's apply/prefetch reads, the
  // LogBackupEngine's segment uploads (wired via base()->shared_log()), and
  // ad-hoc log() readers all go through one ReadCachingLog.
  if (base_options.read_cache_capacity > 0) {
    ReadCacheOptions cache_options;
    cache_options.capacity_records = base_options.read_cache_capacity;
    cache_options.write_through = base_options.read_cache_write_through;
    cache_options.metrics = &metrics_;
    cache_options.recorder = recorder_;
    read_cache_ = std::make_shared<ReadCachingLog>(log_, cache_options);
    log_ = read_cache_;
  }
  // The watchdog shares the base engine's clock (real or simulated), the
  // server's metrics/recorder, and feeds the server's time-series ring.
  WatchdogOptions watchdog_options;
  watchdog_options.clock = base_options.clock;
  watchdog_options.metrics = &metrics_;
  watchdog_options.recorder = recorder_;
  watchdog_options.series = &series_;
  watchdog_ = std::make_unique<Watchdog>(std::move(watchdog_options));
  probe_.server_id = id_;
  probe_.profiler = &profiler_;
  probe_.metrics = &metrics_;
  probe_.tracer = tracer_;
  probe_.recorder = recorder_;
  probe_.workload = base_options.workload;
  base_ = std::make_unique<BaseEngine>(log_, store_.get(), std::move(base_options));
  base_->AttachProbe(&probe_);
  top_ = base_.get();
  watchdog_->AddTarget(base_.get());
}

ClusterServer::~ClusterServer() {
  // Unhook the latency attributor before anything it references dies; spans
  // recorded by other servers' threads may be in flight on the tracer.
  if (tracer_observer_id_ != 0) {
    tracer_->RemoveObserver(tracer_observer_id_);
    tracer_observer_id_ = 0;
  }
  Stop();
  // Tear the stack down top-first: an engine's destructor may still talk to
  // the engines below it (e.g. the BatchingEngine flushes its open batch).
  while (!middle_.empty()) {
    middle_.pop_back();
  }
}

void ClusterServer::RegisterApplicator(IApplicator* app, const IKeyExtractor* extractor) {
  app_frames_.push_back(std::make_unique<AppFrame>(app, &probe_, extractor));
  top_->RegisterUpcall(app_frames_.back().get());
}

StackableEngine* ClusterServer::FindEngine(const std::string& name) {
  for (auto& engine : middle_) {
    if (engine->name() == name) {
      return engine.get();
    }
  }
  return nullptr;
}

Cluster::Cluster(Options options, StackBuilder builder)
    : options_(std::move(options)), builder_(std::move(builder)) {
  if (options_.log_kind == LogKind::kQuorum) {
    network_ = std::make_unique<SimNetwork>(options_.net_config);
    ensemble_ = std::make_unique<QuorumEnsemble>(network_.get(), options_.loglet_config);
  } else if (options_.log_kind == LogKind::kVirtual) {
    meta_store_ = std::make_shared<MetaStore>(
        std::vector<LogletSegment>{{1, std::make_shared<InMemoryLog>(1)}});
  } else {
    shared_inmemory_log_ = std::make_shared<InMemoryLog>();
  }
  if (!options_.checkpoint_dir.empty()) {
    std::filesystem::create_directories(options_.checkpoint_dir);
  }
  for (int i = 0; i < options_.num_servers; ++i) {
    servers_.push_back(BuildServer(i));
    servers_.back()->Start();
  }
}

Cluster::~Cluster() {
  for (auto& server : servers_) {
    if (server != nullptr) {
      server->Stop();
    }
  }
  servers_.clear();
  // The delivery thread may still be running ensemble handlers (store
  // retransmits, acks); stop it before the ensemble it calls into dies.
  network_.reset();
  ensemble_.reset();
}

std::string Cluster::CheckpointPath(int index) const {
  if (options_.checkpoint_dir.empty()) {
    return "";
  }
  return options_.checkpoint_dir + "/server" + std::to_string(index) + ".ckpt";
}

std::unique_ptr<ClusterServer> Cluster::BuildServer(int index) {
  const std::string id = "server" + std::to_string(index);
  std::shared_ptr<ISharedLog> log;
  if (options_.log_kind == LogKind::kQuorum) {
    log = std::make_shared<QuorumLogletClient>(
        network_.get(), id, options_.loglet_config,
        index % std::max(1, options_.loglet_config.num_acceptors));
  } else if (options_.log_kind == LogKind::kVirtual) {
    // Per-server VirtualLog client over the shared chain; any client that
    // races a seal repairs the chain with a fresh loglet.
    log = std::make_shared<VirtualLog>(
        meta_store_,
        [](LogPos start, uint64_t) { return std::make_shared<InMemoryLog>(start); });
  } else {
    log = shared_inmemory_log_;
  }
  LocalStore::Options store_options;
  store_options.checkpoint_path = CheckpointPath(index);
  auto store = LocalStore::Open(store_options);
  auto server =
      std::make_unique<ClusterServer>(id, std::move(log), std::move(store), options_.base_options);
  if (builder_ != nullptr) {
    builder_(*server);
  }
  return server;
}

void Cluster::ReconfigureLog() {
  if (meta_store_ == nullptr) {
    LOG_FATAL << "ReconfigureLog requires LogKind::kVirtual";
  }
  VirtualLog driver(meta_store_);
  driver.Reconfigure(
      [](LogPos start, uint64_t) { return std::make_shared<InMemoryLog>(start); });
}

uint64_t Cluster::LogChainLength() const {
  return meta_store_ != nullptr ? meta_store_->GetChain().size() : 1;
}

void Cluster::StopServer(int index) {
  if (servers_[index] != nullptr) {
    servers_[index]->Stop();
    servers_[index].reset();
  }
}

void Cluster::RestartServer(int index, StackBuilder builder) {
  StopServer(index);
  StackBuilder previous = builder_;
  if (builder != nullptr) {
    builder_ = builder;
  }
  servers_[index] = BuildServer(index);
  builder_ = previous;
  servers_[index]->Start();
}

}  // namespace delos

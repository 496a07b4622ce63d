#include "deployment.h"

#include <chrono>

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- TimedLog ---

delos::Future<LogPos> TimedLog::Append(std::string payload) {
  const int64_t start = NowNanos();
  delos::Future<LogPos> future = inner_->Append(std::move(payload));
  future.Then([samples = samples_, start](const delos::Result<LogPos>& result) {
    if (result.ok()) {
      const int64_t nanos = NowNanos() - start;
      std::lock_guard<std::mutex> lock(samples->mu);
      samples->append_nanos.push_back(nanos);
    }
  });
  return future;
}

delos::Future<LogPos> TimedLog::CheckTail() {
  const int64_t start = NowNanos();
  delos::Future<LogPos> future = inner_->CheckTail();
  future.Then([samples = samples_, start](const delos::Result<LogPos>& result) {
    if (result.ok()) {
      const int64_t nanos = NowNanos() - start;
      std::lock_guard<std::mutex> lock(samples->mu);
      samples->check_tail_nanos.push_back(nanos);
    }
  });
  return future;
}

std::vector<delos::LogRecord> TimedLog::ReadRange(LogPos lo, LogPos hi) {
  const int64_t start = NowNanos();
  std::vector<delos::LogRecord> records = inner_->ReadRange(lo, hi);
  read_nanos_.fetch_add(NowNanos() - start, std::memory_order_relaxed);
  read_records_.fetch_add(records.size(), std::memory_order_relaxed);
  return records;
}

TimedLog::Counters TimedLog::counters() const {
  Counters counters;
  {
    std::lock_guard<std::mutex> lock(samples_->mu);
    counters.appends = samples_->append_nanos.size();
    counters.check_tails = samples_->check_tail_nanos.size();
  }
  counters.read_records = read_records_.load(std::memory_order_relaxed);
  counters.read_nanos = read_nanos_.load(std::memory_order_relaxed);
  return counters;
}

namespace {

std::vector<int64_t> Slice(const std::vector<int64_t>& samples, size_t from, size_t to) {
  to = std::min(to, samples.size());
  from = std::min(from, to);
  return std::vector<int64_t>(samples.begin() + static_cast<std::ptrdiff_t>(from),
                              samples.begin() + static_cast<std::ptrdiff_t>(to));
}

}  // namespace

std::vector<int64_t> TimedLog::AppendSamples(size_t from, size_t to) const {
  std::lock_guard<std::mutex> lock(samples_->mu);
  return Slice(samples_->append_nanos, from, to);
}

std::vector<int64_t> TimedLog::CheckTailSamples(size_t from, size_t to) const {
  std::lock_guard<std::mutex> lock(samples_->mu);
  return Slice(samples_->check_tail_nanos, from, to);
}

// --- TimedApplicator ---

std::any TimedApplicator::Apply(delos::RWTxn& txn, const delos::LogEntry& entry, LogPos pos) {
  const int64_t start = NowNanos();
  // Account on every exit: a deterministic app error unwinds through here.
  struct Charge {
    TimedApplicator* self;
    int64_t start;
    ~Charge() {
      self->apply_nanos_.fetch_add(NowNanos() - start, std::memory_order_relaxed);
      self->applies_.fetch_add(1, std::memory_order_relaxed);
    }
  } charge{this, start};
  return inner_->Apply(txn, entry, pos);
}

void TimedApplicator::PostApply(const delos::LogEntry& entry, LogPos pos) {
  const int64_t start = NowNanos();
  inner_->PostApply(entry, pos);
  post_apply_nanos_.fetch_add(NowNanos() - start, std::memory_order_relaxed);
  post_applies_.fetch_add(1, std::memory_order_relaxed);
}

TimedApplicator::Counters TimedApplicator::counters() const {
  Counters counters;
  counters.applies = applies_.load(std::memory_order_relaxed);
  counters.apply_nanos = apply_nanos_.load(std::memory_order_relaxed);
  counters.post_applies = post_applies_.load(std::memory_order_relaxed);
  counters.post_apply_nanos = post_apply_nanos_.load(std::memory_order_relaxed);
  return counters;
}

// --- Deployment ---

Deployment::Deployment(DeploymentOptions options) : options_(std::move(options)) {
  if (options_.traced) {
    tracer_ = std::make_unique<delos::Tracer>();
  }
  backup_store_ = std::make_unique<delos::InMemoryBackupStore>();
  delos::NetworkConfig net_config;
  net_config.default_one_way_latency_micros = kOneWayDelayMicros;
  net_config.jitter_micros = 0;
  net_config.drop_probability = 0.0;
  network_ = std::make_unique<delos::SimNetwork>(net_config);
  delos::QuorumLogletConfig loglet_config;
  loglet_config.num_acceptors = 3;
  ensemble_ = std::make_unique<delos::QuorumEnsemble>(network_.get(), loglet_config);
  servers_.resize(options_.servers);
  for (int i = 0; i < options_.servers; ++i) {
    Build(i);
  }
}

Deployment::~Deployment() {
  for (int i = 0; i < size(); ++i) {
    Stop(i);
  }
  // The delivery thread may still be running ensemble handlers (store
  // retransmits, acks); stop it before the ensemble it calls into dies.
  network_.reset();
  ensemble_.reset();
}

void Deployment::Build(int index) {
  Server& slot = servers_[index];
  const std::string id = "server" + std::to_string(index);
  delos::QuorumLogletConfig loglet_config;
  loglet_config.num_acceptors = 3;
  std::shared_ptr<delos::ISharedLog> log =
      std::make_shared<delos::QuorumLogletClient>(network_.get(), id, loglet_config, index % 3);
  slot.timed_log.reset();
  if (options_.traced) {
    slot.timed_log = std::make_shared<TimedLog>(std::move(log));
    log = slot.timed_log;
  }
  delos::LocalStore::Options store_options;
  store_options.checkpoint_path = options_.checkpoint_dir + "/" + id + ".ckpt";
  auto store = delos::LocalStore::Open(store_options);
  delos::BaseEngineOptions base_options;  // production defaults
  base_options.tracer = tracer_.get();
  slot.server =
      std::make_unique<delos::ClusterServer>(id, std::move(log), std::move(store), base_options);

  const delos::IKeyExtractor* extractor = nullptr;
  if (options_.app == AppKind::kZelos) {
    delos::BuildStack(*slot.server, delos::ZelosStackConfig(backup_store_.get()));
    slot.app = std::make_unique<delos::zelos::ZelosApplicator>();
    extractor = delos::zelos::ZelosKeyExtractor::Instance();
  } else {
    delos::BuildStack(*slot.server, delos::DelosTableStackConfig(backup_store_.get()));
    slot.app = std::make_unique<delos::table::TableApplicator>();
    extractor = delos::table::TableKeyExtractor::Instance();
  }
  delos::IApplicator* app = slot.app.get();
  slot.timed_app.reset();
  if (options_.traced) {
    slot.timed_app = std::make_unique<TimedApplicator>(app);
    app = slot.timed_app.get();
  }
  slot.server->RegisterApplicator(app, extractor);
  slot.server->Start();
}

void Deployment::Stop(int index) {
  Server& slot = servers_[index];
  // The engines hold the applicator; the server goes first.
  slot.server.reset();
  slot.timed_app.reset();
  slot.app.reset();
}

void Deployment::Restart(int index) {
  Stop(index);
  Build(index);
}

}  // namespace perfbench

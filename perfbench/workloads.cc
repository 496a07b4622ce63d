#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/prctl.h>

#include "checks.h"
#include "deployment.h"
#include "src/apps/app_base.h"
#include "src/common/random.h"
#include "src/engines/batching_engine.h"
#include "src/engines/digest_engine.h"

namespace perfbench {
namespace {

using delos::IEngine;
using delos::ROTxn;
using delos::Rng;
using delos::table::Row;
using delos::table::Value;
using delos::zelos::ZelosClient;

constexpr int kZnodes = 1024;
constexpr int kZelosClients = 64;
constexpr double kZipfTheta = 0.99;
constexpr size_t kValueBytes = 100;
constexpr int kValues = 64;
constexpr int kRows = 10'000;
constexpr int kOwners = 1'000;
// Set-up repeats at least kMinSetups times and until kSetupNanos have been
// spent, at most kMaxSetups times; setup_s is the median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr int64_t kSetupNanos = 1'000'000'000;
constexpr int kRestarts = 21;
constexpr double kOpenLoopRate = 1000;
constexpr int kSaturateCallers = 256;
constexpr int kTableCallers = 16;
constexpr uint64_t kBacklogOps = 600'000;
constexpr int kBacklogCallers = 256;
// One caller reads back-to-back from the recovered replica: with several,
// whether their Syncs share a tail check depends on thread timing, and the
// read latency of a run flips between one and two tail-check round trips.
constexpr int64_t kCatchupReadNanos = 1'000'000'000;
// zelos_catchup runs one crash / backlog / replay cycle per this many seconds
// of --seconds (at least one): a fixed amount of work for a given run length.
// A --trace 1 run measures one cycle untraced and one traced: a traced
// backlog commits about four times slower.
constexpr int kSecondsPerCatchupCycle = 6;
constexpr int64_t kSecondNanos = 1'000'000'000;
constexpr int64_t kWarmupNanos = 1'000'000'000;
constexpr int64_t kDrainNanos = 30'000'000'000;
// Open loop: a run whose generator ran later than this at p99 (fifty send
// intervals) could not keep its schedule and is not a measurement. Shorter
// host stalls show in gen.late_p99_us and in the latencies, which are timed
// from the schedule.
constexpr int64_t kMaxLateP99Nanos = 50'000'000;

void SleepNanos(int64_t nanos) {
  if (nanos > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
  }
}

std::string Describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

// Counts attempted and failed ops; keeps the first few failure reasons.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Check(const std::string& reason) {
    ++attempted;
    if (!reason.empty()) {
      ++failed;
      if (failures.size() < 8) {
        failures.push_back(reason);
      }
    }
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& reason : other.failures) {
      if (failures.size() < 8) {
        failures.push_back(reason);
      }
    }
  }
};

// --- Ops and mixes ---

enum class OpKind : uint8_t { kWrite, kRead, kLookup };

struct Op {
  OpKind kind = OpKind::kWrite;
  int caller = 0;
  int key = 0;    // znode index or row pk
  int arg = 0;    // Zelos client id, or owner index
  int value = 0;  // which pregenerated value
  int64_t min_version = 0;
  int64_t due_ns = 0;   // open loop: scheduled send; closed loop: issue time
  int64_t done_ns = 0;  // when the engine's future settled
  int64_t read_ns = 0;  // snapshot lookup + decode on the generator thread
  int64_t result = 0;   // SetData's returned version
  std::string error;    // the engine reported failure
  ROTxn snapshot;       // reads: the Sync snapshot
};

using Done = std::function<void(Op)>;

// An app's op mix: draws ops from a seeded generator, starts them through
// the top engine's Propose / Sync futures, and checks their results.
class OpMix {
 public:
  virtual ~OpMix() = default;
  virtual void Draw(Rng& rng, Op* op) = 0;
  // Starts `op` on `top`; `done` runs once, on the thread that settles it.
  virtual void Start(IEngine* top, Op op, const Done& done) = 0;
  // On the generator thread: a read does its snapshot lookup here. Returns
  // "" or why the result is wrong.
  virtual std::string Finish(Op* op) = 0;

 protected:
  static void StartSync(IEngine* top, Op op, const Done& done) {
    top->Sync().Then([op = std::move(op), done](delos::Result<ROTxn> result) mutable {
      op.done_ns = NowNanos();
      if (result.ok()) {
        op.snapshot = std::move(result).value();
      } else {
        op.error = Describe(result.error());
      }
      done(std::move(op));
    });
  }
};

std::vector<std::string> MakeValues(uint64_t seed) {
  Rng rng(seed ^ 0x76616c756573ULL);
  std::vector<std::string> values;
  for (int i = 0; i < kValues; ++i) {
    values.push_back(rng.String(kValueBytes));
  }
  return values;
}

// Zipf(theta) ranks over `n` items: rank 0 is the most popular.
class Zipf {
 public:
  explicit Zipf(int n) {
    double total = 0;
    for (int rank = 1; rank <= n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), kZipfTheta);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }
  int Draw(Rng& rng) const {
    const size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), rng.UniformDouble()) -
                        cdf_.begin();
    return static_cast<int>(std::min(rank, cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

// Which keys reads and writes may touch. With kSplit, writes and
// concurrent reads use disjoint halves of the key space: a read snapshot
// taken while a commit to the same key runs can miss the key entirely on
// this code base (LocalStore::Snapshot registers its version without
// holding data_mu_), and a workload whose ops fail is no measurement.
// kShared is the mix with that race exposed (--shared-keys 1).
enum class Keys { kSplit, kShared };

// Zelos: SetData / GetData over Zipf(0.99)-popular znodes.
class ZelosMix : public OpMix {
 public:
  ZelosMix(uint64_t seed, double write_share, Keys keys)
      : write_share_(write_share),
        keys_(keys),
        values_(MakeValues(seed)),
        known_(std::make_unique<std::atomic<int64_t>[]>(kZnodes)) {
    for (int i = 0; i < kZnodes; ++i) {
      paths_.push_back("/n" + std::to_string(i));
      known_[i].store(0);
    }
    // Zipf ranks map to znodes through a seeded permutation; with split
    // keys, writes take the first half of it and reads the second.
    Rng rng(seed ^ 0x7a697066ULL);
    rank_to_znode_.resize(kZnodes);
    for (int i = 0; i < kZnodes; ++i) {
      rank_to_znode_[i] = i;
    }
    std::shuffle(rank_to_znode_.begin(), rank_to_znode_.end(), rng.engine());
  }

  void set_write_share(double share) { write_share_ = share; }
  const std::string& path(int znode) const { return paths_[znode]; }
  int64_t known(int znode) const { return known_[znode].load(std::memory_order_acquire); }

  void Draw(Rng& rng, Op* op) override {
    op->kind = rng.UniformDouble() < write_share_ ? OpKind::kWrite : OpKind::kRead;
    if (keys_ == Keys::kShared) {
      op->key = rank_to_znode_[full_.Draw(rng)];
    } else {
      const int offset = op->kind == OpKind::kWrite ? 0 : kZnodes / 2;
      op->key = rank_to_znode_[offset + half_.Draw(rng)];
    }
    op->arg = static_cast<int>(rng.Uniform(1, kZelosClients));
    op->value = static_cast<int>(rng.Uniform(0, kValues - 1));
  }

  delos::LogEntry SetDataEntry(int znode, int value, uint64_t client) const {
    delos::OpWriter writer(ZelosClient::kSetData);
    writer.args().WriteString(paths_[znode]);
    writer.args().WriteString(values_[value]);
    writer.args().WriteSigned(-1);
    delos::LogEntry entry = std::move(writer).ToEntry();
    delos::SetClientIds(&entry, {client});
    return entry;
  }

  delos::LogEntry CreateEntry(int znode) const {
    delos::OpWriter writer(ZelosClient::kCreate);
    writer.args().WriteVarint(0);  // no session: a persistent node
    writer.args().WriteString(paths_[znode]);
    writer.args().WriteString(values_[znode % kValues]);
    writer.args().WriteVarint(delos::zelos::kPersistent);
    return std::move(writer).ToEntry();
  }

  void Start(IEngine* top, Op op, const Done& done) override {
    op.min_version = known(op.key);
    if (op.kind != OpKind::kWrite) {
      StartSync(top, std::move(op), done);
      return;
    }
    delos::LogEntry entry = SetDataEntry(op.key, op.value, static_cast<uint64_t>(op.arg));
    top->Propose(std::move(entry))
        .Then([this, op = std::move(op), done](delos::Result<std::any> result) mutable {
          op.done_ns = NowNanos();
          if (!result.ok()) {
            op.error = Describe(result.error());
          } else if (const int64_t* version = std::any_cast<int64_t>(&result.value())) {
            op.result = *version;
            Raise(op.key, *version);
          } else {
            op.error = "SetData returned no version";
          }
          done(std::move(op));
        });
  }

  std::string Finish(Op* op) override {
    if (!op->error.empty()) {
      return op->error;
    }
    if (op->kind == OpKind::kWrite) {
      return CheckZelosWrite(op->result, op->min_version);
    }
    const int64_t start = NowNanos();
    const ZnodeRead read = ReadZnode(op->snapshot, paths_[op->key]);
    op->read_ns = NowNanos() - start;
    op->snapshot = ROTxn();
    return CheckZelosRead(read, op->min_version);
  }

 private:
  // known_[z] = the highest version any completed SetData to z returned.
  void Raise(int znode, int64_t version) {
    int64_t current = known_[znode].load(std::memory_order_relaxed);
    while (version > current &&
           !known_[znode].compare_exchange_weak(current, version, std::memory_order_acq_rel)) {
    }
  }

  double write_share_;
  Keys keys_;
  std::vector<std::string> values_;
  std::vector<std::string> paths_;
  std::vector<int> rank_to_znode_;
  const Zipf full_{kZnodes};
  const Zipf half_{kZnodes / 2};
  std::unique_ptr<std::atomic<int64_t>[]> known_;
};

// DelosTable: 30% Upsert (re-drawing owner), 35% Get, 35% IndexLookup.
// With split keys, Upserts take the lower half of the rows and Gets the
// upper half; IndexLookups span every owner (a racing commit can only hide
// an index entry from them, never show one of another owner).
class TableMix : public OpMix {
 public:
  TableMix(uint64_t seed, Keys keys) : keys_(keys), values_(MakeValues(seed)) {
    for (int i = 0; i < kOwners; ++i) {
      char name[16];
      std::snprintf(name, sizeof(name), "owner%04d", i);
      owners_.push_back(name);
    }
  }

  delos::LogEntry UpsertEntry(int pk, int owner, int value, uint64_t client) const {
    delos::OpWriter writer(delos::table::TableClient::kUpsert);
    writer.args().WriteString(kTable);
    const Row row = {{"k", Value(int64_t{pk})},
                     {"owner", Value(owners_[owner])},
                     {"v", Value(values_[value])}};
    delos::table::WriteRow(writer.args(), row);
    delos::LogEntry entry = std::move(writer).ToEntry();
    delos::SetClientIds(&entry, {client});
    return entry;
  }

  void Draw(Rng& rng, Op* op) override {
    const double u = rng.UniformDouble();
    op->kind = u < 0.30 ? OpKind::kWrite : (u < 0.65 ? OpKind::kRead : OpKind::kLookup);
    if (keys_ == Keys::kShared) {
      op->key = static_cast<int>(rng.Uniform(0, kRows - 1));
    } else {
      op->key = static_cast<int>(op->kind == OpKind::kWrite ? rng.Uniform(0, kRows / 2 - 1)
                                                            : rng.Uniform(kRows / 2, kRows - 1));
    }
    op->arg = static_cast<int>(rng.Uniform(0, kOwners - 1));
    op->value = static_cast<int>(rng.Uniform(0, kValues - 1));
  }

  void Start(IEngine* top, Op op, const Done& done) override {
    if (op.kind != OpKind::kWrite) {
      StartSync(top, std::move(op), done);
      return;
    }
    delos::LogEntry entry =
        UpsertEntry(op.key, op.arg, op.value, static_cast<uint64_t>(op.caller + 1));
    top->Propose(std::move(entry))
        .Then([op = std::move(op), done](delos::Result<std::any> result) mutable {
          op.done_ns = NowNanos();
          if (!result.ok()) {
            op.error = Describe(result.error());
          }
          done(std::move(op));
        });
  }

  std::string Finish(Op* op) override {
    if (!op->error.empty() || op->kind == OpKind::kWrite) {
      return op->error;
    }
    std::string verdict;
    const int64_t start = NowNanos();
    if (op->kind == OpKind::kRead) {
      const std::optional<Row> row = ReadRow(op->snapshot, op->key);
      op->read_ns = NowNanos() - start;
      verdict = CheckTableGet(row, op->key);
    } else {
      const std::vector<Row> rows = LookupOwner(op->snapshot, owners_[op->arg]);
      op->read_ns = NowNanos() - start;
      verdict = CheckIndexLookup(rows, owners_[op->arg]);
    }
    op->snapshot = ROTxn();
    return verdict;
  }

 private:
  Keys keys_;
  std::vector<std::string> values_;
  std::vector<std::string> owners_;
};

// --- Load generator ---

struct LoadSpec {
  bool open_loop = false;
  double rate_per_s = 0;  // open loop
  int callers = 0;        // closed loop: each holds one op in flight
  int threads = 1;
  int64_t warmup_ns = 0;   // load before the measured window
  int64_t measure_ns = 0;  // measured window (time-bound loads)
  uint64_t max_ops = 0;    // closed loop: stop after this many ops instead
  uint64_t seed = 1;
  // Called on the driving thread as the measured window opens and closes.
  std::function<void()> on_window_open;
  std::function<void()> on_window_close;
};

struct LoadStats {
  LatencySamples write;              // commit latency
  LatencySamples read;               // Sync + snapshot lookup
  std::vector<int64_t> app_read_ns;  // snapshot lookup + decode only
  std::vector<int64_t> late_ns;      // how late the generator issued
  // Closed time-bound loads: completions in each second of the window.
  std::vector<uint64_t> per_second;
  uint64_t window_ops = 0;  // successful ops issued in the window
  uint64_t window_writes = 0;
  uint64_t window_reads = 0;
  int64_t window_start_ns = 0;
  int64_t last_done_ns = 0;  // latest completion of a window op
  Tally tally;

  // Completed ops per second: the median second of a closed time-bound
  // load; otherwise the window's ops over the time from the window's start
  // to the last of them completing.
  double OpsPerSecond() const {
    if (!per_second.empty()) {
      return Median(std::vector<double>(per_second.begin(), per_second.end()));
    }
    const int64_t span = last_done_ns - window_start_ns;
    return span > 0 ? static_cast<double>(window_ops) * 1e9 / static_cast<double>(span) : 0;
  }

  void Merge(LoadStats&& other) {
    const auto append = [](std::vector<int64_t>& to, std::vector<int64_t>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    write.Merge(std::move(other.write));
    read.Merge(std::move(other.read));
    append(app_read_ns, other.app_read_ns);
    append(late_ns, other.late_ns);
    per_second.resize(std::max(per_second.size(), other.per_second.size()));
    for (size_t i = 0; i < other.per_second.size(); ++i) {
      per_second[i] += other.per_second[i];
    }
    window_ops += other.window_ops;
    window_writes += other.window_writes;
    window_reads += other.window_reads;
    last_done_ns = std::max(last_done_ns, other.last_done_ns);
    tally.Merge(other.tally);
  }
};

// Completions handed from settling threads to one generator thread.
class Inbox {
 public:
  void Push(Op op) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(op));
      wake = waiting_;
    }
    if (wake) {
      cv_.notify_one();
    }
  }

  // Waits until an op arrives or `deadline_ns`, then takes every pending op.
  void Wait(int64_t deadline_ns, std::vector<Op>* out) {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty()) {
      waiting_ = true;
      cv_.wait_until(lock,
                     std::chrono::steady_clock::time_point(std::chrono::nanoseconds(deadline_ns)),
                     [&] { return !items_.empty(); });
      waiting_ = false;
    }
    out->swap(items_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Op> items_;
  bool waiting_ = false;
};

// One generator thread: issues its share of the load and checks every
// completion it receives.
class Generator {
 public:
  Generator(int index, const LoadSpec& spec, OpMix* mix, IEngine* top, int64_t window_start,
            int64_t window_end, std::atomic<uint64_t>* issued)
      : index_(index),
        spec_(spec),
        mix_(mix),
        top_(top),
        rng_(spec.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(index) + 1),
        window_start_(window_start),
        window_end_(window_end),
        issued_(issued) {
    stats_.window_start_ns = window_start;
    if (!spec.open_loop && spec.max_ops == 0) {
      stats_.per_second.resize(static_cast<size_t>(spec.measure_ns / kSecondNanos));
    }
  }

  void Run() {
    // Default timer slack lets a timed wait wake ~50 us late; a load
    // generator wants its send times.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    if (spec_.open_loop) {
      RunOpenLoop();
    } else {
      RunClosedLoop();
    }
  }

  LoadStats TakeStats() {
    stats_.write.Add(std::move(write_ns_));
    stats_.read.Add(std::move(read_ns_));
    return std::move(stats_);
  }

 private:
  bool InWindow(int64_t t) const { return t >= window_start_ && t < window_end_; }

  bool Issue(int caller, int64_t due, int64_t late) {
    if (spec_.max_ops != 0 && issued_->fetch_add(1) >= spec_.max_ops) {
      return false;
    }
    Op op;
    mix_->Draw(rng_, &op);
    op.caller = caller;
    op.due_ns = due;
    if (InWindow(due)) {
      stats_.late_ns.push_back(late);
    }
    ++outstanding_;
    try {
      mix_->Start(top_, std::move(op), [inbox = &inbox_](Op done) { inbox->Push(std::move(done)); });
    } catch (const std::exception& e) {
      --outstanding_;
      stats_.tally.Check(std::string("start failed: ") + e.what());
    }
    return true;
  }

  void Finish(Op& op) {
    --outstanding_;
    const std::string verdict = mix_->Finish(&op);
    stats_.tally.Check(verdict);
    if (!verdict.empty()) {
      return;
    }
    const size_t second = static_cast<size_t>((op.done_ns - window_start_) / kSecondNanos);
    if (op.done_ns >= window_start_ && second < stats_.per_second.size()) {
      ++stats_.per_second[second];
    }
    if (!InWindow(op.due_ns)) {
      return;
    }
    const int64_t latency = op.done_ns - op.due_ns + op.read_ns;
    if (op.kind == OpKind::kWrite) {
      write_ns_.push_back(latency);
      ++stats_.window_writes;
    } else {
      read_ns_.push_back(latency);
      stats_.app_read_ns.push_back(op.read_ns);
      ++stats_.window_reads;
    }
    ++stats_.window_ops;
    stats_.last_done_ns = std::max(stats_.last_done_ns, op.done_ns);
  }

  // Called while waiting for the last replies after issuing stopped.
  void CheckDrainDeadline(int64_t now) {
    if (stopped_at_ == 0) {
      stopped_at_ = now;
    }
    if (now > stopped_at_ + kDrainNanos) {
      // Continuations still hold this generator's inbox: there is no safe
      // way to return, and a run that lost replies is not a measurement.
      std::fprintf(stderr, "generator %d: %llu ops never completed\n", index_,
                   static_cast<unsigned long long>(outstanding_));
      std::_Exit(3);
    }
  }

  void RunClosedLoop() {
    const int64_t start = NowNanos();
    for (int caller = index_; caller < spec_.callers; caller += spec_.threads) {
      Issue(caller, start, 0);
    }
    std::vector<Op> batch;
    while (true) {
      const int64_t now = NowNanos();
      const bool stopping =
          spec_.max_ops != 0 ? issued_->load() >= spec_.max_ops : now >= window_end_;
      if (stopping && outstanding_ == 0) {
        return;
      }
      if (stopping) {
        CheckDrainDeadline(now);
      }
      batch.clear();
      inbox_.Wait(now + 100'000'000, &batch);
      for (Op& op : batch) {
        Finish(op);
        const int64_t issue_at = NowNanos();
        if (spec_.max_ops != 0 || issue_at < window_end_) {
          Issue(op.caller, issue_at, issue_at - op.done_ns);
        }
      }
    }
  }

  void RunOpenLoop() {
    const double period = 1e9 / spec_.rate_per_s;
    const int64_t origin = window_start_ - spec_.warmup_ns;
    uint64_t k = static_cast<uint64_t>(index_);
    const auto due_of = [&](uint64_t i) {
      return origin + static_cast<int64_t>(static_cast<double>(i) * period);
    };
    std::vector<Op> batch;
    while (true) {
      const int64_t now = NowNanos();
      const int64_t due = due_of(k);
      if (due < window_end_ && due <= now) {
        Issue(static_cast<int>(k % 64), due, now - due);
        k += static_cast<uint64_t>(spec_.threads);
        continue;
      }
      if (due >= window_end_) {
        if (outstanding_ == 0) {
          return;
        }
        CheckDrainDeadline(now);
      }
      batch.clear();
      inbox_.Wait(due < window_end_ ? due : now + 100'000'000, &batch);
      for (Op& op : batch) {
        Finish(op);
      }
    }
  }

  int index_;
  const LoadSpec& spec_;
  OpMix* mix_;
  IEngine* top_;
  Rng rng_;
  int64_t window_start_;
  int64_t window_end_;
  std::atomic<uint64_t>* issued_;
  uint64_t outstanding_ = 0;
  int64_t stopped_at_ = 0;
  Inbox inbox_;
  LoadStats stats_;
  std::vector<int64_t> write_ns_;  // in completion order
  std::vector<int64_t> read_ns_;
};

LoadStats RunLoad(const LoadSpec& spec, OpMix* mix, IEngine* top) {
  const int64_t start = NowNanos();
  const int64_t window_start = start + spec.warmup_ns;
  const int64_t window_end =
      spec.max_ops != 0 ? INT64_MAX : window_start + spec.measure_ns;
  std::atomic<uint64_t> issued{0};
  std::vector<std::unique_ptr<Generator>> generators;
  for (int g = 0; g < spec.threads; ++g) {
    generators.push_back(
        std::make_unique<Generator>(g, spec, mix, top, window_start, window_end, &issued));
  }
  std::vector<std::thread> threads;
  for (auto& generator : generators) {
    threads.emplace_back([g = generator.get()] { g->Run(); });
  }
  SleepNanos(window_start - NowNanos());
  if (spec.on_window_open) {
    spec.on_window_open();
  }
  if (spec.max_ops == 0) {
    SleepNanos(window_end - NowNanos());
    if (spec.on_window_close) {
      spec.on_window_close();
    }
  }
  for (auto& thread : threads) {
    thread.join();
  }
  if (spec.max_ops != 0 && spec.on_window_close) {
    spec.on_window_close();
  }
  LoadStats stats;
  stats.window_start_ns = window_start;
  for (auto& generator : generators) {
    stats.Merge(generator->TakeStats());
  }
  return stats;
}

// --- Per-layer counters (traced runs) ---

// The latency plane's critical-path totals, parsed from its /latency JSON.
struct CriticalPathTotals {
  int64_t e2e_us = 0;
  int64_t unattributed_us = 0;
  std::map<std::string, int64_t> stage_us;
};

int64_t NumberAfter(const std::string& json, const std::string& key, size_t from) {
  const size_t at = json.find(key, from);
  return at == std::string::npos ? 0 : std::atoll(json.c_str() + at + key.size());
}

CriticalPathTotals ParseLatencyJson(const std::string& json) {
  CriticalPathTotals totals;
  const size_t e2e = json.find("\"e2e\":");
  totals.e2e_us = NumberAfter(json, "\"total_us\":", e2e);
  totals.unattributed_us = NumberAfter(json, "\"unattributed_us\":", e2e);
  const std::string stage_key = "{\"stage\":\"";
  for (size_t at = json.find(stage_key); at != std::string::npos;
       at = json.find(stage_key, at + 1)) {
    const size_t name_start = at + stage_key.size();
    const std::string name = json.substr(name_start, json.find('"', name_start) - name_start);
    totals.stage_us[name] = NumberAfter(json, "\"cp_total_us\":", name_start);
  }
  return totals;
}

// A server's layer counters at one moment; metrics are differences.
struct LayerCounters {
  int64_t wall_ns = 0;
  int64_t busy_us = 0;
  int64_t stall_us = 0;
  uint64_t records = 0;
  uint64_t txns = 0;
  std::map<std::string, int64_t> inclusive_us;
  TimedLog::Counters log;
  TimedApplicator::Counters app;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t net_messages = 0;
  uint64_t batches = 0;
  uint64_t batched_entries = 0;
  CriticalPathTotals critical_path;
};

LayerCounters Capture(Deployment& deployment, int index) {
  LayerCounters c;
  c.wall_ns = NowNanos();
  c.net_messages = deployment.network()->MessageCount();
  delos::ClusterServer& server = deployment.server(index);
  c.busy_us = server.base()->apply_busy_micros();
  c.stall_us = server.base()->read_stall_micros();
  c.records = server.base()->apply_records();
  c.txns = server.base()->apply_batches();
  c.inclusive_us = server.profiler()->InclusiveMicros();
  if (deployment.timed_log(index) != nullptr) {
    c.log = deployment.timed_log(index)->counters();
  }
  if (deployment.timed_app(index) != nullptr) {
    c.app = deployment.timed_app(index)->counters();
  }
  if (server.read_cache() != nullptr) {
    c.cache_hits = server.read_cache()->hits();
    c.cache_misses = server.read_cache()->misses();
  }
  if (auto* batching = dynamic_cast<delos::BatchingEngine*>(server.FindEngine("batching"))) {
    c.batches = batching->batches_proposed();
    c.batched_entries = batching->entries_batched();
  }
  if (server.latency() != nullptr) {
    c.critical_path = ParseLatencyJson(server.latency()->RenderLatencyJson());
  }
  return c;
}

// Fresh-server counters: what a server rebuilt at time `wall_ns` starts from.
LayerCounters FreshCounters(Deployment& deployment, int64_t wall_ns) {
  LayerCounters c;
  c.wall_ns = wall_ns;
  c.net_messages = deployment.network()->MessageCount();
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The critical-path stages reported as cp.<stage>_pct, in stack order. The
// engines' own apply spans nest inside base.apply, which the walk follows.
const std::vector<std::string>& CriticalPathStages() {
  static const std::vector<std::string> stages = {
      "batching.queue",  "sessionorder.seq", "viewtracking.down", "braindoctor.down",
      "logbackup.down",  "digest.down",      "base.append",       "base.apply"};
  return stages;
}

// Metrics of the propose path: the shared log, the network and the latency
// plane, over a window in which `writes` writes and `ops` ops completed.
void AddProposeMetrics(const LayerCounters& a, const LayerCounters& b, TimedLog* log,
                       uint64_t ops, uint64_t writes, MetricSheet* out) {
  const LatencySummary appends = Summarize(log->AppendSamples(a.log.appends, b.log.appends));
  out->Set("sharedlog.append_p50_us", appends.p50_us, "us");
  out->Set("sharedlog.append_p99_us", appends.p99_us, "us",
           appends.p99_supported ? "" : "(fewer than 10 samples above p99)");
  out->Set("sharedlog.appends_per_op",
           Ratio(static_cast<double>(b.log.appends - a.log.appends), static_cast<double>(writes)),
           "count", "per write op");
  out->Set("net.messages_per_op",
           Ratio(static_cast<double>(b.net_messages - a.net_messages), static_cast<double>(ops)),
           "count");
  out->Set("batching.entries_per_batch",
           Ratio(static_cast<double>(b.batched_entries - a.batched_entries),
                 static_cast<double>(b.batches - a.batches)),
           "count");
  const double e2e = static_cast<double>(b.critical_path.e2e_us - a.critical_path.e2e_us);
  for (const std::string& stage : CriticalPathStages()) {
    const auto at = [&](const LayerCounters& c) {
      auto it = c.critical_path.stage_us.find(stage);
      return it == c.critical_path.stage_us.end() ? 0 : it->second;
    };
    out->Set("cp." + stage + "_pct", 100.0 * Ratio(static_cast<double>(at(b) - at(a)), e2e), "%");
  }
  out->Set("cp.unattributed_pct",
           100.0 * Ratio(static_cast<double>(b.critical_path.unattributed_us -
                                             a.critical_path.unattributed_us),
                         e2e),
           "%");
}

// Metrics of the apply path (core, engines, app, localstore, log reads).
void AddApplyMetrics(const LayerCounters& a, const LayerCounters& b, MetricSheet* out) {
  const double wall_us = static_cast<double>(b.wall_ns - a.wall_ns) / 1000.0;
  const double busy_us = static_cast<double>(b.busy_us - a.busy_us);
  const double records = static_cast<double>(b.records - a.records);
  const double txns = static_cast<double>(b.txns - a.txns);
  const auto inclusive = [&](const std::string& label) {
    const auto get = [&](const LayerCounters& c) {
      auto it = c.inclusive_us.find(label);
      return it == c.inclusive_us.end() ? 0 : it->second;
    };
    return static_cast<double>(get(b) - get(a));
  };
  out->Set("core.apply_busy_pct", 100.0 * Ratio(busy_us, wall_us), "%");
  out->Set("core.apply_us_per_record", Ratio(busy_us, records), "us");
  out->Set("core.records_per_txn", Ratio(records, txns), "count");
  out->Set("core.read_stall_pct",
           100.0 * Ratio(static_cast<double>(b.stall_us - a.stall_us), wall_us), "%");
  out->Set("core.post_apply_pct", 100.0 * Ratio(inclusive("postApply"), busy_us), "%");

  // Self time of each engine: its inclusive apply time minus that of the
  // layer above it (the app, for the top engine).
  const double app_apply_us = static_cast<double>(b.app.apply_nanos - a.app.apply_nanos) / 1000.0;
  static const std::vector<std::string> kEngines = {"digest",       "logbackup",    "braindoctor",
                                                    "viewtracking", "sessionorder", "batching"};
  std::vector<std::string> present;
  for (const std::string& engine : kEngines) {
    if (inclusive(engine + ".apply") > 0) {
      present.push_back(engine);
    }
  }
  for (const std::string& engine : kEngines) {
    double self_us = 0;
    const auto it = std::find(present.begin(), present.end(), engine);
    if (it != present.end()) {
      const double above =
          it + 1 == present.end() ? app_apply_us : inclusive(*(it + 1) + ".apply");
      self_us = inclusive(engine + ".apply") - above;
    }
    out->Set("apply." + engine + ".self_us_per_record", Ratio(self_us, records), "us");
  }

  out->Set("app.apply_us_per_op",
           Ratio(app_apply_us, static_cast<double>(b.app.applies - a.app.applies)), "us");
  out->Set("app.post_apply_us_per_op",
           Ratio(static_cast<double>(b.app.post_apply_nanos - a.app.post_apply_nanos) / 1000.0,
                 static_cast<double>(b.app.post_applies - a.app.post_applies)),
           "us");
  out->Set("localstore.commit_us_per_txn", Ratio(inclusive("base.commitTX"), txns), "us");
  out->Set("sharedlog.read_us_per_record",
           Ratio(static_cast<double>(b.log.read_nanos - a.log.read_nanos) / 1000.0,
                 static_cast<double>(b.log.read_records - a.log.read_records)),
           "us");
  const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
  const double misses = static_cast<double>(b.cache_misses - a.cache_misses);
  out->Set("read_cache.hit_pct", 100.0 * Ratio(hits, hits + misses), "%");
}

void AddReadMetrics(const LayerCounters& a, const LayerCounters& b, TimedLog* log,
                    const LoadStats& load, MetricSheet* out) {
  out->Set("sharedlog.check_tail_p50_us",
           Summarize(log->CheckTailSamples(a.log.check_tails, b.log.check_tails)).p50_us, "us");
  out->Set("sharedlog.check_tails_per_read",
           Ratio(static_cast<double>(b.log.check_tails - a.log.check_tails),
                 static_cast<double>(load.window_reads)),
           "count");
  out->Set("app.read_us", Percentile(load.app_read_ns, 50) / 1000.0, "us");
}

// Replica 0's layer counters and traced stage spans over one load window.
class TracedWindow {
 public:
  // Hooks `spec` to capture the counters as its measured window opens and
  // closes, and samples stage spans in between.
  TracedWindow(Deployment& d, LoadSpec* spec) : d_(d), tracer_(d.tracer()) {
    observer_ = tracer_->AddObserver([this](const delos::TraceSpan& span) {
      if (!active_.load(std::memory_order_relaxed) || span.server != "server0") {
        return;
      }
      // Observers run under the tracer's lock, one at a time.
      if (span.name == "batching.queue") {
        queue_ns_.push_back((span.end_micros - span.start_micros) * 1000);
      } else if (span.name == "sessionorder.seq") {
        seq_ns_.push_back((span.end_micros - span.start_micros) * 1000);
      }
    });
    spec->on_window_open = [this] {
      active_.store(true);
      before_ = Capture(d_, 0);
    };
    spec->on_window_close = [this] {
      after_ = Capture(d_, 0);
      active_.store(false);
    };
  }
  ~TracedWindow() { Detach(); }
  TracedWindow(const TracedWindow&) = delete;
  TracedWindow& operator=(const TracedWindow&) = delete;

  const LayerCounters& before() const { return before_; }
  const LayerCounters& after() const { return after_; }

  // The propose-path metrics of the window; call after the load ended.
  void AddMetrics(const LoadStats& load, MetricSheet* out) {
    Detach();
    AddProposeMetrics(before_, after_, d_.timed_log(0), load.window_ops, load.window_writes, out);
    out->Set("stage.batching.queue_p50_us", Percentile(queue_ns_, 50) / 1000.0, "us");
    out->Set("stage.sessionorder.seq_p50_us", Percentile(seq_ns_, 50) / 1000.0, "us");
  }

 private:
  // Stops sampling; the samples are stable afterwards.
  void Detach() {
    if (observer_ != 0) {
      tracer_->RemoveObserver(observer_);
      observer_ = 0;
    }
  }

  Deployment& d_;
  delos::Tracer* tracer_;
  uint64_t observer_ = 0;
  std::atomic<bool> active_{false};
  LayerCounters before_;
  LayerCounters after_;
  std::vector<int64_t> queue_ns_;
  std::vector<int64_t> seq_ns_;
};

// --- Set-up, restart, convergence ---

struct Rig {
  std::unique_ptr<OpMix> mix;  // outlives the deployment's continuations
  std::unique_ptr<Deployment> deployment;
  ZelosMix* zelos = nullptr;
  TableMix* table = nullptr;
};

void WaitAll(std::vector<delos::Future<std::any>>& futures, Tally* tally) {
  for (auto& future : futures) {
    try {
      future.Get();
      tally->Check("");
    } catch (const std::exception& e) {
      tally->Check(std::string("set-up op failed: ") + e.what());
    }
  }
  futures.clear();
}

// Builds a deployment and loads its initial state.
Rig SetUp(const RunConfig& config, bool traced, const std::string& dir, Tally* tally) {
  const bool table = config.workload == "table_indexed";
  const bool catchup = config.workload == "zelos_catchup";
  // zelos_catchup never reads while it writes, so it reads what it wrote.
  const Keys keys = config.shared_keys || catchup ? Keys::kShared : Keys::kSplit;
  Rig rig;
  if (table) {
    auto mix = std::make_unique<TableMix>(config.seed, keys);
    rig.table = mix.get();
    rig.mix = std::move(mix);
  } else {
    auto mix = std::make_unique<ZelosMix>(config.seed, 0.5, keys);
    rig.zelos = mix.get();
    rig.mix = std::move(mix);
  }
  DeploymentOptions options;
  options.app = table ? AppKind::kTable : AppKind::kZelos;
  options.servers = catchup ? 2 : 1;
  options.traced = traced;
  options.checkpoint_dir = dir;
  rig.deployment = std::make_unique<Deployment>(options);
  IEngine* top = rig.deployment->top(0);

  std::vector<delos::Future<std::any>> futures;
  if (table) {
    delos::table::TableSchema schema;
    schema.name = kTable;
    schema.columns = {{"k", delos::table::ValueType::kInt64},
                      {"owner", delos::table::ValueType::kString},
                      {"v", delos::table::ValueType::kString}};
    schema.primary_key = "k";
    schema.secondary_indexes = {"owner"};
    delos::table::TableClient(top).CreateTable(schema);
    Rng rng(config.seed ^ 0x726f7773ULL);
    for (int pk = 0; pk < kRows; ++pk) {
      futures.push_back(top->Propose(rig.table->UpsertEntry(
          pk, static_cast<int>(rng.Uniform(0, kOwners - 1)), pk % kValues, 0)));
      if (futures.size() == 512) {
        WaitAll(futures, tally);
      }
    }
  } else {
    for (int z = 0; z < kZnodes; ++z) {
      futures.push_back(top->Propose(rig.zelos->CreateEntry(z)));
    }
  }
  WaitAll(futures, tally);

  if (catchup) {
    // Replica 1 catches up, checkpoints, and reports its durable position
    // through the log, so replica 0 keeps the suffix it will need.
    Deployment& d = *rig.deployment;
    d.top(1)->Sync().Get();
    d.server(1).base()->FlushNow();
    futures.push_back(d.top(1)->Propose(rig.zelos->SetDataEntry(0, 0, 1)));
    WaitAll(futures, tally);
  }
  return rig;
}

// Sets up repeatedly (a fresh deployment each time) and keeps the last;
// reports the median set-up time.
Rig SetUpRepeated(const RunConfig& config, bool traced, double* setup_s, Tally* tally) {
  std::vector<double> seconds;
  double total = 0;
  Rig rig;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || total * 1e9 < kSetupNanos); ++i) {
    // Tear the previous deployment down (before its mix) and out of the timing.
    rig.deployment.reset();
    rig = Rig();
    const std::string dir =
        config.work_dir + "/" + (traced ? "traced" : "plain") + "_setup" + std::to_string(i);
    std::filesystem::create_directories(dir);
    const int64_t start = NowNanos();
    rig = SetUp(config, traced, dir, tally);
    seconds.push_back(static_cast<double>(NowNanos() - start) / 1e9);
    total += seconds.back();
  }
  *setup_s = Median(seconds);
  return rig;
}

struct RestartTiming {
  double restart_s = 0;   // checkpoint open + stack rebuild + start
  double replay_s = 0;    // from start to the first linearizable read served
  double recovery_s = 0;  // restart_s + replay_s
};

// Restarts crashed server `index` and serves one linearizable read; then
// verifies the whole recovered state against what clients saw complete.
RestartTiming RestartAndRead(Rig& rig, int index, Tally* tally) {
  Deployment& d = *rig.deployment;
  RestartTiming timing;
  const int64_t start = NowNanos();
  d.Restart(index);
  const int64_t started = NowNanos();
  ROTxn snapshot;
  std::string verdict;
  try {
    snapshot = d.top(index)->Sync().Get();
    if (rig.zelos != nullptr) {
      verdict = CheckZelosRead(ReadZnode(snapshot, rig.zelos->path(0)), rig.zelos->known(0));
    } else {
      verdict = CheckTableGet(ReadRow(snapshot, 0), 0);
    }
  } catch (const std::exception& e) {
    verdict = std::string("first read after restart failed: ") + e.what();
  }
  const int64_t served = NowNanos();
  tally->Check(verdict);
  timing.restart_s = static_cast<double>(started - start) / 1e9;
  timing.replay_s = static_cast<double>(served - started) / 1e9;
  timing.recovery_s = static_cast<double>(served - start) / 1e9;
  if (!snapshot.valid()) {
    return timing;
  }
  // No acknowledged write may be lost across the restart.
  if (rig.zelos != nullptr) {
    for (int z = 0; z < kZnodes; ++z) {
      tally->Check(CheckZelosRead(ReadZnode(snapshot, rig.zelos->path(z)), rig.zelos->known(z)));
    }
  } else {
    for (int pk = 0; pk < kRows; ++pk) {
      tally->Check(CheckTableGet(ReadRow(snapshot, pk), pk));
    }
  }
  return timing;
}

ReplicaState ReplicaStateOf(delos::ClusterServer& server) {
  ReplicaState state;
  state.applied = server.base()->applied_position();
  state.checksum = server.store()->Checksum();
  if (auto* digest = dynamic_cast<delos::DigestEngine*>(server.FindEngine("digest"))) {
    state.digest_mismatches = digest->tracker()->mismatches();
  }
  return state;
}

// Waits for both replicas to settle at the same position, then checks that
// their stores and digest planes agree.
std::string CheckReplicasConverge(Deployment& d) {
  const int64_t deadline = NowNanos() + 10'000'000'000;
  ReplicaState a;
  ReplicaState b;
  while (NowNanos() < deadline) {
    d.top(0)->Sync().Get();
    d.top(1)->Sync().Get();
    a = ReplicaStateOf(d.server(0));
    b = ReplicaStateOf(d.server(1));
    if (a.applied == b.applied && d.server(0).base()->applied_position() == a.applied &&
        d.server(1).base()->applied_position() == b.applied) {
      break;
    }
    SleepNanos(5'000'000);
  }
  return CheckConverged(a, b);
}

// Waits until replica 0 has trimmed what the log's readers no longer need
// (its trim prefix holds still for three trim intervals), so a large trim
// does not land inside the next measured phase.
void WaitForTrimToSettle(Deployment& d) {
  constexpr int64_t kQuietNanos = 600'000'000;
  const int64_t deadline = NowNanos() + 5 * kSecondNanos;
  LogPos prefix = d.server(0).log()->trim_prefix();
  int64_t since = NowNanos();
  while (NowNanos() < deadline && NowNanos() - since < kQuietNanos) {
    SleepNanos(20'000'000);
    const LogPos now = d.server(0).log()->trim_prefix();
    if (now != prefix) {
      prefix = now;
      since = NowNanos();
    }
  }
}

// --- Measurements ---

struct Measurement {
  double setup_s = 0;
  LatencySummary write;
  LatencySummary read;
  double ops_per_s = 0;
  double recovery_s = 0;
  double late_p99_us = 0;
  int cycles = 0;  // zelos_catchup: crash / backlog / replay cycles run
  Tally tally;
  MetricSheet layers;
  std::vector<std::string> invalid;
};

// zelos_light, zelos_saturate, table_indexed: a steady load on one replica,
// then kRestarts crash-restarts of it.
Measurement MeasureSteady(const RunConfig& config, bool traced) {
  Measurement m;
  Rig rig = SetUpRepeated(config, traced, &m.setup_s, &m.tally);
  Deployment& d = *rig.deployment;

  LoadSpec spec;
  spec.seed = config.seed;
  spec.warmup_ns = kWarmupNanos;
  spec.measure_ns = static_cast<int64_t>(config.seconds) * kSecondNanos;
  if (config.workload == "zelos_light") {
    spec.open_loop = true;
    spec.rate_per_s = kOpenLoopRate;
    spec.threads = 1;
  } else {
    spec.callers = config.workload == "table_indexed" ? kTableCallers : kSaturateCallers;
    spec.threads = config.threads;
  }
  std::unique_ptr<TracedWindow> window;
  if (traced) {
    window = std::make_unique<TracedWindow>(d, &spec);
  }
  const LoadStats load = RunLoad(spec, rig.mix.get(), d.top(0));
  m.tally.Merge(load.tally);
  m.write = Summarize(load.write);
  m.read = Summarize(load.read);
  m.ops_per_s = load.OpsPerSecond();
  m.late_p99_us = Percentile(load.late_ns, 99) / 1000.0;
  if (spec.open_loop && m.late_p99_us * 1000.0 > static_cast<double>(kMaxLateP99Nanos)) {
    m.invalid.push_back("the open-loop generator ran " + std::to_string(m.late_p99_us) +
                        " us late at p99");
  }
  if (traced) {
    window->AddMetrics(load, &m.layers);
    AddApplyMetrics(window->before(), window->after(), &m.layers);
    AddReadMetrics(window->before(), window->after(), d.timed_log(0), load, &m.layers);
  }

  std::vector<double> restart_s;
  std::vector<double> replay_s;
  std::vector<double> recovery_s;
  for (int i = 0; i < kRestarts; ++i) {
    // A crash right after a checkpoint: the restart replays no suffix.
    d.server(0).base()->FlushNow();
    d.Stop(0);
    const RestartTiming timing = RestartAndRead(rig, 0, &m.tally);
    restart_s.push_back(timing.restart_s);
    replay_s.push_back(timing.replay_s);
    recovery_s.push_back(timing.recovery_s);
  }
  m.recovery_s = Median(recovery_s);
  if (traced) {
    m.layers.Set("catchup.restart_s", Median(restart_s), "s");
    m.layers.Set("catchup.replay_s", Median(replay_s), "s");
  }
  return m;
}

// zelos_catchup: replica 1 crashes, replica 0 commits a fixed backlog,
// replica 1 restarts from its checkpoint and replays; one cycle per
// kSecondsPerCatchupCycle seconds of the run.
Measurement MeasureCatchup(const RunConfig& config, bool traced) {
  Measurement m;
  Rig rig = SetUpRepeated(config, traced, &m.setup_s, &m.tally);
  Deployment& d = *rig.deployment;
  LoadStats writes;
  LoadStats reads;
  std::vector<double> ops_per_s;
  std::vector<double> restart_s;
  std::vector<double> replay_s;
  std::vector<double> recovery_s;
  const int cycles = config.trace ? 1 : std::max(1, config.seconds / kSecondsPerCatchupCycle);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    WaitForTrimToSettle(d);
    d.Stop(1);

    LoadSpec backlog;
    backlog.callers = kBacklogCallers;
    backlog.threads = config.threads;
    backlog.max_ops = kBacklogOps;
    backlog.seed = config.seed * 31 + static_cast<uint64_t>(cycle);
    std::unique_ptr<TracedWindow> window;
    if (traced) {
      window = std::make_unique<TracedWindow>(d, &backlog);
    }
    rig.zelos->set_write_share(1.0);
    LoadStats load = RunLoad(backlog, rig.mix.get(), d.top(0));
    ops_per_s.push_back(load.OpsPerSecond());
    if (traced) {
      m.layers = MetricSheet();  // the last cycle's
      window->AddMetrics(load, &m.layers);
    }
    writes.Merge(std::move(load));

    // Replay: replica 1's counters start from zero when it is rebuilt.
    const LayerCounters replay_start = FreshCounters(d, NowNanos());
    const RestartTiming timing = RestartAndRead(rig, 1, &m.tally);
    restart_s.push_back(timing.restart_s);
    replay_s.push_back(timing.replay_s);
    recovery_s.push_back(timing.recovery_s);
    LayerCounters replayed;
    if (traced) {
      replayed = Capture(d, 1);
      AddApplyMetrics(replay_start, replayed, &m.layers);
    }

    // The replicas settle (replica 1's own segment bids commit) at one
    // position with equal stores.
    m.tally.Check(CheckReplicasConverge(d));

    // Linearizable reads served by the recovered replica.
    LoadSpec read_spec;
    read_spec.callers = 1;
    read_spec.threads = 1;
    read_spec.measure_ns = kCatchupReadNanos;
    read_spec.seed = backlog.seed ^ 0x72656164ULL;
    rig.zelos->set_write_share(0.0);
    const LayerCounters reads_start = traced ? Capture(d, 1) : LayerCounters();
    LoadStats served = RunLoad(read_spec, rig.mix.get(), d.top(1));
    if (traced) {
      AddReadMetrics(reads_start, Capture(d, 1), d.timed_log(1), served, &m.layers);
    }
    reads.Merge(std::move(served));
    // Replica 1 checkpoints and reports its position again, so replica 0
    // may trim the log it has now replayed.
    d.server(1).base()->FlushNow();
    std::vector<delos::Future<std::any>> rejoin;
    rejoin.push_back(d.top(1)->Propose(rig.zelos->SetDataEntry(0, 0, 1)));
    WaitAll(rejoin, &m.tally);
  }
  m.tally.Merge(writes.tally);
  m.tally.Merge(reads.tally);
  m.write = Summarize(writes.write);
  m.read = Summarize(reads.read);
  m.ops_per_s = Median(ops_per_s);
  m.recovery_s = Median(recovery_s);
  m.late_p99_us = Percentile(writes.late_ns, 99) / 1000.0;
  if (traced) {
    m.layers.Set("catchup.restart_s", Median(restart_s), "s");
    m.layers.Set("catchup.replay_s", Median(replay_s), "s");
  }
  m.cycles = static_cast<int>(recovery_s.size());
  return m;
}

Measurement Measure(const RunConfig& config, bool traced) {
  return config.workload == "zelos_catchup" ? MeasureCatchup(config, traced)
                                            : MeasureSteady(config, traced);
}

// The end-to-end metrics BENCHMARK.json gates go to `gated`; the p99s and
// ops_per_s go to `printed`, shown for every run but not gated: on a shared
// VM their run-to-run spread can exceed any allowed bound (see NOTES.md).
void AddEndToEnd(const Measurement& m, MetricSheet* gated, MetricSheet* printed) {
  const auto samples = [](const LatencySummary& s) {
    return "n=" + std::to_string(s.count) +
           (s.p99_supported ? "" : ", p99 unsupported: fewer than 10 samples above it");
  };
  gated->Set("write_p50_us", m.write.p50_us, "us", samples(m.write));
  gated->Set("read_p50_us", m.read.p50_us, "us", samples(m.read));
  gated->Set("recovery_s", m.recovery_s, "s");
  gated->Set("setup_s", m.setup_s, "s");
  printed->Set("write_p99_us", m.write.p99_us, "us", samples(m.write));
  printed->Set("read_p99_us", m.read.p99_us, "us", samples(m.read));
  printed->Set("ops_per_s", m.ops_per_s, "1/s");
}

// How much tracing worsens the workload's headline metric (%), and its name.
std::pair<double, std::string> TraceOverhead(const std::string& workload,
                                             const Measurement& plain,
                                             const Measurement& traced) {
  if (workload == "zelos_light") {
    return {100.0 * Ratio(traced.write.p50_us - plain.write.p50_us, plain.write.p50_us),
            "write_p50_us"};
  }
  if (workload == "zelos_catchup") {
    return {100.0 * Ratio(traced.recovery_s - plain.recovery_s, plain.recovery_s),
            "recovery_s"};
  }
  return {100.0 * Ratio(plain.ops_per_s - traced.ops_per_s, plain.ops_per_s), "ops_per_s"};
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"zelos_light", "zelos_saturate",
                                                 "table_indexed", "zelos_catchup"};
  return names;
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  const Measurement plain = Measure(config, /*traced=*/false);
  Tally tally = plain.tally;
  std::vector<std::string> invalid = plain.invalid;
  if (!config.trace) {
    AddEndToEnd(plain, &result.metrics, &result.extra);
    result.extra.Set("failed_pct",
                     100.0 * Ratio(static_cast<double>(tally.failed),
                                   static_cast<double>(tally.attempted)),
                     "%");
    result.extra.Set("gen.late_p99_us", plain.late_p99_us, "us");
    if (plain.cycles > 0) {
      result.extra.Set("catchup.cycles", plain.cycles, "count");
    }
  } else {
    const Measurement traced = Measure(config, /*traced=*/true);
    tally.Merge(traced.tally);
    invalid.insert(invalid.end(), traced.invalid.begin(), traced.invalid.end());
    MetricSheet traced_sheet;
    AddEndToEnd(traced, &traced_sheet, &traced_sheet);
    result.metrics = traced.layers;
    result.metrics.Set("gen.late_p99_us", traced.late_p99_us, "us");
    const auto [overhead_pct, headline] = TraceOverhead(config.workload, plain, traced);
    result.metrics.Set("trace.overhead_pct", overhead_pct, "%", "on " + headline);
    result.extra = traced_sheet;
  }
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.failures = tally.failures;
  result.correct = tally.failed == 0;
  result.invalid = invalid;
  return result;
}

}  // namespace perfbench

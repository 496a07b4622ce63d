// Unit tests for src/common: serde, futures, metrics, checksum, clocks,
// blocking queue, scheduler, JSON output.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "src/common/blocking_queue.h"
#include "src/common/checksum.h"
#include "src/common/clock.h"
#include "src/common/divergence.h"
#include "src/common/future.h"
#include "src/common/json.h"
#include "src/common/latency.h"
#include "src/common/metrics.h"
#include "src/common/random.h"
#include "src/common/scheduler.h"
#include "src/common/serde.h"
#include "src/core/entry.h"
#include "src/core/health.h"

namespace delos {
namespace {

// --- serde ---

TEST(SerdeTest, VarintRoundTrip) {
  Serializer ser;
  const uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384, UINT64_MAX};
  for (uint64_t v : values) {
    ser.WriteVarint(v);
  }
  Deserializer de(ser.buffer());
  for (uint64_t v : values) {
    EXPECT_EQ(de.ReadVarint(), v);
  }
  EXPECT_TRUE(de.AtEnd());
}

TEST(SerdeTest, SignedZigzagRoundTrip) {
  Serializer ser;
  const int64_t values[] = {0, -1, 1, -2, 63, -64, INT64_MAX, INT64_MIN};
  for (int64_t v : values) {
    ser.WriteSigned(v);
  }
  Deserializer de(ser.buffer());
  for (int64_t v : values) {
    EXPECT_EQ(de.ReadSigned(), v);
  }
}

TEST(SerdeTest, StringRoundTrip) {
  Serializer ser;
  ser.WriteString("");
  ser.WriteString("hello");
  ser.WriteString(std::string("\x00\x01\xff", 3));
  Deserializer de(ser.buffer());
  EXPECT_EQ(de.ReadString(), "");
  EXPECT_EQ(de.ReadString(), "hello");
  EXPECT_EQ(de.ReadString(), std::string("\x00\x01\xff", 3));
}

TEST(SerdeTest, DoubleAndBoolRoundTrip) {
  Serializer ser;
  ser.WriteDouble(3.14159);
  ser.WriteDouble(-0.0);
  ser.WriteBool(true);
  ser.WriteBool(false);
  Deserializer de(ser.buffer());
  EXPECT_DOUBLE_EQ(de.ReadDouble(), 3.14159);
  EXPECT_DOUBLE_EQ(de.ReadDouble(), -0.0);
  EXPECT_TRUE(de.ReadBool());
  EXPECT_FALSE(de.ReadBool());
}

TEST(SerdeTest, OptionalVectorMapRoundTrip) {
  Serializer ser;
  ser.WriteOptional(std::optional<std::string>("x"),
                    [](Serializer& s, const std::string& v) { s.WriteString(v); });
  ser.WriteOptional(std::optional<std::string>{},
                    [](Serializer& s, const std::string& v) { s.WriteString(v); });
  ser.WriteVector(std::vector<std::string>{"a", "b"},
                  [](Serializer& s, const std::string& v) { s.WriteString(v); });
  std::map<std::string, std::string> m{{"k1", "v1"}, {"k2", "v2"}};
  ser.WriteMap(
      m, [](Serializer& s, const std::string& k) { s.WriteString(k); },
      [](Serializer& s, const std::string& v) { s.WriteString(v); });

  Deserializer de(ser.buffer());
  auto opt1 = de.ReadOptional<std::string>([](Deserializer& d) { return d.ReadString(); });
  ASSERT_TRUE(opt1.has_value());
  EXPECT_EQ(*opt1, "x");
  auto opt2 = de.ReadOptional<std::string>([](Deserializer& d) { return d.ReadString(); });
  EXPECT_FALSE(opt2.has_value());
  auto vec = de.ReadVector<std::string>([](Deserializer& d) { return d.ReadString(); });
  EXPECT_EQ(vec, (std::vector<std::string>{"a", "b"}));
  auto map = de.ReadMap<std::string, std::string>(
      [](Deserializer& d) { return d.ReadString(); },
      [](Deserializer& d) { return d.ReadString(); });
  EXPECT_EQ(map, m);
}

TEST(SerdeTest, TruncationThrows) {
  Serializer ser;
  ser.WriteString("hello world");
  const std::string bytes = ser.buffer().substr(0, 3);
  Deserializer de(bytes);
  EXPECT_THROW(de.ReadString(), SerdeError);
}

TEST(SerdeTest, MalformedVarintThrows) {
  const std::string bytes(11, '\xff');  // continuation bit forever
  Deserializer de(bytes);
  EXPECT_THROW(de.ReadVarint(), SerdeError);
}

TEST(SerdeTest, HugeClaimedStringSizeThrows) {
  // A length prefix near UINT64_MAX must not wrap the bounds check
  // (`pos_ + size` overflows to a small number) and read out of bounds.
  Serializer ser;
  ser.WriteVarint(UINT64_MAX);
  ser.WriteVarint(UINT64_MAX - 7);  // crafted so pos_ + size wraps past zero
  Deserializer de(ser.buffer());
  EXPECT_THROW(de.ReadString(), SerdeError);
  EXPECT_THROW(de.ReadStringView(), SerdeError);
}

TEST(SerdeTest, ClaimedSizeJustPastEndThrows) {
  Serializer ser;
  ser.WriteVarint(6);  // claims 6 bytes, only 5 present
  const std::string bytes = ser.buffer() + "hello";
  Deserializer de(bytes);
  EXPECT_THROW(de.ReadStringView(), SerdeError);
}

TEST(SerdeTest, TruncatedFixed64AtTailThrows) {
  // Fewer than 8 bytes remaining: the subtraction-based check must catch it
  // even when pos_ is within 8 of the end.
  const std::string bytes("\x01\x02\x03", 3);
  Deserializer de(bytes);
  EXPECT_THROW(de.ReadFixed64(), SerdeError);
}

TEST(SerdeTest, ReadStringViewBorrowsFromInput) {
  Serializer ser;
  ser.WriteString("zero-copy");
  const std::string bytes = ser.buffer();
  Deserializer de(bytes);
  std::string_view view = de.ReadStringView();
  EXPECT_EQ(view, "zero-copy");
  // The view must point into the input buffer, not a copy.
  EXPECT_GE(view.data(), bytes.data());
  EXPECT_LE(view.data() + view.size(), bytes.data() + bytes.size());
}

TEST(SerdeTest, MalformedLogEntryHeaderCountThrows) {
  // A corrupt entry claiming a huge header map must fail parsing cleanly
  // rather than over-read.
  Serializer ser;
  ser.WriteVarint(1u << 20);  // header count with no header bytes
  EXPECT_THROW(LogEntry::Deserialize(ser.buffer()), SerdeError);
}

// --- future ---

TEST(FutureTest, SetBeforeGet) {
  Promise<int> promise;
  promise.SetValue(42);
  EXPECT_EQ(promise.GetFuture().Get(), 42);
}

TEST(FutureTest, GetBlocksUntilSet) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    promise.SetValue(7);
  });
  EXPECT_EQ(future.Get(), 7);
  setter.join();
}

TEST(FutureTest, ExceptionPropagates) {
  Promise<int> promise;
  promise.SetException(std::make_exception_ptr(DelosError("boom")));
  EXPECT_THROW(promise.GetFuture().Get(), DelosError);
}

TEST(FutureTest, ThenRunsInlineWhenReady) {
  Promise<int> promise;
  promise.SetValue(5);
  int seen = 0;
  promise.GetFuture().Then([&](Result<int> r) { seen = r.value(); });
  EXPECT_EQ(seen, 5);
}

TEST(FutureTest, ThenRunsOnFulfillingThread) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  std::atomic<int> seen{0};
  future.Then([&](Result<int> r) { seen = r.value(); });
  promise.SetValue(9);
  EXPECT_EQ(seen.load(), 9);
}

TEST(FutureTest, BrokenPromiseDeliversError) {
  Future<int> future;
  {
    Promise<int> promise;
    future = promise.GetFuture();
  }
  EXPECT_THROW(future.Get(), BrokenPromiseError);
}

TEST(FutureTest, GetForTimesOut) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  EXPECT_FALSE(future.GetFor(std::chrono::microseconds(1000)).has_value());
  promise.SetValue(1);
  EXPECT_EQ(future.GetFor(std::chrono::microseconds(1000)).value(), 1);
}

TEST(FutureTest, MultipleCopiesShareResult) {
  Promise<std::string> promise;
  Future<std::string> a = promise.GetFuture();
  Future<std::string> b = a;
  promise.SetValue("shared");
  EXPECT_EQ(a.Get(), "shared");
  EXPECT_EQ(b.Get(), "shared");
}

// --- metrics ---

TEST(MetricsTest, HistogramPercentiles) {
  Histogram hist;
  for (int i = 1; i <= 1000; ++i) {
    hist.Record(i);
  }
  EXPECT_EQ(hist.count(), 1000u);
  // Log-bucketed: allow ~10% relative error.
  EXPECT_NEAR(static_cast<double>(hist.Percentile(50)), 500, 60);
  EXPECT_NEAR(static_cast<double>(hist.Percentile(99)), 990, 100);
  EXPECT_EQ(hist.Max(), 1000);
  EXPECT_NEAR(hist.Mean(), 500.5, 1.0);
}

TEST(MetricsTest, HistogramLargeValues) {
  Histogram hist;
  hist.Record(50'000'000);  // 50 s
  EXPECT_GE(hist.Percentile(50), 45'000'000);
}

TEST(MetricsTest, HistogramPercentileOnEmptyAndSingleSample) {
  Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.Percentile(0), 0);
  EXPECT_EQ(hist.Percentile(50), 0);
  EXPECT_EQ(hist.Percentile(100), 0);
  EXPECT_EQ(hist.Mean(), 0.0);
  EXPECT_EQ(hist.Max(), 0);

  hist.Record(7);
  EXPECT_EQ(hist.count(), 1u);
  // One sample: every percentile lands in its (exact, linear) bucket.
  EXPECT_EQ(hist.Percentile(1), 7);
  EXPECT_EQ(hist.Percentile(50), 7);
  EXPECT_EQ(hist.Percentile(100), 7);
  EXPECT_EQ(hist.Max(), 7);
}

TEST(MetricsTest, HistogramValuesAboveBucketCapClampButKeepExactMax) {
  Histogram hist;
  const int64_t huge = int64_t{10'000'000'000};  // ~2.8 hours, above 2^31 us
  hist.Record(huge);
  EXPECT_EQ(hist.count(), 1u);
  // Bucketed percentiles saturate at the top bucket's upper bound...
  EXPECT_EQ(hist.Percentile(50), (int64_t{1} << 31) - 1);
  // ...while Max and the mean keep the exact value.
  EXPECT_EQ(hist.Max(), huge);
  EXPECT_NEAR(hist.Mean(), static_cast<double>(huge), 1.0);
}

TEST(MetricsTest, HistogramP999TracksTheExtremeTail) {
  Histogram hist;
  for (int i = 0; i < 995; ++i) {
    hist.Record(100);
  }
  for (int i = 0; i < 5; ++i) {
    hist.Record(1'000'000);  // a 0.5% extreme tail
  }
  // p99 sits in the bulk; p99.9 must land on the outliers' bucket.
  EXPECT_LE(hist.Percentile(99), 200);
  EXPECT_GE(hist.Percentile(99.9), 900'000);

  MetricsRegistry metrics;
  metrics.GetHistogram("tail")->Record(100);
  EXPECT_NE(metrics.Render().find("p999="), std::string::npos);
  EXPECT_NE(metrics.RenderPrometheus().find("{quantile=\"0.999\"}"), std::string::npos);
}

TEST(MetricsTest, HistogramConcurrentRecordVersusSnapshots) {
  Histogram src;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&src, t] {
      for (int i = 0; i < kPerThread; ++i) {
        src.Record(t * 1000 + (i % 997));
      }
    });
  }
  // Snapshot while the writers hammer the histogram: every snapshot must be
  // internally sane even though it is not a point-in-time cut.
  for (int round = 0; round < 50; ++round) {
    const Histogram::CumulativeSnapshot snapshot = src.Snapshot();
    EXPECT_LE(snapshot.count, uint64_t{kThreads} * kPerThread);
    EXPECT_LE(Histogram::PercentileOfBuckets(snapshot.buckets, 50),
              Histogram::PercentileOfBuckets(snapshot.buckets, 99));
    EXPECT_GE(snapshot.sum, 0);
  }
  for (auto& writer : writers) {
    writer.join();
  }
  EXPECT_EQ(src.count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(src.Max(), (kThreads - 1) * 1000 + 996);
}

TEST(MetricsTest, GaugeSetAddReset) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0);
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 7);

  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
  gauge.Add(-4);  // gauges go negative (e.g. lag measured the other way)
  EXPECT_EQ(gauge.value(), -4);
}

TEST(MetricsTest, GaugeRendersInBothExpositionFormats) {
  MetricsRegistry registry;
  registry.GetGauge("queue.depth")->Set(-3);
  EXPECT_NE(registry.Render().find("queue.depth gauge=-3"), std::string::npos);
  const std::string prom = registry.RenderPrometheus();
  EXPECT_NE(prom.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("queue_depth -3"), std::string::npos);
}

TEST(MetricsTest, RegistryCreatesLazily) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("ops");
  c->Increment(3);
  EXPECT_EQ(registry.GetCounter("ops")->value(), 3u);
  registry.GetHistogram("lat")->Record(5);
  EXPECT_NE(registry.Render().find("ops value=3"), std::string::npos);
}

// --- checksum ---

TEST(ChecksumTest, OrderIndependent) {
  IncrementalChecksum a;
  IncrementalChecksum b;
  a.Add("k1", "v1");
  a.Add("k2", "v2");
  b.Add("k2", "v2");
  b.Add("k1", "v1");
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(ChecksumTest, AddRemoveRestores) {
  IncrementalChecksum check;
  check.Add("k1", "v1");
  const uint64_t before = check.digest();
  check.Add("k2", "v2");
  check.Remove("k2", "v2");
  EXPECT_EQ(check.digest(), before);
}

// PairHash values are persisted (every checkpoint ends with their XOR), so
// the word-at-a-time implementation must keep producing these exact values.
TEST(ChecksumTest, PairHashValuesArePinned) {
  std::string row(120, 'r');
  row[7] = '\xff';
  row[119] = '\x80';
  EXPECT_EQ(IncrementalChecksum::PairHash("t/rows/r/00000042", row), 0x999c7954a0641e6bULL);
  EXPECT_EQ(IncrementalChecksum::PairHash("", ""), 0xea0514881b11fde9ULL);
  EXPECT_EQ(IncrementalChecksum::PairHash("abcdefgh", "\xf0\x01xyz"), 0x6d0464b8abd9cc3cULL);
}

TEST(ChecksumTest, KeyValueBoundaryMatters) {
  EXPECT_NE(IncrementalChecksum::PairHash("ab", "c"), IncrementalChecksum::PairHash("a", "bc"));
}

TEST(ChecksumTest, DifferentContentsDiffer) {
  IncrementalChecksum a;
  IncrementalChecksum b;
  a.Add("k", "v1");
  b.Add("k", "v2");
  EXPECT_NE(a.digest(), b.digest());
}

// --- clock ---

TEST(ClockTest, SimClockAdvance) {
  SimClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowMicros(), 150);
}

TEST(ClockTest, SimClockWakesSleepers) {
  SimClock clock;
  std::atomic<bool> woke{false};
  std::thread sleeper([&] {
    clock.SleepMicros(1000);
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(woke.load());
  clock.Advance(1000);
  sleeper.join();
  EXPECT_TRUE(woke.load());
}

TEST(ClockTest, SkewedClockOffsets) {
  SimClock base(1000);
  SkewedClock skewed(&base, 250);
  EXPECT_EQ(skewed.NowMicros(), 1250);
  skewed.set_skew_micros(-250);
  EXPECT_EQ(skewed.NowMicros(), 750);
}

// --- blocking queue ---

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> queue;
  queue.Push(1);
  queue.Push(2);
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
}

TEST(BlockingQueueTest, CloseDrainsAndStops) {
  BlockingQueue<int> queue;
  queue.Push(1);
  queue.Close();
  EXPECT_FALSE(queue.Push(2));
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_FALSE(queue.Pop().has_value());
}

TEST(BlockingQueueTest, PopBlocksForPush) {
  BlockingQueue<int> queue;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    queue.Push(42);
  });
  EXPECT_EQ(queue.Pop().value(), 42);
  producer.join();
}

// --- scheduler ---

TEST(SchedulerTest, RunsAfterDelay) {
  TimerScheduler scheduler;
  std::atomic<bool> ran{false};
  const int64_t start = RealClock::Instance()->NowMicros();
  std::atomic<int64_t> ran_at{0};
  scheduler.Schedule(5000, [&] {
    ran_at = RealClock::Instance()->NowMicros();
    ran = true;
  });
  while (!ran.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(ran_at.load() - start, 4500);
}

TEST(SchedulerTest, OrdersByDeadline) {
  TimerScheduler scheduler;
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> done{0};
  scheduler.Schedule(10000, [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
    ++done;
  });
  scheduler.Schedule(2000, [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
    ++done;
  });
  while (done.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// --- rng ---

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RngTest, StringLength) {
  Rng rng(1);
  EXPECT_EQ(rng.String(16).size(), 16u);
}

// --- log entry codec ---

void ExpectSameEntry(const LogEntry& a, const LogEntry& b) {
  EXPECT_EQ(a.headers, b.headers);
  EXPECT_EQ(a.payload, b.payload);
}

// Entries of every header kind the apply path sees: trace and client ids,
// app and non-app engine headers, empty and binary payloads.
std::vector<LogEntry> CodecCorpus(Rng& rng) {
  std::vector<LogEntry> corpus;
  LogEntry plain;
  plain.payload = "hello world, this is a payload";
  corpus.push_back(plain);

  LogEntry with_headers;
  with_headers.payload = rng.String(200);
  with_headers.SetHeader("base", EngineHeader{kMsgTypeApp, rng.String(24)});
  with_headers.SetHeader("batching", EngineHeader{3, rng.String(64)});
  with_headers.SetHeader("sessionorder", EngineHeader{1, ""});
  corpus.push_back(with_headers);

  corpus.push_back(LogEntry{});

  LogEntry ids;
  SetTraceIds(&ids, {1, 1ULL << 40, UINT64_MAX});
  SetClientIds(&ids, {7});
  ids.SetHeader("viewtracking", EngineHeader{2, std::string("\0\xff\x80", 3)});
  corpus.push_back(ids);

  LogEntry binary;
  for (int i = 0; i < 256; ++i) {
    binary.payload.push_back(static_cast<char>(i));
  }
  binary.SetHeader(std::string("\0bin\xff", 5), EngineHeader{kMsgTypeApp, binary.payload});
  SetTraceIds(&binary, {});
  corpus.push_back(binary);
  return corpus;
}

// The owning decode reads headers straight into the entry; it must give
// back exactly what was serialized, and what the borrowed view materializes.
TEST(LogEntryCodecTest, OwnedDecodeMatchesViewMaterialize) {
  Rng rng(7);
  for (const LogEntry& entry : CodecCorpus(rng)) {
    const std::string bytes = entry.Serialize();
    const LogEntry owned = LogEntry::Deserialize(bytes);
    ExpectSameEntry(owned, entry);
    ExpectSameEntry(owned, LogEntryView::Parse(bytes).Materialize());
    EXPECT_EQ(owned.Serialize(), bytes);
  }
}

// --- log entry decode fuzz ---

// Seeded mutation fuzz over the zero-copy entry decoder: start from valid
// serialized entries, flip/truncate/extend bytes, and require that Parse
// either succeeds (in which case Materialize and header lookups must be
// safe) or throws SerdeError — never anything else, never a crash or an
// unbounded allocation. The apply pipeline feeds raw log bytes straight into
// this decoder, so on a torn or corrupted log record this is the line
// between a DeterministicError the engine can handle and undefined behavior.
TEST(LogEntryFuzzTest, MutatedEntriesEitherParseOrThrowSerdeError) {
  Rng rng(20260806);

  // A corpus of valid encodings of varying shape.
  std::vector<std::string> corpus;
  for (const LogEntry& entry : CodecCorpus(rng)) {
    corpus.push_back(entry.Serialize());
  }

  int parsed = 0;
  int rejected = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    std::string bytes = corpus[static_cast<size_t>(rng.Uniform(0, corpus.size() - 1))];
    const int mutations = static_cast<int>(rng.Uniform(1, 4));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.Uniform(0, 3)) {
        case 0:  // flip a byte
          if (!bytes.empty()) {
            const auto at = static_cast<size_t>(rng.Uniform(0, bytes.size() - 1));
            bytes[at] = static_cast<char>(rng.Uniform(0, 255));
          }
          break;
        case 1:  // truncate
          bytes.resize(static_cast<size_t>(rng.Uniform(0, bytes.size())));
          break;
        case 2:  // splice random garbage into the middle
          bytes.insert(static_cast<size_t>(rng.Uniform(0, bytes.size())),
                       rng.String(static_cast<size_t>(rng.Uniform(1, 8))));
          break;
        default:  // append trailing garbage
          bytes += rng.String(static_cast<size_t>(rng.Uniform(1, 16)));
          break;
      }
    }

    try {
      const LogEntryView view = LogEntryView::Parse(bytes);
      // A successful parse must yield a fully usable view, and the one-pass
      // owning decode must agree with it.
      const LogEntry owned = view.Materialize();
      EXPECT_EQ(owned.payload, view.payload);
      EXPECT_EQ(owned.headers.size(), view.headers.size());
      for (const auto& [name, blob] : view.headers) {
        EXPECT_TRUE(view.HasHeader(name));
        (void)blob;
      }
      ExpectSameEntry(LogEntry::Deserialize(bytes), owned);
      ++parsed;
    } catch (const SerdeError&) {
      ++rejected;  // the only acceptable failure mode
      EXPECT_THROW(LogEntry::Deserialize(bytes), SerdeError);
    }
  }
  // The corpus mutation mix lands on both sides; if either count collapses
  // to ~zero the fuzz stopped exercising anything.
  EXPECT_GT(parsed, 25);
  EXPECT_GT(rejected, 100);
}

// The one id parser behind tracing and workload attribution: a batch entry
// carries one id per constituent, so every id must survive past the inline
// buffer; a malformed blob reads as "no ids" and never fails the entry.
TEST(ParseIdsTest, KeepsEveryIdPastTheInlineBuffer) {
  std::vector<uint64_t> ids;
  for (uint64_t i = 1; i <= 64; ++i) {
    ids.push_back(i * 1000);
  }
  LogEntry entry;
  SetTraceIds(&entry, ids);
  SetClientIds(&entry, {7});
  const IdList parsed = ParseIds(entry, kTraceHeaderName);
  ASSERT_EQ(parsed.size(), 64u);
  EXPECT_GT(parsed.size(), IdList::kInline);
  EXPECT_EQ(std::vector<uint64_t>(parsed.begin(), parsed.end()), ids);
  const IdList clients = ParseIds(entry, kClientHeaderName);
  ASSERT_EQ(clients.size(), 1u);
  EXPECT_EQ(clients.front(), 7u);
}

TEST(ParseIdsTest, MalformedOrAbsentBlobMeansNoIds) {
  LogEntry entry;
  EXPECT_TRUE(ParseIds(entry, kTraceHeaderName).empty());
  // Claims five ids but carries one.
  entry.SetHeader(kTraceHeaderName, EngineHeader{kMsgTypeApp, std::string("\x05\x01", 2)});
  EXPECT_TRUE(ParseIds(entry, kTraceHeaderName).empty());
  // Not even a well-formed header envelope.
  entry.headers[kTraceHeaderName] = "\xff";
  EXPECT_TRUE(ParseIds(entry, kTraceHeaderName).empty());
}

// --- JSON output ---

TEST(JsonEscapeTest, EveryByteClass) {
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("a\x01" "b"), "a\\u0001b");
  EXPECT_EQ(JsonEscape("a\x1f" "b"), "a\\u001fb");
  EXPECT_EQ(JsonEscape(std::string("a\0b", 3)), "a\\u0000b");
  EXPECT_EQ(JsonEscape("\x20~\x7f"), "\x20~\x7f");
  // Bytes >= 0x80 (UTF-8 sequences) pass through untouched.
  EXPECT_EQ(JsonEscape("caf\xc3\xa9 \xff"), "caf\xc3\xa9 \xff");
}

TEST(JsonWriterTest, EmptyContainers) {
  EXPECT_EQ(JsonWriter().BeginObject().EndObject().str(), "{}");
  EXPECT_EQ(JsonWriter().BeginArray().EndArray().str(), "[]");
  JsonWriter json;
  json.BeginObject().Key("o").BeginObject().EndObject().Key("a").BeginArray().EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(), R"({"o":{},"a":[]})");
}

TEST(JsonWriterTest, NestingPlacesEveryComma) {
  JsonWriter json;
  json.BeginObject().Key("a").Int(1).Key("b").BeginArray().Int(1).Int(2);
  json.BeginObject().EndObject().BeginArray().BeginArray().EndArray().Int(3).EndArray();
  json.EndArray();
  json.Key("c").BeginObject().Key("d").BeginArray().EndArray().Key("e").Null().EndObject();
  json.Key("f").BeginArray().BeginObject().Key("g").Bool(true).EndObject();
  json.BeginObject().Key("h").Bool(false).EndObject().EndArray();
  json.EndObject();
  EXPECT_EQ(json.str(),
            R"({"a":1,"b":[1,2,{},[[],3]],"c":{"d":[],"e":null},)"
            R"("f":[{"g":true},{"h":false}]})");
}

TEST(JsonWriterTest, ValueForms) {
  JsonWriter json;
  json.BeginArray()
      .Int(-7)
      .Int(uint64_t{18446744073709551615ULL})
      .Int(int64_t{-9223372036854775807LL - 1})
      .Fixed(70.0, 1)
      .Fixed(2.25, 1)
      .Fixed(-0.04, 1)
      .Double(20.333333)
      .Double(110)
      .Double(1e-7)
      .Double(0)
      .String("q\"\t")
      .Raw(R"({"x":1})")
      .EndArray();
  EXPECT_EQ(json.str(),
            R"([-7,18446744073709551615,-9223372036854775808,70.0,2.2,-0.0,)"
            R"(20.3333,110,1e-07,0,"q\"\t",{"x":1}])");
}

TEST(JsonWriterTest, KeysAreEscaped) {
  JsonWriter json;
  json.BeginObject().Key("a\"b\tc").String("v").EndObject();
  EXPECT_EQ(json.str(), R"({"a\"b\tc":"v"})");
}

// Double() writes what an iostream writes by default, the form the metrics
// JSON used before it moved onto the writer.
TEST(JsonWriterTest, DoubleMatchesTheStreamDefault) {
  for (const double value : {0.0, 1.5, 20.333333333, 1234567.0, 1e21, 3e-5, -42.125}) {
    std::ostringstream stream;
    stream << value;
    JsonWriter json;
    json.Double(value);
    EXPECT_EQ(json.str(), stream.str());
  }
}

// A metric name with a TAB or another control byte still yields valid JSON.
TEST(JsonWriterTest, MetricNamesWithControlBytesAreEscaped) {
  MetricsRegistry metrics;
  metrics.GetCounter("a\tb")->Increment(2);
  metrics.GetGauge("c\x02")->Set(1);
  EXPECT_EQ(metrics.RenderJson(),
            R"({"counters":{"a\tb":2},"gauges":{"c\u0002":1},"histograms":{}})");
}

// TAB and CR in plane strings take the short escapes in every render.
TEST(JsonWriterTest, PlaneRendersWriteTabAndCrAsShortEscapes) {
  const std::string health =
      RenderHealthJson({HealthReport{"base", HealthState::kDegraded, "lag\tby\r3", 3}});
  EXPECT_NE(health.find(R"("reason":"lag\tby\r3")"), std::string::npos) << health;

  DivergenceOptions options;
  options.server = "s\t0";
  DivergenceTracker tracker(options);
  EXPECT_EQ(tracker.RenderJson().rfind(R"({"server":"s\t0",)", 0), 0u);

  MetricsRegistry metrics;
  LatencyAttributor::Options latency_options;
  latency_options.metrics = &metrics;
  latency_options.server = "s\r0";
  LatencyAttributor latency(latency_options);
  EXPECT_EQ(latency.RenderLatencyJson().rfind(R"({"server":"s\r0",)", 0), 0u);
}

}  // namespace
}  // namespace delos

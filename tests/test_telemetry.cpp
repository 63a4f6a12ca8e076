// Unit coverage for common/telemetry: the log-bucketed histogram (bucket
// math, merge associativity, the documented <= 12.5% quantile error bound vs
// exact quantile() on fuzzed sample sets), the locked registry histogram
// under concurrent writers (TSan covers the races), the registry snapshot/dump
// formats, and the span tracer (cross-thread nesting, schema-valid JSON,
// ring overflow dropping oldest events into telemetry.dropped_events).
#include "common/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

// ----------------------------------------------------------- LogHistogram --

TEST(LogHistogram, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LogHistogram, SingleSampleEveryQuantile) {
  LogHistogram h;
  h.record(0.125);  // a power of two: exact bucket boundary
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    // Clamped to [min, max], a single sample is returned exactly.
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.125) << "q=" << q;
  }
}

TEST(LogHistogram, BucketBoundsContainTheirValues) {
  Rng rng(0xb0c1);
  for (int i = 0; i < 2000; ++i) {
    // Log-uniform across the representable range [2^-40, 2^40): ~24 decades.
    const double v = std::exp((rng.uniform() - 0.5) * 55.0);
    const int idx = LogHistogram::bucket_index(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, LogHistogram::kNumBuckets);
    EXPECT_LE(LogHistogram::bucket_lower(idx), v * (1 + 1e-12));
    EXPECT_GT(LogHistogram::bucket_upper(idx), v * (1 - 1e-12));
  }
  // Outside the range, values clamp to the end buckets by design.
  EXPECT_EQ(LogHistogram::bucket_index(1e-30), 0);
  EXPECT_EQ(LogHistogram::bucket_index(1e30), LogHistogram::kNumBuckets - 1);
}

TEST(LogHistogram, BucketRelativeWidthIsBounded) {
  for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
    const double lo = LogHistogram::bucket_lower(i);
    const double hi = LogHistogram::bucket_upper(i);
    EXPECT_LE(hi / lo, 1.125 + 1e-12) << "bucket " << i;
    EXPECT_GT(hi, lo);
  }
}

TEST(LogHistogram, ZeroAndNegativeLandInZeroBucket) {
  LogHistogram h;
  h.record(0.0);
  h.record(-3.5);
  h.record(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.zero_count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(LogHistogram, QuantileWithinDocumentedBoundOnFuzzedSets) {
  // The headline accuracy contract: bucketed quantiles vs exact quantile()
  // within 12.5% relative error, over several distributions and sizes.
  Rng rng(0x51a7);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform() * 3000);
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(n));
    LogHistogram h;
    const int dist = trial % 4;
    for (int i = 0; i < n; ++i) {
      double v = 0.0;
      switch (dist) {
        case 0: v = rng.uniform() * 1e-3; break;              // uniform micro
        case 1: v = std::exp(rng.uniform() * 20.0 - 10.0); break;  // log-unif
        case 2: v = 1.0 + rng.uniform(); break;               // narrow band
        default:  // heavy tail: mostly small, occasional huge
          v = rng.uniform() < 0.95 ? rng.uniform() * 1e-4
                                   : rng.uniform() * 10.0;
      }
      samples.push_back(v);
      h.record(v);
    }
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      const double exact = quantile(samples, q);
      const double approx = h.quantile(q);
      EXPECT_NEAR(approx, exact, std::abs(exact) * 0.125 + 1e-15)
          << "trial=" << trial << " dist=" << dist << " n=" << n
          << " q=" << q;
    }
  }
}

TEST(LogHistogram, MergeIsAssociativeAndExact) {
  Rng rng(0xabcd);
  LogHistogram a, b, c;
  LogHistogram all;  // reference: everything recorded into one histogram
  for (int i = 0; i < 900; ++i) {
    const double v = std::exp(rng.uniform() * 12.0 - 6.0);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
    all.record(v);
  }
  // (a + b) + c
  LogHistogram ab = a;
  ab.merge(b);
  LogHistogram ab_c = ab;
  ab_c.merge(c);
  // a + (b + c)
  LogHistogram bc = b;
  bc.merge(c);
  LogHistogram a_bc = a;
  a_bc.merge(bc);

  for (const LogHistogram* m : {&ab_c, &a_bc}) {
    EXPECT_EQ(m->count(), all.count());
    // Sums accumulate in different orders, so only near-equality holds.
    EXPECT_NEAR(m->sum(), all.sum(), all.sum() * 1e-12);
    EXPECT_DOUBLE_EQ(m->min(), all.min());
    EXPECT_DOUBLE_EQ(m->max(), all.max());
    for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
      ASSERT_EQ(m->bucket_count(i), all.bucket_count(i)) << "bucket " << i;
    }
    // Identical buckets => identical quantiles, bit for bit.
    for (double q : {0.1, 0.5, 0.9, 0.99}) {
      EXPECT_DOUBLE_EQ(m->quantile(q), all.quantile(q));
    }
  }
  // Merging an empty histogram is the identity.
  LogHistogram empty;
  LogHistogram a2 = a;
  a2.merge(empty);
  EXPECT_EQ(a2.count(), a.count());
  EXPECT_DOUBLE_EQ(a2.quantile(0.5), a.quantile(0.5));
}

// -------------------------------------------------------- LockedHistogram --

TEST(LockedHistogram, ConcurrentWritersMergeToTheFullCount) {
  // TSan-covered: N threads hammer one histogram; the merged snapshot must
  // account for every sample with sane moments.
  LockedHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<double>(1 + ((t * kPerThread + i) % 100)));
      }
    });
  }
  for (auto& th : threads) th.join();

  const LogHistogram merged = h.merged();
  EXPECT_EQ(merged.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), 100.0);
  // Each thread cycles 1..100 evenly (20000 % 100 == 0): mean exactly 50.5.
  EXPECT_NEAR(merged.mean(), 50.5, 1e-9);
  const double p50 = merged.quantile(0.5);
  EXPECT_NEAR(p50, 50.5, 50.5 * 0.125);
}

TEST(LockedHistogram, MergedWhileWritersRunStaysWellFormed) {
  // A reader snapshotting mid-write must see a consistent-enough histogram:
  // monotone quantiles, count <= total eventually written, no crash.
  LockedHistogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&h, &stop] {
      Rng rng(0x7e57 + 17);
      // >= 1000 records even if the stop flag is already set (single-core
      // schedulers can run the reader loop to completion first).
      for (int i = 0; i < 1000 || !stop.load(std::memory_order_relaxed);
           ++i) {
        h.record(rng.uniform() + 1e-9);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    const LogHistogram snap = h.merged();
    const double p10 = snap.quantile(0.1);
    const double p50 = snap.quantile(0.5);
    const double p99 = snap.quantile(0.99);
    EXPECT_LE(p10, p50);
    EXPECT_LE(p50, p99);
    EXPECT_GE(snap.max(), snap.min());
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  EXPECT_GT(h.merged().count(), 0u);
}

// ------------------------------------------------------- TelemetryRegistry --

TEST(TelemetryRegistry, NamedMetricsAreStableAndAggregated) {
  auto& reg = TelemetryRegistry::instance();
  Counter& c1 = reg.counter("test.registry.counter");
  Counter& c2 = reg.counter("test.registry.counter");
  EXPECT_EQ(&c1, &c2);  // same name -> same metric
  c1.reset();
  c1.add(3);
  c2.add(4);
  EXPECT_EQ(c1.value(), 7u);

  reg.gauge("test.registry.gauge").set(2.5);
  auto& h = reg.histogram("test.registry.hist");
  h.reset();
  h.record(1.0);
  h.record(2.0);

  const auto snap = reg.snapshot();
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const auto& [name, v] : snap.counters) {
    if (name == "test.registry.counter") {
      saw_counter = true;
      EXPECT_EQ(v, 7u);
    }
  }
  for (const auto& [name, v] : snap.gauges) {
    if (name == "test.registry.gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(v, 2.5);
    }
  }
  for (const auto& hs : snap.histograms) {
    if (hs.name == "test.registry.hist") {
      saw_hist = true;
      EXPECT_EQ(hs.hist.count(), 2u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

TEST(TelemetryRegistry, JsonDumpIsWellFormed) {
  auto& reg = TelemetryRegistry::instance();
  reg.counter("test.dump.counter").add(1);
  reg.histogram("test.dump.hist").record(0.5);

  std::ostringstream json;
  reg.write_json(json);
  const std::string j = json.str();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"test.dump.counter\""), std::string::npos);
  // Balanced braces (no nesting surprises in a flat two-level dump).
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
}

// ----------------------------------------------------------------- Tracer --

/// Tiny recursive-descent JSON validator — enough to assert the emitted
/// Chrome trace is schema-valid without a JSON library dependency.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : s_(text) {}

  bool valid_value() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Tracer, ExportIsSchemaValidJsonWithRequiredFields) {
  Tracer& tracer = Tracer::instance();
  tracer.enable(64);
  tracer.record("test.span.a", 10.0, 5.0);
  tracer.record("test.span.b", 20.0, 2.5);
  tracer.disable();

  std::ostringstream os;
  tracer.export_chrome_trace(os);
  const std::string trace = os.str();
  EXPECT_TRUE(JsonCursor(trace).valid_value()) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"test.span.a\""), std::string::npos);
  // Every complete event carries ph/ts/dur/pid/tid.
  for (const char* field : {"\"ph\":\"X\"", "\"ts\":", "\"dur\":",
                            "\"pid\":", "\"tid\":"}) {
    EXPECT_NE(trace.find(field), std::string::npos) << field;
  }
  tracer.clear();
}

TEST(Tracer, SpansNestCorrectlyAcrossThreads) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable(1024);

  auto spans = [] {
    SpanSite& outer = SpanSite::site("test.nest.outer");
    SpanSite& inner = SpanSite::site("test.nest.inner");
    ScopedSpan a(outer);
    {
      ScopedSpan b(inner);
    }
  };
  std::thread t1(spans), t2(spans);
  spans();
  t1.join();
  t2.join();
  tracer.disable();

  std::ostringstream os;
  tracer.export_chrome_trace(os);
  const std::string trace = os.str();
  ASSERT_TRUE(JsonCursor(trace).valid_value()) << trace;

  const std::vector<testing::TraceSpan> events =
      testing::parse_trace_spans(trace);
  // 3 executions x 2 spans.
  const auto outer_count = std::count_if(
      events.begin(), events.end(),
      [](const testing::TraceSpan& e) { return e.name == "test.nest.outer"; });
  const auto inner_count = std::count_if(
      events.begin(), events.end(),
      [](const testing::TraceSpan& e) { return e.name == "test.nest.inner"; });
  EXPECT_EQ(outer_count, 3);
  EXPECT_EQ(inner_count, 3);

  // Nesting: spans on one tid never straddle (proper containment, the
  // invariant chrome://tracing needs to build its flame graph), and every
  // inner interval lies inside exactly one span of its tid, its outer one.
  const std::vector<int> depth = testing::expect_spans_nest(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].name != "test.nest.inner") continue;
    EXPECT_EQ(depth[i], 1) << "tid=" << events[i].tid;
  }
  // Three distinct threads -> three distinct tids among the outer spans.
  std::vector<int> tids;
  for (const testing::TraceSpan& e : events) {
    if (e.name == "test.nest.outer") tids.push_back(e.tid);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), 3u);
  tracer.clear();
}

TEST(Tracer, RingOverflowDropsOldestAndCounts) {
  Tracer& tracer = Tracer::instance();
  auto& reg = TelemetryRegistry::instance();
  Counter& dropped = reg.counter("telemetry.dropped_events");

  tracer.clear();
  tracer.enable(8);  // tiny ring
  const std::uint64_t dropped_before = dropped.value();
  for (int i = 0; i < 20; ++i) {
    tracer.record("test.overflow", static_cast<double>(i), 1.0);
  }
  tracer.disable();

  EXPECT_EQ(dropped.value() - dropped_before, 12u);  // 20 - capacity 8

  std::ostringstream os;
  tracer.export_chrome_trace(os);
  const std::string trace = os.str();
  ASSERT_TRUE(JsonCursor(trace).valid_value()) << trace;
  // The oldest events (ts 0..11) were dropped; the newest 8 survive in
  // order — output is never corrupted, recent history wins.  Timestamps
  // export as fixed-point microseconds at ns resolution.
  EXPECT_EQ(trace.find("\"ts\":11.000,"), std::string::npos);
  for (int ts = 12; ts < 20; ++ts) {
    EXPECT_NE(trace.find("\"ts\":" + std::to_string(ts) + ".000,"),
              std::string::npos)
        << "ts=" << ts;
  }
  tracer.clear();
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  ASSERT_FALSE(tracer.enabled());
  tracer.record("test.disabled", 0.0, 1.0);
  EXPECT_EQ(tracer.buffered_events(), 0u);
}

TEST(ScopedSpan, AlwaysFeedsTheDurationHistogram) {
  // Span duration histograms accumulate even with tracing disabled — that
  // is what makes per-span-name p99s available in production permanently.
  Tracer::instance().disable();
  auto& reg = TelemetryRegistry::instance();
  auto& hist = reg.histogram("span.test.histonly");
  hist.reset();
  {
    SpanSite& site = SpanSite::site("test.histonly");
    ScopedSpan span(site);
  }
  EXPECT_EQ(hist.merged().count(), 1u);
}

}  // namespace
}  // namespace gapart

// Process-wide telemetry: a metrics registry (counters, gauges, mergeable
// log-bucketed histograms) and a span tracer (per-thread ring buffers
// exported as Chrome trace_event JSON).
//
// Two layers with different compile-time stories:
//
//  * The *data types* — LogHistogram above all — are always compiled.  The
//    service's latency accounting (SessionStats / ServiceStats) is built on
//    them, and that accounting must keep its bounded-memory guarantee even in
//    builds that strip instrumentation.
//
//  * The *instrumentation macros* (GAPART_SPAN, GAPART_COUNTER_ADD, ...) are
//    the seam, modelled on fault_injection.hpp: compiled in when
//    GAPART_TELEMETRY is defined (the default build), folded to no-ops —
//    zero code, zero clock reads — when it is not.  Telemetry never feeds
//    back into algorithm decisions, so ON and OFF builds are bit-identical
//    in behavior; OFF merely stops measuring.
//
// Histogram design (HdrHistogram-lite): geometric buckets with 8 sub-buckets
// per octave, i.e. consecutive bucket boundaries differ by at most a factor
// 9/8.  Quantiles interpolated inside a bucket are therefore within 12.5%
// *relative* error of the exact order statistic (typically half that) — the
// documented accuracy bound, asserted by tests/test_telemetry.cpp against
// exact quantile() on fuzzed sample sets.  Buckets make the histogram
// mergeable: merge() is associative and exact (unlike merging quantiles),
// so per-session histograms compose into service-wide p50/p99.
//
// A registry histogram is one LogHistogram behind a leaf mutex: record() is
// a bucket index and an increment under a lock held for nanoseconds, and
// readers copy the histogram under the same lock.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gapart {

// ------------------------------------------------------------------------
// LogHistogram — plain, copyable, mergeable.  Not thread-safe; the locked
// wrapper below provides the concurrent write path.
// ------------------------------------------------------------------------
class LogHistogram {
 public:
  /// 8 sub-buckets per octave: relative bucket width <= 12.5%.
  static constexpr int kSubBucketsLog2 = 3;
  static constexpr int kSubBuckets = 1 << kSubBucketsLog2;
  /// Exponent range [2^-40, 2^40): covers nanoseconds-as-seconds up to
  /// terabyte-scale byte counts.  Values outside clamp to the end buckets.
  static constexpr int kMinExp = -40;
  static constexpr int kMaxExp = 40;
  static constexpr int kNumBuckets = (kMaxExp - kMinExp) * kSubBuckets;

  /// Bucket index for a positive value (clamped to the range above).
  static int bucket_index(double v);
  /// Inclusive lower / exclusive upper bound of bucket `index`.
  static double bucket_lower(int index);
  static double bucket_upper(int index);

  /// Records one sample.  Values <= 0 land in a dedicated zero bucket and
  /// participate in count()/quantile() as 0.0.
  void record(double v) { record_n(v, 1); }
  void record_n(double v, std::uint64_t n);

  /// Element-wise merge; associative and commutative, loses nothing the
  /// bucketing hadn't already lost.
  void merge(const LogHistogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// q in [0,1], linearly interpolated inside the target bucket and clamped
  /// to [min(), max()].  Relative error <= one bucket width (12.5%).
  /// 0 for an empty histogram.
  double quantile(double q) const;

  void clear() { *this = LogHistogram(); }

  /// Direct bucket access for snapshot serialization.
  std::uint64_t bucket_count(int index) const { return buckets_[index]; }
  std::uint64_t zero_count() const { return zero_count_; }

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t zero_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// ------------------------------------------------------------------------
// Registry metric types.
// ------------------------------------------------------------------------
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Concurrent histogram: one LogHistogram behind a leaf mutex.  Nothing is
/// acquired while the lock is held, and the registry takes it under its own
/// lock only to snapshot, so it cannot join a lock cycle.
class LockedHistogram {
 public:
  void record(double v);

  /// A copy of everything recorded so far.
  LogHistogram merged() const;

  /// Test hook: forgets every sample.
  void reset();

 private:
  mutable std::mutex mu_;
  LogHistogram hist_;  // guarded by mu_
};

// ------------------------------------------------------------------------
// TelemetryRegistry — the process-wide name -> metric table.
// ------------------------------------------------------------------------
class TelemetryRegistry {
 public:
  static TelemetryRegistry& instance();

  /// Lookup-or-create.  Returned references are stable for the process
  /// lifetime; the lookup takes a lock, so call sites cache the reference
  /// in a function-local static (the GAPART_* macros do this).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LockedHistogram& histogram(const std::string& name);

  struct HistogramSnapshot {
    std::string name;
    LogHistogram hist;
  };
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;
  };
  /// Consistent-per-metric snapshot of everything registered so far,
  /// sorted by name.
  Snapshot snapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,p50,
  /// p90,p99,max,...}}} — one JSON object, machine-readable.
  void write_json(std::ostream& os) const;

  /// Test hook: zeroes counters and histograms (names stay registered so
  /// cached references remain valid).  Gauges are left alone — they are
  /// last-write-wins anyway.
  void reset_for_tests();

 private:
  TelemetryRegistry() = default;

  mutable std::mutex mu_;
  // Deques-of-unique_ptr keep addresses stable across growth.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<LockedHistogram>>>
      histograms_;
};

// ------------------------------------------------------------------------
// Tracer — per-thread ring buffers of completed spans, exported as Chrome
// trace_event JSON (load chrome://tracing or https://ui.perfetto.dev).
// ------------------------------------------------------------------------

/// One completed span.  `name` must be a string literal (span sites are
/// static); ts/dur are microseconds since Tracer::enable().
struct TraceEvent {
  const char* name = nullptr;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

class Tracer {
 public:
  static Tracer& instance();

  /// Starts collecting spans, each thread buffering up to
  /// `events_per_thread` events in a ring.  On overflow the oldest event in
  /// that thread's ring is dropped and the `telemetry.dropped_events`
  /// counter incremented — output stays well-formed, recent history wins.
  void enable(std::size_t events_per_thread = kDefaultRingCapacity);
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends one completed span to the calling thread's ring (no-op unless
  /// enabled).  Used by ScopedSpan; exposed for tests.
  void record(const char* name, double ts_us, double dur_us);

  /// Microseconds since enable() on the tracing clock (steady).
  double now_us() const;
  /// Converts a steady_clock time point to the same scale (clamped >= 0).
  double ts_us(std::chrono::steady_clock::time_point tp) const;

  /// {"traceEvents":[{"name","ph":"X","ts","dur","pid","tid"},...],
  ///  "displayTimeUnit":"ms"} — every thread's ring, oldest first per
  /// thread.  Safe to call while recording continues (rings lock briefly).
  void export_chrome_trace(std::ostream& os) const;

  /// Drops every buffered event (rings stay registered).
  void clear();

  /// Events currently buffered across all rings (post-drop).
  std::size_t buffered_events() const;

  static constexpr std::size_t kDefaultRingCapacity = 1 << 14;

 private:
  Tracer() = default;
  struct Ring;
  Ring* local_ring();

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_{};
  mutable std::mutex mu_;  // ring registration / export / clear
  std::vector<std::unique_ptr<Ring>> rings_;
  std::size_t capacity_ = kDefaultRingCapacity;
};

// ------------------------------------------------------------------------
// Span sites.
// ------------------------------------------------------------------------

/// Cached per-call-site span state: the literal name plus the span's
/// duration histogram (`span.<name>` in the registry, recorded in seconds
/// on every execution, traced or not).
struct SpanSite {
  const char* name;
  LockedHistogram* hist;

  /// Registers (once) and returns the site for `name`.  Call through a
  /// function-local static — see GAPART_SPAN.
  static SpanSite& site(const char* name);
};

/// RAII span: always records its duration into the site histogram; also
/// appends a trace event when the Tracer is enabled.  Two steady_clock
/// reads per span (~40ns) — cheap against the microsecond-scale regions
/// it wraps, and compiled out entirely with GAPART_TELEMETRY=OFF.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanSite& site)
      : site_(site), start_(std::chrono::steady_clock::now()) {}
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanSite& site_;
  std::chrono::steady_clock::time_point start_;
};

/// Seconds on the tracing clock (steady, arbitrary epoch) — for explicit
/// interval measurements across threads (queue waits, ship->ack RTT) where
/// a scoped span can't straddle the gap.
double telemetry_now_seconds();

/// True in builds whose instrumentation macros are live.
#ifdef GAPART_TELEMETRY
inline constexpr bool kTelemetryCompiledIn = true;
#else
inline constexpr bool kTelemetryCompiledIn = false;
#endif

}  // namespace gapart

// ------------------------------------------------------------------------
// The seam.  Every macro folds to a no-op (that still marks its arguments
// as used, so OFF builds compile warning-clean under -Werror) when
// GAPART_TELEMETRY is not defined.
// ------------------------------------------------------------------------
#define GAPART_TELEM_CAT2(a, b) a##b
#define GAPART_TELEM_CAT(a, b) GAPART_TELEM_CAT2(a, b)

#ifdef GAPART_TELEMETRY

/// Scoped span covering the rest of the enclosing block.  `name` must be a
/// string literal; the site (name -> histogram) resolves once per call site.
#define GAPART_SPAN(name)                                       \
  static ::gapart::SpanSite& GAPART_TELEM_CAT(gapart_site_,     \
                                              __LINE__) =       \
      ::gapart::SpanSite::site(name);                           \
  ::gapart::ScopedSpan GAPART_TELEM_CAT(gapart_span_, __LINE__)(\
      GAPART_TELEM_CAT(gapart_site_, __LINE__))

#define GAPART_COUNTER_ADD(name, delta)                              \
  do {                                                               \
    static ::gapart::Counter& gapart_counter_ =                      \
        ::gapart::TelemetryRegistry::instance().counter(name);       \
    gapart_counter_.add(static_cast<std::uint64_t>(delta));          \
  } while (0)

#define GAPART_GAUGE_SET(name, value)                                \
  do {                                                               \
    static ::gapart::Gauge& gapart_gauge_ =                          \
        ::gapart::TelemetryRegistry::instance().gauge(name);         \
    gapart_gauge_.set(static_cast<double>(value));                   \
  } while (0)

#define GAPART_HISTOGRAM_RECORD(name, value)                         \
  do {                                                               \
    static ::gapart::LockedHistogram& gapart_hist_ =                 \
        ::gapart::TelemetryRegistry::instance().histogram(name);     \
    gapart_hist_.record(static_cast<double>(value));                 \
  } while (0)

/// Timestamp for explicit cross-thread intervals; pairs with
/// GAPART_HISTOGRAM_RECORD(name, GAPART_TSTAMP() - t0).  0.0 when OFF, so
/// stored stamps stay inert.
#define GAPART_TSTAMP() (::gapart::telemetry_now_seconds())

#else  // !GAPART_TELEMETRY

// Arguments are still (cheaply) evaluated so variables that exist only to
// feed telemetry don't trip -Werror=unused; with GAPART_TSTAMP() fixed at
// 0.0 every argument is a dead constant expression the optimizer erases.
#define GAPART_SPAN(name) ((void)(name))
#define GAPART_COUNTER_ADD(name, delta) ((void)(name), (void)(delta))
#define GAPART_GAUGE_SET(name, value) ((void)(name), (void)(value))
#define GAPART_HISTOGRAM_RECORD(name, value) ((void)(name), (void)(value))
#define GAPART_TSTAMP() (0.0)

#endif  // GAPART_TELEMETRY

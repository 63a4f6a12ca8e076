#include "common/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace gapart {

namespace {

/// Minimal JSON string escaping (metric/span names are identifiers, but a
/// malformed dump must never be possible).
void write_json_string(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << *s;
        }
    }
  }
  os << '"';
}

}  // namespace

// ------------------------------------------------------------------ LogHistogram

int LogHistogram::bucket_index(double v) {
  int exp = 0;
  const double frac = std::frexp(v, &exp);  // v = frac * 2^exp, frac ∈ [0.5,1)
  const int octave = exp - 1;               // v = (2·frac) * 2^octave
  int sub = static_cast<int>((2.0 * frac - 1.0) * kSubBuckets);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  if (sub < 0) sub = 0;
  if (octave < kMinExp) return 0;
  if (octave >= kMaxExp) return kNumBuckets - 1;
  return (octave - kMinExp) * kSubBuckets + sub;
}

double LogHistogram::bucket_lower(int index) {
  const int octave = kMinExp + index / kSubBuckets;
  const int sub = index % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

double LogHistogram::bucket_upper(int index) {
  const int octave = kMinExp + index / kSubBuckets;
  const int sub = index % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, octave);
}

void LogHistogram::record_n(double v, std::uint64_t n) {
  if (n == 0) return;
  double eff = v;
  if (v > 0.0) {
    buckets_[bucket_index(v)] += n;
    sum_ += v * static_cast<double>(n);
  } else {  // zero, negative, or NaN: counted as 0.0
    zero_count_ += n;
    eff = 0.0;
  }
  if (count_ == 0) {
    min_ = eff;
    max_ = eff;
  } else {
    min_ = std::min(min_, eff);
    max_ = std::max(max_, eff);
  }
  count_ += n;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  zero_count_ += other.zero_count_;
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Continuous 0-based rank, matching stats.hpp quantile()'s convention of
  // interpolating between order statistics.
  const double pos = q * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  if (zero_count_ > 0) {
    if (pos < static_cast<double>(zero_count_)) return 0.0;
    seen = zero_count_;
  }
  for (int i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t c = buckets_[i];
    if (c == 0) continue;
    if (pos < static_cast<double>(seen + c)) {
      const double lo = bucket_lower(i);
      const double hi = bucket_upper(i);
      double t = (pos - static_cast<double>(seen) + 0.5) /
                 static_cast<double>(c);
      t = std::clamp(t, 0.0, 1.0);
      return std::clamp(lo + (hi - lo) * t, min_, max_);
    }
    seen += c;
  }
  return max_;  // pos beyond the last bucket (count drift in snapshots)
}

// ------------------------------------------------------------- LockedHistogram

void LockedHistogram::record(double v) {
  std::lock_guard<std::mutex> lk(mu_);
  hist_.record(v);
}

LogHistogram LockedHistogram::merged() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hist_;
}

void LockedHistogram::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  hist_.clear();
}

// ------------------------------------------------------------ TelemetryRegistry

TelemetryRegistry& TelemetryRegistry::instance() {
  // Leaked: instrumentation in thread_local / static destructors must keep
  // a live registry.
  static TelemetryRegistry* reg = new TelemetryRegistry();
  return *reg;
}

Counter& TelemetryRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [n, c] : counters_) {
    if (n == name) return *c;
  }
  counters_.emplace_back(name, std::make_unique<Counter>());
  return *counters_.back().second;
}

Gauge& TelemetryRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [n, g] : gauges_) {
    if (n == name) return *g;
  }
  gauges_.emplace_back(name, std::make_unique<Gauge>());
  return *gauges_.back().second;
}

LockedHistogram& TelemetryRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [n, h] : histograms_) {
    if (n == name) return *h;
  }
  histograms_.emplace_back(name, std::make_unique<LockedHistogram>());
  return *histograms_.back().second;
}

TelemetryRegistry::Snapshot TelemetryRegistry::snapshot() const {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lk(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [n, c] : counters_) snap.counters.emplace_back(n, c->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto& [n, g] : gauges_) snap.gauges.emplace_back(n, g->value());
    snap.histograms.reserve(histograms_.size());
    for (const auto& [n, h] : histograms_)
      snap.histograms.push_back({n, h->merged()});
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void TelemetryRegistry::write_json(std::ostream& os) const {
  const Snapshot snap = snapshot();
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i) os << ',';
    write_json_string(os, snap.counters[i].first.c_str());
    os << ':' << snap.counters[i].second;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i) os << ',';
    write_json_string(os, snap.gauges[i].first.c_str());
    os << ':' << snap.gauges[i].second;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    if (i) os << ',';
    const LogHistogram& h = snap.histograms[i].hist;
    write_json_string(os, snap.histograms[i].name.c_str());
    os << ":{\"count\":" << h.count() << ",\"sum\":" << h.sum()
       << ",\"mean\":" << h.mean() << ",\"min\":" << h.min()
       << ",\"p50\":" << h.quantile(0.50) << ",\"p90\":" << h.quantile(0.90)
       << ",\"p99\":" << h.quantile(0.99) << ",\"max\":" << h.max() << '}';
  }
  os << "}}";
}

void TelemetryRegistry::reset_for_tests() {
  // Collect pointers under the lock, reset outside it: LockedHistogram
  // reset takes its own lock and the order registry-then-histogram is the
  // only order anyone takes them in.
  std::vector<Counter*> counters;
  std::vector<LockedHistogram*> hists;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [n, c] : counters_) counters.push_back(c.get());
    for (auto& [n, h] : histograms_) hists.push_back(h.get());
  }
  for (Counter* c : counters) c->reset();
  for (LockedHistogram* h : hists) h->reset();
}

// ------------------------------------------------------------------- Tracer

struct Tracer::Ring {
  std::mutex mu;
  std::vector<TraceEvent> events;  // circular, `count` valid from `start`
  std::size_t capacity = 0;
  std::size_t start = 0;
  std::size_t count = 0;
  std::uint32_t tid = 0;
};

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // leaked, like the registry
  return *tracer;
}

Tracer::Ring* Tracer::local_ring() {
  thread_local Ring* ring = nullptr;  // Tracer is a singleton
  if (ring == nullptr) {
    auto owned = std::make_unique<Ring>();
    std::lock_guard<std::mutex> lk(mu_);
    owned->tid = static_cast<std::uint32_t>(rings_.size() + 1);
    owned->capacity = capacity_;
    owned->events.resize(capacity_);
    ring = owned.get();
    rings_.push_back(std::move(owned));
  }
  return ring;
}

void Tracer::enable(std::size_t events_per_thread) {
  std::lock_guard<std::mutex> lk(mu_);
  capacity_ = std::max<std::size_t>(1, events_per_thread);
  for (const auto& rp : rings_) {
    Ring& r = *rp;
    std::lock_guard<std::mutex> rlk(r.mu);
    r.capacity = capacity_;
    r.events.assign(capacity_, TraceEvent{});
    r.start = 0;
    r.count = 0;
  }
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_release); }

void Tracer::record(const char* name, double ts_us, double dur_us) {
  if (!enabled()) return;
  Ring& r = *local_ring();
  static Counter& dropped =
      TelemetryRegistry::instance().counter("telemetry.dropped_events");
  std::lock_guard<std::mutex> lk(r.mu);
  if (r.capacity == 0) return;
  const TraceEvent ev{name, ts_us, dur_us};
  if (r.count < r.capacity) {
    r.events[(r.start + r.count) % r.capacity] = ev;
    ++r.count;
  } else {
    r.events[r.start] = ev;  // overwrite the oldest
    r.start = (r.start + 1) % r.capacity;
    dropped.add(1);
  }
}

double Tracer::now_us() const {
  return ts_us(std::chrono::steady_clock::now());
}

double Tracer::ts_us(std::chrono::steady_clock::time_point tp) const {
  const double us =
      std::chrono::duration<double, std::micro>(tp - epoch_).count();
  return us < 0.0 ? 0.0 : us;
}

void Tracer::export_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& rp : rings_) {
      Ring& r = *rp;
      std::lock_guard<std::mutex> rlk(r.mu);
      for (std::size_t i = 0; i < r.count; ++i) {
        const TraceEvent& ev = r.events[(r.start + i) % r.capacity];
        if (!first) os << ',';
        first = false;
        os << "{\"name\":";
        write_json_string(os, ev.name != nullptr ? ev.name : "");
        // Fixed-point microseconds at ns resolution: default ostream
        // precision (6 significant digits) would corrupt timestamps beyond
        // ~1s and break span nesting in the viewer.
        char num[80];
        std::snprintf(num, sizeof(num),
                      ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f", ev.ts_us,
                      ev.dur_us);
        os << num << ",\"pid\":1,\"tid\":" << r.tid << ",\"cat\":\"gapart\"}";
      }
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& rp : rings_) {
    Ring& r = *rp;
    std::lock_guard<std::mutex> rlk(r.mu);
    r.start = 0;
    r.count = 0;
  }
}

std::size_t Tracer::buffered_events() const {
  std::size_t total = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& rp : rings_) {
    Ring& r = *rp;
    std::lock_guard<std::mutex> rlk(r.mu);
    total += r.count;
  }
  return total;
}

// ---------------------------------------------------------------- SpanSite

SpanSite& SpanSite::site(const char* name) {
  // One histogram per span *name* (shared across call sites), one SpanSite
  // per call site (cached there in a function-local static).  Leaked list
  // for the same static-destruction reason as the registry.
  static std::mutex* mu = new std::mutex();
  static std::vector<std::unique_ptr<SpanSite>>* sites =
      new std::vector<std::unique_ptr<SpanSite>>();
  LockedHistogram& hist =
      TelemetryRegistry::instance().histogram(std::string("span.") + name);
  std::lock_guard<std::mutex> lk(*mu);
  sites->push_back(std::make_unique<SpanSite>(SpanSite{name, &hist}));
  return *sites->back();
}

ScopedSpan::~ScopedSpan() {
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start_).count();
  site_.hist->record(seconds);
  Tracer& tracer = Tracer::instance();
  if (tracer.enabled()) {
    tracer.record(site_.name, tracer.ts_us(start_), seconds * 1e6);
  }
}

double telemetry_now_seconds() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace gapart

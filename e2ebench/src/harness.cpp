#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"

// The WAL's ack-implies-durable path calls fsync on every record, and
// compaction fsyncs its snapshot files and directory.  The benchmark writes
// only inside its own checkout, which may sit on a disk shared with other
// tenants, so device flush time would be the noisiest term of every durable
// figure.  These definitions take precedence over libc's for the whole
// statically linked program (as eatmydata does with LD_PRELOAD): the
// library still makes every call — WalStats::fsyncs still counts them — but
// the data stays in the page cache, as on a memory-backed filesystem.
extern "C" int fsync(int) { return 0; }

extern "C" int fdatasync(int) { return 0; }

namespace e2e {

using gapart::Graph;
using gapart::GraphBuilder;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

namespace {

Edge ordered(Edge e) {
  return e.first < e.second ? e : Edge{e.second, e.first};
}

}  // namespace

Graph build_grown(const Graph& old, const EditList& edits) {
  const VertexId old_n = old.num_vertices();
  std::vector<Edge> removed;
  removed.reserve(edits.remove.size());
  for (const Edge& e : edits.remove) removed.push_back(ordered(e));
  std::sort(removed.begin(), removed.end());

  GraphBuilder b(old_n + edits.append);
  std::size_t removed_hits = 0;
  for (VertexId u = 0; u < old_n; ++u) {
    const auto nbrs = old.neighbors(u);
    const auto wts = old.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v <= u) continue;
      if (!removed.empty() &&
          std::binary_search(removed.begin(), removed.end(), Edge{u, v})) {
        ++removed_hits;
        continue;
      }
      b.add_edge(u, v, wts[i]);
    }
  }
  if (!old.unit_weights()) {
    for (VertexId v = 0; v < old_n; ++v) {
      b.set_vertex_weight(v, old.vertex_weight(v));
    }
  }
  for (const Edge& e : edits.add) {
    if (e.first < old_n && e.second < old_n &&
        old.has_edge(e.first, e.second)) {
      throw std::runtime_error("edit list adds an edge that already exists");
    }
    b.add_edge(e.first, e.second);
  }
  if (removed_hits != removed.size()) {
    throw std::runtime_error("edit list removes an edge that does not exist");
  }
  return b.build();
}

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_edits(std::uint64_t h, const EditList& edits) {
  h = mix_u64(h, static_cast<std::uint64_t>(edits.append));
  for (const Edge& e : edits.add) {
    h = mix_u64(h, (static_cast<std::uint64_t>(e.first) << 32) ^
                       static_cast<std::uint32_t>(e.second));
  }
  h = mix_u64(h, 0x5eedULL);
  for (const Edge& e : edits.remove) {
    h = mix_u64(h, (static_cast<std::uint64_t>(e.first) << 32) ^
                       static_cast<std::uint32_t>(e.second));
  }
  return h;
}

void SpanLog::add(const char* name, std::uint64_t seq, Clock::time_point start,
                  Clock::time_point end) {
  if (enabled_) spans_.push_back({name, seq, start, end});
}

void SpanLog::write_events(std::ostream& os) const {
  const gapart::Tracer& tracer = gapart::Tracer::instance();
  bool first = true;
  for (const Span& s : spans_) {
    const double ts = tracer.ts_us(s.start);
    const double end = tracer.ts_us(s.end);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":0,\"cat\":\"e2ebench\","
                  "\"args\":{\"seq\":%llu}}",
                  s.name, ts, end - ts, static_cast<unsigned long long>(s.seq));
    if (!first) os << ",\n";
    first = false;
    os << buf;
  }
}

ReadBatch::ReadBatch(std::vector<std::pair<int, VertexId>> plan,
                     int batch_size)
    : plan_(std::move(plan)), batch_size_(batch_size) {
  if (plan_.empty() || batch_size_ < 1) {
    throw std::invalid_argument("read batch needs a plan and a size");
  }
}

double ReadBatch::run(const gapart::PartitionService& service,
                      const std::vector<SessionId>& ids, PartId k) {
  if (last_version_.size() != ids.size()) last_version_.assign(ids.size(), 0);
  std::int64_t out_of_range = 0;
  bool backwards = false;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < batch_size_; ++i) {
    const auto [s, v] = plan_[next_];
    next_ = next_ + 1 == plan_.size() ? 0 : next_ + 1;
    const auto snap = service.snapshot(ids[static_cast<std::size_t>(s)]);
    const auto& parts = snap->assignment;
    const PartId p = static_cast<std::size_t>(v) < parts.size()
                         ? parts[static_cast<std::size_t>(v)]
                         : PartId{-1};
    out_of_range += (p < 0 || p >= k) ? 1 : 0;
    std::uint64_t& last = last_version_[static_cast<std::size_t>(s)];
    backwards |= snap->version < last;
    last = snap->version;
  }
  const Clock::time_point end = Clock::now();
  if (out_of_range != 0) {
    throw std::runtime_error(std::to_string(out_of_range) +
                             " lookups returned a part id outside [0, k)");
  }
  if (backwards) {
    throw std::runtime_error("a snapshot version went backwards");
  }
  lookups_ += batch_size_;
  return seconds_between(start, end);
}

HostPace::HostPace() : keys_(kKeys), work_(kKeys) {
  gapart::Rng rng(0x9ace);
  for (std::uint32_t& k : keys_) k = static_cast<std::uint32_t>(rng.next_u64());
}

void HostPace::sample() {
  const Clock::time_point start = Clock::now();
  std::copy(keys_.begin(), keys_.end(), work_.begin());
  std::sort(work_.begin(), work_.end());
  seconds_.push_back(seconds_between(start, Clock::now()));
  sink_ += work_[kKeys / 2];
}

double HostPace::ratio() const {
  if (seconds_.empty()) throw std::logic_error("host pace never sampled");
  return gapart::median(seconds_) / kNominalSeconds;
}

Tail tail(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  const std::size_t n = v.size();
  if (n <= 10) {
    t.value = gapart::quantile(v, 1.0);
    return t;
  }
  t.value = gapart::quantile(v, static_cast<double>(n - 11) /
                                    static_cast<double>(n - 1));
  t.beyond = 10;
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

}  // namespace e2e

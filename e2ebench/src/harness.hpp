// Shared pieces of the end-to-end update benchmark: the edit-list adapter
// that feeds today's submit_update(grown, delta) API, the per-update timing
// record, the benchmark's own span log, the read batch, the host-pace
// reference, and the tail statistic.  Everything here sits outside the
// library and only calls its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_delta.hpp"
#include "graph/graph.hpp"
#include "service/service.hpp"

namespace e2e {

using gapart::PartId;
using gapart::SessionId;
using gapart::VertexId;
using Clock = std::chrono::steady_clock;
using Edge = std::pair<VertexId, VertexId>;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// One update as a workload generator states it: `append` vertices at the
/// end of the id range, then `add` and `remove` undirected unit edges.
/// Added edges may touch the appended vertices; removed edges must exist.
struct EditList {
  VertexId append = 0;
  std::vector<Edge> add;
  std::vector<Edge> remove;
};

/// The adapter's first half: the grown graph `old` + `edits` describe.
/// O(V + E); the only place a workload's edit list becomes a Graph.
gapart::Graph build_grown(const gapart::Graph& old, const EditList& edits);

/// Digest of an edit list, folded into a run's input digest so the smoke
/// test can tell the inputs of two seeds apart.
std::uint64_t mix_edits(std::uint64_t h, const EditList& edits);
std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v);

/// Spans the benchmark records around its calls into the library, tagged
/// with the update's sequence number (0 = not part of an update).  Kept in
/// memory; written once as Chrome trace events at the end of a traced run.
class SpanLog {
 public:
  void enable() { enabled_ = true; }
  void add(const char* name, std::uint64_t seq, Clock::time_point start,
           Clock::time_point end);
  std::size_t size() const { return spans_.size(); }
  /// Chrome trace_event objects (no surrounding array), timestamps on the
  /// library Tracer's clock so both sets of spans line up.
  void write_events(std::ostream& os) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t seq;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// Times `fn` and logs it as span `name` of update `seq`; returns seconds.
template <class Fn>
double timed(SpanLog& log, const char* name, std::uint64_t seq, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  log.add(name, seq, start, end);
  return seconds_between(start, end);
}

/// What one update cost and did.  Every field is filled on every run;
/// only the span log differs between traced and untraced runs.
struct UpdateSample {
  double latency_s = 0.0;  ///< producing the update -> completion condition
  double build_s = 0.0;
  double diff_s = 0.0;
  double submit_s = 0.0;
  double repair_s = 0.0;   ///< RepairReport::seconds
  double ship_s = 0.0;     ///< ReplicationShipper::pump, summed per update
  double follower_s = 0.0; ///< ReplicationFollower::pump, summed per update
  double refine_wait_s = 0.0;
  int pumps = 0;
  bool compacted = false;  ///< a leader WalStats::compactions rose
  std::int64_t damage = 0;
  std::int64_t examined = 0;
  std::int64_t moves = 0;
  std::int64_t verify_rounds = 0;
};

/// The fixed read batch that follows every completed update: vertex ->
/// part lookups, each through PartitionService::snapshot.  Checks every
/// part id against [0, k) and that no session's snapshot version goes
/// backwards.
class ReadBatch {
 public:
  /// `plan` is a seeded list of (session index, vertex) pairs; each batch
  /// takes the next `batch_size` of them, wrapping around.
  ReadBatch(std::vector<std::pair<int, VertexId>> plan, int batch_size);

  /// Runs one batch; returns its wall time in seconds.  Throws
  /// std::runtime_error when a check fails.
  double run(const gapart::PartitionService& service,
             const std::vector<SessionId>& ids, PartId k);

  std::int64_t lookups() const { return lookups_; }

 private:
  std::vector<std::pair<int, VertexId>> plan_;
  int batch_size_;
  std::size_t next_ = 0;
  std::int64_t lookups_ = 0;
  std::vector<std::uint64_t> last_version_;
};

/// How fast the host runs right now, measured by a fixed reference kernel
/// that calls no library code: std::sort of 65,536 pseudo-random 32-bit
/// keys, branchy work on 256 KB that stays in a core's L2, as the library's
/// graph code does.  The host this benchmark shares changes speed over
/// seconds to minutes, by up to 1.8x on every timing of a run at once, and
/// the sort slows with it.  A library change cannot move it.
class HostPace {
 public:
  HostPace();
  /// Runs the kernel once and keeps its wall time.  Call only while the
  /// library is idle (no update, read or refinement in flight).
  void sample();
  /// Median kernel time over kNominalSeconds: 1 at the reference host's
  /// usual speed, 1.5 when the sort runs 1.5x slower.
  double ratio() const;
  std::size_t samples() const { return seconds_.size(); }

  /// The kernel's median wall time on the 4-core reference host.
  static constexpr double kNominalSeconds = 0.004;

 private:
  static constexpr std::size_t kKeys = std::size_t{1} << 16;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> work_;
  std::vector<double> seconds_;
  std::uint32_t sink_ = 0;
};

/// The highest percentile with at least 10 samples beyond it: with n sorted
/// samples, the value at index n - 11 (the maximum when n <= 10).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
Tail tail(const std::vector<double>& v);

}  // namespace e2e

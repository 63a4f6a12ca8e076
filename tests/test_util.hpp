// Shared helpers for the gapart test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"
#include "service/wal.hpp"

namespace gapart::testing {

/// Brute-force metric computation, structured completely differently from
/// compute_metrics (edge-list scan instead of CSR row scan) so the two
/// implementations cross-check each other.
inline PartitionMetrics brute_force_metrics(const Graph& g,
                                            const Assignment& a,
                                            PartId num_parts) {
  PartitionMetrics m;
  m.part_weight.assign(static_cast<std::size_t>(num_parts), 0.0);
  m.part_cut.assign(static_cast<std::size_t>(num_parts), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    m.part_weight[static_cast<std::size_t>(a[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  }
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v <= u) continue;  // visit each undirected edge once
      const PartId pu = a[static_cast<std::size_t>(u)];
      const PartId pv = a[static_cast<std::size_t>(v)];
      if (pu != pv) {
        m.part_cut[static_cast<std::size_t>(pu)] += wgts[i];
        m.part_cut[static_cast<std::size_t>(pv)] += wgts[i];
      }
    }
  }
  const double mean = g.total_vertex_weight() / static_cast<double>(num_parts);
  for (PartId q = 0; q < num_parts; ++q) {
    const double d = m.part_weight[static_cast<std::size_t>(q)] - mean;
    m.imbalance_sq += d * d;
    m.sum_part_cut += m.part_cut[static_cast<std::size_t>(q)];
    m.max_part_cut =
        std::max(m.max_part_cut, m.part_cut[static_cast<std::size_t>(q)]);
  }
  return m;
}

/// Asserts the two metric breakdowns agree to floating-point noise.
inline void expect_metrics_near(const PartitionMetrics& x,
                                const PartitionMetrics& y, double tol = 1e-9) {
  ASSERT_EQ(x.part_weight.size(), y.part_weight.size());
  for (std::size_t q = 0; q < x.part_weight.size(); ++q) {
    EXPECT_NEAR(x.part_weight[q], y.part_weight[q], tol) << "part " << q;
    EXPECT_NEAR(x.part_cut[q], y.part_cut[q], tol) << "part " << q;
  }
  EXPECT_NEAR(x.sum_part_cut, y.sum_part_cut, tol);
  EXPECT_NEAR(x.max_part_cut, y.max_part_cut, tol);
  EXPECT_NEAR(x.imbalance_sq, y.imbalance_sq, tol);
}

/// Asserts `a` and `b` hold the same rows, weights, weight flag and total
/// vertex weight, compared exactly.
inline void expect_graphs_identical(const Graph& a, const Graph& b) {
  const auto vec = [](auto row) { return std::vector(row.begin(), row.end()); };
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.vertex_weight(v), b.vertex_weight(v)) << "vertex " << v;
    EXPECT_EQ(vec(a.neighbors(v)), vec(b.neighbors(v))) << "vertex " << v;
    EXPECT_EQ(vec(a.edge_weights(v)), vec(b.edge_weights(v)))
        << "vertex " << v;
  }
  EXPECT_EQ(a.unit_weights(), b.unit_weights());
  EXPECT_EQ(a.total_vertex_weight(), b.total_vertex_weight());
}

/// Asserts `g` stores no edge weights: every row's weights are degree(v)
/// ones, all viewed from one shared run, and every edge weighs 1.0.
inline void expect_unit_edge_weights(const Graph& g) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto w = g.edge_weights(v);
    ASSERT_EQ(w.size(), static_cast<std::size_t>(g.degree(v)));
    EXPECT_EQ(w.data(), g.edge_weights(0).data()) << "vertex " << v;
    EXPECT_EQ(std::vector(w.begin(), w.end()),
              std::vector<double>(w.size(), 1.0))
        << "vertex " << v;
    for (const VertexId x : g.neighbors(v)) {
      EXPECT_EQ(g.edge_weight(v, x).value(), 1.0) << "edge " << v << "-" << x;
    }
    EXPECT_EQ(g.weighted_degree(v), g.degree(v)) << "vertex " << v;
  }
}

/// FNV-1a hash of an assignment's parts, in vertex order: what the golden
/// tests pin a partition by.
inline std::uint64_t fnv1a(const Assignment& a) {
  std::uint64_t h = 14695981039346656037ULL;
  for (PartId p : a) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(p));
    h *= 1099511628211ULL;
  }
  return h;
}

/// Part sizes (vertex counts) of an assignment.
inline std::vector<int> part_sizes(const Assignment& a, PartId num_parts) {
  std::vector<int> sizes(static_cast<std::size_t>(num_parts), 0);
  for (PartId p : a) ++sizes[static_cast<std::size_t>(p)];
  return sizes;
}

/// Max |size - n/k| over parts.
inline int max_size_deviation(const Assignment& a, PartId num_parts) {
  const auto sizes = part_sizes(a, num_parts);
  const double ideal =
      static_cast<double>(a.size()) / static_cast<double>(num_parts);
  double dev = 0.0;
  for (int s : sizes) {
    dev = std::max(dev, std::abs(static_cast<double>(s) - ideal));
  }
  return static_cast<int>(dev + 0.999999);
}

/// `g` with non-integer vertex and edge weights that carry more significant
/// digits than a short decimal keeps, each a fixed function of vertex ids —
/// so a grown graph agrees with its predecessor on every survivor.
inline Graph with_fractional_weights(const Graph& g) {
  GraphBuilder b(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    b.set_vertex_weight(u, 1.0 + (u % 7) / 3.0);
    for (const VertexId v : g.neighbors(u)) {
      if (v > u) b.add_edge(u, v, 1.0 + ((u + v) % 5) / 7.0);
    }
  }
  return b.build();
}

/// Step s of a churn stream: a 32 x 32 grid with fractional weights plus a
/// 6 x 6 window of diagonals whose place moves with s.  Consecutive steps
/// rewire survivors and append no vertex.
inline std::shared_ptr<const Graph> churn_graph(int step) {
  const VertexId side = 32;
  GraphBuilder b(side * side);
  const auto at = [side](VertexId r, VertexId c) { return r * side + c; };
  for (VertexId r = 0; r < side; ++r) {
    for (VertexId c = 0; c < side; ++c) {
      if (c + 1 < side) b.add_edge(at(r, c), at(r, c + 1));
      if (r + 1 < side) b.add_edge(at(r, c), at(r + 1, c));
    }
  }
  const VertexId r0 = (7 * step) % 24;
  const VertexId c0 = (11 * step) % 24;
  for (VertexId r = r0; r < r0 + 6; ++r) {
    for (VertexId c = c0; c < c0 + 6; ++c) {
      b.add_edge(at(r, c), at(r + 1, c + 1));
    }
  }
  return std::make_shared<const Graph>(with_fractional_weights(b.build()));
}

/// One complete event of a Chrome trace (Tracer::export_chrome_trace).
struct TraceSpan {
  std::string name;
  double ts = 0.0, dur = 0.0;  ///< microseconds
  int tid = 0;
};

/// The events of an exported trace, in export order.
inline std::vector<TraceSpan> parse_trace_spans(const std::string& trace) {
  std::vector<TraceSpan> spans;
  std::size_t pos = 0;
  while ((pos = trace.find("{\"name\":\"", pos)) != std::string::npos) {
    TraceSpan span;
    const std::size_t name_start = pos + 9;
    const std::size_t name_end = trace.find('"', name_start);
    span.name = trace.substr(name_start, name_end - name_start);
    span.ts = std::stod(trace.substr(trace.find("\"ts\":", pos) + 5));
    span.dur = std::stod(trace.substr(trace.find("\"dur\":", pos) + 6));
    span.tid = std::stoi(trace.substr(trace.find("\"tid\":", pos) + 6));
    spans.push_back(std::move(span));
    ++pos;
  }
  return spans;
}

/// Expects every two spans on one tid to be nested or disjoint, the
/// invariant a flame-graph view needs, and returns each span's depth: how
/// many spans on its tid contain it.  The exporter rounds each endpoint to
/// the nanosecond, so endpoints may meet within 10 ns.
inline std::vector<int> expect_spans_nest(const std::vector<TraceSpan>& spans) {
  constexpr double kEps = 1e-2;
  const auto within = [&](const TraceSpan& in, const TraceSpan& out) {
    return out.ts <= in.ts + kEps && in.ts + in.dur <= out.ts + out.dur + kEps;
  };
  std::map<int, std::vector<std::size_t>> by_tid;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_tid[spans[i].tid].push_back(i);
  }
  std::vector<int> depth(spans.size(), 0);
  for (const auto& [tid, members] : by_tid) {
    for (const std::size_t i : members) {
      const TraceSpan& a = spans[i];
      for (const std::size_t j : members) {
        if (j == i) continue;
        const TraceSpan& b = spans[j];
        depth[i] += within(a, b) ? 1 : 0;
        if (j < i) continue;  // each pair is checked once
        const bool disjoint =
            a.ts + a.dur <= b.ts + kEps || b.ts + b.dur <= a.ts + kEps;
        EXPECT_TRUE(within(a, b) || within(b, a) || disjoint)
            << a.name << " [" << a.ts << "," << a.ts + a.dur
            << ") straddles " << b.name << " [" << b.ts << ","
            << b.ts + b.dur << ") tid=" << tid;
      }
    }
  }
  return depth;
}

/// A session image of (g, a) at `epoch` under the default fitness, with
/// the from-scratch digest and sums a freshly built state would carry.
inline SessionImage image_of(const Graph& g, Assignment a, PartId num_parts,
                             std::uint64_t epoch) {
  SessionImage image;
  image.num_parts = num_parts;
  image.epoch = epoch;
  image.digest = assignment_content_hash(g, a, num_parts);
  image.graph = std::make_shared<const Graph>(g);
  image.sums = compute_metrics(g, a, num_parts);
  image.assignment = std::move(a);
  return image;
}

/// True when every part id in [0, num_parts) is used at least once.
inline bool all_parts_used(const Assignment& a, PartId num_parts) {
  const auto sizes = part_sizes(a, num_parts);
  for (int s : sizes) {
    if (s == 0) return false;
  }
  return true;
}

}  // namespace gapart::testing

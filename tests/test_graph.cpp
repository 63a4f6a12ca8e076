#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder b(0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.total_vertex_weight(), 0.0);
}

TEST(GraphBuilder, SingleEdgeSymmetric) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  ASSERT_EQ(g.degree(0), 1);
  ASSERT_EQ(g.degree(1), 1);
  EXPECT_EQ(g.neighbors(0)[0], 1);
  EXPECT_EQ(g.neighbors(1)[0], 0);
}

TEST(GraphBuilder, AdjacencySortedAscending) {
  GraphBuilder b(5);
  b.add_edge(0, 4);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(GraphBuilder, DuplicateEdgesMergeWeights) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1.5);
  b.add_edge(1, 0, 2.5);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1).value(), 4.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(1, 0).value(), 4.0);
}

TEST(GraphBuilder, SelfLoopsIgnored) {
  GraphBuilder b(3);
  b.add_edge(1, 1);
  b.add_edge(0, 2);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(1), 0);
}

TEST(GraphBuilder, OutOfRangeRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), Error);
  EXPECT_THROW(b.add_edge(-1, 1), Error);
  EXPECT_THROW(b.set_vertex_weight(5, 1.0), Error);
}

TEST(GraphBuilder, NonPositiveWeightsRejected) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 1, 0.0), Error);
  EXPECT_THROW(b.add_edge(0, 1, -1.0), Error);
  EXPECT_THROW(b.set_vertex_weight(0, 0.0), Error);
}

TEST(GraphBuilder, VertexWeightsDefaultToUnit) {
  GraphBuilder b(4);
  const Graph g = b.build();
  EXPECT_TRUE(g.unit_weights());
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 4.0);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(g.vertex_weight(v), 1.0);
  }
}

TEST(GraphBuilder, WeightedGraphDetected) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.set_vertex_weight(0, 3.0);
  const Graph g = b.build();
  EXPECT_FALSE(g.unit_weights());
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 4.0);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g1 = b.build();
  b.add_edge(1, 2);
  const Graph g2 = b.build();
  EXPECT_EQ(g1.num_edges(), 1);
  EXPECT_EQ(g2.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g2.total_vertex_weight(), 3.0);
}

TEST(Graph, HasEdgeAndWeightLookup) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 2.0);
  b.add_edge(1, 2);
  const Graph g = b.build();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_DOUBLE_EQ(g.edge_weight(0, 1).value(), 2.0);
  EXPECT_FALSE(g.edge_weight(0, 2).has_value());
}

TEST(Graph, WeightedDegree) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 2.0);
  b.add_edge(0, 2, 0.5);
  const Graph g = b.build();
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 2.5);
  EXPECT_DOUBLE_EQ(g.weighted_degree(1), 2.0);
}

TEST(Graph, CoordinatesRoundTrip) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.set_coordinate(0, {1.0, 2.0});
  b.set_coordinate(1, {-3.0, 4.5});
  const Graph g = b.build();
  ASSERT_TRUE(g.has_coordinates());
  EXPECT_EQ(g.coordinate(0), (Point2{1.0, 2.0}));
  EXPECT_EQ(g.coordinate(1), (Point2{-3.0, 4.5}));
}

TEST(Graph, SetCoordinatesBulkSizeChecked) {
  GraphBuilder b(3);
  EXPECT_THROW(b.set_coordinates({{0, 0}, {1, 1}}), Error);
}

TEST(Graph, NoCoordinatesByDefault) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  EXPECT_FALSE(b.build().has_coordinates());
}

TEST(Graph, EdgeWeightsParallelToNeighbors) {
  GraphBuilder b(3);
  b.add_edge(1, 0, 10.0);
  b.add_edge(1, 2, 20.0);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(1);
  const auto wgts = g.edge_weights(1);
  ASSERT_EQ(nbrs.size(), 2u);
  ASSERT_EQ(wgts.size(), 2u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_DOUBLE_EQ(wgts[0], 10.0);
  EXPECT_EQ(nbrs[1], 2);
  EXPECT_DOUBLE_EQ(wgts[1], 20.0);
}

TEST(Graph, SummaryMentionsSizes) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const auto s = b.build().summary();
  EXPECT_NE(s.find("|V|=3"), std::string::npos);
  EXPECT_NE(s.find("|E|=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// has_edge / edge_weight use binary search over the sorted adjacency rows;
// guard them (and the sortedness invariant they rely on) against a linear
// ground-truth scan across random weighted multigraph inputs.
TEST(Graph, BinarySearchLookupsMatchLinearScan) {
  Rng rng(0x10c4);
  for (int round = 0; round < 8; ++round) {
    const VertexId n = 2 + static_cast<VertexId>(rng.uniform_int(40));
    GraphBuilder b(n);
    const int edges = rng.uniform_int(4 * n);
    for (int e = 0; e < edges; ++e) {
      const auto u = static_cast<VertexId>(rng.uniform_int(n));
      const auto v = static_cast<VertexId>(rng.uniform_int(n));
      if (u != v) b.add_edge(u, v, 1.0 + rng.uniform_int(9));
    }
    const Graph g = b.build();

    for (VertexId u = 0; u < n; ++u) {
      ASSERT_TRUE(std::is_sorted(g.neighbors(u).begin(),
                                 g.neighbors(u).end()));
      for (VertexId v = 0; v < n; ++v) {
        // Linear ground truth.
        bool found = false;
        double weight = 0.0;
        const auto nbrs = g.neighbors(u);
        const auto wgts = g.edge_weights(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          if (nbrs[i] == v) {
            found = true;
            weight = wgts[i];
            break;
          }
        }
        ASSERT_EQ(g.has_edge(u, v), found) << u << "->" << v;
        const auto w = g.edge_weight(u, v);
        ASSERT_EQ(w.has_value(), found) << u << "->" << v;
        if (found) {
          ASSERT_DOUBLE_EQ(*w, weight) << u << "->" << v;
        }
      }
    }
  }
}

// The counting-sort CSR construction must produce the same canonical graph
// as a naive map-based symmetrize/merge, duplicates and all.
TEST(GraphBuilder, CountingSortConstructionMatchesNaiveMerge) {
  Rng rng(0xcc01);
  for (int round = 0; round < 6; ++round) {
    const VertexId n = 1 + static_cast<VertexId>(rng.uniform_int(30));
    GraphBuilder b(n);
    std::map<std::pair<VertexId, VertexId>, double> naive;
    const int edges = rng.uniform_int(5 * n);
    for (int e = 0; e < edges; ++e) {
      const auto u = static_cast<VertexId>(rng.uniform_int(n));
      const auto v = static_cast<VertexId>(rng.uniform_int(n));
      const double w = 1.0 + rng.uniform_int(5);
      if (u == v) continue;
      b.add_edge(u, v, w);
      naive[{std::min(u, v), std::max(u, v)}] += w;
    }
    const Graph g = b.build();

    EXPECT_EQ(g.num_edges(), static_cast<std::int64_t>(naive.size()));
    for (const auto& [uv, w] : naive) {
      ASSERT_TRUE(g.has_edge(uv.first, uv.second));
      ASSERT_DOUBLE_EQ(g.edge_weight(uv.first, uv.second).value(), w);
      ASSERT_DOUBLE_EQ(g.edge_weight(uv.second, uv.first).value(), w);
    }
    // No phantom edges beyond the naive set.
    for (VertexId u = 0; u < n; ++u) {
      for (const VertexId v : g.neighbors(u)) {
        ASSERT_TRUE(naive.count({std::min(u, v), std::max(u, v)}));
      }
    }
  }
}

// The one-scatter construction must agree bit for bit with a per-row
// reference: each row's entries in the order their edges were added, stably
// sorted by neighbour, duplicates summed in that order.  Heavy duplicate
// multiplicity with integer, fractional and unit weights; from round 6 on,
// a hub whose row outgrows the insertion sort.  Then the arrival orders of
// the builder's callers, whose rows mostly come in ascending: every edge
// from its lower end in row order, alone or followed by out-of-order edits
// (duplicates among them, so later ascending rows move down), an ascending
// run ending in a repeated or a smaller id, and a hub that arrives
// ascending or shuffled, each built once and again after the tail's edges.
TEST(GraphBuilder, RadixConstructionMatchesPerRowSortReference) {
  struct E {
    VertexId u, v;
    double w;
  };
  const auto expect_reference = [](const Graph& g, VertexId n,
                                   const std::vector<E>& raw,
                                   const std::string& what) {
    std::vector<std::vector<std::pair<VertexId, double>>> rows(
        static_cast<std::size_t>(n));
    for (const E& e : raw) {
      rows[static_cast<std::size_t>(e.u)].emplace_back(e.v, e.w);
      rows[static_cast<std::size_t>(e.v)].emplace_back(e.u, e.w);
    }
    ASSERT_EQ(g.num_vertices(), n) << what;
    for (VertexId u = 0; u < n; ++u) {
      auto& row = rows[static_cast<std::size_t>(u)];
      std::stable_sort(row.begin(), row.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      std::vector<VertexId> expect_adj;
      std::vector<double> expect_wgt;
      for (const auto& [v, w] : row) {
        if (!expect_adj.empty() && expect_adj.back() == v) {
          expect_wgt.back() += w;
        } else {
          expect_adj.push_back(v);
          expect_wgt.push_back(w);
        }
      }
      const auto nbrs = g.neighbors(u);
      ASSERT_EQ(std::vector<VertexId>(nbrs.begin(), nbrs.end()), expect_adj)
          << what << " row " << u;
      const auto wgts = g.edge_weights(u);
      ASSERT_EQ(std::vector<double>(wgts.begin(), wgts.end()), expect_wgt)
          << what << " row " << u;
    }
  };
  const auto weight = [](Rng& rng, int mode) {  // 0 int, 1 fractional, 2 unit
    return mode == 1   ? 0.25 + rng.uniform()
           : mode == 0 ? 1.0 + rng.uniform_int(5)
                       : 1.0;
  };

  Rng rng(0xadd1);
  for (int round = 0; round < 12; ++round) {
    const int mode = round % 3;
    const bool hub = round >= 6;
    const VertexId n = 2 + static_cast<VertexId>(rng.uniform_int(40));
    std::vector<E> raw;
    GraphBuilder b(n);
    const int edges = rng.uniform_int(8 * n);
    for (int e = 0; e < edges; ++e) {
      auto u = static_cast<VertexId>(rng.uniform_int(n));
      if (hub && rng.bernoulli(0.5)) u = 0;
      auto v = static_cast<VertexId>(rng.uniform_int(n));
      if (rng.bernoulli(0.3)) v = (u + 1) % n;  // force duplicate pile-ups
      if (u == v) continue;
      const double w = weight(rng, mode);
      b.add_edge(u, v, w);
      raw.push_back({u, v, w});
    }
    expect_reference(b.build(), n, raw, "round " + std::to_string(round));
  }

  enum class Base { kInOrder, kHubAscending, kHubShuffled };
  enum class Tail { kNone, kEdits, kSeamRepeat, kSeamSmaller };
  const std::pair<Base, Tail> orders[] = {
      {Base::kInOrder, Tail::kNone},
      {Base::kInOrder, Tail::kEdits},
      {Base::kInOrder, Tail::kSeamRepeat},
      {Base::kInOrder, Tail::kSeamSmaller},
      {Base::kHubAscending, Tail::kEdits},
      {Base::kHubShuffled, Tail::kSeamRepeat},
  };
  Rng order_rng(0xa5c3);
  for (int round = 0; round < 18; ++round) {
    const int mode = round % 3;
    const auto [base, tail] = orders[round / 3];
    const std::string what = "order round " + std::to_string(round);
    const VertexId n = 40 + static_cast<VertexId>(order_rng.uniform_int(30));
    GraphBuilder b(n);
    std::vector<E> raw;
    const auto add = [&](VertexId u, VertexId v) {
      const double w = weight(order_rng, mode);
      b.add_edge(u, v, w);
      raw.push_back({u, v, w});
    };

    // A simple graph whose edges all come from their lower end, in row
    // order.  With a hub, vertex 0 links to every other vertex, its edges
    // ascending or shuffled.
    std::vector<std::pair<VertexId, VertexId>> hub, rest;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (u == 0 && base != Base::kInOrder) {
          hub.emplace_back(u, v);
        } else if (order_rng.bernoulli(0.08)) {
          rest.emplace_back(u, v);
        }
      }
    }
    if (base == Base::kHubShuffled) order_rng.shuffle(hub);
    for (const auto& [u, v] : hub) add(u, v);
    for (const auto& [u, v] : rest) add(u, v);
    expect_reference(b.build(), n, raw, what + " base");

    // The tail goes into the same builder, after build().
    if (tail == Tail::kNone) continue;
    const int extra = 4 + order_rng.uniform_int(8);
    for (int e = 0; e < extra; ++e) {
      VertexId u = static_cast<VertexId>(order_rng.uniform_int(n));
      VertexId v = static_cast<VertexId>(order_rng.uniform_int(n));
      if (tail == Tail::kEdits) {
        // Half re-add an edge (merged at build), half are fresh.
        if (order_rng.bernoulli(0.5)) {
          const E& old = raw[static_cast<std::size_t>(
              order_rng.uniform_int(static_cast<int>(raw.size())))];
          u = old.u;
          v = old.v;
        }
      } else {
        // Row u's largest neighbour again, or an id below it.
        VertexId last = -1;
        for (const E& r : raw) {
          if (r.u == u) last = std::max(last, r.v);
          if (r.v == u) last = std::max(last, r.u);
        }
        if (last < 0) continue;
        v = tail == Tail::kSeamRepeat
                ? last
                : static_cast<VertexId>(order_rng.uniform_int(last + 1));
      }
      if (u == v) continue;
      if (order_rng.bernoulli(0.5)) std::swap(u, v);
      add(u, v);
    }
    expect_reference(b.build(), n, raw, what + " with tail");
  }
}

// A graph whose edge weights are all 1.0 stores none: every row, a hub's
// included, views one shared run of ones.  Vertex weights do not enter it.
TEST(GraphBuilder, UnitGraphServesItsWeightsFromOneRun) {
  GraphBuilder b(40);
  for (VertexId v = 1; v < 40; ++v) b.add_edge(0, v, 1.0);
  for (VertexId v = 1; v + 1 < 40; ++v) b.add_edge(v + 1, v);
  const Graph unit = b.build();
  EXPECT_TRUE(unit.unit_weights());
  testing::expect_unit_edge_weights(unit);

  b.set_vertex_weight(3, 2.0);
  const Graph heavy_vertex = b.build();
  EXPECT_FALSE(heavy_vertex.unit_weights());
  testing::expect_unit_edge_weights(heavy_vertex);
  EXPECT_EQ(heavy_vertex.total_vertex_weight(), 41.0);
}

// Unit input with duplicates: each merged edge weighs its multiplicity,
// whether the first duplicate comes in the first row or the last, in a short
// row or in a hub's.
TEST(GraphBuilder, UnitDuplicatesWeighTheirMultiplicity) {
  for (const bool hub : {true, false}) {
    SCOPED_TRACE(hub ? "hub row first" : "last row only");
    const VertexId n = 60;
    GraphBuilder b(n);
    std::map<std::pair<VertexId, VertexId>, double> count;
    const auto add = [&](VertexId u, VertexId v) {
      b.add_edge(u, v);
      count[{std::min(u, v), std::max(u, v)}] += 1.0;
    };
    for (VertexId v = 0; v + 1 < n; ++v) add(v, v + 1);
    if (hub) {
      for (VertexId v = 1; v < n; ++v) add(0, v);
      for (VertexId v = 20; v < 50; v += 3) add(v, 0);
    }
    add(n - 1, n - 2);
    add(n - 2, n - 1);
    const Graph g = b.build();

    EXPECT_FALSE(g.unit_weights());
    EXPECT_EQ(g.num_edges(), static_cast<std::int64_t>(count.size()));
    for (const auto& [uv, c] : count) {
      EXPECT_EQ(g.edge_weight(uv.first, uv.second).value(), c);
      EXPECT_EQ(g.edge_weight(uv.second, uv.first).value(), c);
    }
  }
}

TEST(Graph, CsrConsistencyOnRandomGraph) {
  Rng rng(7);
  GraphBuilder b(50);
  for (int e = 0; e < 200; ++e) {
    const auto u = static_cast<VertexId>(rng.uniform_int(50));
    const auto v = static_cast<VertexId>(rng.uniform_int(50));
    if (u != v) b.add_edge(u, v);
  }
  const Graph g = b.build();
  // Symmetry + sortedness + no self loops + degree sums.
  std::int64_t directed = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end());
    for (VertexId u : nbrs) {
      EXPECT_NE(u, v);
      EXPECT_TRUE(g.has_edge(u, v)) << u << "<->" << v;
    }
    directed += g.degree(v);
  }
  EXPECT_EQ(directed, 2 * g.num_edges());
}

}  // namespace
}  // namespace gapart

#include "core/graph_delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/mesh.hpp"
#include "graph/partition.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

TEST(GraphDelta, AppendedDeltaOnGrownGrid) {
  // Growing a row-major grid by rows appends vertices; exactly the last old
  // row becomes adjacent to the new range.
  const Graph grown = make_grid(6, 5);  // rows 0..5
  const GraphDelta delta = appended_delta(grown, 25);  // rows 0..4 are old
  EXPECT_EQ(delta.old_num_vertices, 25);
  EXPECT_EQ(delta.num_new(grown), 5);
  ASSERT_EQ(delta.touched_old.size(), 5u);  // row 4
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(delta.touched_old[i], static_cast<VertexId>(20 + i));
  }
  EXPECT_EQ(delta.damage(grown), 10);
}

TEST(GraphDelta, DiffGraphsMatchesAppendedDeltaOnPureGrowth) {
  const Graph old_g = make_grid(5, 5);
  const Graph grown = make_grid(7, 5);
  const GraphDelta a = appended_delta(grown, old_g.num_vertices());
  const GraphDelta d = diff_graphs(old_g, grown);
  EXPECT_EQ(d.old_num_vertices, a.old_num_vertices);
  EXPECT_EQ(d.touched_old, a.touched_old);
}

TEST(GraphDelta, DiffGraphsSeesRewiredSurvivors) {
  // Same vertex count, one edge rewired: both endpoints of the removed and
  // of the added edge are touched.
  GraphBuilder b1(6);
  b1.add_edge(0, 1);
  b1.add_edge(1, 2);
  b1.add_edge(3, 4);
  const Graph g1 = b1.build();
  GraphBuilder b2(6);
  b2.add_edge(0, 1);
  b2.add_edge(1, 2);
  b2.add_edge(4, 5);  // 3-4 removed, 4-5 added
  const Graph g2 = b2.build();
  const GraphDelta d = diff_graphs(g1, g2);
  EXPECT_EQ(d.old_num_vertices, 6);
  EXPECT_EQ(d.touched_old, (std::vector<VertexId>{3, 4, 5}));
}

TEST(GraphDelta, DiffGraphsSeesWeightChanges) {
  GraphBuilder b1(3);
  b1.add_edge(0, 1, 1.0);
  b1.add_edge(1, 2, 1.0);
  const Graph g1 = b1.build();
  GraphBuilder b2(3);
  b2.add_edge(0, 1, 1.0);
  b2.add_edge(1, 2, 2.5);  // weight perturbed, adjacency identical
  const Graph g2 = b2.build();
  const GraphDelta d = diff_graphs(g1, g2);
  EXPECT_EQ(d.touched_old, (std::vector<VertexId>{1, 2}));

  GraphBuilder b3(3);
  b3.add_edge(0, 1, 1.0);
  b3.add_edge(1, 2, 1.0);
  b3.set_vertex_weight(0, 3.0);  // vertex weight perturbed, edges identical
  const Graph g3 = b3.build();
  const GraphDelta dv = diff_graphs(g1, g3);
  EXPECT_EQ(dv.touched_old, (std::vector<VertexId>{0}));
}

TEST(GraphDelta, DiffGraphsOnRetriangulatedMesh) {
  // densify_mesh re-triangulates: the exact diff must at least cover
  // appended_delta's touched set (old vertices adjacent to new ones) and
  // stay far below |V| for localized growth.
  const Mesh base = paper_mesh(183);
  const Mesh grown = paper_incremental_mesh(base, 183, 30);
  const GraphDelta approx = appended_delta(grown.graph, 183);
  const GraphDelta exact = diff_graphs(base.graph, grown.graph);
  EXPECT_EQ(exact.num_new(grown.graph), 30);
  for (const VertexId v : approx.touched_old) {
    EXPECT_TRUE(std::binary_search(exact.touched_old.begin(),
                                   exact.touched_old.end(), v))
        << "vertex " << v << " adjacent to new range but not in exact diff";
  }
  EXPECT_LT(exact.damage(grown.graph), grown.graph.num_vertices() / 2);
}

// diff_graphs compares whole blocks of rows first; it must still agree with
// the per-row definition on graphs that span several blocks: changes in the
// first and the last row of a block, two degree changes within one block
// that leave its ids unchanged as one run, weight-only and
// vertex-weight-only changes, mixed unit and weighted snapshots, appended
// rows, an empty old graph, and random edits near the block seams.
TEST(GraphDelta, DiffGraphsMatchesPerRowDefinitionAcrossBlocks) {
  struct Snapshot {
    VertexId n = 0;
    std::map<std::pair<VertexId, VertexId>, double> edges;
    std::vector<double> vwgt;  // empty: every vertex weighs 1
    Graph build() const {
      GraphBuilder b(n);
      for (const auto& [e, w] : edges) b.add_edge(e.first, e.second, w);
      for (std::size_t v = 0; v < vwgt.size(); ++v) {
        b.set_vertex_weight(static_cast<VertexId>(v), vwgt[v]);
      }
      return b.build();
    }
  };
  const auto per_row = [](const Graph& old_g, const Graph& grown) {
    const auto vec = [](auto row) {
      return std::vector(row.begin(), row.end());
    };
    std::vector<VertexId> touched;
    for (VertexId v = 0; v < old_g.num_vertices(); ++v) {
      if (vec(old_g.neighbors(v)) != vec(grown.neighbors(v)) ||
          vec(old_g.edge_weights(v)) != vec(grown.edge_weights(v)) ||
          old_g.vertex_weight(v) != grown.vertex_weight(v)) {
        touched.push_back(v);
      }
    }
    return touched;
  };
  const auto expect_diff = [&](const Snapshot& a, const Snapshot& b,
                               const std::string& what) {
    const Graph old_g = a.build();
    const Graph grown = b.build();
    const GraphDelta d = diff_graphs(old_g, grown);
    EXPECT_EQ(d.old_num_vertices, old_g.num_vertices()) << what;
    EXPECT_EQ(d.touched_old, per_row(old_g, grown)) << what;
    return d.touched_old;
  };

  const VertexId side = 130;  // 16,900 rows: several blocks of rows
  Snapshot grid;
  grid.n = side * side;
  for (VertexId u = 0; u < grid.n; ++u) {
    if ((u + 1) % side != 0) grid.edges[{u, u + 1}] = 1.0;
    if (u + side < grid.n) grid.edges[{u, u + side}] = 1.0;
  }
  const auto unlink = [](Snapshot& s, VertexId v) {
    std::erase_if(s.edges, [v](const auto& e) {
      return e.first.first == v || e.first.second == v;
    });
  };

  // The first and the last row of a block (4096 rows each).
  Snapshot seam = grid;
  seam.edges[{4096, 8191}] = 1.0;
  EXPECT_EQ(expect_diff(grid, seam, "block seam"),
            (std::vector<VertexId>{4096, 8191}));
  Snapshot ends = grid;
  ends.edges[{0, grid.n - 1}] = 1.0;
  EXPECT_EQ(expect_diff(grid, ends, "first and last row"),
            (std::vector<VertexId>{0, grid.n - 1}));

  // Rows a and a + 1 trade neighbour p from another block: both degrees
  // change, but the block's total length and its ids read as one run stay
  // the same, so only a per-degree check tells them apart.
  const VertexId a = 5000;
  const VertexId p = 9000;
  Snapshot before = grid;
  unlink(before, a);
  unlink(before, a + 1);
  before.edges[{a - 1, a}] = 1.0;
  before.edges[{a + 1, p + 500}] = 1.0;
  Snapshot after = before;
  before.edges[{a, p}] = 1.0;
  after.edges[{a + 1, p}] = 1.0;
  EXPECT_EQ(expect_diff(before, after, "cancelling degrees"),
            (std::vector<VertexId>{a, a + 1, p}));

  // Weight-only and vertex-weight-only changes, between weighted
  // snapshots and between a unit and a weighted one.
  Rng rng(0xb10c);
  Snapshot weighted = grid;
  for (auto& [e, w] : weighted.edges) w = 1.0 + rng.uniform_int(4);
  weighted.vwgt.assign(static_cast<std::size_t>(grid.n), 1.0);
  for (double& w : weighted.vwgt) w = 1.0 + rng.uniform_int(3);
  Snapshot reweighted = weighted;
  reweighted.edges[{8191, 8192}] += 0.5;
  EXPECT_EQ(expect_diff(weighted, reweighted, "edge weight"),
            (std::vector<VertexId>{8191, 8192}));
  Snapshot heavier = weighted;
  heavier.vwgt[12287] += 1.0;
  EXPECT_EQ(expect_diff(weighted, heavier, "vertex weight"),
            (std::vector<VertexId>{12287}));
  Snapshot one_heavy_edge = grid;
  one_heavy_edge.edges[{4095, 4096}] = 2.0;
  EXPECT_EQ(expect_diff(grid, one_heavy_edge, "unit to weighted"),
            (std::vector<VertexId>{4095, 4096}));
  EXPECT_EQ(expect_diff(one_heavy_edge, grid, "weighted to unit"),
            (std::vector<VertexId>{4095, 4096}));
  Snapshot one_heavy_vertex = grid;
  one_heavy_vertex.vwgt.assign(static_cast<std::size_t>(grid.n), 1.0);
  one_heavy_vertex.vwgt[16383] = 2.0;
  EXPECT_EQ(expect_diff(grid, one_heavy_vertex, "unit vertex weights"),
            (std::vector<VertexId>{16383}));

  // Appended rows, and an empty old graph.
  Snapshot grown = grid;
  grown.n += side;
  for (VertexId j = 0; j < side; ++j) {
    grown.edges[{grid.n - side + j, grid.n + j}] = 1.0;
  }
  EXPECT_EQ(expect_diff(grid, grown, "appended row").size(),
            static_cast<std::size_t>(side));
  EXPECT_TRUE(expect_diff(Snapshot{}, grid, "empty old graph").empty());

  // Random edits near the block seams, on unit and weighted snapshots.
  const VertexId seams[] = {0, 4095, 4096, 8191, 8192, 12287, 12288, 16383,
                            16384, grid.n - 1};
  const auto pick = [&] {
    if (rng.bernoulli(0.3)) return rng.uniform_int(grid.n);
    const VertexId v = seams[rng.uniform_int(10)] + rng.uniform_int(-2, 2);
    return std::clamp<VertexId>(v, 0, grid.n - 1);
  };
  for (int round = 0; round < 40; ++round) {
    const Snapshot& from = round % 2 == 0 ? grid : weighted;
    Snapshot to = from;
    const int edits = 1 + rng.uniform_int(6);
    for (int e = 0; e < edits; ++e) {
      const VertexId u = pick();
      const VertexId v = pick();
      const int kind = rng.uniform_int(5);
      const auto at_u = to.edges.lower_bound({u, 0});  // an edge near u
      if (kind == 0 && at_u != to.edges.end()) {
        to.edges.erase(at_u);
      } else if (kind == 1 && u != v) {
        to.edges[{std::min(u, v), std::max(u, v)}] = 1.0;
      } else if (kind == 2 && at_u != to.edges.end()) {
        at_u->second += 1.0;
      } else if (kind == 3) {
        to.vwgt.resize(static_cast<std::size_t>(to.n), 1.0);
        to.vwgt[static_cast<std::size_t>(u)] += 1.0;
      } else if (kind == 4) {
        to.edges[{u, to.n}] = 1.0;
        ++to.n;
        if (!to.vwgt.empty()) to.vwgt.push_back(1.0);
      }
    }
    expect_diff(from, to, "random round " + std::to_string(round));
  }
}

TEST(GraphDelta, RepairSeedsCoverDamageAndOneHop) {
  const Graph grown = make_grid(6, 5);
  const GraphDelta delta = appended_delta(grown, 25);
  const auto seeds = repair_seeds(delta, grown);
  EXPECT_TRUE(std::is_sorted(seeds.begin(), seeds.end()));
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Every new vertex, every touched survivor, and row 3 (one hop from the
  // touched row 4) are present; rows 0..2 are not.
  for (VertexId v = 15; v < 30; ++v) {
    EXPECT_TRUE(std::binary_search(seeds.begin(), seeds.end(), v)) << v;
  }
  for (VertexId v = 0; v < 15; ++v) {
    EXPECT_FALSE(std::binary_search(seeds.begin(), seeds.end(), v)) << v;
  }
}

TEST(GraphDelta, Validation) {
  const Graph g = make_grid(3, 3);
  EXPECT_THROW(appended_delta(g, 10), Error);
  GraphDelta bad;
  bad.old_num_vertices = 20;
  EXPECT_THROW(repair_seeds(bad, g), Error);
  GraphDelta bad_touched;
  bad_touched.old_num_vertices = 4;
  bad_touched.touched_old = {7};  // not a survivor
  EXPECT_THROW(repair_seeds(bad_touched, g), Error);
  const Graph big = make_grid(4, 4);
  EXPECT_THROW(diff_graphs(big, g), Error);
}

// Random rewires, each with at least one declared endpoint (a declared
// survivor or an appended vertex), against diff_graphs as the oracle: the
// seam check accepts a delta exactly when it declares every survivor whose
// row changed.  The live path agrees: repair_step throws with the state
// untouched, or repairs to metrics equal to a from-scratch count.
TEST(GraphDelta, SeamCheckAcceptsExactlyTheCoveringDeltas) {
  using Edges = std::map<std::pair<VertexId, VertexId>, double>;
  const auto build = [](VertexId n, const Edges& edges) {
    GraphBuilder b(n);
    for (const auto& [e, w] : edges) b.add_edge(e.first, e.second, w);
    return b.build();
  };
  const PartId k = 3;
  const VertexId n_old = 36;
  const Graph grid = make_grid(6, 6);
  Rng rng(0x5ea3);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Edges base;
    for (VertexId u = 0; u < n_old; ++u) {
      for (const VertexId v : grid.neighbors(u)) {
        if (v > u) base[{u, v}] = 1 + rng.uniform_int(3);
      }
    }
    const Graph prev = build(n_old, base);
    const VertexId n_new = n_old + rng.uniform_int(3);
    std::vector<VertexId> declared;
    for (VertexId v = 0; v < n_old; ++v) {
      if (rng.uniform_int(6) == 0) declared.push_back(v);
    }
    std::vector<VertexId> anchors = declared;  // a rewire's declared end
    for (VertexId v = n_old; v < n_new; ++v) anchors.push_back(v);
    if (anchors.empty()) continue;

    Edges edges = base;
    for (int edit = 1 + rng.uniform_int(4); edit > 0; --edit) {
      // The other end is declared too half the time, else any vertex.
      const VertexId a = anchors[rng.uniform_u64(anchors.size())];
      const VertexId b = rng.uniform_int(2) == 0
                             ? anchors[rng.uniform_u64(anchors.size())]
                             : rng.uniform_int(n_new);
      if (a == b) continue;
      const std::pair<VertexId, VertexId> e{std::min(a, b), std::max(a, b)};
      const auto it = edges.find(e);
      if (it == edges.end()) {
        edges[e] = 1 + rng.uniform_int(3);
      } else if (rng.uniform_int(2) == 0) {
        edges.erase(it);
      } else {
        it->second = 1 + static_cast<int>(it->second) % 3;  // reweight
      }
    }
    const Graph grown = build(n_new, edges);
    const GraphDelta delta{n_old, declared};
    const GraphDelta exact = diff_graphs(prev, grown);
    const bool covered =
        std::includes(declared.begin(), declared.end(),
                      exact.touched_old.begin(), exact.touched_old.end());

    bool passed = true;
    try {
      check_delta_seam(prev, grown, delta);
    } catch (const Error&) {
      passed = false;
    }
    EXPECT_EQ(passed, covered) << "trial " << trial;

    Assignment a(static_cast<std::size_t>(n_old));
    for (PartId& p : a) p = static_cast<PartId>(rng.uniform_int(k));
    PartitionState state(prev, a, k);
    if (covered) {
      repair_step(state, grown, delta, {}, 2,
                  std::numeric_limits<double>::infinity());
      testing::expect_metrics_near(
          state.metrics(), compute_metrics(grown, state.assignment(), k));
      ++accepted;
    } else {
      EXPECT_THROW(repair_step(state, grown, delta, {}, 2,
                               std::numeric_limits<double>::infinity()),
                   Error)
          << "trial " << trial;
      EXPECT_EQ(&state.graph(), &prev);
      EXPECT_EQ(state.assignment(), a);
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 50);
  EXPECT_GT(rejected, 50);
}

TEST(GraphDelta, SeamCheckRejectsMalformedDeltas) {
  const Graph prev = make_grid(3, 3);
  const Graph grown = make_grid(4, 3);
  GraphDelta delta = diff_graphs(prev, grown);
  EXPECT_NO_THROW(check_delta_seam(prev, grown, delta));
  GraphDelta unsorted = delta;
  std::swap(unsorted.touched_old.front(), unsorted.touched_old.back());
  EXPECT_THROW(check_delta_seam(prev, grown, unsorted), Error);
  GraphDelta wrong_size = delta;
  wrong_size.old_num_vertices = 8;
  EXPECT_THROW(check_delta_seam(prev, grown, wrong_size), Error);
  // Growth alone declares the last old row; dropping one of its vertices
  // leaves that survivor's new edge undeclared.
  GraphDelta missing = delta;
  missing.touched_old.pop_back();
  EXPECT_THROW(check_delta_seam(prev, grown, missing), Error);
}

}  // namespace
}  // namespace gapart

#include "core/graph_delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
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

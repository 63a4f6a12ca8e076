#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "core/graph_delta.hpp"
#include "graph/connectivity_scratch.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

using testing::brute_force_metrics;
using testing::expect_metrics_near;

/// Boundary predicate recomputed from scratch (mirrors the definition, not
/// the maintained flags).
bool brute_is_boundary(const Graph& g, const Assignment& a, VertexId v) {
  const PartId p = a[static_cast<std::size_t>(v)];
  for (VertexId u : g.neighbors(v)) {
    if (a[static_cast<std::size_t>(u)] != p) return true;
  }
  return false;
}

std::vector<VertexId> brute_boundary(const Graph& g, const Assignment& a) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (brute_is_boundary(g, a, v)) out.push_back(v);
  }
  return out;
}

Graph fuzz_graph(int graph_kind, Rng& rng) {
  switch (graph_kind) {
    case 0:
      return make_grid(6, 6);
    case 1:
      return make_random_graph(40, 0.15, rng);
    case 2:
      return make_connected_geometric(50, 0.2, rng);
    default:
      return make_clique_chain(4, 5);
  }
}

TEST(PartitionState, InitialMetricsMatchComputeMetrics) {
  const Graph g = make_grid(4, 5);
  const Assignment a = {0, 0, 0, 1, 1, 0, 0, 0, 1, 1,
                        2, 2, 3, 3, 3, 2, 2, 3, 3, 3};
  PartitionState state(g, a, 4);
  expect_metrics_near(state.metrics(), compute_metrics(g, a, 4));
}

TEST(PartitionState, SingleMoveUpdatesEverything) {
  const Graph g = make_path(6);
  PartitionState state(g, {0, 0, 0, 1, 1, 1}, 2);
  EXPECT_DOUBLE_EQ(state.total_cut(), 1.0);
  state.move(3, 0);
  EXPECT_EQ(state.part_of(3), 0);
  EXPECT_DOUBLE_EQ(state.total_cut(), 1.0);  // cut moved to edge (3,4)
  EXPECT_DOUBLE_EQ(state.part_weight(0), 4.0);
  EXPECT_DOUBLE_EQ(state.part_weight(1), 2.0);
  EXPECT_DOUBLE_EQ(state.imbalance_sq(), 2.0);  // (4-3)^2 + (2-3)^2
  expect_metrics_near(state.metrics(),
                      compute_metrics(g, state.assignment(), 2));
}

TEST(PartitionState, MoveToSamePartIsNoOp) {
  const Graph g = make_cycle(5);
  PartitionState state(g, {0, 0, 1, 1, 1}, 2);
  const auto before = state.metrics();
  state.move(0, 0);
  expect_metrics_near(state.metrics(), before);
}

TEST(PartitionState, BoundaryDetection) {
  const Graph g = make_path(5);
  PartitionState state(g, {0, 0, 1, 1, 1}, 2);
  EXPECT_FALSE(state.is_boundary(0));
  EXPECT_TRUE(state.is_boundary(1));
  EXPECT_TRUE(state.is_boundary(2));
  EXPECT_FALSE(state.is_boundary(3));
  EXPECT_FALSE(state.is_boundary(4));
  const auto boundary = state.boundary_vertices();
  ASSERT_EQ(boundary.size(), 2u);
  EXPECT_EQ(boundary[0], 1);
  EXPECT_EQ(boundary[1], 2);
}

TEST(PartitionState, NeighborPartsDeduplicated) {
  const Graph g = make_star(5);
  PartitionState state(g, {0, 1, 1, 2, 0}, 3);
  const auto np = state.neighbor_parts(0);
  ASSERT_EQ(np.size(), 2u);
  EXPECT_EQ(np[0], 1);
  EXPECT_EQ(np[1], 2);
}

TEST(PartitionState, MoveGainMatchesActualMove) {
  const Graph g = make_grid(3, 3);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    Assignment a(9);
    for (auto& gene : a) gene = static_cast<PartId>(rng.uniform_int(3));
    PartitionState state(g, a, 3);
    const auto v = static_cast<VertexId>(rng.uniform_int(9));
    const auto to = static_cast<PartId>(rng.uniform_int(3));
    for (Objective obj : {Objective::kTotalComm, Objective::kWorstComm}) {
      const FitnessParams params{obj, 1.0};
      const double before = state.fitness(params);
      const double predicted = state.move_gain(v, to, params);
      PartitionState applied = state;
      applied.move(v, to);
      EXPECT_NEAR(applied.fitness(params) - before, predicted, 1e-9)
          << "trial " << trial << " objective "
          << objective_name(obj);
    }
  }
}

TEST(PartitionState, FitnessMatchesFreeFunction) {
  const Graph g = make_two_cliques(4);
  const Assignment a = {0, 0, 0, 0, 1, 1, 1, 1};
  PartitionState state(g, a, 2);
  for (Objective obj : {Objective::kTotalComm, Objective::kWorstComm}) {
    const FitnessParams params{obj, 1.0};
    EXPECT_DOUBLE_EQ(state.fitness(params),
                     evaluate_fitness(g, a, 2, params));
  }
}

TEST(PartitionState, InvalidConstructionThrows) {
  const Graph g = make_path(3);
  EXPECT_THROW(PartitionState(g, {0, 1}, 2), Error);
  EXPECT_THROW(PartitionState(g, {0, 5, 0}, 2), Error);
}

// Fuzz: long random move sequences must keep incremental state identical to
// from-scratch recomputation, across graph families and part counts.
class PartitionStateFuzz
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionStateFuzz, RandomMoveSequences) {
  const auto [graph_kind, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(graph_kind * 100 + k));
  Graph g;
  switch (graph_kind) {
    case 0:
      g = make_grid(6, 6);
      break;
    case 1:
      g = make_random_graph(40, 0.15, rng);
      break;
    case 2:
      g = make_connected_geometric(50, 0.2, rng);
      break;
    default:
      g = make_clique_chain(4, 5);
      break;
  }
  const VertexId n = g.num_vertices();
  Assignment a(static_cast<std::size_t>(n));
  for (auto& gene : a) gene = static_cast<PartId>(rng.uniform_int(k));
  PartitionState state(g, a, static_cast<PartId>(k));

  for (int mv = 0; mv < 300; ++mv) {
    const auto v = static_cast<VertexId>(rng.uniform_int(n));
    const auto to = static_cast<PartId>(rng.uniform_int(k));
    state.move(v, to);
    if (mv % 25 == 0) {
      expect_metrics_near(
          state.metrics(),
          brute_force_metrics(g, state.assignment(), static_cast<PartId>(k)));
    }
  }
  expect_metrics_near(
      state.metrics(),
      brute_force_metrics(g, state.assignment(), static_cast<PartId>(k)));
}

INSTANTIATE_TEST_SUITE_P(Fuzz, PartitionStateFuzz,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(2, 4, 7)));

// ---------------------------------------------------------------------------
// Incrementally maintained boundary: flags, frontier list, and external-
// degree bookkeeping must match a from-scratch recomputation after thousands
// of random moves, across graph families and part counts.
class BoundaryFuzz : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BoundaryFuzz, FrontierMatchesBruteForceAfterRandomMoves) {
  const auto [graph_kind, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(graph_kind * 1000 + k));
  const Graph g = fuzz_graph(graph_kind, rng);
  const VertexId n = g.num_vertices();
  Assignment a(static_cast<std::size_t>(n));
  for (auto& gene : a) gene = static_cast<PartId>(rng.uniform_int(k));
  PartitionState state(g, a, static_cast<PartId>(k));

  for (int mv = 0; mv < 2000; ++mv) {
    const auto v = static_cast<VertexId>(rng.uniform_int(n));
    const auto to = static_cast<PartId>(rng.uniform_int(k));
    state.move(v, to);
    if (mv % 100 == 0 || mv >= 1995) {
      for (VertexId u = 0; u < n; ++u) {
        ASSERT_EQ(state.is_boundary(u),
                  brute_is_boundary(g, state.assignment(), u))
            << "vertex " << u << " after move " << mv;
      }
      const auto expected = brute_boundary(g, state.assignment());
      ASSERT_EQ(state.boundary_vertices(), expected) << "after move " << mv;
      ASSERT_EQ(state.boundary_size(),
                static_cast<VertexId>(expected.size()));
      // The raw frontier is the same set, unordered and duplicate-free.
      auto raw = state.frontier();
      std::sort(raw.begin(), raw.end());
      ASSERT_EQ(raw, expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, BoundaryFuzz,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(2, 4, 7)));

// ---------------------------------------------------------------------------
// The single-scan gain kernel must agree with the legacy probe loop
// (neighbor_parts() + move_gain() per candidate, ties to the lowest part)
// bit-for-bit, and the connectivity it derives from must match a per-part
// brute-force accumulation.
TEST(PartitionStateKernel, BestMoveMatchesPerPartProbes) {
  Rng rng(0xbe57);
  for (const Objective objective :
       {Objective::kTotalComm, Objective::kWorstComm}) {
    for (const PartId k : {PartId{2}, PartId{4}, PartId{8}}) {
      const Graph g = make_random_graph(45, 0.15, rng);
      const VertexId n = g.num_vertices();
      Assignment a(static_cast<std::size_t>(n));
      for (auto& gene : a) gene = static_cast<PartId>(rng.uniform_int(k));
      PartitionState state(g, a, k);
      FitnessParams params{objective, 1.0};

      for (int trial = 0; trial < 300; ++trial) {
        const auto v = static_cast<VertexId>(rng.uniform_int(n));
        for (const double min_gain :
             {1e-9, 0.0, -std::numeric_limits<double>::infinity()}) {
          PartId expect_to = -1;
          double expect_gain = min_gain;
          int candidates = 0;
          for (const PartId to : state.neighbor_parts(v)) {
            const double gain = state.move_gain(v, to, params);
            ++candidates;
            if (gain > expect_gain) {
              expect_gain = gain;
              expect_to = to;
            }
          }
          const BestMove got = state.best_move(v, params, min_gain);
          ASSERT_EQ(got.to, expect_to) << "v=" << v;
          ASSERT_EQ(got.candidates, candidates);
          if (expect_to >= 0) {
            ASSERT_EQ(got.gain, expect_gain) << "v=" << v;  // bitwise
          }
        }
        // Random walk to a fresh configuration.
        state.move(static_cast<VertexId>(rng.uniform_int(n)),
                   static_cast<PartId>(rng.uniform_int(k)));
      }
    }
  }
}

TEST(PartitionStateKernel, AppliedBestMoveRealizesItsGain) {
  Rng rng(0x9a1e);
  const Graph g = make_grid(8, 8);
  for (const Objective objective :
       {Objective::kTotalComm, Objective::kWorstComm}) {
    Assignment a(64);
    for (auto& gene : a) gene = static_cast<PartId>(rng.uniform_int(5));
    PartitionState state(g, a, 5);
    const FitnessParams params{objective, 2.0};
    for (int trial = 0; trial < 200; ++trial) {
      const auto v = static_cast<VertexId>(rng.uniform_int(64));
      const BestMove best =
          state.best_move(v, params, -std::numeric_limits<double>::infinity());
      if (best.to < 0) continue;
      const double before = state.fitness(params);
      state.move(v, best.to);
      EXPECT_NEAR(state.fitness(params) - before, best.gain, 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// Cached max-part cut: must equal a scan of the maintained per-part cuts
// (exactly) and the brute-force metrics (to tolerance) no matter how moves
// and kWorstComm fitness reads interleave.
TEST(PartitionStateMaxCut, CacheMatchesScanUnderRandomMoves) {
  Rng rng(0x3acc);
  for (const PartId k : {PartId{2}, PartId{5}, PartId{9}}) {
    const Graph g = make_connected_geometric(60, 0.2, rng);
    const VertexId n = g.num_vertices();
    Assignment a(static_cast<std::size_t>(n));
    for (auto& gene : a) gene = static_cast<PartId>(rng.uniform_int(k));
    PartitionState state(g, a, k);
    const FitnessParams params{Objective::kWorstComm, 1.0};

    for (int mv = 0; mv < 1500; ++mv) {
      state.move(static_cast<VertexId>(rng.uniform_int(n)),
                 static_cast<PartId>(rng.uniform_int(k)));
      // Exercise both orders of cache use: sometimes read fitness (which
      // consults the cache) before the invariant check, sometimes not.
      if (mv % 3 == 0) state.fitness(params);
      double expect = 0.0;
      for (PartId q = 0; q < k; ++q) {
        expect = std::max(expect, state.part_cut(q));
      }
      ASSERT_DOUBLE_EQ(state.max_part_cut(), expect) << "after move " << mv;
      if (mv % 250 == 0) {
        const auto m = brute_force_metrics(g, state.assignment(), k);
        ASSERT_NEAR(state.max_part_cut(), m.max_part_cut, 1e-9);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ConnectivityScratch: epoch-stamped clearing and touched-slot tracking.
TEST(ConnectivityScratch, UsableBeforeFirstBegin) {
  // A fresh (or freshly resized) scratch must register touched slots even
  // when the caller forgets the initial begin().
  ConnectivityScratch s(3);
  s.add(1, 2.0);
  EXPECT_DOUBLE_EQ(s[1], 2.0);
  ASSERT_EQ(s.touched().size(), 1u);
  EXPECT_EQ(s.touched()[0], 1);
}

TEST(ConnectivityScratch, AccumulatesAndClearsByEpoch) {
  ConnectivityScratch s(4);
  s.begin();
  s.add(2, 1.5);
  s.add(0, 1.0);
  s.add(2, 0.5);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
  EXPECT_DOUBLE_EQ(s[2], 2.0);
  ASSERT_EQ(s.touched().size(), 2u);
  EXPECT_EQ(s.touched()[0], 2);  // first-touch order
  EXPECT_EQ(s.touched()[1], 0);

  s.begin();  // logical clear, no allocation
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[2], 0.0);
  EXPECT_TRUE(s.touched().empty());
  s.add(3, 7.0);
  EXPECT_DOUBLE_EQ(s[3], 7.0);

  s.resize(2);
  s.begin();
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
  EXPECT_EQ(s.size(), 2u);
}

// Per-part connectivity derived by the kernel (via neighbor_parts) matches a
// brute-force accumulation on weighted graphs too.
TEST(ConnectivityScratch, NeighborPartsMatchBruteForceOnWeightedGraph) {
  Rng rng(0xc0ed);
  GraphBuilder b(30);
  for (int e = 0; e < 90; ++e) {
    const auto u = static_cast<VertexId>(rng.uniform_int(30));
    const auto v = static_cast<VertexId>(rng.uniform_int(30));
    if (u != v) b.add_edge(u, v, 0.25 + rng.uniform());
  }
  const Graph g = b.build();
  const PartId k = 4;
  Assignment a(30);
  for (auto& gene : a) gene = static_cast<PartId>(rng.uniform_int(k));
  PartitionState state(g, a, k);

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<PartId> expect;
    const PartId p = a[static_cast<std::size_t>(v)];
    for (VertexId u : g.neighbors(v)) {
      const PartId q = a[static_cast<std::size_t>(u)];
      if (q != p) expect.push_back(q);
    }
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    EXPECT_EQ(state.neighbor_parts(v), expect) << "vertex " << v;
  }
}

// ---------------------------------------------------------------------------
// rebind_grown: the O(damage) graph-replacement path a long-lived session
// rides must leave the state indistinguishable from a fresh construction on
// the grown graph.

/// Grows `old_g` by `extra` vertices and randomly perturbs it: old-old edges
/// are dropped / reweighted near the damage window, new edges are wired into
/// it, and some vertex weights change.  Every change is picked up by
/// diff_graphs, which is exactly the contract rebind_grown relies on.
Graph grow_and_perturb(const Graph& old_g, VertexId extra, Rng& rng,
                       bool weighted) {
  const VertexId n_old = old_g.num_vertices();
  const VertexId n_new = n_old + extra;
  GraphBuilder b(n_new);
  for (VertexId u = 0; u < n_old; ++u) {
    const auto nbrs = old_g.neighbors(u);
    const auto wgts = old_g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] <= u) continue;
      if (rng.bernoulli(0.05)) continue;  // drop edge
      double w = wgts[i];
      if (weighted && rng.bernoulli(0.1)) w = 1.0 + rng.uniform_int(5);
      b.add_edge(u, nbrs[i], w);
    }
    if (weighted) {
      b.set_vertex_weight(u, old_g.vertex_weight(u));
    }
  }
  // Rewire: a few brand-new old-old edges, plus edges stitching every new
  // vertex into the graph (to old and new endpoints alike).
  for (int e = 0; e < 6; ++e) {
    const auto u = static_cast<VertexId>(rng.uniform_int(n_old));
    const auto v = static_cast<VertexId>(rng.uniform_int(n_old));
    if (u != v && !old_g.has_edge(u, v)) {
      b.add_edge(u, v, weighted ? 1.0 + rng.uniform_int(5) : 1.0);
    }
  }
  for (VertexId v = n_old; v < n_new; ++v) {
    const int fan = 1 + rng.uniform_int(3);
    for (int e = 0; e < fan; ++e) {
      const auto u = static_cast<VertexId>(rng.uniform_int(v));
      if (u != v) b.add_edge(u, v, weighted ? 1.0 + rng.uniform_int(5) : 1.0);
    }
  }
  if (weighted) {
    for (int c = 0; c < 4; ++c) {
      b.set_vertex_weight(static_cast<VertexId>(rng.uniform_int(n_new)),
                          1.0 + rng.uniform_int(3));
    }
  }
  return b.build();
}

void expect_state_matches_fresh(const PartitionState& state,
                                const Graph& grown, PartId k) {
  PartitionState fresh(grown, state.assignment(), k);
  EXPECT_EQ(state.num_parts(), fresh.num_parts());
  for (PartId q = 0; q < k; ++q) {
    EXPECT_NEAR(state.part_weight(q), fresh.part_weight(q), 1e-9) << "part " << q;
    EXPECT_NEAR(state.part_cut(q), fresh.part_cut(q), 1e-9) << "part " << q;
  }
  EXPECT_NEAR(state.sum_part_cut(), fresh.sum_part_cut(), 1e-9);
  EXPECT_NEAR(state.max_part_cut(), fresh.max_part_cut(), 1e-9);
  EXPECT_NEAR(state.imbalance_sq(), fresh.imbalance_sq(), 1e-9);
  for (VertexId v = 0; v < grown.num_vertices(); ++v) {
    EXPECT_EQ(state.is_boundary(v), fresh.is_boundary(v)) << "vertex " << v;
  }
  EXPECT_EQ(state.boundary_vertices(), fresh.boundary_vertices());
}

class RebindFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RebindFuzz, MatchesFreshConstructionThroughGrowRewireChains) {
  Rng rng(0x4eb1 + static_cast<std::uint64_t>(GetParam()) * 977);
  const bool weighted = GetParam() % 2 == 1;
  const PartId k = 2 + GetParam() % 4;

  // Chain several rebinds on ONE state, interleaved with random moves, so
  // stale bookkeeping from any step would surface in a later comparison.
  // (A deque: the state holds a pointer into the container, so elements
  // must not move when a snapshot is appended.)
  std::deque<Graph> snapshots;
  snapshots.push_back(make_connected_geometric(30 + GetParam() * 3, 0.25, rng));
  Assignment a(static_cast<std::size_t>(snapshots.back().num_vertices()));
  for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(k));
  PartitionState state(snapshots.back(), a, k);

  for (int step = 0; step < 4; ++step) {
    const Graph& old_g = snapshots.back();
    const auto extra = static_cast<VertexId>(rng.uniform_int(1, 8));
    snapshots.push_back(grow_and_perturb(old_g, extra, rng, weighted));
    const Graph& grown = snapshots.back();
    const GraphDelta delta = diff_graphs(old_g, grown);

    Assignment new_parts(static_cast<std::size_t>(extra));
    for (auto& p : new_parts) p = static_cast<PartId>(rng.uniform_int(k));
    state.rebind_grown(grown, delta.touched_old, new_parts);

    ASSERT_EQ(state.graph().num_vertices(), grown.num_vertices());
    expect_state_matches_fresh(state, grown, k);

    // Keep mutating: the rebound frontier must stay move-consistent.
    for (int m = 0; m < 20; ++m) {
      const auto v = static_cast<VertexId>(
          rng.uniform_int(grown.num_vertices()));
      state.move(v, static_cast<PartId>(rng.uniform_int(k)));
    }
    expect_state_matches_fresh(state, grown, k);
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, RebindFuzz, ::testing::Range(0, 8));

TEST(PartitionStateRebind, PureGrowthViaAppendedDelta) {
  const Graph old_g = make_grid(4, 4);
  Assignment a(16, 0);
  for (std::size_t i = 8; i < 16; ++i) a[i] = 1;
  PartitionState state(old_g, a, 2);

  // Append a 5th row.
  GraphBuilder b(20);
  for (VertexId u = 0; u < 16; ++u) {
    for (const VertexId v : old_g.neighbors(u)) {
      if (v > u) b.add_edge(u, v);
    }
  }
  for (VertexId c = 0; c < 4; ++c) {
    b.add_edge(12 + c, 16 + c);
    if (c > 0) b.add_edge(16 + c - 1, 16 + c);
  }
  const Graph grown = b.build();
  const GraphDelta delta = appended_delta(grown, 16);

  const Assignment new_parts(4, 1);
  state.rebind_grown(grown, delta.touched_old, new_parts);
  expect_state_matches_fresh(state, grown, 2);
}

TEST(PartitionStateRebind, NoChangeDeltaIsIdentity) {
  Rng rng(0x1de);
  const Graph g = make_grid(5, 5);
  Assignment a(25);
  for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(3));
  PartitionState state(g, a, 3);
  const double fitness_before = state.fitness({Objective::kWorstComm, 1.0});
  state.rebind_grown(g, {}, {});
  EXPECT_DOUBLE_EQ(state.fitness({Objective::kWorstComm, 1.0}),
                   fitness_before);
  expect_state_matches_fresh(state, g, 3);
}

TEST(PartitionStateRebind, PreconditionsRejected) {
  const Graph old_g = make_grid(3, 3);
  const Graph grown = make_grid(4, 3);
  PartitionState state(old_g, Assignment(9, 0), 2);
  // Wrong new_parts length.
  EXPECT_THROW(state.rebind_grown(grown, {}, {}), Error);
  // Out-of-range part.
  EXPECT_THROW(state.rebind_grown(grown, {}, Assignment(3, 7)), Error);
  // touched_old out of range / unsorted.
  EXPECT_THROW(
      state.rebind_grown(grown, std::vector<VertexId>{42}, Assignment(3, 0)),
      Error);
  EXPECT_THROW(state.rebind_grown(grown, std::vector<VertexId>{5, 2},
                                  Assignment(3, 0)),
               Error);
  // Shrinking is not supported.
  PartitionState big(grown, Assignment(12, 0), 2);
  EXPECT_THROW(big.rebind_grown(old_g, {}, {}), Error);
}

// ---------------------------------------------------------------------------
// content_hash(): the replication divergence digest.  Commutative over
// per-item hashes, so it must be independent of HOW a state was reached and
// sensitive to WHAT the state is.

TEST(PartitionStateContentHash, MoveOrderInvariant) {
  Rng rng(0xd16e57);
  const Graph g = make_grid(8, 8);
  Assignment a(64);
  for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(4));
  PartitionState forward(g, a, 4);
  PartitionState backward(g, a, 4);

  // The same set of moves, applied in opposite orders (with some vertices
  // moved twice along the way on one side only — the end state is what
  // counts, not the path).
  const std::vector<std::pair<VertexId, PartId>> moves = {
      {3, 1}, {17, 2}, {40, 0}, {63, 3}, {9, 2}};
  for (const auto& [v, p] : moves) forward.move(v, p);
  backward.move(17, 0);  // detour; overwritten below
  for (auto it = moves.rbegin(); it != moves.rend(); ++it) {
    backward.move(it->first, it->second);
  }
  EXPECT_EQ(forward.assignment(), backward.assignment());
  EXPECT_EQ(forward.content_hash(), backward.content_hash());
}

TEST(PartitionStateContentHash, SingleReassignmentChangesTheDigest) {
  const Graph g = make_grid(6, 6);
  Assignment a(36, 0);
  for (std::size_t v = 18; v < 36; ++v) a[v] = 1;
  PartitionState state(g, a, 2);
  const std::uint64_t before = state.content_hash();
  state.move(0, 1);
  EXPECT_NE(state.content_hash(), before);
  state.move(0, 0);  // moving back restores the digest exactly
  EXPECT_EQ(state.content_hash(), before);
}

TEST(PartitionStateContentHash, PartRelabelingIsVisible) {
  // A wholesale 0<->1 relabel keeps the cut and the balance identical —
  // exactly the tampering only a content digest can detect (the replication
  // fail-stop relies on this).
  const Graph g = make_grid(6, 6);
  Assignment a(36, 0);
  for (std::size_t v = 18; v < 36; ++v) a[v] = 1;
  Assignment swapped = a;
  for (auto& p : swapped) p = static_cast<PartId>(1 - p);
  PartitionState original(g, a, 2);
  PartitionState relabeled(g, swapped, 2);
  EXPECT_NE(original.content_hash(), relabeled.content_hash());
}

TEST(PartitionStateContentHash, FreeFunctionAgreesWithMember) {
  Rng rng(0x8a53d);
  const Graph g = make_grid(7, 5);
  Assignment a(35);
  for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(3));
  PartitionState state(g, a, 3);
  EXPECT_EQ(state.content_hash(), assignment_content_hash(g, a, 3));
  // ... and stays in agreement after incremental moves.
  state.move(12, 2);
  state.move(30, 0);
  EXPECT_EQ(state.content_hash(),
            assignment_content_hash(g, state.assignment(), 3));
}

// The digest as it is defined (and persisted in every snapshot image): each
// 12-byte item hashed by two CRCs, seeded 0x9e3779b9 (low half) and
// 0x85ebca6b (high half), through a SplitMix64 finalizer, summed.
std::uint64_t reference_item_hash(const char (&item)[12]) {
  const std::uint64_t lo = crc32(item, sizeof(item), 0x9e3779b9u);
  const std::uint64_t hi = crc32(item, sizeof(item), 0x85ebca6bu);
  std::uint64_t z = (hi << 32) | lo;
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

std::uint64_t reference_content_hash(const Graph& g, const Assignment& a,
                                     PartId k) {
  char item[12];
  const auto put_item = [&item](auto first, auto second) {
    static_assert(sizeof(first) + sizeof(second) == sizeof(item));
    std::memcpy(item, &first, sizeof(first));
    std::memcpy(item + sizeof(first), &second, sizeof(second));
    return reference_item_hash(item);
  };
  std::uint64_t h = put_item(static_cast<std::uint64_t>(g.num_vertices()),
                             static_cast<std::int32_t>(k));
  std::vector<double> weight(static_cast<std::size_t>(k), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartId p = a[static_cast<std::size_t>(v)];
    h += put_item(static_cast<std::uint64_t>(v), static_cast<std::int32_t>(p));
    weight[static_cast<std::size_t>(p)] += g.vertex_weight(v);
  }
  for (PartId q = 0; q < k; ++q) {
    h += put_item(static_cast<std::int32_t>(q),
                  weight[static_cast<std::size_t>(q)]);
  }
  return h;
}

TEST(PartitionStateContentHash, MatchesItsTwoCrcDefinition) {
  Rng rng(0xd1635);
  const Graph g = testing::with_fractional_weights(make_grid(23, 19));
  for (const PartId k : {PartId{2}, PartId{7}, PartId{300}}) {
    Assignment a(static_cast<std::size_t>(g.num_vertices()));
    for (PartId& p : a) p = static_cast<PartId>(rng.uniform_int(k));
    EXPECT_EQ(assignment_content_hash(g, a, k), reference_content_hash(g, a, k))
        << k << " parts";
  }
  // The graph's ids stop at 436, so its digest never sets an id's bytes 2
  // and 3: check single (vertex, part) items at ids that do.
  std::vector<VertexId> ids = {0x10000, 0xff0000, 0x1000000, 0x1020304,
                               0x7f00ff00, 0x7fffffff};
  for (int i = 0; i < 64; ++i) {
    ids.push_back(static_cast<VertexId>(rng.uniform_u64(std::uint64_t{1} << 31)));
  }
  for (const VertexId v : ids) {
    for (const PartId p : {PartId{0}, PartId{5}, PartId{299}, PartId{0x12345}}) {
      char item[12];
      const auto v64 = static_cast<std::uint64_t>(v);
      const auto p32 = static_cast<std::int32_t>(p);
      std::memcpy(item, &v64, sizeof(v64));
      std::memcpy(item + sizeof(v64), &p32, sizeof(p32));
      EXPECT_EQ(content_hash_vertex_item(v, p), reference_item_hash(item))
          << "vertex " << v << ", part " << p;
    }
  }
}

}  // namespace
}  // namespace gapart

#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/greedy_incremental.hpp"
#include "common/rng.hpp"
#include "core/contracted_ga.hpp"
#include "core/hill_climb.hpp"
#include "core/init.hpp"
#include "graph/generators.hpp"
#include "graph/mesh.hpp"
#include "service/session.hpp"
#include "spectral/rsb.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

constexpr double kNoBudget = std::numeric_limits<double>::infinity();

/// What repair_step owes for one delta, computed from scratch: the greedy
/// baseline's extension, a fresh state on the grown graph, the unverified
/// gain-ordered cascade from the delta's repair seeds, then up to `rounds`
/// kFrontier rounds, stopping at the first that moves nothing.
struct ScratchRepair {
  Assignment assignment;
  int moves = 0;
  std::int64_t examined = 0;
  int verify_rounds = 0;
};

ScratchRepair from_scratch_tiers(const Graph& grown,
                                 const Assignment& previous,
                                 const GraphDelta& delta, PartId k,
                                 const FitnessParams& fitness, int rounds) {
  PartitionState state(grown, greedy_incremental_assign(grown, previous, k),
                       k);
  HillClimbOptions opt;
  opt.fitness = fitness;
  opt.gain_ordered = true;
  opt.verify_fixed_point = false;
  const HillClimbResult cascade =
      hill_climb_from(state, repair_seeds(delta, grown), opt);
  ScratchRepair out;
  out.moves = cascade.moves;
  out.examined = cascade.examined;
  opt.mode = HillClimbMode::kFrontier;
  while (out.verify_rounds < rounds) {
    const HillClimbResult round = hill_climb(state, opt);
    ++out.verify_rounds;
    out.moves += round.moves;
    out.examined += round.examined;
    if (round.moves == 0) break;
  }
  out.assignment = std::move(state).release_assignment();
  return out;
}

/// Growth: paper_mesh(78) densified 20 times by 1-12 nodes; each
/// re-triangulation also rewires survivors near the refinement disc.
std::vector<Graph> growth_stream() {
  const Domain domain = paper_domain(78);
  Mesh mesh = paper_mesh(78);
  Rng rng(0x6A0);
  std::vector<Graph> out{mesh.graph};
  for (int step = 0; step < 20; ++step) {
    mesh = densify_mesh(mesh, domain,
                        static_cast<VertexId>(rng.uniform_int(1, 12)), rng);
    out.push_back(mesh.graph);
  }
  return out;
}

/// Churn: a 16 x 16 grid plus the diagonals of a 5 x 5 window that moves
/// every phase, so consecutive graphs differ in two windows and no vertex is
/// added.
std::vector<Graph> churn_stream() {
  const VertexId n = 16;
  const VertexId w = 5;
  const auto at = [n](VertexId r, VertexId c) { return r * n + c; };
  std::vector<Graph> out;
  for (int phase = 0; phase <= 20; ++phase) {
    GraphBuilder b(n * n);
    for (VertexId r = 0; r < n; ++r) {
      for (VertexId c = 0; c < n; ++c) {
        if (c + 1 < n) b.add_edge(at(r, c), at(r, c + 1));
        if (r + 1 < n) b.add_edge(at(r, c), at(r + 1, c));
      }
    }
    const VertexId r0 = (phase * 5) % (n - w);
    const VertexId c0 = (phase * 7) % (n - w);
    for (VertexId r = r0; r < r0 + w; ++r) {
      for (VertexId c = c0; c < c0 + w; ++c) {
        b.add_edge(at(r, c), at(r + 1, c + 1));
      }
    }
    out.push_back(b.build());
  }
  return out;
}

TEST(RepairStep, MatchesFromScratchTiers) {
  // repair_step works on a live state that rebind_grown carries from graph
  // to graph; every tier must decide exactly as the same tiers run on a
  // state built from scratch on the grown graph.
  const std::vector<Graph> growth = growth_stream();
  const std::vector<Graph> churn = churn_stream();
  int cases = 0;
  for (const std::vector<Graph>* stream : {&growth, &churn}) {
    for (const Objective objective :
         {Objective::kTotalComm, Objective::kWorstComm}) {
      const FitnessParams fitness{objective, 1.0};
      for (const PartId k : {PartId{2}, PartId{4}, PartId{8}}) {
        for (const int cap : {0, 4}) {
          Rng rng(0x5EED ^ static_cast<std::uint64_t>(k * 16 + cap));
          Assignment start(
              static_cast<std::size_t>(stream->front().num_vertices()));
          for (auto& p : start) p = static_cast<PartId>(rng.uniform_int(k));
          PartitionState live(stream->front(), std::move(start), k);
          for (std::size_t i = 1; i < stream->size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << (stream == &growth ? "growth" : "churn")
                         << " objective " << objective_name(objective)
                         << " k " << k << " cap " << cap << " delta " << i);
            const Graph& grown = (*stream)[i];
            const GraphDelta delta = diff_graphs((*stream)[i - 1], grown);
            const ScratchRepair want = from_scratch_tiers(
                grown, live.assignment(), delta, k, fitness, cap);
            const RepairReport got =
                repair_step(live, grown, delta, fitness, cap, kNoBudget);
            ASSERT_EQ(live.assignment(), want.assignment);
            EXPECT_EQ(got.repair_moves, want.moves);
            EXPECT_EQ(got.examined, want.examined);
            EXPECT_EQ(got.verify_rounds, want.verify_rounds);
            EXPECT_EQ(got.extend_moves, delta.num_new(grown));
            EXPECT_EQ(got.damage, delta.damage(grown));
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 480);
}

TEST(RepairStep, RepairsGrownMesh) {
  const Mesh base = paper_mesh(118);
  for (const VertexId extra : {VertexId{21}, VertexId{41}}) {
    SCOPED_TRACE(::testing::Message() << "118+" << extra);
    const Mesh grown = paper_incremental_mesh(base, 118, extra);
    Rng rng(3);
    const Assignment prev = rsb_partition(base.graph, 4, rng);
    PartitionState state(base.graph, prev, 4);
    const GraphDelta delta = diff_graphs(base.graph, grown.graph);
    const RepairReport rep =
        repair_step(state, grown.graph, delta, {}, 4, kNoBudget);
    ASSERT_EQ(&state.graph(), &grown.graph);
    ASSERT_TRUE(is_valid_assignment(grown.graph, state.assignment(), 4));

    // The extension assigned exactly the new vertices; re-triangulation
    // rewired survivors too.
    EXPECT_EQ(rep.extend_moves, extra);
    EXPECT_EQ(rep.damage, delta.damage(grown.graph));
    EXPECT_GT(rep.damage, extra);
    EXPECT_GT(rep.examined, 0);
    EXPECT_GE(rep.verify_rounds, 1);
    EXPECT_LE(rep.verify_rounds, 4);
    EXPECT_EQ(rep.update_epoch, 0u);  // the service's field
    // The metrics the rebound state maintains equal a from-scratch count.
    testing::expect_metrics_near(
        state.metrics(),
        testing::brute_force_metrics(grown.graph, state.assignment(), 4));
    EXPECT_NEAR(rep.fitness_after,
                evaluate_fitness(grown.graph, state.assignment(), 4, {}),
                1e-9);
    // Monotone: the cascade and the rounds never undo the extension.
    EXPECT_GE(rep.fitness_after,
              evaluate_fitness(grown.graph,
                               greedy_incremental_assign(grown.graph, prev, 4),
                               4, {}));
  }
}

TEST(RepairStep, CapAndBudgetGateVerification) {
  // A scrambled start on a growing grid leaves the verification rounds work
  // beyond the seeded cascade.  Cap 0 and an exhausted budget both stop after
  // the cascade, which does not look at the clock; a roomy cap ends at a
  // verified local optimum.
  const PartId k = 4;
  const Graph base = make_grid(16, 16);
  const Graph grown = make_grid(17, 16);
  const GraphDelta delta = diff_graphs(base, grown);
  Rng rng(0xbad);
  Assignment scrambled(256);
  for (auto& p : scrambled) p = static_cast<PartId>(rng.uniform_int(k));

  const auto run = [&](int cap, double budget) {
    PartitionState state(base, scrambled, k);
    const RepairReport rep = repair_step(state, grown, delta, {}, cap, budget);
    return std::make_pair(rep, std::move(state).release_assignment());
  };
  const auto [capped, capped_parts] = run(0, kNoBudget);
  const auto [spent, spent_parts] = run(50, 0.0);
  const auto [one, one_parts] = run(1, kNoBudget);
  const auto [roomy, roomy_parts] = run(50, kNoBudget);

  EXPECT_EQ(capped.verify_rounds, 0);
  EXPECT_EQ(spent.verify_rounds, 0);
  EXPECT_EQ(spent_parts, capped_parts);
  EXPECT_EQ(spent.repair_moves, capped.repair_moves);
  EXPECT_EQ(spent.examined, capped.examined);
  EXPECT_GT(capped.repair_moves, 0);

  EXPECT_EQ(one.verify_rounds, 1);
  EXPECT_GT(one.repair_moves, capped.repair_moves);
  EXPECT_GE(one.fitness_after, capped.fitness_after);

  EXPECT_GT(roomy.verify_rounds, 1);
  EXPECT_LT(roomy.verify_rounds, 50);  // stopped at a round that moved nothing
  EXPECT_GE(roomy.fitness_after, one.fitness_after);
  PartitionState check(grown, roomy_parts, k);
  for (const VertexId v : check.boundary_vertices()) {
    EXPECT_LT(check.best_move(v, {}, 1e-9).to, 0) << "vertex " << v;
  }
}

TEST(RepairStep, RepairsChurnWithoutNewVertices) {
  // Churn rewires survivors and adds no vertex: the extension has nothing to
  // assign, and the rebound state's metrics stay exact across every step.
  const std::vector<Graph> churn = churn_stream();
  const PartId k = 4;
  Rng rng(0xC4u);
  Assignment start(static_cast<std::size_t>(churn.front().num_vertices()));
  for (auto& p : start) p = static_cast<PartId>(rng.uniform_int(k));
  PartitionState state(churn.front(), std::move(start), k);
  for (std::size_t i = 1; i < churn.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "delta " << i);
    const GraphDelta delta = diff_graphs(churn[i - 1], churn[i]);
    ASSERT_GT(delta.touched_old.size(), 0u);
    const RepairReport rep = repair_step(state, churn[i], delta, {}, 2,
                                         kNoBudget);
    ASSERT_EQ(&state.graph(), &churn[i]);
    ASSERT_EQ(state.graph().num_vertices(), churn.front().num_vertices());
    EXPECT_EQ(rep.extend_moves, 0);
    EXPECT_EQ(rep.damage, delta.damage(churn[i]));
    EXPECT_GT(rep.damage, 0);
    testing::expect_metrics_near(
        state.metrics(),
        testing::brute_force_metrics(churn[i], state.assignment(), k));
    EXPECT_NEAR(rep.fitness_after,
                evaluate_fitness(churn[i], state.assignment(), k, {}), 1e-9);
  }
}

TEST(RepairStep, UnchangedGraphIsNoOp) {
  // Once a step has reached a verified fixed point, an empty delta onto an
  // identical graph finds no damage and moves nothing; the state only
  // rebinds to the new graph object.
  const Mesh base = paper_mesh(118);
  Rng rng(37);
  PartitionState state(base.graph, rsb_partition(base.graph, 4, rng), 4);
  const Graph same = base.graph;
  const RepairReport settle = repair_step(
      state, same, diff_graphs(base.graph, same), {}, 1000, kNoBudget);
  ASSERT_LT(settle.verify_rounds, 1000);  // ended on a round with no move
  const Assignment settled = state.assignment();

  const Graph again = base.graph;
  const GraphDelta empty = diff_graphs(same, again);
  EXPECT_EQ(empty.damage(again), 0);
  const RepairReport rep =
      repair_step(state, again, empty, {}, 1000, kNoBudget);
  EXPECT_EQ(&state.graph(), &again);
  EXPECT_EQ(state.assignment(), settled);
  EXPECT_EQ(rep.damage, 0);
  EXPECT_EQ(rep.extend_moves, 0);
  EXPECT_EQ(rep.repair_moves, 0);
  EXPECT_EQ(rep.verify_rounds, 1);
  EXPECT_NEAR(rep.fitness_after, settle.fitness_after, 1e-9);
}

TEST(RepairStep, RejectsMismatchedDelta) {
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  Rng rng(31);
  const Assignment prev = rsb_partition(base.graph, 2, rng);
  PartitionState state(base.graph, prev, 2);
  GraphDelta wrong = diff_graphs(base.graph, grown.graph);
  wrong.old_num_vertices = 50;
  EXPECT_THROW(repair_step(state, grown.graph, wrong, {}, 4, kNoBudget),
               Error);
  // Rejected before anything was touched.
  EXPECT_EQ(&state.graph(), &base.graph);
  EXPECT_EQ(state.assignment(), prev);
}

TEST(RepairStep, RejectsShrinkingGraph) {
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  const Assignment prev(static_cast<std::size_t>(grown.graph.num_vertices()),
                        0);
  PartitionState state(grown.graph, prev, 2);
  GraphDelta shrink;
  shrink.old_num_vertices = grown.graph.num_vertices();
  EXPECT_THROW(repair_step(state, base.graph, shrink, {}, 4, kNoBudget),
               Error);
  EXPECT_EQ(&state.graph(), &grown.graph);
  EXPECT_EQ(state.assignment(), prev);
}

/// The service's deep tier on `graph`: run_refinement's kDeep job —
/// verified frontier rounds, then the flat DPGA burst seeded with the
/// climbed solution (graphs this small are far below the V-cycle floor).
RefineOutcome deep_tier(std::shared_ptr<const Graph> graph,
                        Assignment assignment, PartId k, std::uint64_t seed) {
  SessionConfig cfg;
  cfg.num_parts = k;
  PartitionSession::RefineJob job;
  job.depth = RefineDepth::kDeep;
  job.fitness = evaluate_fitness(*graph, assignment, k, cfg.fitness);
  job.graph = std::move(graph);
  job.assignment = std::move(assignment);
  return run_refinement(job, cfg, Rng(seed), nullptr);
}

/// A session opened on `base` with `prev`, after one update to `grown`.
Assignment session_repair(const Graph& base, const Graph& grown,
                          const Assignment& prev, PartId k) {
  SessionConfig cfg;
  cfg.num_parts = k;
  PartitionSession session(std::make_shared<const Graph>(base), prev, cfg);
  session.apply_update(std::make_shared<const Graph>(grown),
                       diff_graphs(base, grown));
  return session.snapshot()->assignment;
}

TEST(IncrementalGa, BeatsGreedyDeterministicAssignment) {
  // The paper's conclusion: "The incremental partitioning results obtained
  // using DKNUX could not be obtained by a simple deterministic algorithm
  // that assigns new nodes to the part to which most of its nearest
  // neighbors belong."  Here: the session's repair of the update, then the
  // service's deep tier (the §3.5 incremental GA as a background job).
  const Mesh base = paper_mesh(183);
  const Mesh grown = paper_incremental_mesh(base, 183, 60);
  Rng rng(5);
  const auto prev = rsb_partition(base.graph, 8, rng);

  const auto greedy = greedy_incremental_assign(grown.graph, prev, 8);
  const FitnessParams params{Objective::kTotalComm, 1.0};
  const double greedy_fitness =
      evaluate_fitness(grown.graph, greedy, 8, params);

  const RefineOutcome deep = deep_tier(
      std::make_shared<const Graph>(grown.graph),
      session_repair(base.graph, grown.graph, prev, 8), 8, 5);
  EXPECT_GT(deep.fitness, greedy_fitness);
}

TEST(IncrementalGa, SeedNeverLost) {
  // The deep tier's DPGA population carries its seed verbatim, so the
  // refined partition is never worse than the repaired one it started from.
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  Rng rng(7);
  const auto prev = rsb_partition(base.graph, 4, rng);
  const Assignment repaired = session_repair(base.graph, grown.graph, prev, 4);
  const double seed_fitness = evaluate_fitness(grown.graph, repaired, 4, {});
  const RefineOutcome deep =
      deep_tier(std::make_shared<const Graph>(grown.graph), repaired, 4, 7);
  ASSERT_TRUE(is_valid_assignment(grown.graph, deep.assignment, 4));
  EXPECT_GE(deep.fitness, seed_fitness);
  EXPECT_NEAR(deep.fitness,
              evaluate_fitness(grown.graph, deep.assignment, 4, {}), 1e-9);
}

TEST(IncrementalInit, MakeIncrementalPopulationValidatesPartIds) {
  // The population builders reject out-of-range previous part ids up front.
  const Mesh base = paper_mesh(78);
  const Mesh grown = paper_incremental_mesh(base, 78, 10);
  Rng rng(13);
  Assignment bad(static_cast<std::size_t>(base.graph.num_vertices()), 0);
  bad[0] = 4;
  EXPECT_THROW(make_incremental_population(grown.graph, bad, 4, 8, 0.05, rng),
               Error);
  EXPECT_THROW(incremental_seed_assignment(grown.graph, bad, 4, rng), Error);
}

TEST(ContractedGa, PartitionsLargerMesh) {
  Rng rng(11);
  const Domain domain(DomainShape::kRectangle);
  const Mesh mesh = generate_mesh(domain, 600, rng);
  ContractedGaOptions opt;
  opt.dpga.num_islands = 4;
  opt.dpga.ga.num_parts = 4;
  opt.dpga.ga.population_size = 64;
  opt.dpga.ga.max_generations = 60;
  opt.coarse_vertices_per_part = 20;
  const auto res = contracted_ga_partition(mesh.graph, opt, rng);
  ASSERT_TRUE(is_valid_assignment(mesh.graph, res.assignment, 4));
  EXPECT_LT(res.coarse_vertices, 200);
  EXPECT_GE(res.levels, 1);
  const auto m = compute_metrics(mesh.graph, res.assignment, 4);
  // Sanity: a real partition, not shredded.
  EXPECT_LT(m.total_cut(), 0.25 * static_cast<double>(mesh.graph.num_edges()));
  EXPECT_LE(m.imbalance_sq, 64.0);
}

TEST(ContractedGa, SmallGraphSkipsCoarsening) {
  const Mesh mesh = paper_mesh(78);
  Rng rng(13);
  ContractedGaOptions opt;
  opt.dpga.num_islands = 2;
  opt.dpga.ga.num_parts = 2;
  opt.dpga.ga.population_size = 32;
  opt.dpga.ga.max_generations = 20;
  opt.coarse_vertices_per_part = 100;  // 2*100 > 78: no contraction
  const auto res = contracted_ga_partition(mesh.graph, opt, rng);
  EXPECT_EQ(res.levels, 0);
  EXPECT_EQ(res.coarse_vertices, 78);
  ASSERT_TRUE(is_valid_assignment(mesh.graph, res.assignment, 2));
}

}  // namespace
}  // namespace gapart

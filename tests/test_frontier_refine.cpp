// Frontier refinement as every caller runs it: one serial kFrontier climb.
//
// Three fuzz families over the 12-seed damaged-grid parameter grid shared
// with SeededRepairFuzz in test_hill_climb.cpp:
//   * the move path under the climb — every best move's gain equals the
//     exact fitness delta at apply time, and the maintained state equals a
//     from-scratch rebuild after each round;
//   * the climb itself — monotone, exact gain accounting, a verified fixed
//     point and metrics that match a recompute, with and without the
//     gain-ordered worklist;
//   * pool-width independence of the three entries that carry a pool (the
//     EvalContext climb, the V-cycle refine and the session's refinement
//     job): no pool, a 1-thread pool and a 4-thread pool give one result.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/assert.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "core/eval.hpp"
#include "core/hill_climb.hpp"
#include "core/presets.hpp"
#include "core/vcycle_ga.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/session.hpp"

namespace gapart {
namespace {

using bench::DamagedGrid;
using bench::damaged_block_grid;

/// The 12-seed parameter grid shared with SeededRepairFuzz in
/// test_hill_climb.cpp: 20/24/28 grids, k in 2..5, damage 8..40, both
/// objectives.
struct FuzzCase {
  VertexId n;
  PartId k;
  int damage;
  FitnessParams fitness;
  std::uint64_t seed;
};

FuzzCase fuzz_case(int param) {
  FuzzCase c;
  c.n = 20 + 4 * (param % 3);
  c.k = 2 + param % 4;
  c.damage = 8 + (param % 5) * 8;
  c.fitness = {param % 2 ? Objective::kWorstComm : Objective::kTotalComm, 1.0};
  c.seed = static_cast<std::uint64_t>(param);
  return c;
}

HillClimbOptions frontier_options(const FitnessParams& fitness) {
  HillClimbOptions opt;
  opt.mode = HillClimbMode::kFrontier;
  opt.fitness = fitness;
  opt.max_passes = 100;
  return opt;
}

void expect_fixed_point(PartitionState& state, const HillClimbOptions& opt,
                        const char* label) {
  for (const VertexId v : state.boundary_vertices()) {
    EXPECT_LT(state.best_move(v, opt.fitness, opt.min_gain).to, 0)
        << label << ": vertex " << v << " still improvable";
  }
}

void expect_matches_recompute(PartitionState& state, const char* label) {
  const PartitionMetrics live = state.metrics();
  const PartitionMetrics fresh =
      compute_metrics(state.graph(), state.assignment(), state.num_parts());
  EXPECT_EQ(live.sum_part_cut, fresh.sum_part_cut) << label;
  EXPECT_EQ(live.max_part_cut, fresh.max_part_cut) << label;
  // Cut sums are exact (integer weights); the incrementally maintained
  // imbalance accumulates against a non-integer mean load, so it matches
  // the fresh recompute only to rounding.
  EXPECT_NEAR(live.imbalance_sq, fresh.imbalance_sq, 1e-9) << label;
}

/// Small V-cycle budgets: the fuzz grids coarsen to a few hundred vertices.
VcycleGaOptions small_vcycle(PartId k, const FitnessParams& fitness) {
  VcycleGaOptions opt;
  opt.dpga = paper_dpga_config(k, fitness.objective);
  opt.dpga.ga.fitness = fitness;
  opt.dpga.num_islands = 4;
  opt.dpga.ga.population_size = 32;
  opt.dpga.ga.max_generations = 15;
  opt.dpga.ga.stall_generations = 5;
  opt.level_population = 12;
  opt.level_max_generations = 8;
  opt.level_stall = 3;
  opt.combine.population = 12;
  opt.combine.max_generations = 10;
  opt.combine.stall_generations = 4;
  return opt;
}

class FrontierRefineFuzz : public ::testing::TestWithParam<int> {};

// ---------------------------------------------------------------------------
// The move path: best_move + move, one vertex at a time, as the climb does.

TEST_P(FrontierRefineFuzz, BestMoveGainsAreExactAndStateMatchesRebuild) {
  const FuzzCase c = fuzz_case(GetParam());
  const Graph g = make_grid(c.n, c.n);
  const DamagedGrid d = damaged_block_grid(c.n, c.k, c.damage, c.seed);
  const double min_gain = 1e-9;

  PartitionState state(g, d.start, c.k);
  // Several rounds over the boundary, so later rounds check states the
  // move path itself produced, not just the pristine damaged grid.
  for (int round = 0; round < 4; ++round) {
    int applied = 0;
    for (const VertexId v : state.boundary_vertices()) {
      if (!state.is_boundary(v)) continue;
      const BestMove best = state.best_move(v, c.fitness, min_gain);
      if (best.to < 0) continue;
      EXPECT_GT(best.gain, min_gain);
      EXPECT_NEAR(state.move_gain(v, best.to, c.fitness), best.gain, 1e-9)
          << "round " << round << " vertex " << v;
      const double before = state.fitness(c.fitness);
      state.move(v, best.to);
      // The charged gain is the exact fitness delta measured at apply time.
      EXPECT_NEAR(state.fitness(c.fitness) - before, best.gain, 1e-9)
          << "round " << round << " vertex " << v;
      ++applied;
    }

    // Identical cut/balance state to a from-scratch build, bitwise for the
    // exact (integer-weight) sums.
    const PartitionState rebuilt(g, state.assignment(), c.k);
    EXPECT_EQ(state.sum_part_cut(), rebuilt.sum_part_cut()) << "round " << round;
    EXPECT_EQ(state.max_part_cut(), rebuilt.max_part_cut()) << "round " << round;
    EXPECT_NEAR(state.imbalance_sq(), rebuilt.imbalance_sq(), 1e-9)
        << "round " << round;
    for (PartId q = 0; q < c.k; ++q) {
      EXPECT_EQ(state.part_weight(q), rebuilt.part_weight(q));
      EXPECT_EQ(state.part_cut(q), rebuilt.part_cut(q));
    }
    EXPECT_EQ(state.boundary_vertices(), rebuilt.boundary_vertices())
        << "round " << round;
    if (applied == 0) break;
  }
}

// ---------------------------------------------------------------------------
// The climb.

TEST_P(FrontierRefineFuzz, ReachesVerifiedFixedPointMonotonically) {
  const FuzzCase c = fuzz_case(GetParam());
  const Graph g = make_grid(c.n, c.n);
  const DamagedGrid d = damaged_block_grid(c.n, c.k, c.damage, c.seed);

  for (const bool gain_ordered : {false, true}) {
    const char* label = gain_ordered ? "gain-ordered" : "plain";
    HillClimbOptions opt = frontier_options(c.fitness);
    opt.gain_ordered = gain_ordered;

    PartitionState state(g, d.start, c.k);
    const double before = state.fitness(opt.fitness);
    const HillClimbResult res = hill_climb(state, opt);
    EXPECT_GE(state.fitness(opt.fitness), before) << label;
    EXPECT_NEAR(state.fitness(opt.fitness) - before, res.fitness_gain, 1e-9)
        << label;
    EXPECT_GE(res.examined, res.moves) << label;  // every move was probed
    expect_fixed_point(state, opt, label);
    expect_matches_recompute(state, label);
  }
}

// ---------------------------------------------------------------------------
// Pool-width independence.

TEST_P(FrontierRefineFuzz, EvalClimbIndependentOfPoolWidth) {
  const FuzzCase c = fuzz_case(GetParam());
  const Graph g = make_grid(c.n, c.n);
  const DamagedGrid d = damaged_block_grid(c.n, c.k, c.damage, c.seed);
  Executor one_thread(1);
  Executor four_threads(4);

  // Full-boundary and damage-seeded climbs, gain-ordered as the service
  // runs them; the reference is the pool-free state overload.
  for (const bool seeded : {false, true}) {
    HillClimbOptions opt = frontier_options(c.fitness);
    opt.gain_ordered = true;
    PartitionState reference(g, d.start, c.k);
    const HillClimbResult ref = seeded
                                    ? hill_climb_from(reference, d.damaged, opt)
                                    : hill_climb(reference, opt);

    for (Executor* pool : {static_cast<Executor*>(nullptr), &one_thread,
                           &four_threads}) {
      const int width = pool == nullptr ? 0 : pool->num_threads();
      const EvalContext eval(g, c.k, c.fitness, pool);
      PartitionState state(g, d.start, c.k);
      const HillClimbResult res =
          seeded ? hill_climb_from(eval, state, d.damaged, opt)
                 : hill_climb(eval, state, opt);
      EXPECT_EQ(state.assignment(), reference.assignment())
          << "seeded " << seeded << ", " << width << " threads";
      EXPECT_EQ(res.moves, ref.moves) << width << " threads";
      EXPECT_EQ(res.passes, ref.passes) << width << " threads";
      EXPECT_EQ(res.examined, ref.examined) << width << " threads";
      EXPECT_EQ(res.verify_rounds, ref.verify_rounds) << width << " threads";
      EXPECT_EQ(res.fitness_gain, ref.fitness_gain) << width << " threads";
      // Every accepted move is charged as one delta evaluation.
      EXPECT_EQ(eval.delta_evaluations(), res.moves) << width << " threads";
    }
  }
}

TEST_P(FrontierRefineFuzz, VcycleRefineIndependentOfPoolWidth) {
  const FuzzCase c = fuzz_case(GetParam());
  const Graph g = make_grid(c.n, c.n);
  const DamagedGrid d = damaged_block_grid(c.n, c.k, c.damage, c.seed);
  const VcycleGaOptions opt = small_vcycle(c.k, c.fitness);
  const double seed_fitness = evaluate_fitness(g, d.start, c.k, c.fitness);

  Rng ref_rng(c.seed);
  const VcycleGaResult ref = vcycle_ga_refine(g, d.start, opt, ref_rng);
  EXPECT_GE(ref.fitness, seed_fitness);  // never worse than its seed
  ASSERT_TRUE(is_valid_assignment(g, ref.assignment, c.k));
  EXPECT_NEAR(ref.fitness, evaluate_fitness(g, ref.assignment, c.k, c.fitness),
              1e-9);

  for (const int threads : {1, 4}) {
    Executor pool(threads);
    Rng rng(c.seed);
    const VcycleGaResult res = vcycle_ga_refine(g, d.start, opt, rng, &pool);
    EXPECT_EQ(res.assignment, ref.assignment) << threads << " threads";
    EXPECT_EQ(res.fitness, ref.fitness) << threads << " threads";
    EXPECT_EQ(res.levels, ref.levels) << threads << " threads";
  }
}

TEST_P(FrontierRefineFuzz, SessionRefinementIndependentOfPoolWidth) {
  const FuzzCase c = fuzz_case(GetParam());
  const auto g = std::make_shared<const Graph>(make_grid(c.n, c.n));
  const DamagedGrid d = damaged_block_grid(c.n, c.k, c.damage, c.seed);

  SessionConfig cfg;
  cfg.num_parts = c.k;
  cfg.fitness = c.fitness;
  cfg.deep_vcycle = small_vcycle(c.k, c.fitness);

  PartitionSession::RefineJob job;
  job.graph = g;
  job.assignment = d.start;
  job.fitness = evaluate_fitness(*g, d.start, c.k, c.fitness);

  // kLight (the climb alone), kDeep as a flat DPGA burst, and kDeep routed
  // to the V-cycle engine.
  struct Tier {
    RefineDepth depth;
    VertexId vcycle_min_vertices;
    const char* label;
  };
  for (const Tier tier : {Tier{RefineDepth::kLight, 0, "light"},
                          Tier{RefineDepth::kDeep, 0, "deep burst"},
                          Tier{RefineDepth::kDeep, 1, "deep vcycle"}}) {
    job.depth = tier.depth;
    cfg.policy.vcycle_min_vertices = tier.vcycle_min_vertices;
    const RefineOutcome ref = run_refinement(job, cfg, Rng(c.seed), nullptr);
    EXPECT_GE(ref.fitness, job.fitness) << tier.label;
    EXPECT_TRUE(is_valid_assignment(*g, ref.assignment, c.k)) << tier.label;

    for (const int threads : {1, 4}) {
      Executor pool(threads);
      const RefineOutcome out = run_refinement(job, cfg, Rng(c.seed), &pool);
      EXPECT_EQ(out.assignment, ref.assignment)
          << tier.label << ", " << threads << " threads";
      EXPECT_EQ(out.fitness, ref.fitness)
          << tier.label << ", " << threads << " threads";
      EXPECT_EQ(out.full_evaluations, ref.full_evaluations)
          << tier.label << ", " << threads << " threads";
      EXPECT_EQ(out.delta_evaluations, ref.delta_evaluations)
          << tier.label << ", " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierRefineFuzz, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Seeded repair, option validation and cancellation.

TEST(FrontierRefine, SeededRepairReachesVerifiedFixedPoint) {
  const Graph g = make_grid(24, 24);
  const DamagedGrid d = damaged_block_grid(24, 4, 20, 0x9e37);

  HillClimbOptions opt = frontier_options({});
  opt.gain_ordered = true;

  PartitionState state(g, d.start, 4);
  const double before = state.fitness(opt.fitness);
  const HillClimbResult res = hill_climb_from(state, d.damaged, opt);
  EXPECT_GE(state.fitness(opt.fitness), before);
  EXPECT_GE(res.verify_rounds, 1);  // a seeded climb owes a verification round
  expect_fixed_point(state, opt, "seeded");
  expect_matches_recompute(state, "seeded");
}

TEST(FrontierRefine, RequiresPositiveMinGain) {
  const Graph g = make_grid(8, 8);
  Assignment a(static_cast<std::size_t>(g.num_vertices()), 0);
  for (VertexId v = 32; v < 64; ++v) a[static_cast<std::size_t>(v)] = 1;
  const std::vector<VertexId> seeds = {31, 32};

  HillClimbOptions opt;
  opt.mode = HillClimbMode::kFrontier;
  for (const double min_gain : {0.0, -1e-9}) {
    opt.min_gain = min_gain;
    PartitionState state(g, a, 2);
    EXPECT_THROW(hill_climb(state, opt), Error) << min_gain;
    EXPECT_THROW(hill_climb_from(state, seeds, opt), Error) << min_gain;
    const EvalContext eval(g, 2, opt.fitness);
    EXPECT_THROW(hill_climb(eval, state, opt), Error) << min_gain;
    EXPECT_EQ(state.assignment(), a) << min_gain;
  }

  // The paper's sweep takes any strict improvement: min_gain = 0 is valid.
  opt.mode = HillClimbMode::kSweep;
  opt.min_gain = 0.0;
  PartitionState state(g, a, 2);
  EXPECT_NO_THROW(hill_climb(state, opt));
}

TEST(FrontierRefine, CancelledClimbLeavesStateAndScratchClean) {
  const Graph g = make_grid(24, 24);
  const DamagedGrid d = damaged_block_grid(24, 4, 20, 0x9e37);
  std::atomic<bool> cancel{true};
  HillClimbOptions opt = frontier_options({});
  opt.cancel = &cancel;

  // Cancelled before the first pass: full-boundary, seeded and sweep climbs
  // all return without probing or moving anything.
  PartitionState state(g, d.start, 4);
  for (const bool seeded : {false, true}) {
    const HillClimbResult res =
        seeded ? hill_climb_from(state, d.damaged, opt) : hill_climb(state, opt);
    EXPECT_EQ(res.passes, 0) << "seeded " << seeded;
    EXPECT_EQ(res.moves, 0) << "seeded " << seeded;
    EXPECT_EQ(res.examined, 0) << "seeded " << seeded;
  }
  HillClimbOptions sweep = opt;
  sweep.mode = HillClimbMode::kSweep;
  EXPECT_EQ(hill_climb(state, sweep).passes, 0);
  EXPECT_EQ(state.assignment(), d.start);

  // Once the flag clears, the same state climbs exactly as a fresh one: the
  // cancelled runs left no worklist flags behind in its scratch.
  cancel.store(false);
  const HillClimbResult resumed = hill_climb_from(state, d.damaged, opt);
  HillClimbOptions uncancellable = opt;
  uncancellable.cancel = nullptr;
  PartitionState fresh(g, d.start, 4);
  const HillClimbResult ref = hill_climb_from(fresh, d.damaged, uncancellable);
  EXPECT_GT(ref.moves, 0);
  EXPECT_EQ(state.assignment(), fresh.assignment());
  EXPECT_EQ(resumed.moves, ref.moves);
  EXPECT_EQ(resumed.examined, ref.examined);
  EXPECT_EQ(resumed.verify_rounds, ref.verify_rounds);
}

}  // namespace
}  // namespace gapart

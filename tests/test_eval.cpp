// Tests of the unified evaluation core: EvalContext accounting, the fused
// mutate+evaluate path, the move_gain/delta-fitness contract, and
// bit-reproducibility of pooled runs against serial runs.
#include "core/eval.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/executor.hpp"
#include "common/rng.hpp"
#include "core/dpga.hpp"
#include "core/ga_engine.hpp"
#include "core/init.hpp"
#include "core/mutation.hpp"
#include "graph/generators.hpp"
#include "graph/mesh.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

// ---------------------------------------------------------------------------
// Property/fuzz: PartitionState::move_gain(v, to) must equal the observed
// fitness delta of actually performing move(v, to), across random graphs,
// both objectives, and k in {2, 4, 8}.
TEST(EvalDelta, MoveGainMatchesObservedFitnessDelta) {
  Rng rng(0xfeed);
  for (const Objective objective :
       {Objective::kTotalComm, Objective::kWorstComm}) {
    for (const PartId k : {PartId{2}, PartId{4}, PartId{8}}) {
      for (int round = 0; round < 6; ++round) {
        const VertexId n = 20 + rng.uniform_int(40);
        const Graph g = make_random_graph(n, 0.15, rng);
        FitnessParams params;
        params.objective = objective;
        params.lambda = round % 2 == 0 ? 1.0 : 4.0;
        PartitionState state(g, random_balanced_assignment(n, k, rng), k);

        for (int trial = 0; trial < 40; ++trial) {
          const VertexId v = static_cast<VertexId>(rng.uniform_int(n));
          const PartId to = static_cast<PartId>(rng.uniform_int(k));
          const double before = state.fitness(params);
          const double predicted = state.move_gain(v, to, params);
          state.move(v, to);
          const double observed = state.fitness(params) - before;
          EXPECT_NEAR(predicted, observed, 1e-9)
              << "objective=" << static_cast<int>(objective) << " k=" << k
              << " v=" << v << " to=" << to;
          // The incrementally-maintained fitness must stay glued to the
          // from-scratch evaluation.
          EXPECT_NEAR(state.fitness(params),
                      evaluate_fitness(g, state.assignment(), k, params),
                      1e-9);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The fused mutate+evaluate path is bit-identical to point_mutation followed
// by a from-scratch evaluation, for the same RNG stream.
TEST(EvalContext, FusedMutateEvaluateMatchesUnfusedPath) {
  Rng rng(0xabcd);
  for (const Objective objective :
       {Objective::kTotalComm, Objective::kWorstComm}) {
    const Graph g = make_random_graph(60, 0.12, rng);
    FitnessParams params;
    params.objective = objective;
    EvalContext eval(g, 4, params);
    for (int trial = 0; trial < 20; ++trial) {
      const Assignment base = random_balanced_assignment(60, 4, rng);
      const std::uint64_t seed = rng.next_u64();

      Assignment fused = base;
      Rng ra(seed);
      const double fused_fitness = eval.mutate_and_evaluate(fused, 0.05, ra);

      Assignment unfused = base;
      Rng rb(seed);
      point_mutation(unfused, 4, 0.05, rb);
      const double unfused_fitness = evaluate_fitness(g, unfused, 4, params);

      EXPECT_EQ(fused, unfused);
      EXPECT_DOUBLE_EQ(fused_fitness, unfused_fitness);
      // Both generators must end in the same state (same draw count).
      EXPECT_EQ(ra.next_u64(), rb.next_u64());
    }
  }
}

TEST(EvalContext, CountsFullAndDeltaSeparately) {
  const Graph g = make_grid(6, 6);
  EvalContext eval(g, 2, FitnessParams{});
  Rng rng(5);
  const Assignment a = random_balanced_assignment(36, 2, rng);

  EXPECT_EQ(eval.full_evaluations(), 0);
  eval.evaluate(a);
  EXPECT_EQ(eval.full_evaluations(), 1);
  EXPECT_EQ(eval.delta_evaluations(), 0);

  PartitionState state = eval.make_state(a);
  EXPECT_EQ(eval.full_evaluations(), 2);
  EXPECT_DOUBLE_EQ(eval.adopt(state), state.fitness(eval.params()));
  EXPECT_EQ(eval.full_evaluations(), 2);  // adopt is not an evaluation

  eval.count_delta(3);
  EXPECT_EQ(eval.delta_evaluations(), 3);
  EXPECT_EQ(eval.total_evaluations(), 5);

  eval.metrics(a);  // reporting only
  EXPECT_EQ(eval.total_evaluations(), 5);

  eval.reset_counts();
  EXPECT_EQ(eval.total_evaluations(), 0);
}

TEST(EvalContext, HillClimbCountsOneDeltaPerMove) {
  const Mesh mesh = paper_mesh(98);
  Rng rng(17);
  EvalContext eval(mesh.graph, 4, FitnessParams{});
  PartitionState state =
      eval.make_state(random_balanced_assignment(98, 4, rng));
  EXPECT_EQ(eval.full_evaluations(), 1);
  HillClimbOptions options;
  options.max_passes = 3;
  const HillClimbResult result = hill_climb(eval, state, options);
  EXPECT_GT(result.moves, 0);  // a random partition always has uphill moves
  EXPECT_EQ(eval.delta_evaluations(), result.moves);
  EXPECT_EQ(eval.full_evaluations(), 1);  // no re-evaluation after the climb
}

// ---------------------------------------------------------------------------
// Determinism: a pooled run must match the serial run gene-for-gene, at any
// thread count.
TEST(EvalDeterminism, PooledGaEngineMatchesSerialGeneForGene) {
  const Mesh mesh = paper_mesh(118);
  GaConfig cfg;
  cfg.num_parts = 4;
  cfg.population_size = 30;
  cfg.hill_climb_offspring = true;
  cfg.hill_climb_fraction = 0.5;
  Rng seeder(3);
  const auto init =
      make_random_population(118, 4, cfg.population_size, seeder);

  GaEngine serial(mesh.graph, cfg, init, Rng(77), nullptr);
  for (int s = 0; s < 8; ++s) serial.step();

  for (int threads : {2, 4, 8}) {
    Executor pool(threads);
    GaEngine pooled(mesh.graph, cfg, init, Rng(77), &pool);
    for (int s = 0; s < 8; ++s) pooled.step();

    ASSERT_EQ(pooled.population().size(), serial.population().size());
    for (std::size_t i = 0; i < serial.population().size(); ++i) {
      EXPECT_EQ(pooled.population()[i].genes, serial.population()[i].genes)
          << "individual " << i << " at " << threads << " threads";
      EXPECT_DOUBLE_EQ(pooled.population()[i].fitness,
                       serial.population()[i].fitness);
    }
    EXPECT_EQ(pooled.best().genes, serial.best().genes);
    EXPECT_EQ(pooled.full_evaluations(), serial.full_evaluations());
    EXPECT_EQ(pooled.delta_evaluations(), serial.delta_evaluations());
  }
}

TEST(EvalDeterminism, PooledDpgaMatchesSerial) {
  const Mesh mesh = paper_mesh(139);
  DpgaConfig cfg;
  cfg.num_islands = 4;
  cfg.migration_interval = 3;
  cfg.ga.num_parts = 4;
  cfg.ga.population_size = 40;
  cfg.ga.max_generations = 12;
  cfg.ga.hill_climb_offspring = true;
  Rng seeder(11);
  const auto init = make_random_population(139, 4, 40, seeder);

  const DpgaResult serial = run_dpga(mesh.graph, cfg, init, Rng(5));

  Executor four_threads(4);
  const DpgaResult pooled =
      run_dpga(mesh.graph, cfg, init, Rng(5), &four_threads);

  EXPECT_EQ(pooled.best, serial.best);
  EXPECT_DOUBLE_EQ(pooled.best_fitness, serial.best_fitness);
  EXPECT_EQ(pooled.evaluations, serial.evaluations);
  EXPECT_EQ(pooled.full_evaluations, serial.full_evaluations);
  EXPECT_EQ(pooled.delta_evaluations, serial.delta_evaluations);
  EXPECT_EQ(pooled.island_best_fitness, serial.island_best_fitness);

  // A pool of another width behaves identically too.
  Executor pool(3);
  const DpgaResult external = run_dpga(mesh.graph, cfg, init, Rng(5), &pool);
  EXPECT_EQ(external.best, serial.best);
  EXPECT_EQ(external.evaluations, serial.evaluations);
}

}  // namespace
}  // namespace gapart

// The multilevel evolutionary engine (core/vcycle_ga.hpp): quotient-graph
// combine, V-cycle partition/refine, service routing, and the fixed-seed
// acceptance spot-check against a flat GA at equal wall-clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/executor.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/ga_engine.hpp"
#include "core/graph_delta.hpp"
#include "core/init.hpp"
#include "core/presets.hpp"
#include "core/vcycle_ga.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/refine_policy.hpp"
#include "service/session.hpp"
#include "test_util.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GAPART_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GAPART_TEST_SANITIZED 1
#endif

namespace gapart {
namespace {

const FitnessParams kTotal{Objective::kTotalComm, 1.0};

CombineOptions small_combine() {
  CombineOptions co;
  co.population = 12;
  co.max_generations = 15;
  co.stall_generations = 5;
  return co;
}

VcycleGaOptions small_vcycle(PartId k) {
  VcycleGaOptions opt;
  opt.dpga = paper_dpga_config(k, Objective::kTotalComm);
  opt.dpga.num_islands = 4;
  opt.dpga.ga.population_size = 64;
  opt.dpga.ga.max_generations = 30;
  opt.dpga.ga.stall_generations = 8;
  opt.level_population = 16;
  opt.level_max_generations = 10;
  opt.level_stall = 3;
  opt.combine = small_combine();
  return opt;
}

TEST(VcycleCombine, ChildrenValidAndNeverBelowParents) {
  const Graph g = make_grid(12, 12);
  const PartId k = 3;
  Rng rng(3);
  const Assignment pa = random_balanced_assignment(g.num_vertices(), k, rng);
  const Assignment pb = random_balanced_assignment(g.num_vertices(), k, rng);
  const double fa = evaluate_fitness(g, pa, k, kTotal);
  const double fb = evaluate_fitness(g, pb, k, kTotal);

  Assignment c1, c2;
  Rng crng(9);
  combine_partitions(g, k, kTotal, small_combine(), pa, pb, crng)(c1, c2);
  ASSERT_TRUE(is_valid_assignment(g, c1, k));
  ASSERT_TRUE(is_valid_assignment(g, c2, k));
  // child1 comes out of an elitist GA seeded with both parents, child2 is a
  // monotone climb of the better parent: neither drops below its origin.
  EXPECT_GE(evaluate_fitness(g, c1, k, kTotal), std::max(fa, fb) - 1e-9);
  EXPECT_GE(evaluate_fitness(g, c2, k, kTotal), std::min(fa, fb) - 1e-9);
}

TEST(VcycleCombine, FallbackOnOversizedQuotientStaysMonotone) {
  const Graph g = make_grid(10, 10);
  const PartId k = 2;
  Rng rng(5);
  const Assignment pa = random_balanced_assignment(g.num_vertices(), k, rng);
  const Assignment pb = random_balanced_assignment(g.num_vertices(), k, rng);
  CombineOptions co = small_combine();
  co.max_quotient_vertices = 1;  // force the climb fallback

  Assignment c1, c2;
  Rng crng(7);
  combine_partitions(g, k, kTotal, co, pa, pb, crng)(c1, c2);
  ASSERT_TRUE(is_valid_assignment(g, c1, k));
  ASSERT_TRUE(is_valid_assignment(g, c2, k));
  const double fa = evaluate_fitness(g, pa, k, kTotal);
  const double fb = evaluate_fitness(g, pb, k, kTotal);
  EXPECT_GE(evaluate_fitness(g, c1, k, kTotal), std::max(fa, fb) - 1e-9);
  EXPECT_GE(evaluate_fitness(g, c2, k, kTotal), std::min(fa, fb) - 1e-9);
}

TEST(VcycleCombine, EngineDispatchesCombineCrossover) {
  const Graph g = make_grid(8, 8);
  const PartId k = 2;
  GaConfig cfg;
  cfg.num_parts = k;
  cfg.population_size = 8;
  cfg.elite_count = 1;
  cfg.max_generations = 3;
  cfg.crossover = CrossoverOp::kCombine;
  CombineOptions co = small_combine();
  co.max_generations = 5;
  cfg.combine = make_quotient_combine(g, k, cfg.fitness, co);
  Rng rng(13);
  auto initial = make_random_population(g.num_vertices(), k, 8, rng);
  const GaResult res = run_ga(g, cfg, std::move(initial), rng.split());
  EXPECT_EQ(res.generations, 3);
  EXPECT_TRUE(is_valid_assignment(g, res.best, k));
}

/// A kCombine engine over the quotient-graph combine (the ascending
/// per-level GA's shape), with or without a pool.
GaEngine combine_engine(const Graph& g, PartId k, Executor* pool) {
  GaConfig cfg;
  cfg.num_parts = k;
  cfg.population_size = 12;
  cfg.elite_count = 1;
  cfg.hill_climb_offspring = true;
  cfg.crossover = CrossoverOp::kCombine;
  cfg.combine = make_quotient_combine(g, k, cfg.fitness, small_combine());
  Rng rng(47);
  auto initial = make_seeded_population(
      random_balanced_assignment(g.num_vertices(), k, rng),
      cfg.population_size, /*swap_fraction=*/0.08, rng);
  return GaEngine(g, cfg, std::move(initial), rng.split(), pool);
}

TEST(VcycleCombine, PooledEngineMatchesSerialGeneForGene) {
  const Graph g = make_grid(16, 16);
  const PartId k = 4;
  Executor pool(4);
  GaEngine serial = combine_engine(g, k, nullptr);
  GaEngine pooled = combine_engine(g, k, &pool);
  for (int gen = 1; gen <= 5; ++gen) {
    serial.step();
    pooled.step();
    ASSERT_EQ(pooled.generation(), gen);
    const auto& a = serial.population();
    const auto& b = pooled.population();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].genes, b[i].genes) << "generation " << gen << " #" << i;
      EXPECT_EQ(a[i].fitness, b[i].fitness)  // bitwise
          << "generation " << gen << " #" << i;
    }
  }
  EXPECT_EQ(serial.best().genes, pooled.best().genes);
  EXPECT_EQ(serial.evaluations(), pooled.evaluations());
}

TEST(VcycleCombine, ThrowingJobLeavesPopulationUntouched) {
  const Graph g = make_grid(8, 8);
  const PartId k = 2;
  Executor pool(4);
  for (Executor* executor : {static_cast<Executor*>(nullptr), &pool}) {
    GaConfig cfg;
    cfg.num_parts = k;
    cfg.population_size = 8;
    cfg.elite_count = 1;
    cfg.crossover_rate = 1.0;  // every pair goes through a combine job
    cfg.crossover = CrossoverOp::kCombine;
    cfg.combine = [](const Assignment&, const Assignment&, Rng&) {
      return CombineJob([](Assignment&, Assignment&) {
        throw Error("combine job failed");
      });
    };
    Rng rng(53);
    auto initial = make_random_population(g.num_vertices(), k, 8, rng);
    GaEngine engine(g, cfg, std::move(initial), rng.split(), executor);
    const std::vector<Individual> before = engine.population();
    EXPECT_THROW(engine.step(), Error);
    EXPECT_EQ(engine.generation(), 0);
    ASSERT_EQ(engine.population().size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(engine.population()[i].genes, before[i].genes);
      EXPECT_EQ(engine.population()[i].fitness, before[i].fitness);
    }
  }
}

TEST(VcycleCombine, EngineRejectsMissingCombineCallback) {
  const Graph g = make_grid(4, 4);
  GaConfig cfg;
  cfg.population_size = 4;
  cfg.crossover = CrossoverOp::kCombine;  // cfg.combine left null
  Rng rng(1);
  auto initial = make_random_population(g.num_vertices(), 2, 4, rng);
  EXPECT_THROW(GaEngine(g, cfg, std::move(initial), rng), Error);
}

TEST(VcycleCombine, ApplyCrossoverRefusesCombine) {
  CrossoverContext ctx;
  Assignment a{0, 1}, b{1, 0}, c1, c2;
  Rng rng(2);
  EXPECT_THROW(
      apply_crossover(CrossoverOp::kCombine, ctx, a, b, rng, c1, c2), Error);
  EXPECT_EQ(parse_crossover("combine"), CrossoverOp::kCombine);
  EXPECT_STREQ(crossover_name(CrossoverOp::kCombine), "combine");
}

TEST(Vcycle, PartitionValidAndBalancedOnGrid) {
  const Graph g = make_grid(24, 24);
  const PartId k = 4;
  VcycleGaOptions opt = small_vcycle(k);
  Rng rng(17);
  const VcycleGaResult res = vcycle_ga_partition(g, opt, rng);
  ASSERT_TRUE(is_valid_assignment(g, res.assignment, k));
  EXPECT_GE(res.levels, 1);
  EXPECT_GE(res.evolved_levels, 1);
  EXPECT_LE(res.coarsest_vertices, 2 * k * opt.coarse_vertices_per_part);
  EXPECT_EQ(static_cast<int>(res.level_reports.size()), res.levels);
  const double mean =
      g.total_vertex_weight() / static_cast<double>(k);
  for (PartId q = 0; q < k; ++q) {
    EXPECT_NEAR(res.metrics.part_weight[static_cast<std::size_t>(q)], mean,
                0.15 * mean);
  }
  EXPECT_GT(res.metrics.total_cut(), 0.0);
  // Every level report is monotone: refinement never loses fitness.
  for (const auto& r : res.level_reports) {
    EXPECT_GE(r.fitness_after, r.fitness_before - 1e-9);
  }
}

TEST(Vcycle, DeterministicAcrossRunsAndExecutors) {
  const Graph g = make_grid(20, 20);
  const PartId k = 4;
  const VcycleGaOptions opt = small_vcycle(k);
  Rng r1(29), r2(29), r3(29);
  const auto a = vcycle_ga_partition(g, opt, r1);
  const auto b = vcycle_ga_partition(g, opt, r2);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.fitness, b.fitness);
  // Pooled evaluation is bit-identical to serial (fork-per-child streams).
  Executor pool(4);
  const auto c = vcycle_ga_partition(g, opt, r3, &pool);
  EXPECT_EQ(a.assignment, c.assignment);

#ifndef GAPART_TEST_SANITIZED
  // 256^2: a large finest level is refined by the same serial climb as a
  // small one, so the pool width must not change the result either.
  const Graph big = make_grid(256, 256);
  const VcycleGaOptions big_opt = small_vcycle(8);
  Executor one_thread(1);
  Rng r4(41), r5(41);
  const auto d = vcycle_ga_partition(big, big_opt, r4, &one_thread);
  const auto e = vcycle_ga_partition(big, big_opt, r5, &pool);
  EXPECT_EQ(d.assignment, e.assignment);
  EXPECT_EQ(d.fitness, e.fitness);
#endif
}

TEST(VcycleGolden, PartitionAndRefineBitIdenticalToSerialCombine) {
  const Graph g = make_grid(24, 24);
  const PartId k = 4;
  const VcycleGaOptions opt = small_vcycle(k);
  Rng seed_rng(99);
  const Assignment scrambled =
      random_balanced_assignment(g.num_vertices(), k, seed_rng);

  // Captured by running the implementation whose combines all ran serially
  // inside the generate phase, on these exact graphs, seeds and options
  // (hex-float literals are bit-exact).  Every width must reproduce them.
  Executor one(1);
  Executor four(4);
  for (Executor* pool : {static_cast<Executor*>(nullptr), &one, &four}) {
    const int width = pool == nullptr ? 0 : pool->num_threads();
    Rng prng(2020);
    const VcycleGaResult part = vcycle_ga_partition(g, opt, prng, pool);
    EXPECT_EQ(part.evolved_levels, 4) << "width " << width;
    EXPECT_EQ(part.fitness, -0x1.9cp+7) << "width " << width;
    EXPECT_EQ(testing::fnv1a(part.assignment), 0x473f194bb5668f65ULL)
        << "width " << width;

    Rng rrng(2021);
    const VcycleGaResult refined =
        vcycle_ga_refine(g, scrambled, opt, rrng, pool);
    EXPECT_EQ(refined.evolved_levels, 3) << "width " << width;
    EXPECT_EQ(refined.fitness, -0x1.b8p+7) << "width " << width;
    EXPECT_EQ(testing::fnv1a(refined.assignment), 0x065e39bd78b5f357ULL)
        << "width " << width;
  }
}

TEST(Vcycle, RefineNeverWorseThanSeed) {
  const Graph g = make_grid(40, 40);
  const PartId k = 4;
  // Deliberately poor but balanced seed: round-robin stripes cut almost
  // every horizontal edge.
  Assignment seed(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    seed[static_cast<std::size_t>(v)] = static_cast<PartId>(v % k);
  }
  const double seed_fitness = evaluate_fitness(g, seed, k, kTotal);

  VcycleGaOptions opt = small_vcycle(k);
  Rng rng(31);
  const VcycleGaResult res = vcycle_ga_refine(g, seed, opt, rng);
  ASSERT_TRUE(is_valid_assignment(g, res.assignment, k));
  EXPECT_GE(res.fitness, seed_fitness);
  // The stripe seed is so bad the V-cycle must strictly improve it.
  EXPECT_LT(res.metrics.total_cut(),
            compute_metrics(g, seed, k).total_cut());
}

TEST(Vcycle, RefineWithCancelledTokenStillMonotoneAndValid) {
  const Graph g = make_grid(16, 16);
  const PartId k = 2;
  Rng rng(37);
  Assignment seed(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    seed[static_cast<std::size_t>(v)] = (v % 16) < 8 ? 0 : 1;
  }
  const double seed_fitness = evaluate_fitness(g, seed, k, kTotal);
  std::atomic<bool> cancel{true};
  VcycleGaOptions opt = small_vcycle(k);
  opt.cancel = &cancel;
  const VcycleGaResult res = vcycle_ga_refine(g, seed, opt, rng);
  ASSERT_TRUE(is_valid_assignment(g, res.assignment, k));
  EXPECT_GE(res.fitness, seed_fitness);
}

TEST(Vcycle, ProjectAssignmentRoundTripsThroughGrowAndRewireDeltas) {
  Rng rng(11);
  const Graph old_g = make_grid(10, 10);
  Assignment part(static_cast<std::size_t>(old_g.num_vertices()));
  for (VertexId v = 0; v < old_g.num_vertices(); ++v) {
    part[static_cast<std::size_t>(v)] = (v % 10) < 5 ? 0 : 1;
  }

  auto copy_into = [](const Graph& src, GraphBuilder& b) {
    for (VertexId v = 0; v < src.num_vertices(); ++v) {
      b.set_vertex_weight(v, src.vertex_weight(v));
      if (src.has_coordinates()) b.set_coordinate(v, src.coordinate(v));
      const auto nbrs = src.neighbors(v);
      const auto wgts = src.edge_weights(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (v < nbrs[i]) b.add_edge(v, nbrs[i], wgts[i]);
      }
    }
  };

  // Grow: ten appended vertices, each tied to two survivors.
  GraphBuilder gb(old_g.num_vertices() + 10);
  copy_into(old_g, gb);
  for (VertexId nv = old_g.num_vertices(); nv < old_g.num_vertices() + 10;
       ++nv) {
    gb.add_edge(nv, (nv * 7) % old_g.num_vertices(), 1.0);
    gb.add_edge(nv, (nv * 13) % old_g.num_vertices(), 1.0);
    if (old_g.has_coordinates()) gb.set_coordinate(nv, {0.0, 0.0});
  }
  const Graph grown = gb.build();
  const GraphDelta grow_delta = diff_graphs(old_g, grown);
  EXPECT_EQ(grow_delta.old_num_vertices, old_g.num_vertices());
  EXPECT_EQ(grow_delta.num_new(grown), 10);

  const Assignment extended =
      incremental_seed_assignment(grown, part, 2, rng);
  const auto round_trip = [&rng](const Graph& g, const Assignment& a) {
    auto rng_copy = rng;  // independent stream per round trip
    const auto h = coarsen_to(g, 12, rng_copy, &a);
    Assignment coarse(
        static_cast<std::size_t>(h.coarsest(g).num_vertices()));
    const auto flat = h.flatten_map(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      coarse[static_cast<std::size_t>(flat[static_cast<std::size_t>(v)])] =
          a[static_cast<std::size_t>(v)];
    }
    return h.project_to_finest(coarse, g.num_vertices());
  };
  // Respect-coarsening makes the assignment cluster-constant at every
  // level, so coarsen -> project is the identity on it.
  EXPECT_EQ(round_trip(grown, extended), extended);

  // Rewire: bump one surviving edge's weight; the delta lists exactly the
  // two endpoints, and the round trip still holds on the rewired graph.
  GraphBuilder rb(grown.num_vertices());
  for (VertexId v = 0; v < grown.num_vertices(); ++v) {
    rb.set_vertex_weight(v, grown.vertex_weight(v));
    if (grown.has_coordinates()) rb.set_coordinate(v, grown.coordinate(v));
    const auto nbrs = grown.neighbors(v);
    const auto wgts = grown.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (v < nbrs[i]) {
        const bool bumped = v == 0 && nbrs[i] == 1;
        rb.add_edge(v, nbrs[i], bumped ? 5.0 : wgts[i]);
      }
    }
  }
  const Graph rewired = rb.build();
  const GraphDelta rewire_delta = diff_graphs(grown, rewired);
  EXPECT_EQ(rewire_delta.num_new(rewired), 0);
  EXPECT_EQ(rewire_delta.touched_old, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(round_trip(rewired, extended), extended);
}

TEST(VcycleRoute, DeepVcyclePolicyIsPureAndGated) {
  RefinePolicyConfig config;
  config.vcycle_min_vertices = 1000;
  EXPECT_FALSE(route_deep_vcycle(config, 999));
  EXPECT_TRUE(route_deep_vcycle(config, 1000));
  EXPECT_TRUE(route_deep_vcycle(config, 1 << 20));
  config.vcycle_min_vertices = 0;  // disabled
  EXPECT_FALSE(route_deep_vcycle(config, 1 << 20));
}

TEST(VcycleService, RunRefinementRoutesDeepThroughVcycle) {
  const auto graph = std::make_shared<const Graph>(make_grid(30, 30));
  const PartId k = 2;
  Rng rng(43);
  Assignment seed(static_cast<std::size_t>(graph->num_vertices()));
  for (VertexId v = 0; v < graph->num_vertices(); ++v) {
    seed[static_cast<std::size_t>(v)] = static_cast<PartId>(v % k);
  }

  SessionConfig config;
  config.num_parts = k;
  config.policy.vcycle_min_vertices = 1;  // route every kDeep to the V-cycle
  config.deep_vcycle = small_vcycle(k);

  PartitionSession::RefineJob job;
  job.depth = RefineDepth::kDeep;
  job.graph = graph;
  job.assignment = seed;
  job.fitness = evaluate_fitness(*graph, seed, k, config.fitness);
  job.cancel = std::make_shared<std::atomic<bool>>(false);

  const RefineOutcome out = run_refinement(job, config, Rng(5), nullptr);
  ASSERT_TRUE(is_valid_assignment(*graph, out.assignment, k));
  EXPECT_GE(out.fitness, job.fitness);

  // With routing disabled the flat DPGA burst still serves the deep tier.
  config.policy.vcycle_min_vertices = 0;
  const RefineOutcome flat = run_refinement(job, config, Rng(5), nullptr);
  ASSERT_TRUE(is_valid_assignment(*graph, flat.assignment, k));
  EXPECT_GE(flat.fitness, job.fitness);
}

TEST(Vcycle, BeatsFlatGaAtEqualWallclockOn512Mesh) {
#ifdef GAPART_TEST_SANITIZED
  GTEST_SKIP() << "512^2 acceptance spot-check runs in optimized builds only";
#else
  const Graph g = make_grid(512, 512);
  const PartId k = 8;
  VcycleGaOptions opt;
  opt.dpga = paper_dpga_config(k, Objective::kTotalComm);
  opt.dpga.ga.max_generations = 60;
  opt.dpga.ga.stall_generations = 12;
  opt.max_evolve_vertices = 4096;
  opt.level_population = 24;
  opt.level_max_generations = 15;
  opt.level_stall = 4;
  Rng rng(2026);
  const VcycleGaResult res = vcycle_ga_partition(g, opt, rng);
  ASSERT_TRUE(is_valid_assignment(g, res.assignment, k));

  // The flat GA gets at least the V-cycle's wall-clock on the same mesh.
  const double budget = std::max(res.wall_seconds, 1.0);
  GaConfig flat = paper_ga_config(k, Objective::kTotalComm);
  flat.population_size = 64;  // fewer, cheaper generations at this |V|
  flat.hill_climb_offspring = true;
  Rng frng(2026);
  auto initial =
      make_random_population(g.num_vertices(), k, flat.population_size, frng);
  GaEngine engine(g, flat, std::move(initial), frng.split());
  WallTimer timer;
  while (timer.seconds() < budget) engine.step();
  const double flat_cut = engine.best().metrics.total_cut();
  EXPECT_LT(res.metrics.total_cut(), flat_cut)
      << "vcycle " << res.metrics.total_cut() << " vs flat " << flat_cut
      << " after " << engine.generation() << " flat generations in "
      << budget << "s";
#endif
}

}  // namespace
}  // namespace gapart

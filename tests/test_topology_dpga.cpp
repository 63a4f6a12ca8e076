#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/executor.hpp"
#include "common/rng.hpp"
#include "core/dpga.hpp"
#include "core/init.hpp"
#include "core/presets.hpp"
#include "core/topology.hpp"
#include "graph/generators.hpp"
#include "graph/mesh.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

TEST(Topology, HypercubeDegreeAndSymmetry) {
  const auto nbrs = build_topology(TopologyKind::kHypercube, 16);
  ASSERT_EQ(nbrs.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(nbrs[static_cast<std::size_t>(i)].size(), 4u);  // 4-cube
    for (int j : nbrs[static_cast<std::size_t>(i)]) {
      // Neighbours differ in exactly one bit.
      const int diff = i ^ j;
      EXPECT_EQ(diff & (diff - 1), 0);
      EXPECT_NE(diff, 0);
      // Symmetric.
      const auto& back = nbrs[static_cast<std::size_t>(j)];
      EXPECT_NE(std::find(back.begin(), back.end(), i), back.end());
    }
  }
}

TEST(Topology, HypercubeRequiresPowerOfTwo) {
  EXPECT_THROW(build_topology(TopologyKind::kHypercube, 12), Error);
  EXPECT_NO_THROW(build_topology(TopologyKind::kHypercube, 8));
}

TEST(Topology, RingDegreeTwo) {
  const auto nbrs = build_topology(TopologyKind::kRing, 5);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(nbrs[static_cast<std::size_t>(i)].size(), 2u);
  }
  EXPECT_EQ(nbrs[0][0], 1);
  EXPECT_EQ(nbrs[0][1], 4);
}

TEST(Topology, RingOfTwoDeduplicates) {
  const auto nbrs = build_topology(TopologyKind::kRing, 2);
  ASSERT_EQ(nbrs[0].size(), 1u);
  EXPECT_EQ(nbrs[0][0], 1);
}

TEST(Topology, TorusDegreeFourWhenLarge) {
  const auto nbrs = build_topology(TopologyKind::kTorus, 16);  // 4x4
  for (const auto& out : nbrs) EXPECT_EQ(out.size(), 4u);
}

TEST(Topology, CompleteAllToAll) {
  const auto nbrs = build_topology(TopologyKind::kComplete, 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(nbrs[static_cast<std::size_t>(i)].size(), 5u);
  }
}

TEST(Topology, IsolatedHasNoLinks) {
  const auto nbrs = build_topology(TopologyKind::kIsolated, 8);
  for (const auto& out : nbrs) EXPECT_TRUE(out.empty());
}

TEST(Topology, SingleIslandAlwaysEmpty) {
  for (TopologyKind k : {TopologyKind::kHypercube, TopologyKind::kRing,
                         TopologyKind::kComplete}) {
    const auto nbrs = build_topology(k, 1);
    ASSERT_EQ(nbrs.size(), 1u);
    EXPECT_TRUE(nbrs[0].empty());
  }
}

TEST(Topology, ParseNames) {
  EXPECT_EQ(parse_topology("hypercube"), TopologyKind::kHypercube);
  EXPECT_EQ(parse_topology("ring"), TopologyKind::kRing);
  EXPECT_EQ(parse_topology("torus"), TopologyKind::kTorus);
  EXPECT_EQ(parse_topology("complete"), TopologyKind::kComplete);
  EXPECT_EQ(parse_topology("isolated"), TopologyKind::kIsolated);
  EXPECT_THROW(parse_topology("mesh3d"), Error);
}

DpgaConfig small_dpga(PartId k, int islands, int gens) {
  DpgaConfig cfg;
  cfg.num_islands = islands;
  cfg.topology =
      (islands & (islands - 1)) == 0 && islands > 1
          ? TopologyKind::kHypercube
          : TopologyKind::kRing;
  cfg.migration_interval = 5;
  cfg.ga.num_parts = k;
  cfg.ga.population_size = 16 * islands;
  cfg.ga.max_generations = gens;
  return cfg;
}

TEST(Dpga, SolvesTwoCliques) {
  const Graph g = make_two_cliques(8);
  Rng rng(3);
  const auto cfg = small_dpga(2, 4, 80);
  auto init = make_random_population(g.num_vertices(), 2,
                                     cfg.ga.population_size, rng);
  const auto res = run_dpga(g, cfg, std::move(init), rng.split());
  EXPECT_DOUBLE_EQ(res.best_metrics.total_cut(), 1.0);
  EXPECT_EQ(res.generations, 80);
  EXPECT_EQ(res.island_best_fitness.size(), 4u);
}

TEST(Dpga, DeterministicForSameSeed) {
  const Mesh mesh = paper_mesh(78);
  const auto cfg = small_dpga(4, 4, 20);
  Rng ra(7);
  auto ia = make_random_population(78, 4, cfg.ga.population_size, ra);
  Rng rb(7);
  auto ib = make_random_population(78, 4, cfg.ga.population_size, rb);
  const auto res_a = run_dpga(mesh.graph, cfg, std::move(ia), Rng(5));
  const auto res_b = run_dpga(mesh.graph, cfg, std::move(ib), Rng(5));
  EXPECT_EQ(res_a.best, res_b.best);
  EXPECT_EQ(res_a.evaluations, res_b.evaluations);
}

TEST(Dpga, ParallelMatchesSerialBitForBit) {
  const Mesh mesh = paper_mesh(98);
  auto cfg = small_dpga(4, 4, 15);
  Rng ra(11);
  auto ia = make_random_population(98, 4, cfg.ga.population_size, ra);
  Rng rb(11);
  auto ib = make_random_population(98, 4, cfg.ga.population_size, rb);

  const auto serial = run_dpga(mesh.graph, cfg, std::move(ia), Rng(13));
  Executor pool(4);
  const auto parallel =
      run_dpga(mesh.graph, cfg, std::move(ib), Rng(13), &pool);
  EXPECT_EQ(serial.best, parallel.best);
  EXPECT_DOUBLE_EQ(serial.best_fitness, parallel.best_fitness);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
}

TEST(Dpga, MigrationSpreadsEliteGenes) {
  // Seed only island 0 with the optimum (all other islands random): with
  // migration the optimum must reach every island's best-so-far quickly.
  const Graph g = make_two_cliques(10);
  Assignment optimum(20, 0);
  for (std::size_t i = 10; i < 20; ++i) optimum[i] = 1;

  Rng rng(17);
  auto cfg = small_dpga(2, 4, 30);
  cfg.ga.crossover_rate = 0.0;  // isolate migration as the only mixing force
  cfg.ga.mutation_rate = 0.0;
  std::vector<Assignment> init;
  init.push_back(optimum);  // round-robin deal: lands on island 0
  for (int i = 1; i < cfg.ga.population_size; ++i) {
    init.push_back(random_balanced_assignment(20, 2, rng));
  }
  const auto res = run_dpga(g, cfg, std::move(init), rng.split());
  for (double f : res.island_best_fitness) {
    EXPECT_DOUBLE_EQ(f, -2.0);  // every island reached the optimum (cut 1)
  }
}

TEST(Dpga, IsolatedIslandsDoNotMix) {
  const Graph g = make_two_cliques(10);
  Assignment optimum(20, 0);
  for (std::size_t i = 10; i < 20; ++i) optimum[i] = 1;

  Rng rng(19);
  auto cfg = small_dpga(2, 4, 30);
  cfg.topology = TopologyKind::kIsolated;
  cfg.ga.crossover_rate = 0.0;
  cfg.ga.mutation_rate = 0.0;
  std::vector<Assignment> init;
  init.push_back(optimum);
  for (int i = 1; i < cfg.ga.population_size; ++i) {
    init.push_back(random_balanced_assignment(20, 2, rng));
  }
  const auto res = run_dpga(g, cfg, std::move(init), rng.split());
  // Island 0 has it; with crossover/mutation off, at least one other island
  // cannot have reached the optimum.
  int at_optimum = 0;
  for (double f : res.island_best_fitness) {
    if (f == -2.0) ++at_optimum;
  }
  EXPECT_LT(at_optimum, 4);
}

TEST(Dpga, GlobalHistoryMonotone) {
  const Mesh mesh = paper_mesh(88);
  Rng rng(23);
  const auto cfg = small_dpga(4, 4, 25);
  auto init = make_random_population(88, 4, cfg.ga.population_size, rng);
  const auto res = run_dpga(mesh.graph, cfg, std::move(init), rng.split());
  ASSERT_FALSE(res.history.empty());
  for (std::size_t i = 1; i < res.history.size(); ++i) {
    EXPECT_GE(res.history[i].best_fitness, res.history[i - 1].best_fitness);
  }
}

TEST(Dpga, StallStopsEarly) {
  const Graph g = make_two_cliques(5);
  Rng rng(29);
  auto cfg = small_dpga(2, 2, 5000);
  cfg.ga.stall_generations = 20;
  auto init = make_random_population(g.num_vertices(), 2,
                                     cfg.ga.population_size, rng);
  const auto res = run_dpga(g, cfg, std::move(init), rng.split());
  EXPECT_LT(res.generations, 1000);
}

TEST(Dpga, ValidatesConfig) {
  const Graph g = make_grid(4, 4);
  Rng rng(31);
  auto init = make_random_population(16, 2, 8, rng);
  DpgaConfig bad = small_dpga(2, 4, 10);
  bad.ga.population_size = 4;  // 4 islands need >= 8
  EXPECT_THROW(run_dpga(g, bad, init, rng.split()), Error);
  bad = small_dpga(2, 4, 10);
  bad.migration_interval = 0;
  EXPECT_THROW(run_dpga(g, bad, init, rng.split()), Error);
}

TEST(Dpga, SingleIslandDegeneratesToPlainGa) {
  const Mesh mesh = paper_mesh(78);
  Rng rng(37);
  auto cfg = small_dpga(2, 1, 20);
  cfg.topology = TopologyKind::kIsolated;
  auto init = make_random_population(78, 2, cfg.ga.population_size, rng);
  const auto res = run_dpga(mesh.graph, cfg, std::move(init), rng.split());
  EXPECT_EQ(res.island_best_fitness.size(), 1u);
  EXPECT_EQ(res.generations, 20);
}

}  // namespace
}  // namespace gapart

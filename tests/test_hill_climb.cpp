#include "core/hill_climb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/mesh.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

Assignment random_assignment(VertexId n, PartId k, std::uint64_t seed) {
  Rng rng(seed);
  Assignment a(static_cast<std::size_t>(n));
  for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(k));
  return a;
}

using testing::fnv1a;

/// Deterministic integer-weighted graph used by the sweep goldens (integer
/// weights keep every gain computation exact, so the goldens are bitwise
/// stable across any algebraically equivalent refactor of the gain kernel).
Graph golden_weighted_graph() {
  Rng rng(777);
  GraphBuilder b(60);
  for (VertexId i = 0; i + 1 < 60; ++i) {
    b.add_edge(i, i + 1, 1.0 + rng.uniform_int(5));
  }
  for (int e = 0; e < 120; ++e) {
    const auto u = static_cast<VertexId>(rng.uniform_int(60));
    const auto v = static_cast<VertexId>(rng.uniform_int(60));
    const double w = 1.0 + rng.uniform_int(5);
    if (u != v) b.add_edge(u, v, w);
  }
  for (VertexId v = 0; v < 60; ++v) {
    b.set_vertex_weight(v, 1.0 + rng.uniform_int(3));
  }
  return b.build();
}

TEST(HillClimb, FixesSingleMisplacedVertex) {
  // Path split 0|1 with one vertex stranded on the wrong side.
  const Graph g = make_path(8);
  Assignment a = {0, 0, 0, 1, 0, 1, 1, 1};  // vertex 4 misplaced
  HillClimbOptions opt;
  const auto res = hill_climb(g, a, 2, opt);
  EXPECT_GT(res.moves, 0);
  const auto m = compute_metrics(g, a, 2);
  EXPECT_DOUBLE_EQ(m.total_cut(), 1.0);
  EXPECT_DOUBLE_EQ(m.imbalance_sq, 0.0);
}

TEST(HillClimb, MonotoneNonDecreasingFitness) {
  Rng rng(3);
  const Mesh mesh = paper_mesh(98);
  for (Objective obj : {Objective::kTotalComm, Objective::kWorstComm}) {
    for (int trial = 0; trial < 5; ++trial) {
      Assignment a(static_cast<std::size_t>(mesh.graph.num_vertices()));
      for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(4));
      HillClimbOptions opt;
      opt.fitness = {obj, 1.0};
      opt.max_passes = 10;
      const double before = evaluate_fitness(mesh.graph, a, 4, opt.fitness);
      const auto res = hill_climb(mesh.graph, a, 4, opt);
      const double after = evaluate_fitness(mesh.graph, a, 4, opt.fitness);
      EXPECT_GE(after, before);
      EXPECT_NEAR(after - before, res.fitness_gain, 1e-9);
    }
  }
}

TEST(HillClimb, StopsAtLocalOptimum) {
  const Graph g = make_two_cliques(6);
  Assignment a(12, 0);
  for (std::size_t i = 6; i < 12; ++i) a[i] = 1;  // already optimal
  HillClimbOptions opt;
  opt.max_passes = 10;
  const auto res = hill_climb(g, a, 2, opt);
  EXPECT_EQ(res.moves, 0);
  EXPECT_EQ(res.passes, 1);  // one scan that finds nothing
}

TEST(HillClimb, RespectsPassBudget) {
  Rng rng(7);
  const Mesh mesh = paper_mesh(144);
  Assignment a(static_cast<std::size_t>(mesh.graph.num_vertices()));
  for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(8));
  HillClimbOptions opt;
  opt.max_passes = 2;
  const auto res = hill_climb(mesh.graph, a, 8, opt);
  EXPECT_LE(res.passes, 2);
}

TEST(HillClimb, OnlyBoundaryVerticesConsidered) {
  // Well-separated blocks: interior vertices must not move even with many
  // passes (they are never boundary).
  const Graph g = make_grid(4, 8);
  Assignment a(32);
  for (VertexId v = 0; v < 32; ++v) {
    a[static_cast<std::size_t>(v)] = (v % 8 < 4) ? 0 : 1;
  }
  HillClimbOptions opt;
  opt.max_passes = 5;
  hill_climb(g, a, 2, opt);
  // Column 0 and column 7 vertices are interior to their parts.
  for (VertexId r = 0; r < 4; ++r) {
    EXPECT_EQ(a[static_cast<std::size_t>(r * 8)], 0);
    EXPECT_EQ(a[static_cast<std::size_t>(r * 8 + 7)], 1);
  }
}

TEST(HillClimb, StateOverloadMatchesChromosomeOverload) {
  Rng rng(11);
  const Graph g = make_grid(6, 6);
  Assignment a(36);
  for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(3));
  Assignment b = a;

  HillClimbOptions opt;
  hill_climb(g, a, 3, opt);

  PartitionState state(g, b, 3);
  hill_climb(state, opt);
  EXPECT_EQ(a, state.assignment());
}

// ---------------------------------------------------------------------------
// Sweep-mode goldens: every value below was captured from the pre-kernel
// implementation (commit a5da5d1, per-candidate neighbor_parts()+move_gain()
// probing).  Sweep mode must stay bit-identical to that behaviour — same
// passes, same moves, same accumulated gain, same final fitness and
// assignment — so the paper tables are unaffected by the refactor.
struct SweepGolden {
  std::string label;
  int passes;
  int moves;
  double fitness_gain;
  double final_fitness;
  std::uint64_t assignment_hash;
};

TEST(HillClimbGolden, SweepBitIdenticalToPreKernelImplementation) {
  const Graph g16 = make_grid(16, 16);
  const Graph g64 = make_grid(64, 64);
  const Graph gw = golden_weighted_graph();

  const auto run = [](const Graph& g, PartId k, std::uint64_t seed,
                      Objective obj, int max_passes, const SweepGolden& gold) {
    PartitionState state(g, random_assignment(g.num_vertices(), k, seed), k);
    HillClimbOptions opt;
    opt.fitness = {obj, 1.0};
    opt.max_passes = max_passes;
    const HillClimbResult res = hill_climb(state, opt);
    EXPECT_EQ(res.passes, gold.passes) << gold.label;
    EXPECT_EQ(res.moves, gold.moves) << gold.label;
    EXPECT_EQ(res.fitness_gain, gold.fitness_gain) << gold.label;  // bitwise
    EXPECT_EQ(state.fitness(opt.fitness), gold.final_fitness) << gold.label;
    EXPECT_EQ(fnv1a(state.assignment()), gold.assignment_hash) << gold.label;
  };

  // Captured by running the pre-refactor implementation on these exact
  // graphs, seeds, and options (hex-float literals are bit-exact).
  run(g16, 4, 123, Objective::kTotalComm, 10,
      {"grid16_k4_total", 5, 126, 0x1.dp+8, -0x1.7cp+8,
       0x245c7f5c9b8b7125ULL});
  run(g16, 4, 123, Objective::kWorstComm, 10,
      {"grid16_k4_worst", 2, 18, 0x1.1ap+7, -0x1.58p+7,
       0xd5c68d27687d992fULL});
  run(g64, 16, 2024, Objective::kTotalComm, 8,
      {"grid64_k16_total", 8, 2868, 0x1.718p+13, -0x1.fe8p+12,
       0xb93c10f15be2ec1bULL});
  run(gw, 5, 99, Objective::kTotalComm, 10,
      {"weighted_k5_total", 8, 53, 0x1.13p+9, -0x1.f6p+8,
       0xbe230a138b60bb0dULL});
  run(gw, 5, 99, Objective::kWorstComm, 10,
      {"weighted_k5_worst", 3, 17, 0x1.0cp+7, -0x1.76p+7,
       0x6ae0b42ae5806b9cULL});
}

// ---------------------------------------------------------------------------
// Frontier mode: same fixed-point class as sweep (no boundary vertex keeps
// an improving move), monotone, deterministic.
TEST(HillClimbFrontier, FixesSingleMisplacedVertex) {
  const Graph g = make_path(8);
  Assignment a = {0, 0, 0, 1, 0, 1, 1, 1};  // vertex 4 misplaced
  HillClimbOptions opt;
  opt.mode = HillClimbMode::kFrontier;
  const auto res = hill_climb(g, a, 2, opt);
  EXPECT_GT(res.moves, 0);
  const auto m = compute_metrics(g, a, 2);
  EXPECT_DOUBLE_EQ(m.total_cut(), 1.0);
  EXPECT_DOUBLE_EQ(m.imbalance_sq, 0.0);
}

TEST(HillClimbFrontier, ReachesLocalOptimumAndIsMonotone) {
  Rng rng(17);
  const Mesh mesh = paper_mesh(144);
  for (Objective obj : {Objective::kTotalComm, Objective::kWorstComm}) {
    for (int trial = 0; trial < 3; ++trial) {
      Assignment a(static_cast<std::size_t>(mesh.graph.num_vertices()));
      for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(6));
      HillClimbOptions opt;
      opt.fitness = {obj, 1.0};
      opt.mode = HillClimbMode::kFrontier;
      opt.max_passes = 100;  // enough to drain the worklist
      PartitionState state(mesh.graph, a, 6);
      const double before = state.fitness(opt.fitness);
      const auto res = hill_climb(state, opt);
      const double after = state.fitness(opt.fitness);
      EXPECT_GE(after, before);
      EXPECT_NEAR(after - before, res.fitness_gain, 1e-9);
      // Local optimum: no remaining boundary vertex has an improving move.
      for (const VertexId v : state.boundary_vertices()) {
        EXPECT_LT(state.best_move(v, opt.fitness, opt.min_gain).to, 0)
            << "vertex " << v << " still improvable";
      }
    }
  }
}

TEST(HillClimbFrontier, Deterministic) {
  const Graph g = make_grid(12, 12);
  const Assignment start = random_assignment(144, 5, 4242);
  HillClimbOptions opt;
  opt.mode = HillClimbMode::kFrontier;
  opt.max_passes = 50;

  Assignment a = start;
  Assignment b = start;
  const auto ra = hill_climb(g, a, 5, opt);
  const auto rb = hill_climb(g, b, 5, opt);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ra.moves, rb.moves);
  EXPECT_EQ(ra.passes, rb.passes);
  EXPECT_EQ(ra.fitness_gain, rb.fitness_gain);
}

TEST(HillClimbFrontier, NoOpOnLocalOptimum) {
  const Graph g = make_two_cliques(6);
  Assignment a(12, 0);
  for (std::size_t i = 6; i < 12; ++i) a[i] = 1;  // already optimal
  HillClimbOptions opt;
  opt.mode = HillClimbMode::kFrontier;
  opt.max_passes = 10;
  const auto res = hill_climb(g, a, 2, opt);
  EXPECT_EQ(res.moves, 0);
}

// ---------------------------------------------------------------------------
// Worklist-seeded repair: frontier mode starting from a caller-supplied
// vertex set (the damage), not the whole boundary.

// The damaged-grid generator (block partition + localized scramble) lives in
// bench_common so these fuzz tests validate exactly the regime
// bench/micro_incremental_repair measures.
using bench::DamagedGrid;
using bench::damaged_block_grid;

void expect_fixed_point(PartitionState& state, const HillClimbOptions& opt,
                        const char* label) {
  for (const VertexId v : state.boundary_vertices()) {
    EXPECT_LT(state.best_move(v, opt.fitness, opt.min_gain).to, 0)
        << label << ": vertex " << v << " still improvable";
  }
}

TEST(HillClimbSeeded, FixesDamageFromSeedsAlone) {
  const Graph g = make_path(8);
  Assignment a = {0, 0, 0, 1, 0, 1, 1, 1};  // vertex 4 misplaced
  PartitionState state(g, a, 2);
  HillClimbOptions opt;
  const std::vector<VertexId> seeds = {4};
  const auto res = hill_climb_from(state, seeds, opt);
  EXPECT_GT(res.moves, 0);
  const auto m = state.metrics();
  EXPECT_DOUBLE_EQ(0.5 * m.sum_part_cut, 1.0);
  EXPECT_DOUBLE_EQ(m.imbalance_sq, 0.0);
}

TEST(HillClimbSeeded, InteriorSeedsAreFilteredOut) {
  // Seeding from interior vertices (or an already-optimal region) is a
  // cheap no-op cascade followed by verification.
  const Graph g = make_two_cliques(6);
  Assignment a(12, 0);
  for (std::size_t i = 6; i < 12; ++i) a[i] = 1;  // already optimal
  PartitionState state(g, a, 2);
  HillClimbOptions opt;
  const std::vector<VertexId> seeds = {0, 1, 2};
  const auto res = hill_climb_from(state, seeds, opt);
  EXPECT_EQ(res.moves, 0);
  EXPECT_EQ(res.verify_rounds, 1);  // the owed fixed-point verification
}

TEST(HillClimbSeeded, SeedVertexOutOfRangeThrows) {
  const Graph g = make_path(8);
  Assignment a = {0, 0, 0, 0, 1, 1, 1, 1};
  PartitionState state(g, a, 2);
  HillClimbOptions opt;
  const std::vector<VertexId> seeds = {42};
  EXPECT_THROW(hill_climb_from(state, seeds, opt), Error);
  EXPECT_EQ(state.assignment(), a) << "state moved before the range check";
}

TEST(HillClimbSeeded, SkippingVerificationStopsAtDrainedWorklist) {
  const Graph g = make_grid(24, 24);
  const DamagedGrid d = damaged_block_grid(24, 4, 12, 7);
  PartitionState state(g, d.start, 4);
  HillClimbOptions opt;
  opt.verify_fixed_point = false;
  const auto res = hill_climb_from(state, d.damaged, opt);
  EXPECT_EQ(res.verify_rounds, 0);
  // The cascade stayed local: nowhere near one probe per vertex.
  EXPECT_LT(res.examined, static_cast<std::int64_t>(g.num_vertices()) / 2);
}

TEST(HillClimbSeeded, EmptySeedSetWithoutVerificationIsNoOp) {
  // Regression: zero seeds used to read as "unseeded" and fall through to a
  // full-boundary frontier climb — the maximum cost for zero damage.
  const Graph g = make_grid(24, 24);
  const DamagedGrid d = damaged_block_grid(24, 4, 12, 7);
  PartitionState state(g, d.start, 4);
  HillClimbOptions opt;
  opt.verify_fixed_point = false;
  const auto res = hill_climb_from(state, {}, opt);
  EXPECT_EQ(res.moves, 0);
  EXPECT_EQ(res.examined, 0);
  EXPECT_EQ(res.passes, 0);
  EXPECT_EQ(state.assignment(), d.start);

  // The no-op path still enforces option preconditions — a misconfigured
  // caller fails the same way whatever its damage set.
  opt.min_gain = 0.0;
  EXPECT_THROW(hill_climb_from(state, {}, opt), Error);
}

TEST(HillClimbSeeded, EmptySeedSetWithVerificationReachesFixedPoint) {
  // With verification on, zero seeds means "just the verification rounds":
  // same result as an unseeded frontier climb.
  const Graph g = make_grid(24, 24);
  const DamagedGrid d = damaged_block_grid(24, 4, 12, 7);
  HillClimbOptions opt;
  opt.max_passes = 100;

  PartitionState seeded(g, d.start, 4);
  const auto res = hill_climb_from(seeded, {}, opt);
  EXPECT_GT(res.moves, 0);

  opt.mode = HillClimbMode::kFrontier;
  PartitionState frontier(g, d.start, 4);
  hill_climb(frontier, opt);
  EXPECT_EQ(seeded.assignment(), frontier.assignment());
}

// Fuzz: seeded repair lands in the same fixed-point class as full-boundary
// frontier climbing (and sweep) — no boundary vertex has an improving move —
// on perturbed block partitions of meshes and grids.
class SeededRepairFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SeededRepairFuzz, SameFixedPointClassAsFullBoundaryFrontier) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const VertexId n = 20 + 4 * (GetParam() % 3);  // 20/24/28 per seed
  const PartId k = 2 + GetParam() % 4;
  const Graph g = make_grid(n, n);
  const DamagedGrid d =
      damaged_block_grid(n, k, 8 + (GetParam() % 5) * 8, seed);

  HillClimbOptions opt;
  opt.max_passes = 100;
  opt.fitness = {GetParam() % 2 ? Objective::kWorstComm
                                : Objective::kTotalComm,
                 1.0};

  PartitionState seeded(g, d.start, k);
  const double before = seeded.fitness(opt.fitness);
  const auto res_seeded = hill_climb_from(seeded, d.damaged, opt);
  EXPECT_GE(seeded.fitness(opt.fitness), before);
  EXPECT_NEAR(seeded.fitness(opt.fitness) - before, res_seeded.fitness_gain,
              1e-9);
  EXPECT_GE(res_seeded.verify_rounds, 1);  // a seeded climb owes one
  expect_fixed_point(seeded, opt, "seeded");

  HillClimbOptions frontier = opt;
  frontier.mode = HillClimbMode::kFrontier;
  PartitionState full(g, d.start, k);
  const auto res_full = hill_climb(full, frontier);
  EXPECT_GE(full.fitness(opt.fitness), before);
  EXPECT_NEAR(full.fitness(opt.fitness) - before, res_full.fitness_gain,
              1e-9);
  expect_fixed_point(full, opt, "full boundary");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededRepairFuzz, ::testing::Range(0, 12));

TEST(HillClimbSeeded, ExaminedScalesWithDamageNotGraphSize) {
  // Fixed damage, growing mesh: without verification the probe count is a
  // function of the cascade (damage-proportional), not of |V|; with
  // verification it additionally pays O(boundary) per round — still far
  // under |V|.
  constexpr int kDamage = 16;
  std::int64_t examined_small = 0;
  std::int64_t verified_small = 0;
  for (const VertexId n : {48, 96}) {
    const Graph g = make_grid(n, n);
    const DamagedGrid d = damaged_block_grid(n, 4, kDamage, 1234);
    PartitionState state(g, d.start, 4);
    HillClimbOptions opt;
    opt.verify_fixed_point = false;
    const auto res = hill_climb_from(state, d.damaged, opt);

    PartitionState verified(g, d.start, 4);
    HillClimbOptions vopt;
    const auto vres = hill_climb_from(verified, d.damaged, vopt);
    // Verification pays O(boundary) = O(k * sqrt(V)) per round — far below
    // one probe per vertex even on the small grid.
    EXPECT_LT(vres.examined, static_cast<std::int64_t>(g.num_vertices()) / 3)
        << "verification should cost O(boundary), not O(V)";
    expect_fixed_point(verified, vopt, "verified");

    if (n == 48) {
      examined_small = res.examined;
      verified_small = vres.examined;
    } else {
      // 4x the vertices must not mean 4x the probes: the seed cascade
      // tracks the damage (2x slack for boundary-shape noise), and the
      // verified climb tracks the boundary (2x the side length, well under
      // the 4x vertex ratio).
      EXPECT_LE(res.examined, 2 * examined_small + 16)
          << "small=" << examined_small << " large=" << res.examined;
      EXPECT_LE(vres.examined, 3 * verified_small)
          << "small=" << verified_small << " large=" << vres.examined;
    }
  }
}

// ---------------------------------------------------------------------------
// Strong guarantee of the chromosome overload: a failed precondition must
// not leave the caller's assignment moved-from.
TEST(HillClimb, ChromosomeOverloadStrongGuarantee) {
  const Graph g = make_grid(4, 4);
  Assignment genes(16, 0);
  for (std::size_t i = 8; i < 16; ++i) genes[i] = 1;
  const Assignment original = genes;

  HillClimbOptions opt;
  opt.max_passes = 0;  // invalid: needs at least one pass
  EXPECT_THROW(hill_climb(g, genes, 2, opt), Error);
  EXPECT_EQ(genes, original) << "genes moved-from after options failure";

  opt.max_passes = 4;
  genes[3] = 9;  // invalid part id for k = 2
  const Assignment bad = genes;
  EXPECT_THROW(hill_climb(g, genes, 2, opt), Error);
  EXPECT_EQ(genes, bad) << "genes moved-from after assignment failure";
  genes = original;

  opt.mode = HillClimbMode::kFrontier;
  opt.min_gain = 0.0;  // invalid in frontier mode
  EXPECT_THROW(hill_climb(g, genes, 2, opt), Error);
  EXPECT_EQ(genes, original) << "genes moved-from after min_gain failure";

  // And the happy path still works after all those failures.
  opt.min_gain = 1e-9;
  EXPECT_NO_THROW(hill_climb(g, genes, 2, opt));
}

// ---------------------------------------------------------------------------
// Gain-ordered frontier: hot (disturbed-neighbour) bucket before cold
// (just-moved) bucket.  Different move order, same fixed-point class.

TEST(HillClimbGainOrdered, ReachesSameFixedPointClassAsPlainFrontier) {
  Rng rng(0x90d);
  const Mesh mesh = paper_mesh(144);
  for (Objective obj : {Objective::kTotalComm, Objective::kWorstComm}) {
    for (int trial = 0; trial < 3; ++trial) {
      Assignment start(static_cast<std::size_t>(mesh.graph.num_vertices()));
      for (auto& p : start) p = static_cast<PartId>(rng.uniform_int(5));

      HillClimbOptions opt;
      opt.fitness = {obj, 1.0};
      opt.mode = HillClimbMode::kFrontier;
      opt.max_passes = 100;
      opt.gain_ordered = true;

      PartitionState state(mesh.graph, start, 5);
      const double before = state.fitness(opt.fitness);
      const auto res = hill_climb(state, opt);
      const double after = state.fitness(opt.fitness);
      EXPECT_GE(after, before);
      EXPECT_NEAR(after - before, res.fitness_gain, 1e-9);
      // Fixed point: no boundary vertex has an improving move — exactly the
      // guarantee plain frontier and sweep give.
      for (const VertexId v : state.boundary_vertices()) {
        EXPECT_LT(state.best_move(v, opt.fitness, opt.min_gain).to, 0)
            << "vertex " << v << " still improvable";
      }
    }
  }
}

TEST(HillClimbGainOrdered, Deterministic) {
  const Graph g = make_grid(12, 12);
  const Assignment start = random_assignment(144, 5, 777);
  HillClimbOptions opt;
  opt.mode = HillClimbMode::kFrontier;
  opt.gain_ordered = true;
  opt.max_passes = 50;

  Assignment a = start;
  Assignment b = start;
  const auto ra = hill_climb(g, a, 5, opt);
  const auto rb = hill_climb(g, b, 5, opt);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ra.moves, rb.moves);
  EXPECT_EQ(ra.examined, rb.examined);
  EXPECT_EQ(ra.fitness_gain, rb.fitness_gain);
}

TEST(HillClimbGainOrdered, OffIsBitIdenticalToPlainFrontier) {
  // gain_ordered=false must leave frontier mode exactly as before — both
  // enqueue paths feed the same single bucket.
  const Graph g = make_grid(10, 10);
  const Assignment start = random_assignment(100, 4, 4141);
  HillClimbOptions plain;
  plain.mode = HillClimbMode::kFrontier;
  plain.max_passes = 50;
  HillClimbOptions off = plain;
  off.gain_ordered = false;

  Assignment a = start;
  Assignment b = start;
  const auto ra = hill_climb(g, a, 4, plain);
  const auto rb = hill_climb(g, b, 4, off);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ra.moves, rb.moves);
  EXPECT_EQ(ra.examined, rb.examined);
  EXPECT_EQ(ra.passes, rb.passes);
}

TEST(HillClimbGainOrdered, ComposesWithSeededRepair) {
  const bench::DamagedGrid d = bench::damaged_block_grid(24, 4, 40, 0x5eed);
  const Graph g = make_grid(24, 24);
  HillClimbOptions opt;
  opt.gain_ordered = true;
  opt.max_passes = 50;
  PartitionState state(g, d.start, 4);
  const double before = state.fitness(opt.fitness);
  const auto res = hill_climb_from(state, d.damaged, opt);
  EXPECT_GE(state.fitness(opt.fitness), before);
  EXPECT_GT(res.moves, 0);
  for (const VertexId v : state.boundary_vertices()) {
    EXPECT_LT(state.best_move(v, opt.fitness, opt.min_gain).to, 0);
  }
}

TEST(HillClimb, WorstCommObjectiveReducesMaxCut) {
  Rng rng(13);
  const Mesh mesh = paper_mesh(144);
  Assignment a(static_cast<std::size_t>(mesh.graph.num_vertices()));
  for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(4));
  const double before = compute_metrics(mesh.graph, a, 4).max_part_cut;
  HillClimbOptions opt;
  opt.fitness = {Objective::kWorstComm, 1.0};
  opt.max_passes = 20;
  hill_climb(mesh.graph, a, 4, opt);
  const auto m = compute_metrics(mesh.graph, a, 4);
  EXPECT_LT(m.max_part_cut + m.imbalance_sq, before + 1.0);
}

}  // namespace
}  // namespace gapart

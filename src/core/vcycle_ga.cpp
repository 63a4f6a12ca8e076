#include "core/vcycle_ga.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "core/eval.hpp"
#include "core/ga_engine.hpp"
#include "core/hill_climb.hpp"
#include "core/init.hpp"

namespace gapart {

namespace {

/// Swap perturbation applied to the non-verbatim quotient seeds of the
/// combine's GA.
constexpr double kSeedSwapFraction = 0.1;
/// Pass budget of the frontier climbs that replace the combine's GA when the
/// quotient exceeds CombineOptions::max_quotient_vertices.
constexpr int kFallbackHillClimbPasses = 2;
/// Adaptive depth: stop evolving on the way up once a level's relative
/// fitness improvement (|gain| / |fitness|) drops below this.
constexpr double kStagnationImprovement = 1e-4;
/// Seeded-repair uncoarsening: budgeted verification rounds after the
/// projected-boundary cascade drains (hill_climb_from semantics), and the
/// smallest gain a move must make.
constexpr int kRefineVerifyPasses = 4;
constexpr double kRefineMinGain = 1e-9;

/// Labels the connected components of the agreement subgraph: an edge (u, v)
/// belongs to it iff both parents put u and v in the same part.  Along any
/// agreement path both parents are therefore constant, so each component has
/// a single well-defined part in `a` AND in `b` — the precondition for the
/// quotient projections below.  Returns the component count.
VertexId agreement_clusters(const Graph& g, const Assignment& a,
                            const Assignment& b,
                            std::vector<VertexId>& labels) {
  const VertexId n = g.num_vertices();
  labels.assign(static_cast<std::size_t>(n), -1);
  std::vector<VertexId> stack;
  VertexId count = 0;
  for (VertexId s = 0; s < n; ++s) {
    if (labels[static_cast<std::size_t>(s)] != -1) continue;
    labels[static_cast<std::size_t>(s)] = count;
    stack.push_back(s);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId u : g.neighbors(v)) {
        if (labels[static_cast<std::size_t>(u)] != -1) continue;
        if (a[static_cast<std::size_t>(u)] == a[static_cast<std::size_t>(v)] &&
            b[static_cast<std::size_t>(u)] == b[static_cast<std::size_t>(v)]) {
          labels[static_cast<std::size_t>(u)] = count;
          stack.push_back(u);
        }
      }
    }
    ++count;
  }
  return count;
}

}  // namespace

CombineJob combine_partitions(const Graph& g, PartId num_parts,
                              const FitnessParams& fitness,
                              const CombineOptions& options,
                              const Assignment& a, const Assignment& b,
                              Rng& rng) {
  GAPART_REQUIRE(is_valid_assignment(g, a, num_parts),
                 "combine parent a invalid for ", num_parts, " parts");
  GAPART_REQUIRE(is_valid_assignment(g, b, num_parts),
                 "combine parent b invalid for ", num_parts, " parts");
  const VertexId n = g.num_vertices();

  // What the job reads: owned through the job, not by the engine.
  struct Quotient {
    std::vector<VertexId> labels;
    CoarseLevel level;
    Assignment qa;
    Assignment qb;
    std::vector<Assignment> initial;
    Rng rng;
  };
  const auto q = std::make_shared<Quotient>();
  const VertexId nc = agreement_clusters(g, a, b, q->labels);
  q->level = contract_clusters(g, q->labels, nc);

  // Quotient projections: constant per cluster by construction, and — with
  // summed vertex weights and merged inter-cluster edges — of exactly the
  // fine cut, part weights, and fitness.
  q->qa.resize(static_cast<std::size_t>(nc));
  q->qb.resize(static_cast<std::size_t>(nc));
  for (VertexId v = 0; v < n; ++v) {
    const auto c =
        static_cast<std::size_t>(q->labels[static_cast<std::size_t>(v)]);
    q->qa[c] = a[static_cast<std::size_t>(v)];
    q->qb[c] = b[static_cast<std::size_t>(v)];
  }
  const double fa = evaluate_fitness(q->level.graph, q->qa, num_parts, fitness);
  const double fb = evaluate_fitness(q->level.graph, q->qb, num_parts, fitness);
  const bool a_better = fa >= fb;

  HillClimbOptions hc;
  hc.fitness = fitness;
  hc.mode = HillClimbMode::kFrontier;
  hc.max_passes = kFallbackHillClimbPasses;

  if (nc > options.max_quotient_vertices) {
    // The parents disagree too broadly for a GA-sized quotient: climb both
    // projections instead.  Monotone, so neither child is worse than its
    // parent.
    return [q, hc, num_parts, a_better](Assignment& child1,
                                        Assignment& child2) {
      GAPART_SPAN("vcycle.combine");
      Assignment ca = q->qa;
      Assignment cb = q->qb;
      hill_climb(q->level.graph, ca, num_parts, hc);
      hill_climb(q->level.graph, cb, num_parts, hc);
      child1 = project_assignment(a_better ? ca : cb, q->labels);
      child2 = project_assignment(a_better ? cb : ca, q->labels);
    };
  }

  GaConfig cfg;
  cfg.num_parts = num_parts;
  cfg.fitness = fitness;
  cfg.population_size = std::max(4, options.population);
  cfg.elite_count = std::min(2, cfg.population_size - 1);
  cfg.crossover = CrossoverOp::kDknux;
  cfg.max_generations = options.max_generations;
  cfg.stall_generations = options.stall_generations;
  cfg.hill_climb_offspring = true;
  q->initial = make_mixed_population({q->qa, q->qb}, cfg.population_size,
                                     kSeedSwapFraction, rng);
  q->rng = rng.split();
  return [q, cfg, hc, num_parts, a_better](Assignment& child1,
                                           Assignment& child2) {
    GAPART_SPAN("vcycle.combine");
    // Serial on purpose: the job already runs beside the generation's other
    // combine jobs on the pool — no nested fan-out.
    const GaResult res = run_ga(q->level.graph, cfg, q->initial, q->rng);
    child1 = project_assignment(res.best, q->labels);

    // Second child: the better parent's climbed quotient projection — cheap
    // diversity that is still never worse than that parent.
    Assignment climbed = a_better ? q->qa : q->qb;
    hill_climb(q->level.graph, climbed, num_parts, hc);
    child2 = project_assignment(climbed, q->labels);
  };
}

GaConfig::CombineFn make_quotient_combine(const Graph& g, PartId num_parts,
                                          FitnessParams fitness,
                                          CombineOptions options) {
  return [&g, num_parts, fitness, options](const Assignment& a,
                                           const Assignment& b, Rng& rng) {
    return combine_partitions(g, num_parts, fitness, options, a, b, rng);
  };
}

namespace {

/// Moves `state` onto `target` through the delta path (keeps every
/// maintained metric consistent; O(diff * deg)).
void adopt_assignment(PartitionState& state, const Assignment& target) {
  const VertexId n = state.graph().num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const PartId to = target[static_cast<std::size_t>(v)];
    if (state.part_of(v) != to) state.move(v, to);
  }
}

/// The upward sweep shared by vcycle_ga_partition and vcycle_ga_refine:
/// per-level (adaptive) evolution followed by seeded frontier repair, driven
/// through the shared uncoarsening loop.  Appends level reports and
/// evaluation counts to `result`.
Assignment ascend(const Graph& g, const CoarsenHierarchy& hierarchy,
                  Assignment coarse, const VcycleGaOptions& options, Rng& rng,
                  Executor* executor, VcycleGaResult& result) {
  const PartId k = options.dpga.ga.num_parts;
  const FitnessParams params = options.dpga.ga.fitness;
  bool evolve_more = true;

  const LevelRefiner refiner = [&](PartitionState& state, std::size_t level) {
    (void)level;
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return;
    }
    GAPART_SPAN("vcycle.level");
    const Graph& lg = state.graph();
    const EvalContext eval(lg, k, params, executor);
    eval.count_full();  // the driver's O(V+E) state construction

    VcycleLevelReport report;
    report.vertices = lg.num_vertices();
    report.fitness_before = state.fitness(params);

    // Ascending evolution: a small elitist GA seeded with the incumbent —
    // never worse than the projection it starts from — using the
    // quotient-graph combine as its crossover.  Stops for the rest of the
    // ascent once the relative improvement stagnates (the coarse levels are
    // where recombination pays; fine levels are refinement territory).
    if (evolve_more && lg.num_vertices() <= options.max_evolve_vertices) {
      GaConfig cfg = options.dpga.ga;
      cfg.population_size = std::max(4, options.level_population);
      cfg.elite_count = std::clamp(cfg.elite_count, 1,
                                   cfg.population_size - 1);
      cfg.max_generations = options.level_max_generations;
      cfg.stall_generations = options.level_stall;
      cfg.knux_reference.reset();
      cfg.crossover = CrossoverOp::kCombine;
      cfg.combine = make_quotient_combine(lg, k, params, options.combine);
      auto initial = make_seeded_population(
          state.assignment(), cfg.population_size, /*swap_fraction=*/0.08,
          rng);
      const GaResult res =
          run_ga(lg, cfg, std::move(initial), rng.split(), executor);
      result.full_evaluations += res.full_evaluations;
      result.delta_evaluations += res.delta_evaluations;
      if (res.best_fitness > report.fitness_before) {
        adopt_assignment(state, res.best);
      }
      report.evolved = true;
      ++result.evolved_levels;
      const double gain = std::max(0.0, res.best_fitness -
                                            report.fitness_before);
      const double rel =
          gain / std::max(1e-12, std::abs(report.fitness_before));
      if (rel < kStagnationImprovement) {
        evolve_more = false;
        result.adaptive_stop = true;
      }
    }

    // Seeded frontier repair: the worklist starts from the level's boundary
    // (where projection artifacts live), cascades in O(damage), and the
    // budgeted verification rounds restore the sweep fixed-point class.
    HillClimbOptions hc;
    hc.max_passes = kRefineVerifyPasses;
    hc.min_gain = kRefineMinGain;
    hc.gain_ordered = true;
    hc.verify_fixed_point = true;
    hc.cancel = options.cancel;
    const HillClimbResult climb =
        hill_climb_from(eval, state, state.boundary_vertices(), hc);
    report.climb_moves = climb.moves;
    report.fitness_after = state.fitness(params);
    result.full_evaluations += eval.full_evaluations();
    result.delta_evaluations += eval.delta_evaluations();
    result.level_reports.push_back(report);
  };

  // The coarsest solution already comes out of the DPGA (whose offspring are
  // climbed); refinement starts at the first prolongation.
  return uncoarsen_with_refinement(g, hierarchy, std::move(coarse), k,
                                   refiner, /*refine_coarsest=*/false);
}

}  // namespace

VcycleGaResult vcycle_ga_partition(const Graph& g,
                                   const VcycleGaOptions& options, Rng& rng,
                                   Executor* executor) {
  const PartId k = options.dpga.ga.num_parts;
  GAPART_REQUIRE(k >= 1, "need at least one part");
  GAPART_REQUIRE(g.num_vertices() >= k, "fewer vertices than parts");
  WallTimer timer;
  VcycleGaResult result;

  const VertexId target =
      std::max<VertexId>(k * options.coarse_vertices_per_part, 2 * k);
  const CoarsenHierarchy hierarchy = coarsen_to(g, target, rng);
  const Graph& coarsest = hierarchy.coarsest(g);
  result.levels = static_cast<int>(hierarchy.num_levels());
  result.coarsest_vertices = coarsest.num_vertices();

  auto initial = make_random_population(coarsest.num_vertices(), k,
                                        options.dpga.ga.population_size, rng);
  const DpgaResult ga =
      run_dpga(coarsest, options.dpga, std::move(initial), rng.split(),
               executor);
  result.full_evaluations += ga.full_evaluations;
  result.delta_evaluations += ga.delta_evaluations;
  result.evolved_levels = 1;

  result.assignment =
      ascend(g, hierarchy, ga.best, options, rng, executor, result);
  result.metrics = compute_metrics(g, result.assignment, k);
  result.fitness = fitness_from_metrics(result.metrics, options.dpga.ga.fitness);
  result.wall_seconds = timer.seconds();
  return result;
}

VcycleGaResult vcycle_ga_refine(const Graph& g, const Assignment& seed,
                                const VcycleGaOptions& options, Rng& rng,
                                Executor* executor) {
  const PartId k = options.dpga.ga.num_parts;
  const FitnessParams params = options.dpga.ga.fitness;
  GAPART_REQUIRE(is_valid_assignment(g, seed, k), "seed invalid for ", k,
                 " parts");
  WallTimer timer;
  VcycleGaResult result;

  const VertexId target =
      std::max<VertexId>(k * options.coarse_vertices_per_part, 2 * k);
  // Partition-respecting matching: the seed is constant on every coarse
  // vertex at every level, so it projects onto the coarsest graph with
  // exactly its fine fitness.
  const CoarsenHierarchy hierarchy = coarsen_to(g, target, rng, &seed);
  const Graph& coarsest = hierarchy.coarsest(g);
  result.levels = static_cast<int>(hierarchy.num_levels());
  result.coarsest_vertices = coarsest.num_vertices();

  Assignment coarse_seed(static_cast<std::size_t>(coarsest.num_vertices()));
  const auto flat = hierarchy.flatten_map(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    coarse_seed[static_cast<std::size_t>(flat[static_cast<std::size_t>(v)])] =
        seed[static_cast<std::size_t>(v)];
  }

  auto initial =
      make_seeded_population(coarse_seed, options.dpga.ga.population_size,
                             /*swap_fraction=*/0.08, rng);
  const DpgaResult ga =
      run_dpga(coarsest, options.dpga, std::move(initial), rng.split(),
               executor);
  result.full_evaluations += ga.full_evaluations;
  result.delta_evaluations += ga.delta_evaluations;
  result.evolved_levels = 1;

  result.assignment =
      ascend(g, hierarchy, ga.best, options, rng, executor, result);
  result.metrics = compute_metrics(g, result.assignment, k);
  result.fitness = fitness_from_metrics(result.metrics, params);

  // Every stage is monotone and the quotient invariant is exact for integer
  // weights; with fractional vertex weights the imbalance term can round, so
  // never hand back anything below the seed.
  const double seed_fitness = evaluate_fitness(g, seed, k, params);
  if (result.fitness < seed_fitness) {
    result.assignment = seed;
    result.metrics = compute_metrics(g, seed, k);
    result.fitness = seed_fitness;
  }
  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace gapart

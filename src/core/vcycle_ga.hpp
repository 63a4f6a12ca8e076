// Multilevel evolutionary engine: a V-cycle GA with quotient-graph combine
// and seeded-repair uncoarsening.
//
// The paper's conclusion prescribes "a prior graph contraction step" for
// graphs beyond its experiments; the contracted GA (core/contracted_ga.hpp)
// does exactly that once — coarsen, evolve at the bottom, project up with KL.
// This engine closes the loop into a V-cycle (KaFFPa lineage):
//
//   coarsen   build a CoarsenHierarchy by heavy-edge matching (graph/coarsen)
//             — vertex weights add and parallel edges merge, so coarse
//             fitness equals fine fitness exactly at every level;
//   evolve    run the paper's DPGA on the coarsest graph, then — while the
//             level fits the evolution budget and fitness keeps improving —
//             keep evolving on the way up with small GAs seeded from the
//             current solution, using the quotient-graph combine crossover
//             (overlay two parents' cuts, contract the regions they agree
//             on, re-partition the small quotient, project back);
//   uncoarsen each prolongation seeds a frontier repair climb
//             (hill_climb_from machinery) from the projected boundary: the
//             cascade costs O(boundary damage), and the verification rounds
//             restore the sweep fixed-point class.
//
// Evolution depth is adaptive (Preen & Smith's multilevel GA observation):
// ascending GAs stop as soon as a level's relative improvement falls below
// a fixed 1e-4 (kStagnationImprovement in vcycle_ga.cpp) — coarse levels are
// where recombination pays; fine levels are refinement territory.
//
// vcycle_ga_refine is the incremental entry point: the hierarchy is built
// with partition-RESPECTING matching (only same-part vertices merge), so a
// live session's assignment projects onto every level with exactly its fine
// fitness, every stage is monotone (elitist GAs seeded with the incumbent,
// monotone climbs, exact projections), and the result is never worse than
// the seed.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/executor.hpp"
#include "common/rng.hpp"
#include "core/dpga.hpp"
#include "core/ga_engine.hpp"
#include "core/presets.hpp"
#include "graph/coarsen.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"

namespace gapart {

/// Budget of the quotient-graph combine operator (one crossover invocation
/// runs a whole small GA, so the budget must stay modest).
struct CombineOptions {
  /// Population of the quotient GA; both parents' projections seed it, so
  /// elitism guarantees the first child is never worse than either parent.
  int population = 24;
  int max_generations = 40;
  int stall_generations = 8;
  /// When the parents disagree so broadly that the quotient exceeds this,
  /// skip the GA: both quotient projections are frontier-climbed instead
  /// (still monotone, still cheap — the climb is O(quotient boundary)).
  VertexId max_quotient_vertices = 4096;
};

/// The KaFFPaE-style combine: contract the clusters on which `a` and `b`
/// agree (connected components of the edges whose endpoints share a part in
/// BOTH parents), evolve the quotient, and project the winners back.
/// child1 is the quotient GA's best (>= the better parent, by elitism);
/// child2 is the better parent's climbed quotient projection (diversity at
/// no extra full-evaluation cost).  Both children are valid k-partitions.
///
/// This call is the serial prepare: it checks the parents, builds the
/// quotient and its projections, and makes every draw from `rng` (the
/// quotient GA's seed population and split stream; the oversized-quotient
/// fallback draws nothing).  The returned job runs the quotient GA and the
/// climbs and writes both children; it owns its quotient and stream and
/// references only `g`, so a GA generation's jobs can run side by side.
CombineJob combine_partitions(const Graph& g, PartId num_parts,
                              const FitnessParams& fitness,
                              const CombineOptions& options,
                              const Assignment& a, const Assignment& b,
                              Rng& rng);

/// Packages combine_partitions as the GaConfig::combine callback for
/// crossover == CrossoverOp::kCombine.  `g` is captured by reference and
/// must outlive the returned callable and every job it returns.
GaConfig::CombineFn make_quotient_combine(const Graph& g, PartId num_parts,
                                          FitnessParams fitness,
                                          CombineOptions options = {});

struct VcycleGaOptions {
  /// Coarsening stops near num_parts * coarse_vertices_per_part vertices.
  VertexId coarse_vertices_per_part = 40;
  /// The coarsest-level search: the paper's DPGA, verbatim.
  DpgaConfig dpga;
  /// Budget of the quotient-graph combine, the crossover of the ascending
  /// per-level GAs.
  CombineOptions combine;

  /// Ascending evolution budget: levels larger than this are refine-only.
  VertexId max_evolve_vertices = 16384;
  /// Per-level GA budget (population is per level, not the paper's 320 —
  /// these runs are seeded with the incumbent and only polish it).
  int level_population = 32;
  int level_max_generations = 30;
  int level_stall = 6;

  /// Cooperative cancellation, checked between levels and threaded into the
  /// climbs: progress made so far is kept (monotone).  Non-owning.
  const std::atomic<bool>* cancel = nullptr;

  VcycleGaOptions() : dpga(paper_dpga_config(2, Objective::kTotalComm)) {}
};

/// What happened at one level of the upward sweep (index 0 = coarsest
/// prolongation recorded first; the finest graph is last).
struct VcycleLevelReport {
  VertexId vertices = 0;
  bool evolved = false;          ///< an ascending GA ran at this level
  double fitness_before = 0.0;   ///< after projection, before any work
  double fitness_after = 0.0;
  int climb_moves = 0;
};

struct VcycleGaResult {
  Assignment assignment;
  double fitness = 0.0;
  PartitionMetrics metrics;
  int levels = 0;                ///< hierarchy depth
  int evolved_levels = 0;        ///< levels (incl. coarsest) a GA ran on
  VertexId coarsest_vertices = 0;
  bool adaptive_stop = false;    ///< ascent stopped on stagnation, not size
  std::vector<VcycleLevelReport> level_reports;
  std::int64_t full_evaluations = 0;
  std::int64_t delta_evaluations = 0;
  double wall_seconds = 0.0;
};

/// Partition from scratch: coarsen, evolve the coarsest graph with the
/// DPGA, then uncoarsen with per-level evolution + seeded frontier repair.
VcycleGaResult vcycle_ga_partition(const Graph& g,
                                   const VcycleGaOptions& options, Rng& rng,
                                   Executor* executor = nullptr);

/// Refine an existing partition through a V-cycle: the hierarchy respects
/// `seed` (only same-part vertices are matched), so the seed projects onto
/// every level with exactly its fine fitness and every stage is monotone —
/// the result's fitness is >= the seed's.  This is the deep-refinement tier
/// the partition service routes large sessions to.
VcycleGaResult vcycle_ga_refine(const Graph& g, const Assignment& seed,
                                const VcycleGaOptions& options, Rng& rng,
                                Executor* executor = nullptr);

}  // namespace gapart

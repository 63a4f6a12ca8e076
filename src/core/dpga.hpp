// DPGA — the paper's coarse-grained distributed-population genetic
// algorithm (§3.4).
//
// The total population is split into subpopulations ("islands"), one GaEngine
// each; crossover only ever recombines members of the same subpopulation.
// Every migration_interval generations each island sends copies of its best
// individuals to its topology neighbours (paper: 16 subpopulations on a
// 4-dimensional hypercube), which replace the receivers' worst members.
//
// Islands are stepped serially or as work items ("island bursts") on the
// caller's persistent Executor — no per-burst thread fork/join.  Results are
// bit-identical between the two modes: every island owns an independent RNG
// stream, and migration is applied in fixed island order after the epoch
// barrier — mirroring a deterministic message-passing (MPI-style) exchange.
// With a single island the pool is handed to the engine instead, which then
// batch-evaluates its offspring on it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/executor.hpp"
#include "core/ga_engine.hpp"
#include "core/topology.hpp"

namespace gapart {

struct DpgaConfig {
  int num_islands = 16;  ///< paper: 16 subpopulations
  TopologyKind topology = TopologyKind::kHypercube;
  int migration_interval = 5;      ///< generations between exchanges
  int migrants_per_exchange = 1;   ///< best-k individuals sent per neighbour
  /// Per-island GA settings.  ga.population_size is the TOTAL population
  /// (paper: 320); each island receives population_size / num_islands.
  GaConfig ga;
};

struct DpgaResult {
  Assignment best;
  double best_fitness = 0.0;
  PartitionMetrics best_metrics;
  /// Global best-so-far per generation (max across islands).
  std::vector<GenerationStats> history;
  int generations = 0;            ///< per-island generations executed
  std::int64_t evaluations = 0;   ///< summed across islands (full + delta)
  std::int64_t full_evaluations = 0;
  std::int64_t delta_evaluations = 0;
  std::vector<double> island_best_fitness;
  double wall_seconds = 0.0;
};

/// Runs the DPGA.  `initial` chromosomes are dealt round-robin to islands;
/// they are cycled if fewer than the total population.  `executor`
/// (optional, non-owning) runs the island bursts — or, for one island, the
/// engine's offspring evaluation; when null every island steps serially on
/// the calling thread.  Results are identical either way.
DpgaResult run_dpga(const Graph& g, const DpgaConfig& config,
                    std::vector<Assignment> initial, Rng rng,
                    Executor* executor = nullptr);

}  // namespace gapart

// Shared infrastructure for the experiment harnesses (one binary per table /
// figure of the paper).
//
// Conventions (paper §4): the GA is the DPGA with total population 320, 16
// subpopulations on a 4-D hypercube, p_c = 0.7, p_m = 0.01; tables report the
// BEST of 5 runs, figures the MEAN of 5 runs.  Tables 1-3 report sum_q C(q)/2
// under Fitness1; Tables 4-6 report max_q C(q) under Fitness2.
//
// Every harness honours:
//   --runs=N --gens=N --stall=N --quick  (flags)
//   GAPART_QUICK=1                        (environment, same as --quick)
// Quick mode shrinks runs/generations so the full bench sweep smoke-tests in
// seconds; headline numbers should be produced in default mode.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/dpga.hpp"
#include "core/presets.hpp"
#include "graph/mesh.hpp"
#include "graph/partition.hpp"

namespace gapart::bench {

/// Harness-wide run settings parsed from CLI + environment.
struct RunSettings {
  int runs = 5;
  int max_generations = 0;  ///< 0: per-harness default
  int stall_generations = 0;
  bool quick = false;
  /// §3.6 hill climbing on offspring.  The incremental harnesses (Tables
  /// 3/6) enable it by default — on the regenerated meshes the paper's
  /// incremental results are only reachable with the §3.6 step; the other
  /// tables reproduce with the pure GA and leave it off (see EXPERIMENTS.md).
  bool hill_climb = false;
  double hill_climb_fraction = 0.25;
  std::uint64_t base_seed = 0x9a94;

  /// Parses flags; `default_gens`/`default_stall`/`default_hill_climb`
  /// apply when --gens / --stall / --hc are absent.
  static RunSettings from_cli(const CliArgs& args, int default_gens,
                              int default_stall,
                              bool default_hill_climb = false);
};

/// How the GA population is initialized for a run.
using InitFactory = std::function<std::vector<Assignment>(Rng&)>;

/// One cell of a paper table: best-of-N-runs DPGA outcome.
struct CellResult {
  double total_cut = 0.0;     ///< sum C(q)/2 of the best run
  double max_part_cut = 0.0;  ///< max C(q) of the best run
  double imbalance_sq = 0.0;
  double best_fitness = 0.0;
  double mean_total_cut = 0.0;     ///< across runs
  double mean_max_part_cut = 0.0;  ///< across runs
  double seconds = 0.0;            ///< total wall time of all runs
  int generations = 0;             ///< of the best run
};

/// Runs `settings.runs` independent DPGA runs (seeds derived from
/// settings.base_seed ^ salt) and keeps the best by fitness.
CellResult best_of_runs(const Graph& g, const DpgaConfig& config,
                        const InitFactory& init, const RunSettings& settings,
                        std::uint64_t salt);

/// Paper-parameter DPGA config with the harness's generation budget applied.
DpgaConfig harness_dpga_config(PartId num_parts, Objective objective,
                               const RunSettings& settings);

/// Convenience init factories.
InitFactory random_init(const Graph& g, PartId num_parts, int population);
InitFactory seeded_init(const Assignment& seed, int population,
                        double swap_fraction = 0.1);
InitFactory incremental_init(const Graph& grown, const Assignment& previous,
                             PartId num_parts, int population,
                             double swap_fraction = 0.08);

/// Contiguous block partition of an n x n grid with `damage` vertices
/// scrambled inside a window around the grid centre — the localized-update
/// regime shared by the seeded-repair fuzz tests and
/// bench/micro_incremental_repair (one definition so the tests validate
/// exactly the regime the bench measures).
struct DamagedGrid {
  Assignment start;
  std::vector<VertexId> damaged;  ///< the scrambled vertices
};
DamagedGrid damaged_block_grid(VertexId n, PartId k, int damage,
                               std::uint64_t seed);

/// Column-band partition of a row-major rows x cols grid (vertex r*cols+c in
/// the band of its column).  Appended rows cross every band boundary, which
/// is what makes it the canonical start for growth-trace experiments — the
/// service tests and the benches share this one definition.
Assignment column_bands(VertexId rows, VertexId cols, PartId k);

/// Formats a paper-vs-measured pair like "63 / 58.0".
std::string paper_vs(double paper_value, double measured);

/// Prints the standard harness banner (what is being reproduced, settings).
void print_banner(const std::string& title, const std::string& paper_ref,
                  const RunSettings& settings);

}  // namespace gapart::bench

// Multilevel-engine microbench: V-cycle GA vs flat GA at equal wall-clock,
// plus a million-vertex end-to-end partition + delta-repair row.
//
// Four question sets, emitted as JSON for the BENCH_multilevel.json
// trajectory:
//
//   equal_wallclock: on n x n grids, run the V-cycle engine to completion,
//             then give a flat DPGA-style GA (random init, DKNUX, offspring
//             hill climbing) the same wall-clock budget on the same mesh.
//             The acceptance claim — the V-cycle's cut beats the flat GA's
//             at >= 512^2 — is recorded per row as "vcycle_beats_flat".
//
//   end_to_end: partition a 1000 x 1000 grid (10^6 vertices) with the
//             V-cycle, grow it by appended rows, and repair the live state
//             with repair_step — the full partition-then-evolve lifecycle at
//             a scale the flat GA cannot touch.
//
//   pooled_refine: vcycle_ga_refine of a fixed-seed vcycle_ga_partition on
//             an n x n grid (k = 8) with the session's deep-tier budgets
//             (SessionConfig().deep_vcycle), at pool widths 1, 2 and 4 — the
//             per-level GAs run their quotient combines on the pool, so the
//             width changes the time and never the fitness.
//
//   coarsen:  coarsen_to of an n x n grid to the V-cycle's coarsening
//             target at k = 8 (VcycleGaOptions().coarse_vertices_per_part
//             per part), without and with a respected partition (k = 8
//             column bands, as a deep-tier refinement coarsens); the levels,
//             the coarsest size and the median seconds per call.
//
//   ./bench/micro_multilevel [--quick] > multilevel.json
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/ga_engine.hpp"
#include "core/graph_delta.hpp"
#include "core/incremental.hpp"
#include "core/init.hpp"
#include "core/presets.hpp"
#include "core/vcycle_ga.hpp"
#include "graph/coarsen.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/session.hpp"

namespace {

using namespace gapart;

VcycleGaOptions bench_vcycle_options(PartId k) {
  VcycleGaOptions opt;
  opt.dpga = paper_dpga_config(k, Objective::kTotalComm);
  opt.dpga.ga.max_generations = 60;
  opt.dpga.ga.stall_generations = 12;
  opt.max_evolve_vertices = 4096;
  opt.level_population = 24;
  opt.level_max_generations = 15;
  opt.level_stall = 4;
  return opt;
}

struct WallclockRow {
  VertexId n = 0;
  PartId k = 0;
  int levels = 0;
  int evolved_levels = 0;
  double vcycle_seconds = 0.0;
  double vcycle_cut = 0.0;
  double vcycle_imbalance = 0.0;
  double flat_seconds = 0.0;
  double flat_cut = 0.0;
  int flat_generations = 0;
  bool vcycle_beats_flat = false;
};

WallclockRow bench_equal_wallclock(VertexId n, PartId k) {
  WallclockRow row;
  row.n = n;
  row.k = k;
  const Graph g = make_grid(n, n);

  Rng rng(0x5C1994 ^ static_cast<std::uint64_t>(n));
  const VcycleGaResult res = vcycle_ga_partition(g, bench_vcycle_options(k), rng);
  row.levels = res.levels;
  row.evolved_levels = res.evolved_levels;
  row.vcycle_seconds = res.wall_seconds;
  row.vcycle_cut = res.metrics.total_cut();
  row.vcycle_imbalance = res.metrics.imbalance_sq;

  // The flat GA gets at least the V-cycle's budget on the same mesh.  A
  // smaller population than the paper's 320 keeps generations cheap at this
  // |V| — the flat GA's best configuration for a fixed wall-clock.
  const double budget = std::max(row.vcycle_seconds, 1.0);
  GaConfig flat = paper_ga_config(k, Objective::kTotalComm);
  flat.population_size = 64;
  flat.hill_climb_offspring = true;
  Rng frng(0x5C1994 ^ static_cast<std::uint64_t>(n));
  auto initial =
      make_random_population(g.num_vertices(), k, flat.population_size, frng);
  GaEngine engine(g, flat, std::move(initial), frng.split());
  WallTimer timer;
  while (timer.seconds() < budget) engine.step();
  row.flat_seconds = timer.seconds();
  row.flat_generations = engine.generation();
  row.flat_cut = engine.best().metrics.total_cut();
  row.vcycle_beats_flat = row.vcycle_cut < row.flat_cut;
  return row;
}

struct EndToEndRow {
  VertexId n = 0;
  VertexId vertices = 0;
  std::int64_t edges = 0;
  PartId k = 0;
  int levels = 0;
  int evolved_levels = 0;
  double partition_seconds = 0.0;
  double cut = 0.0;
  double imbalance = 0.0;
  VertexId grow_rows = 0;
  VertexId damage = 0;
  double repair_seconds = 0.0;
  double repaired_cut = 0.0;
};

EndToEndRow bench_end_to_end(VertexId n, VertexId grow_rows, PartId k) {
  EndToEndRow row;
  row.n = n;
  row.k = k;
  row.grow_rows = grow_rows;
  const Graph g = make_grid(n, n);
  row.vertices = g.num_vertices();
  row.edges = g.num_edges();

  Rng rng(0xE2E ^ static_cast<std::uint64_t>(n));
  const VcycleGaResult res = vcycle_ga_partition(g, bench_vcycle_options(k), rng);
  row.levels = res.levels;
  row.evolved_levels = res.evolved_levels;
  row.partition_seconds = res.wall_seconds;
  row.cut = res.metrics.total_cut();
  row.imbalance = res.metrics.imbalance_sq;

  // Grow by appended rows and repair the live state with repair_step, the
  // session's per-delta repair (four verification rounds at most, whatever
  // the clock).  repair_seconds times the step alone, not the state build.
  const Graph grown = make_grid(n + grow_rows, n);
  PartitionState state(g, res.assignment, k);
  const RepairReport rep =
      repair_step(state, grown, diff_graphs(g, grown), {},
                  /*max_verify_rounds=*/4,
                  std::numeric_limits<double>::infinity());
  row.repair_seconds = rep.seconds;
  row.damage = rep.damage;
  row.repaired_cut = state.total_cut();
  return row;
}

struct PooledRefineRow {
  VertexId n = 0;
  PartId k = 0;
  int threads = 0;
  int calls = 0;
  double median_seconds = 0.0;
  double fitness = 0.0;
};

std::vector<PooledRefineRow> bench_pooled_refine(VertexId n, PartId k,
                                                 int calls) {
  const Graph g = make_grid(n, n);
  const SessionConfig session;
  VcycleGaOptions opt = session.deep_vcycle;
  opt.dpga.ga.num_parts = k;
  opt.dpga.ga.fitness = session.fitness;
  Rng seed_rng(0xDEE9 ^ static_cast<std::uint64_t>(n));
  const Assignment seed = vcycle_ga_partition(g, opt, seed_rng).assignment;

  std::vector<PooledRefineRow> rows;
  for (const int threads : {1, 2, 4}) {
    Executor pool(threads);
    PooledRefineRow row;
    row.n = n;
    row.k = k;
    row.threads = threads;
    row.calls = calls;
    std::vector<double> seconds;
    for (int c = 0; c < calls; ++c) {
      Rng rng(0x5EED);  // every call refines the same seed the same way
      WallTimer timer;
      const VcycleGaResult res = vcycle_ga_refine(g, seed, opt, rng, &pool);
      seconds.push_back(timer.seconds());
      row.fitness = res.fitness;
    }
    row.median_seconds = median(seconds);
    rows.push_back(row);
  }
  return rows;
}

struct CoarsenRow {
  const char* op = "";
  VertexId n = 0;
  PartId k = 0;
  int levels = 0;
  VertexId coarsest_vertices = 0;
  int calls = 0;
  double median_seconds = 0.0;
};

std::vector<CoarsenRow> bench_coarsen(VertexId n, PartId k, int calls) {
  const Graph g = make_grid(n, n);
  const Assignment bands = bench::column_bands(n, n, k);
  const VertexId target = k * VcycleGaOptions().coarse_vertices_per_part;
  std::vector<CoarsenRow> rows;
  for (const Assignment* respect : {static_cast<const Assignment*>(nullptr),
                                    &bands}) {
    CoarsenRow row;
    row.op = respect == nullptr ? "coarsen_to" : "coarsen_to_respect";
    row.n = n;
    row.k = k;
    row.calls = calls;
    std::vector<double> seconds;
    for (int c = 0; c < calls; ++c) {
      Rng rng(0xC0A2);  // every call builds the same hierarchy
      WallTimer timer;
      const CoarsenHierarchy h = coarsen_to(g, target, rng, respect);
      seconds.push_back(timer.seconds());
      row.levels = static_cast<int>(h.num_levels());
      row.coarsest_vertices = h.coarsest(g).num_vertices();
    }
    row.median_seconds = median(seconds);
    rows.push_back(row);
  }
  return rows;
}

void emit_json(const std::vector<WallclockRow>& wallclock,
               const std::vector<EndToEndRow>& end_to_end,
               const std::vector<PooledRefineRow>& pooled_refine,
               const std::vector<CoarsenRow>& coarsen) {
  bool all_beat = true;
  for (const WallclockRow& r : wallclock) all_beat &= r.vcycle_beats_flat;
  std::printf("{\n");
  std::printf("  \"bench\": \"micro_multilevel\",\n");
  std::printf("  \"vcycle_beats_flat\": %s,\n", all_beat ? "true" : "false");
  std::printf("  \"equal_wallclock\": [\n");
  for (std::size_t i = 0; i < wallclock.size(); ++i) {
    const WallclockRow& r = wallclock[i];
    std::printf(
        "    {\"n\": %d, \"k\": %d, \"levels\": %d, \"evolved_levels\": %d, "
        "\"vcycle_seconds\": %.3f, \"vcycle_cut\": %.0f, "
        "\"vcycle_imbalance\": %.1f, \"flat_seconds\": %.3f, "
        "\"flat_cut\": %.0f, \"flat_generations\": %d, "
        "\"vcycle_beats_flat\": %s}%s\n",
        static_cast<int>(r.n), static_cast<int>(r.k), r.levels,
        r.evolved_levels, r.vcycle_seconds, r.vcycle_cut, r.vcycle_imbalance,
        r.flat_seconds, r.flat_cut, r.flat_generations,
        r.vcycle_beats_flat ? "true" : "false",
        i + 1 < wallclock.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"end_to_end\": [\n");
  for (std::size_t i = 0; i < end_to_end.size(); ++i) {
    const EndToEndRow& r = end_to_end[i];
    std::printf(
        "    {\"n\": %d, \"vertices\": %d, \"edges\": %lld, \"k\": %d, "
        "\"levels\": %d, \"evolved_levels\": %d, "
        "\"partition_seconds\": %.3f, \"cut\": %.0f, \"imbalance\": %.1f, "
        "\"grow_rows\": %d, \"damage\": %d, \"repair_seconds\": %.3f, "
        "\"repaired_cut\": %.0f}%s\n",
        static_cast<int>(r.n), static_cast<int>(r.vertices),
        static_cast<long long>(r.edges), static_cast<int>(r.k), r.levels,
        r.evolved_levels, r.partition_seconds, r.cut, r.imbalance,
        static_cast<int>(r.grow_rows), static_cast<int>(r.damage),
        r.repair_seconds, r.repaired_cut,
        i + 1 < end_to_end.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"pooled_refine\": [\n");
  for (std::size_t i = 0; i < pooled_refine.size(); ++i) {
    const PooledRefineRow& r = pooled_refine[i];
    std::printf(
        "    {\"n\": %d, \"k\": %d, \"threads\": %d, \"calls\": %d, "
        "\"median_seconds\": %.4f, \"fitness\": %.17g}%s\n",
        static_cast<int>(r.n), static_cast<int>(r.k), r.threads, r.calls,
        r.median_seconds, r.fitness,
        i + 1 < pooled_refine.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"coarsen\": [\n");
  for (std::size_t i = 0; i < coarsen.size(); ++i) {
    const CoarsenRow& r = coarsen[i];
    std::printf(
        "    {\"op\": \"%s\", \"n\": %d, \"k\": %d, \"levels\": %d, "
        "\"coarsest_vertices\": %d, \"calls\": %d, "
        "\"median_seconds\": %.4f}%s\n",
        r.op, static_cast<int>(r.n), static_cast<int>(r.k), r.levels,
        static_cast<int>(r.coarsest_vertices), r.calls, r.median_seconds,
        i + 1 < coarsen.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.flag("quick") || quick_mode_enabled();

  const std::vector<VertexId> sizes = quick ? std::vector<VertexId>{64, 128}
                                            : std::vector<VertexId>{256, 512};
  std::vector<WallclockRow> wallclock;
  for (const VertexId n : sizes) {
    wallclock.push_back(bench_equal_wallclock(n, 8));
  }

  std::vector<EndToEndRow> end_to_end;
  end_to_end.push_back(
      bench_end_to_end(quick ? 256 : 1000, /*grow_rows=*/4, 8));

  const std::vector<PooledRefineRow> pooled_refine =
      bench_pooled_refine(quick ? 128 : 256, 8, /*calls=*/7);

  std::vector<CoarsenRow> coarsen;
  for (const VertexId n : quick ? std::vector<VertexId>{256}
                                : std::vector<VertexId>{256, 1000}) {
    for (const CoarsenRow& row : bench_coarsen(n, 8, quick ? 3 : 7)) {
      coarsen.push_back(row);
    }
  }

  emit_json(wallclock, end_to_end, pooled_refine, coarsen);
  for (const auto& unused : args.unused()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", unused.c_str());
  }
  return 0;
}

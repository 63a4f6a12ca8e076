// Local-search throughput microbench: the hill-climb / KL hot path.
//
// Measures moves/second and passes/second of sweep-mode hill climbing and a
// capped KL refinement across mesh sizes and part counts, emitting JSON so
// the BENCH_local_search.json trajectory can track the boundary-driven
// refinement work:
//   ./bench/micro_local_search [--seconds=1.0] [--quick] > local_search.json
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/kl.hpp"
#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/hill_climb.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace {

using namespace gapart;

/// How the initial assignment is produced.  `kRandom` is the GA-offspring
/// regime (boundary covers most of the mesh); `kPerturbed` is the
/// refinement / incremental-repartitioning regime: contiguous blocks with 2%
/// of vertices scrambled, so the boundary stays a thin front.
enum class StartKind { kRandom, kPerturbed };

struct Case {
  VertexId rows = 0;
  VertexId cols = 0;
  PartId k = 2;
  Objective objective = Objective::kTotalComm;
  StartKind start = StartKind::kRandom;
};

struct Row {
  std::string name;
  Case c;
  int reps = 0;
  std::int64_t moves = 0;
  std::int64_t passes = 0;
  double seconds = 0.0;
  double final_fitness = 0.0;

  double moves_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(moves) / seconds : 0.0;
  }
  double passes_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(passes) / seconds : 0.0;
  }
};

Assignment start_assignment(const Graph& g, PartId k, StartKind start,
                            std::uint64_t salt) {
  const VertexId n = g.num_vertices();
  Rng rng(0x5eed0000ULL ^ salt);
  Assignment a(static_cast<std::size_t>(n));
  if (start == StartKind::kRandom) {
    for (auto& p : a) p = static_cast<PartId>(rng.uniform_int(k));
    return a;
  }
  for (VertexId v = 0; v < n; ++v) {
    a[static_cast<std::size_t>(v)] = static_cast<PartId>(
        std::min<std::int64_t>(k - 1, static_cast<std::int64_t>(v) * k / n));
  }
  const int flips = std::max(1, static_cast<int>(n) / 50);  // 2% damage
  for (int i = 0; i < flips; ++i) {
    a[static_cast<std::size_t>(rng.uniform_int(n))] =
        static_cast<PartId>(rng.uniform_int(k));
  }
  return a;
}

std::uint64_t case_salt(const Case& c) {
  return static_cast<std::uint64_t>(c.rows) * 1000003ULL +
         static_cast<std::uint64_t>(c.k) * 101ULL +
         (c.objective == Objective::kWorstComm ? 7ULL : 0ULL) +
         (c.start == StartKind::kPerturbed ? 13ULL : 0ULL);
}

/// Repeats full hill climbs from the same start assignment until the budget
/// is spent; state construction stays outside the timed region.
Row bench_hill_climb(const Graph& g, const Case& c, HillClimbMode mode,
                     double budget, bool gain_ordered = false) {
  Row row;
  row.name = mode != HillClimbMode::kFrontier ? "hill_climb_sweep"
             : gain_ordered                   ? "hill_climb_frontier_ordered"
                                              : "hill_climb_frontier";
  row.c = c;
  const Assignment start = start_assignment(g, c.k, c.start, case_salt(c));
  HillClimbOptions opt;
  opt.fitness = {c.objective, 1.0};
  opt.mode = mode;
  opt.gain_ordered = gain_ordered;
  opt.max_passes = 50;

  double elapsed = 0.0;
  while (elapsed < budget || row.reps == 0) {
    PartitionState state(g, start, c.k);
    WallTimer timer;
    const HillClimbResult res = hill_climb(state, opt);
    elapsed += timer.seconds();
    row.moves += res.moves;
    row.passes += res.passes;
    row.final_fitness = state.fitness(opt.fitness);
    ++row.reps;
  }
  row.seconds = elapsed;
  return row;
}

/// KL with a per-pass move cap (full KL is quadratic in |V| and would drown
/// the bench); reported as moves applied per second of refinement.
Row bench_kl(const Graph& g, const Case& c, double budget) {
  Row row;
  row.name = "kl_capped";
  row.c = c;
  const Assignment start = start_assignment(g, c.k, c.start, case_salt(c));
  KlOptions opt;
  opt.fitness = {c.objective, 1.0};
  opt.max_passes = 1;
  opt.max_moves_per_pass = 128;

  double elapsed = 0.0;
  while (elapsed < budget || row.reps == 0) {
    PartitionState state(g, start, c.k);
    WallTimer timer;
    const KlResult res = kl_refine(state, opt);
    elapsed += timer.seconds();
    row.moves += res.moves_applied;
    row.passes += res.passes;
    row.final_fitness = state.fitness(opt.fitness);
    ++row.reps;
  }
  row.seconds = elapsed;
  return row;
}

void emit_json(const std::vector<Row>& rows) {
  std::printf("{\n");
  std::printf("  \"bench\": \"micro_local_search\",\n");
  std::printf("  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::printf(
        "    {\"name\": \"%s\", \"rows\": %d, \"cols\": %d, \"k\": %d, "
        "\"objective\": \"%s\", \"start\": \"%s\", \"reps\": %d, "
        "\"moves\": %lld, \"passes\": %lld, \"seconds\": %.4f, "
        "\"moves_per_sec\": %.1f, \"passes_per_sec\": %.1f, "
        "\"final_fitness\": %.6f}%s\n",
        r.name.c_str(), static_cast<int>(r.c.rows), static_cast<int>(r.c.cols),
        static_cast<int>(r.c.k),
        r.c.objective == Objective::kTotalComm ? "total_comm" : "worst_comm",
        r.c.start == StartKind::kPerturbed ? "perturbed" : "random", r.reps,
        static_cast<long long>(r.moves), static_cast<long long>(r.passes),
        r.seconds, r.moves_per_sec(), r.passes_per_sec(), r.final_fitness,
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.flag("quick") || quick_mode_enabled();
  const double budget = args.real("seconds", quick ? 0.1 : 1.0);

  std::vector<Case> cases = {
      {32, 32, 4, Objective::kTotalComm, StartKind::kRandom},
      {64, 64, 16, Objective::kTotalComm, StartKind::kRandom},
      {64, 64, 16, Objective::kWorstComm, StartKind::kRandom},
      {64, 64, 16, Objective::kTotalComm, StartKind::kPerturbed},
      {64, 64, 16, Objective::kWorstComm, StartKind::kPerturbed},
  };
  if (!quick) {
    cases.push_back({128, 128, 16, Objective::kTotalComm, StartKind::kRandom});
    cases.push_back(
        {128, 128, 16, Objective::kTotalComm, StartKind::kPerturbed});
  }

  std::vector<Row> rows;
  for (const Case& c : cases) {
    const Graph g = make_grid(c.rows, c.cols);
    rows.push_back(bench_hill_climb(g, c, HillClimbMode::kSweep, budget));
    rows.push_back(bench_hill_climb(g, c, HillClimbMode::kFrontier, budget));
    rows.push_back(bench_hill_climb(g, c, HillClimbMode::kFrontier, budget,
                                    /*gain_ordered=*/true));
    if (c.rows <= 32) rows.push_back(bench_kl(g, c, budget));
  }

  emit_json(rows);
  return 0;
}

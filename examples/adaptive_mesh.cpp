// Adaptive-refinement scenario — the paper's incremental-partitioning use
// case end to end.
//
// A solver runs on a partitioned mesh; between time steps the mesh is
// refined in a localized region (a moving front, a shock, a crack tip), and
// the partition must be updated.  Re-partitioning from scratch is wasteful
// and churns data placement; the paper's answer is to seed the GA with the
// previous partition (§3.5).  This example simulates several refinement
// steps and compares, at every step:
//   - incremental DKNUX (the previous partition, repaired by repair_step,
//     seeds the GA),
//   - from-scratch RSB on the refined mesh,
//   - the deterministic majority-assignment strawman from §5,
// reporting cut quality, balance, and how much of the old data placement
// each method preserves (vertices that stay on their part).
//
//   $ ./adaptive_mesh [--steps=4] [--base=150] [--extra=30] [--parts=8]
#include <cstdio>
#include <limits>

#include "gapart.hpp"

using namespace gapart;

namespace {

/// Fraction of surviving vertices whose part did not change, after greedily
/// matching the new labels to the old ones (a from-scratch partitioner
/// names its parts arbitrarily; without matching its stability would be
/// understated).
double placement_stability(const Assignment& before, const Assignment& after,
                           PartId parts) {
  // overlap[p][q]: surviving vertices moving from old part p to new part q.
  std::vector<std::vector<std::size_t>> overlap(
      static_cast<std::size_t>(parts),
      std::vector<std::size_t>(static_cast<std::size_t>(parts), 0));
  for (std::size_t v = 0; v < before.size(); ++v) {
    ++overlap[static_cast<std::size_t>(before[v])]
             [static_cast<std::size_t>(after[v])];
  }
  // Greedy maximum matching of labels by descending overlap.
  std::vector<char> old_used(static_cast<std::size_t>(parts), 0);
  std::vector<char> new_used(static_cast<std::size_t>(parts), 0);
  std::size_t matched = 0;
  for (PartId round = 0; round < parts; ++round) {
    std::size_t best = 0;
    PartId bp = -1;
    PartId bq = -1;
    for (PartId p = 0; p < parts; ++p) {
      if (old_used[static_cast<std::size_t>(p)]) continue;
      for (PartId q = 0; q < parts; ++q) {
        if (new_used[static_cast<std::size_t>(q)]) continue;
        if (overlap[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)] >=
            best) {
          best = overlap[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)];
          bp = p;
          bq = q;
        }
      }
    }
    old_used[static_cast<std::size_t>(bp)] = 1;
    new_used[static_cast<std::size_t>(bq)] = 1;
    matched += best;
  }
  return before.empty()
             ? 1.0
             : static_cast<double>(matched) / static_cast<double>(before.size());
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int steps = args.integer("steps", 4);
  const auto base_nodes = static_cast<VertexId>(args.integer("base", 150));
  const auto extra = static_cast<VertexId>(args.integer("extra", 30));
  const auto parts = static_cast<PartId>(args.integer("parts", 8));
  const int gens = args.integer("gens", 250);

  Rng rng(0xAD);
  const Domain domain(DomainShape::kRectangle);
  Mesh mesh = generate_mesh(domain, base_nodes, rng);
  std::printf("initial mesh: %s — %d refinement steps of +%d nodes, %d parts\n\n",
              mesh.graph.summary().c_str(), steps, extra, parts);

  // Initial partition: GA from a random start.
  DpgaConfig config = paper_dpga_config(parts, Objective::kTotalComm);
  config.ga.max_generations = gens;
  auto init = make_random_population(mesh.graph.num_vertices(), parts,
                                     config.ga.population_size, rng);
  Assignment current =
      run_dpga(mesh.graph, config, std::move(init), rng.split()).best;
  std::printf("step 0: total cut %.0f\n\n",
              compute_metrics(mesh.graph, current, parts).total_cut());

  TextTable table({"step", "|V|", "method", "total cut", "imbalance",
                   "stability", "sec"});
  for (int step = 1; step <= steps; ++step) {
    const Mesh refined = densify_mesh(mesh, domain, extra, rng);
    const Graph& g = refined.graph;

    // (a) incremental: repair_step on the live state of the old mesh
    // (greedy extension -> rebind -> worklist-seeded repair), then the
    // DKNUX DPGA seeded with the repaired solution (§3.5).  densify_mesh
    // re-triangulates, so survivors near the refinement disc get rewired:
    // diff_graphs gives the exact damage (appended range + perturbed
    // survivors) and the repair's worklist starts from precisely those
    // vertices.
    const GraphDelta delta = diff_graphs(mesh.graph, g);
    PartitionState state(mesh.graph, current, parts);
    const RepairReport rep =
        repair_step(state, g, delta, config.ga.fitness,
                    /*max_verify_rounds=*/4,
                    std::numeric_limits<double>::infinity());
    auto seeded = make_seeded_population(
        state.assignment(), config.ga.population_size,
        /*swap_fraction=*/0.08, rng);
    // The repaired solution is in the first population verbatim and the
    // DPGA reports its best-so-far, so dpga.best is never worse than it.
    const DpgaResult dpga = run_dpga(g, config, std::move(seeded), rng.split());
    const auto m_ga = compute_metrics(g, dpga.best, parts);
    const double ga_sec = rep.seconds + dpga.wall_seconds;

    std::printf("step %d damage: %d of %d vertices (%d new, %zu rewired)\n",
                step, static_cast<int>(rep.damage),
                static_cast<int>(g.num_vertices()),
                static_cast<int>(delta.num_new(g)), delta.touched_old.size());
    std::printf(
        "  repair  fitness %10.1f  extended %4d  moves %5d  examined %6lld  "
        "verify rounds %d  %.4fs\n",
        rep.fitness_after, rep.extend_moves, rep.repair_moves,
        static_cast<long long>(rep.examined), rep.verify_rounds, rep.seconds);
    std::printf(
        "  dpga    fitness %10.1f  generations %4d  evals %8lld  %.3fs\n",
        dpga.best_fitness, dpga.generations,
        static_cast<long long>(dpga.evaluations), dpga.wall_seconds);

    // (b) RSB from scratch.
    WallTimer t_rsb;
    const Assignment rsb = rsb_partition(g, parts, rng);
    const auto m_rsb = compute_metrics(g, rsb, parts);
    const double rsb_sec = t_rsb.seconds();

    // (c) greedy majority assignment (§5 strawman).
    WallTimer t_greedy;
    const Assignment greedy = greedy_incremental_assign(g, current, parts);
    const auto m_greedy = compute_metrics(g, greedy, parts);
    const double greedy_sec = t_greedy.seconds();

    auto add = [&](const char* name, const PartitionMetrics& m,
                   const Assignment& a, double sec) {
      table.start_row();
      table.append(static_cast<long long>(step));
      table.append(static_cast<long long>(g.num_vertices()));
      table.append(name);
      table.append(m.total_cut(), 0);
      table.append(m.imbalance_sq, 1);
      table.append(
          format_double(100.0 * placement_stability(current, a, parts), 0) +
          "%");
      table.append(sec, 2);
    };
    add("incremental DKNUX", m_ga, dpga.best, ga_sec);
    add("RSB from scratch", m_rsb, rsb, rsb_sec);
    add("greedy majority", m_greedy, greedy, greedy_sec);
    table.add_rule();

    mesh = refined;
    current = dpga.best;  // the solver continues on the GA's partition
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Read: the incremental GA keeps cut quality competitive with\n"
      "from-scratch RSB while preserving most of the existing data\n"
      "placement (high stability = little migration between steps);\n"
      "the greedy strawman preserves placement perfectly but lets load\n"
      "imbalance grow with every localized refinement.\n");
  return 0;
}

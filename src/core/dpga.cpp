#include "core/dpga.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "common/assert.hpp"
#include "common/timer.hpp"

namespace gapart {

DpgaResult run_dpga(const Graph& g, const DpgaConfig& config,
                    std::vector<Assignment> initial, Rng rng,
                    Executor* executor) {
  GAPART_REQUIRE(config.num_islands >= 1, "need at least one island");
  GAPART_REQUIRE(config.migration_interval >= 1,
                 "migration interval must be >= 1");
  GAPART_REQUIRE(config.migrants_per_exchange >= 0,
                 "migrant count must be >= 0");
  GAPART_REQUIRE(!initial.empty(), "initial population must not be empty");
  GAPART_REQUIRE(config.ga.population_size >= 2 * config.num_islands,
                 "total population ", config.ga.population_size,
                 " too small for ", config.num_islands, " islands");

  WallTimer timer;
  const auto islands = static_cast<std::size_t>(config.num_islands);
  const auto neighbors = build_topology(config.topology, config.num_islands);

  // Multi-island runs parallelize across islands (engines step serially
  // inside their burst task); a single-island run hands the pool to the
  // engine, which batch-evaluates offspring on it instead.
  const bool pool_runs_islands = executor != nullptr && islands > 1;
  Executor* engine_executor = pool_runs_islands ? nullptr : executor;

  // Deal initial chromosomes round-robin so every island sees a slice of
  // the seeds.
  std::vector<std::vector<Assignment>> island_initial(islands);
  const int island_pop = config.ga.population_size / config.num_islands;
  for (std::size_t i = 0;
       i < islands * static_cast<std::size_t>(island_pop); ++i) {
    island_initial[i % islands].push_back(initial[i % initial.size()]);
  }

  GaConfig island_cfg = config.ga;
  island_cfg.population_size = island_pop;
  // Stall handling lives at the DPGA level (global best), not per island.
  island_cfg.stall_generations = 0;

  std::vector<std::unique_ptr<GaEngine>> engines;
  engines.reserve(islands);
  for (std::size_t i = 0; i < islands; ++i) {
    engines.push_back(std::make_unique<GaEngine>(
        g, island_cfg, std::move(island_initial[i]), rng.split(),
        engine_executor));
  }

  auto global_best_fitness = [&engines]() {
    double best = engines.front()->best().fitness;
    for (const auto& e : engines) best = std::max(best, e->best().fitness);
    return best;
  };

  double best_so_far = global_best_fitness();
  int last_improvement_generation = 0;

  int generation = 0;
  while (generation < config.ga.max_generations) {
    const int burst = std::min(config.migration_interval,
                               config.ga.max_generations - generation);

    if (pool_runs_islands) {
      // Work items = island bursts on the persistent pool.
      std::vector<std::function<void()>> tasks;
      tasks.reserve(islands);
      for (auto& engine : engines) {
        tasks.push_back([&engine, burst]() {
          for (int s = 0; s < burst; ++s) engine->step();
        });
      }
      executor->run_tasks(tasks);
    } else {
      for (auto& engine : engines) {
        for (int s = 0; s < burst; ++s) engine->step();
      }
    }
    generation += burst;

    // Migration: island i sends copies of its best-k individuals to every
    // topology neighbour.  Snapshot the outgoing migrants first so the
    // exchange is order-independent.
    if (config.migrants_per_exchange > 0) {
      std::vector<std::vector<Assignment>> outbox(islands);
      for (std::size_t i = 0; i < islands; ++i) {
        auto pop = engines[i]->population();  // copy
        std::sort(pop.begin(), pop.end(),
                  [](const Individual& a, const Individual& b) {
                    return a.fitness > b.fitness;
                  });
        const auto k = std::min<std::size_t>(
            static_cast<std::size_t>(config.migrants_per_exchange),
            pop.size());
        for (std::size_t m = 0; m < k; ++m) {
          outbox[i].push_back(pop[m].genes);
        }
      }
      for (std::size_t i = 0; i < islands; ++i) {
        for (int nb : neighbors[i]) {
          for (const auto& migrant : outbox[i]) {
            engines[static_cast<std::size_t>(nb)]->inject(migrant);
          }
        }
      }
    }

    const double now_best = global_best_fitness();
    if (now_best > best_so_far + 1e-12) {
      best_so_far = now_best;
      last_improvement_generation = generation;
    }
    if (config.ga.stall_generations > 0 &&
        generation - last_improvement_generation >=
            config.ga.stall_generations) {
      break;
    }
  }

  // Combine results.
  DpgaResult result;
  result.generations = generation;
  std::size_t best_island = 0;
  for (std::size_t i = 0; i < islands; ++i) {
    result.full_evaluations += engines[i]->full_evaluations();
    result.delta_evaluations += engines[i]->delta_evaluations();
    result.island_best_fitness.push_back(engines[i]->best().fitness);
    if (engines[i]->best().fitness > engines[best_island]->best().fitness) {
      best_island = i;
    }
  }
  result.evaluations = result.full_evaluations + result.delta_evaluations;
  const GaResult island_result = engines[best_island]->result();
  result.best = island_result.best;
  result.best_fitness = island_result.best_fitness;
  result.best_metrics = island_result.best_metrics;

  // Global per-generation history: entry g is the best island entry at g.
  std::size_t max_len = 0;
  for (const auto& e : engines) {
    max_len = std::max(max_len, e->history().size());
  }
  for (std::size_t gen = 0; gen < max_len; ++gen) {
    const GenerationStats* best_entry = nullptr;
    double mean_acc = 0.0;
    int mean_count = 0;
    for (const auto& e : engines) {
      const auto& h = e->history();
      const auto& entry = gen < h.size() ? h[gen] : h.back();
      if (best_entry == nullptr ||
          entry.best_fitness > best_entry->best_fitness) {
        best_entry = &entry;
      }
      mean_acc += entry.mean_fitness;
      ++mean_count;
    }
    GenerationStats s = *best_entry;
    s.generation = static_cast<int>(gen);
    s.mean_fitness = mean_acc / static_cast<double>(mean_count);
    result.history.push_back(s);
  }

  result.wall_seconds = timer.seconds();
  return result;
}

}  // namespace gapart

#include "core/ga_engine.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/mutation.hpp"

namespace gapart {

namespace {

/// Flip budget for the clone delta path as a fraction of |V|; children whose
/// mutation flips more genes fall back to a full evaluation.  At the paper's
/// p_m = 0.01 the budget is never exceeded in practice.
constexpr double kDeltaEvalMaxFlipFraction = 0.1;

}  // namespace

GaEngine::GaEngine(const Graph& g, const GaConfig& config,
                   std::vector<Assignment> initial, Rng rng,
                   Executor* executor)
    : config_(config),
      eval_(g, config.num_parts, config.fitness, executor),
      rng_(rng) {
  GAPART_REQUIRE(config_.population_size >= 2,
                 "population must hold at least 2 individuals");
  GAPART_REQUIRE(config_.num_parts >= 1, "need at least one part");
  GAPART_REQUIRE(config_.crossover_rate >= 0.0 &&
                     config_.crossover_rate <= 1.0,
                 "crossover rate out of [0,1]");
  GAPART_REQUIRE(config_.mutation_rate >= 0.0 && config_.mutation_rate <= 1.0,
                 "mutation rate out of [0,1]");
  GAPART_REQUIRE(config_.elite_count >= 0 &&
                     config_.elite_count < config_.population_size,
                 "elite count must be in [0, population)");
  GAPART_REQUIRE(config_.crossover != CrossoverOp::kCombine ||
                     static_cast<bool>(config_.combine),
                 "crossover == kCombine needs a combine callback");
  GAPART_REQUIRE(!initial.empty(), "initial population must not be empty");
  for (const auto& genes : initial) {
    GAPART_REQUIRE(is_valid_assignment(g, genes, config_.num_parts),
                   "initial chromosome invalid for ", config_.num_parts,
                   " parts");
  }

  population_.resize(static_cast<std::size_t>(config_.population_size));
  for (int i = 0; i < config_.population_size; ++i) {
    population_[static_cast<std::size_t>(i)].genes =
        initial[static_cast<std::size_t>(i) % initial.size()];
  }
  auto evaluate_member = [this](std::size_t i) {
    Individual& ind = population_[i];
    ind.fitness = eval_.evaluate_with_metrics(ind.genes, ind.metrics);
    ind.evaluated = true;
  };
  if (Executor* pool = eval_.executor()) {
    pool->parallel_for(population_.size(), evaluate_member);
  } else {
    for (std::size_t i = 0; i < population_.size(); ++i) evaluate_member(i);
  }

  best_ever_ = *std::max_element(
      population_.begin(), population_.end(),
      [](const Individual& a, const Individual& b) {
        return a.fitness < b.fitness;
      });

  // Initial KNUX reference: an explicitly supplied heuristic estimate
  // (§3.2), or the best member of the seed population (for seeded runs this
  // is the seed itself).  DKNUX keeps updating it; static KNUX keeps it
  // fixed unless overridden via set_knux_reference().
  if (config_.knux_reference.has_value()) {
    GAPART_REQUIRE(
        is_valid_assignment(g, *config_.knux_reference, config_.num_parts),
        "configured KNUX reference invalid for ", config_.num_parts,
        " parts");
    knux_reference_ = *config_.knux_reference;
  } else {
    knux_reference_ = best_ever_.genes;
  }

  record_stats();
}

void GaEngine::set_knux_reference(Assignment reference) {
  GAPART_REQUIRE(is_valid_assignment(eval_.graph(), reference,
                                     config_.num_parts),
                 "reference invalid for ", config_.num_parts, " parts");
  knux_reference_ = std::move(reference);
}

void GaEngine::inject(const Assignment& migrant) {
  GAPART_REQUIRE(is_valid_assignment(eval_.graph(), migrant,
                                     config_.num_parts),
                 "migrant invalid for ", config_.num_parts, " parts");
  Individual ind;
  ind.genes = migrant;
  ind.fitness = eval_.evaluate_with_metrics(ind.genes, ind.metrics);
  ind.evaluated = true;
  if (ind.fitness > best_ever_.fitness) {
    best_ever_ = ind;
    last_improvement_generation_ = generation_;
  }
  population_[worst_index()] = std::move(ind);
}

std::size_t GaEngine::worst_index() const {
  std::size_t worst = 0;
  for (std::size_t i = 1; i < population_.size(); ++i) {
    if (population_[i].fitness < population_[worst].fitness) worst = i;
  }
  return worst;
}

void GaEngine::finish_child(std::vector<Individual>& batch, std::size_t index,
                            const Rng& stream_base,
                            std::int32_t clone_parent) {
  Individual& ind = batch[index];
  Rng child_rng = stream_base.fork(index);
  const bool climb =
      config_.hill_climb_offspring &&
      child_rng.bernoulli(config_.hill_climb_fraction);
  if (climb) {
    point_mutation(ind.genes, config_.num_parts, config_.mutation_rate,
                   child_rng);
    // One full evaluation (state construction); the climb then maintains the
    // fitness incrementally, so no second from-scratch evaluation is needed.
    PartitionState state = eval_.make_state(std::move(ind.genes));
    HillClimbOptions hc;  // fitness params come from eval_, not hc.fitness
    hc.max_passes = config_.hill_climb_passes;
    hill_climb(eval_, state, hc);
    ind.fitness = eval_.adopt(state);
    ind.metrics = state.metrics();
    ind.genes = std::move(state).release_assignment();
  } else if (config_.delta_eval_clones && clone_parent >= 0) {
    // Cloned child: inherit the parent's O(k) metric breakdown and apply
    // the mutation flips as move deltas — no O(V+E) pass at all when the
    // flip count stays under budget.
    const auto n = static_cast<double>(eval_.graph().num_vertices());
    const auto max_flips =
        static_cast<std::int64_t>(kDeltaEvalMaxFlipFraction * n);
    ind.metrics =
        population_[static_cast<std::size_t>(clone_parent)].metrics;
    ind.fitness = eval_.mutate_clone_and_evaluate(
        ind.genes, config_.mutation_rate, child_rng, ind.metrics, max_flips);
  } else {
    ind.fitness = eval_.mutate_and_evaluate(ind.genes, config_.mutation_rate,
                                            child_rng, &ind.metrics);
  }
  ind.evaluated = true;
}

void GaEngine::step() {
  const Graph& g = eval_.graph();

  CrossoverContext ctx;
  ctx.graph = &g;
  ctx.reference = &knux_reference_;
  ctx.k_points = config_.k_points;
  ctx.knux_complementary = config_.knux_complementary;

  const Selector selector(population_, config_.selection,
                          config_.tournament_size);

  std::vector<Individual> next;
  next.reserve(static_cast<std::size_t>(config_.population_size));

  // Elitism: carry over the elite_count best individuals unchanged (their
  // cached fitness rides along; elites are never re-evaluated).
  if (config_.elite_count > 0) {
    std::vector<std::size_t> order(population_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::partial_sort(order.begin(),
                      order.begin() + config_.elite_count, order.end(),
                      [this](std::size_t a, std::size_t b) {
                        return population_[a].fitness > population_[b].fitness;
                      });
    for (int e = 0; e < config_.elite_count; ++e) {
      next.push_back(population_[order[static_cast<std::size_t>(e)]]);
    }
  }

  // Generate phase (serial): fill the offspring batch by selection and
  // crossover.  All engine-RNG consumption happens here, in a fixed order.
  const std::size_t batch_size =
      static_cast<std::size_t>(config_.population_size) - next.size();
  std::vector<Individual> batch(batch_size);
  // Which population member each child is a verbatim copy of (-1 after
  // crossover): clones can be delta-evaluated against the parent's cached
  // metrics in the evaluate phase.
  std::vector<std::int32_t> clone_parent(batch_size, -1);
  // kCombine: each prepared job with the batch slot of its first child.
  std::vector<std::pair<CombineJob, std::size_t>> jobs;
  std::vector<std::size_t> loose;  // the children no job fills
  std::size_t produced = 0;
  Assignment child1;
  Assignment child2;
  while (produced < batch_size) {
    const std::size_t ia = selector.draw(rng_);
    const std::size_t ib = selector.draw(rng_);
    const Individual& pa = population_[ia];
    const Individual& pb = population_[ib];

    std::int32_t src1 = -1;
    std::int32_t src2 = -1;
    bool by_job = false;
    if (rng_.bernoulli(config_.crossover_rate)) {
      if (config_.crossover == CrossoverOp::kCombine) {
        // The job fills both slots in the evaluate phase.
        jobs.emplace_back(config_.combine(pa.genes, pb.genes, rng_), produced);
        by_job = true;
      } else {
        apply_crossover(config_.crossover, ctx, pa.genes, pb.genes, rng_,
                        child1, child2);
      }
    } else {
      child1 = pa.genes;
      child2 = pb.genes;
      src1 = static_cast<std::int32_t>(ia);
      src2 = static_cast<std::int32_t>(ib);
    }

    clone_parent[produced] = src1;
    if (!by_job) loose.push_back(produced);
    batch[produced++].genes = std::move(child1);
    if (produced < batch_size) {
      clone_parent[produced] = src2;
      if (!by_job) loose.push_back(produced);
      batch[produced++].genes = std::move(child2);
    }
  }

  // Evaluate phase: mutate + (optional) hill-climb + evaluate every child,
  // each on its own RNG stream forked by batch index, batched on the pool
  // when one is available.  Children are independent, so the outcome is
  // bit-identical at any thread count.  Combine jobs draw nothing from
  // rng_, so they run in the same pass, each then finishing its own two
  // children: one join per generation.  They take milliseconds and vary in
  // size, so they are claimed one at a time, ahead of the loose children.
  const Rng stream_base = rng_.split();
  const auto finish = [&](std::size_t w) {
    if (w >= jobs.size()) {
      const std::size_t i = loose[w - jobs.size()];
      finish_child(batch, i, stream_base, clone_parent[i]);
      return;
    }
    const std::size_t slot = jobs[w].second;
    Assignment c1;
    Assignment c2;
    jobs[w].first(c1, c2);
    batch[slot].genes = std::move(c1);
    finish_child(batch, slot, stream_base, clone_parent[slot]);
    if (slot + 1 < batch_size) {
      batch[slot + 1].genes = std::move(c2);
      finish_child(batch, slot + 1, stream_base, clone_parent[slot + 1]);
    }
  };
  const std::size_t items = jobs.size() + loose.size();
  if (Executor* pool = eval_.executor()) {
    pool->parallel_for(items, finish, /*grain=*/jobs.empty() ? 0 : 1);
  } else {
    for (std::size_t w = 0; w < items; ++w) finish(w);
  }

  for (auto& ind : batch) next.push_back(std::move(ind));

  population_ = std::move(next);
  ++generation_;

  for (const auto& ind : population_) {
    if (ind.fitness > best_ever_.fitness) {
      best_ever_ = ind;
      last_improvement_generation_ = generation_;
    }
  }

  // DKNUX: the reference tracks the best solution in the search history.
  if (config_.crossover == CrossoverOp::kDknux) {
    knux_reference_ = best_ever_.genes;
  }

  record_stats();
}

void GaEngine::record_stats() {
  GenerationStats s;
  s.generation = generation_;
  s.best_fitness = best_ever_.fitness;
  double sum = 0.0;
  for (const auto& ind : population_) sum += ind.fitness;
  s.mean_fitness = sum / static_cast<double>(population_.size());
  // The cached breakdown rides along with best_ever_, so the per-generation
  // stats no longer cost an O(V+E) compute_metrics pass.
  s.best_total_cut = best_ever_.metrics.total_cut();
  s.best_max_part_cut = best_ever_.metrics.max_part_cut;
  history_.push_back(s);
}

bool GaEngine::stalled() const {
  return config_.stall_generations > 0 &&
         generation_ - last_improvement_generation_ >=
             config_.stall_generations;
}

GaResult GaEngine::result() const {
  GaResult r;
  r.best = best_ever_.genes;
  r.best_fitness = best_ever_.fitness;
  r.best_metrics = best_ever_.metrics;
  r.history = history_;
  r.generations = generation_;
  r.evaluations = eval_.total_evaluations();
  r.full_evaluations = eval_.full_evaluations();
  r.delta_evaluations = eval_.delta_evaluations();
  r.stalled = stalled();
  return r;
}

GaResult run_ga(const Graph& g, const GaConfig& config,
                std::vector<Assignment> initial, Rng rng,
                Executor* executor) {
  GaEngine engine(g, config, std::move(initial), rng, executor);
  while (engine.generation() < config.max_generations && !engine.stalled()) {
    engine.step();
  }
  return engine.result();
}

}  // namespace gapart

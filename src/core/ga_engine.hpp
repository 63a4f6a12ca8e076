// Single-population genetic algorithm for graph partitioning.
//
// Generational model with elitism, structured as two phases per generation:
//
//   generate : parents are drawn by the configured selection scheme; with
//              probability p_c they recombine under the configured crossover
//              operator (two children), otherwise they are cloned.  This
//              phase is serial and consumes the engine RNG, producing a batch
//              of unevaluated children.  A kCombine crossover only makes its
//              draws here; the jobs it returns fill their children in the
//              evaluate phase.
//   evaluate : the batch is mutated, optionally hill-climbed (§3.6) and
//              evaluated — in parallel on the shared Executor when one is
//              provided.  Each child owns an independent RNG stream forked by
//              batch index (Rng::fork), so results are bit-identical to the
//              serial run at any thread count.  Combine jobs run in this same
//              pass, each finishing its own two children, so a generation
//              joins the pool once.  Hill-climbed children reuse the fitness
//              their PartitionState maintained incrementally (counted as one
//              full evaluation at state construction plus one delta per
//              accepted move); un-climbed children take a fused single-pass
//              mutate+evaluate path (one full evaluation).
//
// For DKNUX the engine updates the operator's reference solution to the best
// individual found so far at every generation boundary (§3.3).
//
// The engine exposes a step() interface so the distributed-population model
// (core/dpga.hpp) can drive many engines in lockstep and migrate individuals
// between them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/executor.hpp"
#include "common/rng.hpp"
#include "core/crossover.hpp"
#include "core/eval.hpp"
#include "core/hill_climb.hpp"
#include "core/individual.hpp"
#include "core/selection.hpp"
#include "graph/partition.hpp"

namespace gapart {

/// The parallel stage of a kCombine crossover: fills both children.  Owns
/// everything it reads, so it may outlive the call that prepared it.
using CombineJob = std::function<void(Assignment& child1, Assignment& child2)>;

struct GaConfig {
  PartId num_parts = 2;
  int population_size = 320;    ///< paper: total population 320
  double crossover_rate = 0.7;  ///< paper: p_c = 0.7
  double mutation_rate = 0.01;  ///< paper: p_m = 0.01 (per gene)
  CrossoverOp crossover = CrossoverOp::kDknux;
  int k_points = 4;  ///< cut count when crossover == kKPoint
  /// Recombination callback used when crossover == kCombine (e.g. the
  /// multilevel quotient-graph combine from core/vcycle_ga.hpp, which
  /// contracts the regions the parents agree on and re-partitions the
  /// quotient).  Invoked serially in the generate phase with the engine
  /// RNG, it makes every draw the combine needs and returns the job that
  /// produces both children.  A generation's jobs run concurrently on the
  /// engine's executor, so they must not touch the engine's RNG or state;
  /// pooled runs then stay bit-identical to serial ones.  Required
  /// (non-null) when crossover == kCombine; ignored otherwise.
  using CombineFn = std::function<CombineJob(const Assignment& a,
                                             const Assignment& b, Rng& rng)>;
  CombineFn combine;
  /// KNUX/DKNUX sibling policy (see CrossoverContext::knux_complementary).
  bool knux_complementary = false;
  /// Optional explicit initial reference solution I for KNUX/DKNUX (§3.2:
  /// "an initial candidate solution I is first generated", e.g. an IBP
  /// result).  When absent, the best member of the initial population is
  /// used.  DKNUX replaces it with the best-so-far as the search proceeds.
  std::optional<Assignment> knux_reference;
  SelectionScheme selection = SelectionScheme::kTournament;
  int tournament_size = 2;
  int elite_count = 2;  ///< individuals copied unchanged each generation
  FitnessParams fitness;

  /// Stopping: hard generation cap, plus optional stall window (0 = off)
  /// counting generations without best-fitness improvement.
  int max_generations = 300;
  int stall_generations = 0;

  /// §3.6 hill climbing on offspring.
  bool hill_climb_offspring = false;
  double hill_climb_fraction = 0.25;  ///< probability a child is climbed
  int hill_climb_passes = 1;

  /// Un-climbed CLONED children (the 1 - p_c share that skip crossover)
  /// inherit their parent's cached metrics and are re-evaluated by applying
  /// the mutation flips as move deltas — O(flips * deg + k) instead of a
  /// full O(V + E) pass, counted as delta evaluations.  RNG consumption is
  /// unchanged either way; fitness values are bit-identical to the full
  /// pass when the mean part load is exactly representable (see
  /// EvalContext::mutate_clone_and_evaluate), otherwise equal to within
  /// floating-point rounding — the same guarantee hill-climbed children
  /// already get from PartitionState's incremental fitness.
  bool delta_eval_clones = true;
};

/// Per-generation statistics (drives the convergence figures).
struct GenerationStats {
  int generation = 0;
  double best_fitness = 0.0;       ///< best-ever at this generation
  double mean_fitness = 0.0;       ///< current population mean
  double best_total_cut = 0.0;     ///< sum C(q)/2 of best-ever
  double best_max_part_cut = 0.0;  ///< max C(q) of best-ever
};

struct GaResult {
  Assignment best;
  double best_fitness = 0.0;
  PartitionMetrics best_metrics;
  std::vector<GenerationStats> history;
  int generations = 0;
  /// Total evaluation count = full + delta (kept for continuity with the
  /// paper's convergence figures, which count fitness computations).
  std::int64_t evaluations = 0;
  std::int64_t full_evaluations = 0;   ///< O(V+E) from-scratch evaluations
  std::int64_t delta_evaluations = 0;  ///< O(deg) incremental updates
  bool stalled = false;  ///< true when the stall window triggered the stop
};

class GaEngine {
 public:
  /// `initial` chromosomes fill the population: cycled if fewer than
  /// population_size, truncated if more.  Must not be empty.  `executor`
  /// (optional, non-owning, must outlive the engine) runs a generation's
  /// combine jobs and batch-evaluates offspring; results are identical with
  /// or without it.
  GaEngine(const Graph& g, const GaConfig& config,
           std::vector<Assignment> initial, Rng rng,
           Executor* executor = nullptr);

  const GaConfig& config() const { return config_; }
  const Graph& graph() const { return eval_.graph(); }
  int generation() const { return generation_; }

  /// Evaluation accounting (see core/eval.hpp for full-vs-delta semantics).
  std::int64_t evaluations() const { return eval_.total_evaluations(); }
  std::int64_t full_evaluations() const { return eval_.full_evaluations(); }
  std::int64_t delta_evaluations() const { return eval_.delta_evaluations(); }

  /// The evaluation context the engine shares with its climbers.
  const EvalContext& eval_context() const { return eval_; }

  const std::vector<Individual>& population() const { return population_; }

  /// Best individual discovered over the whole run (not only the current
  /// population).
  const Individual& best() const { return best_ever_; }

  /// KNUX/DKNUX reference solution I (§3.2/§3.3).
  const Assignment& knux_reference() const { return knux_reference_; }

  /// Overrides the reference (e.g. an IBP solution for static KNUX).
  void set_knux_reference(Assignment reference);

  /// Replaces the worst individual with `migrant` (DPGA migration).
  void inject(const Assignment& migrant);

  /// Runs one generation (generate phase, then the batched evaluate phase,
  /// which runs the combine jobs too).  A throwing combine job leaves the
  /// population as is.
  void step();

  /// True when the configured stall window has elapsed without improvement.
  bool stalled() const;

  /// Statistics of the current state (appended to history each step()).
  const std::vector<GenerationStats>& history() const { return history_; }

  /// Packages the engine's outcome.
  GaResult result() const;

 private:
  /// Mutates, optionally climbs, and evaluates batch[index] using its own
  /// forked RNG stream.  `clone_parent` is the population index the child
  /// was cloned from (-1 when it came out of crossover); clones may take the
  /// delta evaluation path.  Safe to run concurrently for distinct indices
  /// (the population is read-only during the evaluate phase).
  void finish_child(std::vector<Individual>& batch, std::size_t index,
                    const Rng& stream_base, std::int32_t clone_parent);
  void record_stats();
  std::size_t worst_index() const;

  GaConfig config_;
  EvalContext eval_;
  Rng rng_;
  std::vector<Individual> population_;
  Individual best_ever_;
  Assignment knux_reference_;
  int generation_ = 0;
  int last_improvement_generation_ = 0;
  std::vector<GenerationStats> history_;
};

/// Convenience driver: constructs an engine and steps until max_generations
/// or the stall window fires.  `executor`, when given, batch-evaluates
/// offspring without changing results.
GaResult run_ga(const Graph& g, const GaConfig& config,
                std::vector<Assignment> initial, Rng rng,
                Executor* executor = nullptr);

}  // namespace gapart

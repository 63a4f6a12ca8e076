#include "core/hill_climb.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace gapart {

namespace {

bool cancelled(const HillClimbOptions& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

/// Preconditions shared by every overload.  Factored out so the chromosome
/// overload can check them *before* moving the caller's genes into a
/// PartitionState (strong guarantee).  Seed ranges are checked by
/// filter_boundary, before the seeded climb's first move.
void validate_options(const HillClimbOptions& options) {
  GAPART_REQUIRE(options.max_passes >= 1, "need at least one pass");
  if (options.mode != HillClimbMode::kSweep) {
    GAPART_REQUIRE(options.min_gain > 0.0,
                   "frontier mode needs min_gain > 0 to terminate, got ",
                   options.min_gain);
  }
}

/// Paper-faithful sweep: ascending vertex scan per pass.  The boundary test
/// is an O(1) flag and best_move() is the single-scan gain kernel, but the
/// decisions (move order, destinations, gains) are identical to probing
/// every neighbouring part with move_gain().
HillClimbResult climb_sweep(PartitionState& state, const FitnessParams& params,
                            const HillClimbOptions& options) {
  HillClimbResult result;
  const Graph& g = state.graph();

  for (int pass = 0; pass < options.max_passes; ++pass) {
    if (cancelled(options)) break;
    ++result.passes;
    int moves_this_pass = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!state.is_boundary(v)) continue;
      ++result.examined;
      const BestMove best = state.best_move(v, params, options.min_gain);
      if (best.to >= 0) {
        state.move(v, best.to);
        ++moves_this_pass;
        result.fitness_gain += best.gain;
      }
    }
    result.moves += moves_this_pass;
    if (moves_this_pass == 0) break;  // local optimum reached
  }
  return result;
}

/// Frontier worklist: after a pass over the initial worklist — the full
/// boundary, or `seeds` filtered to it — follow-up passes
/// examine only vertices enqueued when a move changed their neighbourhood.
/// Each pass processes its worklist ascending, so runs are deterministic.
/// Because the composite objective couples distant vertices through the
/// part weights (and, under kWorstComm, the max-cut term), a drained
/// worklist does not by itself prove optimality: whenever it drains after
/// productive passes (or after any seeded cascade), one full-boundary
/// verification round re-seeds it, and the climb only stops once a full
/// round finds nothing — the same fixed-point class as sweep, without ever
/// scanning interior vertices.  verify_fixed_point=false skips those rounds
/// and stops at the drained worklist.
///
/// max_passes budgets *full-boundary rounds* (the analogue of one sweep
/// pass); the worklist cascade between rounds — and the whole seeded cascade
/// — is not charged against it and terminates on its own because every
/// accepted move improves fitness by more than min_gain > 0.
HillClimbResult climb_frontier(PartitionState& state,
                               const FitnessParams& params,
                               const HillClimbOptions& options,
                               std::span<const VertexId> seeds) {
  HillClimbResult result;
  const Graph& g = state.graph();
  const bool seeded = !seeds.empty();

  // Worklist-membership flags: the state's epoch-stamped scratch, so a
  // seeded cascade touching d vertices costs O(d) — no O(V) allocation or
  // memset per climb.
  EpochFlags& queued = state.visit_scratch();
  std::vector<VertexId> current =
      seeded ? state.filter_boundary(seeds) : state.boundary_vertices();
  for (const VertexId v : current) queued.set(v);
  // gain_ordered: two next-buckets — "hot" holds vertices whose
  // neighbourhood a move just disturbed (where new positive gains appear),
  // "cold" holds the movers themselves (their best move was just taken) —
  // and a pass processes hot before cold.  Otherwise both lambdas feed the
  // single hot list.
  std::vector<VertexId> next_hot;
  std::vector<VertexId> next_cold;

  const auto enqueue_into = [&](VertexId u, std::vector<VertexId>& bucket) {
    if (!queued.test(u) && state.is_boundary(u)) {
      queued.set(u);
      bucket.push_back(u);
    }
  };
  const auto enqueue_disturbed = [&](VertexId u) {
    enqueue_into(u, next_hot);
  };
  const auto enqueue_mover = [&](VertexId u) {
    enqueue_into(u, options.gain_ordered ? next_cold : next_hot);
  };

  bool full_pass = !seeded;  // current covers the entire boundary
  int full_rounds = seeded ? 0 : 1;  // an unseeded seed pass is round 1
  bool moved_since_full_pass = false;
  while (!cancelled(options)) {
    int moves_this_pass = 0;
    if (!current.empty()) {
      ++result.passes;
      for (const VertexId v : current) {
        queued.reset(v);
        if (!state.is_boundary(v)) continue;
        ++result.examined;
        const BestMove best = state.best_move(v, params, options.min_gain);
        if (best.to < 0) continue;
        state.move(v, best.to);
        ++moves_this_pass;
        result.fitness_gain += best.gain;
        enqueue_mover(v);
        for (const VertexId u : g.neighbors(v)) enqueue_disturbed(u);
      }
      result.moves += moves_this_pass;
    }
    if (full_pass && moves_this_pass == 0) break;  // verified fixed point
    moved_since_full_pass |= moves_this_pass > 0;

    if (!next_hot.empty() || !next_cold.empty()) {
      std::sort(next_hot.begin(), next_hot.end());
      current.swap(next_hot);
      next_hot.clear();
      if (!next_cold.empty()) {
        std::sort(next_cold.begin(), next_cold.end());
        current.insert(current.end(), next_cold.begin(), next_cold.end());
        next_cold.clear();
      }
      full_pass = false;
    } else if (options.verify_fixed_point &&
               (moved_since_full_pass || full_rounds == 0) &&
               full_rounds < options.max_passes) {
      // Drained.  A seeded climb always owes one verification round
      // (full_rounds == 0); otherwise one is owed only after productive
      // passes since the last full round.
      current = state.boundary_vertices();
      for (const VertexId v : current) queued.set(v);
      full_pass = true;
      ++full_rounds;
      ++result.verify_rounds;
      moved_since_full_pass = false;
    } else {
      break;
    }
  }
  return result;
}

/// `seeds` only reach the kFrontier climb (hill_climb_from forces the mode).
HillClimbResult climb_impl(PartitionState& state, const FitnessParams& params,
                           const HillClimbOptions& options,
                           const EvalContext* eval,
                           std::span<const VertexId> seeds = {}) {
  validate_options(options);
  HillClimbResult result;
  switch (options.mode) {
    case HillClimbMode::kSweep:
      result = climb_sweep(state, params, options);
      break;
    case HillClimbMode::kFrontier:
      result = climb_frontier(state, params, options, seeds);
      break;
  }
  if (eval != nullptr) eval->count_delta(result.moves);
  return result;
}

HillClimbResult climb_from(PartitionState& state, const FitnessParams& params,
                           std::span<const VertexId> seeds,
                           const HillClimbOptions& options,
                           const EvalContext* eval) {
  HillClimbOptions frontier = options;
  frontier.mode = HillClimbMode::kFrontier;
  // Zero seeds = zero damage: without verification rounds there is nothing
  // to do, and falling through would run a full-boundary frontier climb —
  // the maximum cost for the minimum damage.  Preconditions are still
  // enforced, so a misconfigured caller fails the same way whatever its
  // damage set.
  if (seeds.empty() && !frontier.verify_fixed_point) {
    validate_options(frontier);
    return {};
  }
  return climb_impl(state, params, frontier, eval, seeds);
}

}  // namespace

HillClimbResult hill_climb(PartitionState& state,
                           const HillClimbOptions& options) {
  return climb_impl(state, options.fitness, options, nullptr);
}

HillClimbResult hill_climb(const Graph& g, Assignment& genes, PartId num_parts,
                           const HillClimbOptions& options) {
  // Every precondition — the state's own and the climber's — is checked
  // before `genes` is moved, so a throw leaves the caller's assignment
  // intact rather than moved-from.
  GAPART_REQUIRE(num_parts >= 1, "need at least one part");
  GAPART_REQUIRE(is_valid_assignment(g, genes, num_parts),
                 "invalid assignment for ", num_parts, " parts");
  validate_options(options);
  PartitionState state(g, std::move(genes), num_parts);
  const HillClimbResult result = hill_climb(state, options);
  genes = std::move(state).release_assignment();
  return result;
}

HillClimbResult hill_climb(const EvalContext& eval, PartitionState& state,
                           const HillClimbOptions& options) {
  return climb_impl(state, eval.params(), options, &eval);
}

HillClimbResult hill_climb_from(PartitionState& state,
                                std::span<const VertexId> seeds,
                                const HillClimbOptions& options) {
  return climb_from(state, options.fitness, seeds, options, nullptr);
}

HillClimbResult hill_climb_from(const EvalContext& eval, PartitionState& state,
                                std::span<const VertexId> seeds,
                                const HillClimbOptions& options) {
  return climb_from(state, eval.params(), seeds, options, &eval);
}

}  // namespace gapart

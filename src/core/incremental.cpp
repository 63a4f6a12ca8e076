#include "core/incremental.hpp"

#include <utility>
#include <vector>

#include "baselines/greedy_incremental.hpp"
#include "common/assert.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "core/hill_climb.hpp"

namespace gapart {

RepairReport repair_step(PartitionState& state, const Graph& grown,
                         const GraphDelta& delta, const FitnessParams& fitness,
                         int max_verify_rounds, double budget_seconds) {
  const VertexId n_old = state.graph().num_vertices();
  GAPART_REQUIRE(delta.old_num_vertices == n_old,
                 "delta.old_num_vertices (", delta.old_num_vertices,
                 ") disagrees with the partitioned graph (", n_old,
                 " vertices)");
  GAPART_REQUIRE(grown.num_vertices() >= n_old,
                 "partitioned graphs can only grow (got ", grown.num_vertices(),
                 " after ", n_old, ")");
  check_delta_seam(state.graph(), grown, delta);

  WallTimer timer;
  RepairReport rep;
  rep.damage = delta.damage(grown);
  // Every migration from here on lands in the outcome, whichever tier made
  // it; the journal is off again however the step exits.
  struct JournalOff {
    PartitionState& state;
    ~JournalOff() { state.set_move_journal(nullptr); }
  } journal_off{state};
  state.set_move_journal(&rep.outcome.moves);

  // Extension + rebind: assign the new vertices against the pre-update
  // state, then absorb the grown graph.
  std::vector<PartId>& new_parts = rep.outcome.new_parts;
  {
    GAPART_SPAN("repair.extend");
    const PartId k = state.num_parts();
    std::vector<double> part_weight(static_cast<std::size_t>(k));
    for (PartId q = 0; q < k; ++q) {
      part_weight[static_cast<std::size_t>(q)] = state.part_weight(q);
    }
    new_parts = greedy_extend_parts(grown, state.assignment(),
                                    std::move(part_weight));
  }
  {
    GAPART_SPAN("repair.rebind");
    state.rebind_grown(grown, delta.touched_old, new_parts);
  }
  rep.extend_moves = static_cast<int>(new_parts.size());

  // Strictly damage-proportional seeded cascade first, then O(boundary)
  // verification rounds only while the cap and budget allow — deeper
  // quality is the caller's (background) job.
  HillClimbOptions opt;
  opt.fitness = fitness;
  opt.gain_ordered = true;
  opt.verify_fixed_point = false;
  {
    GAPART_SPAN("repair.cascade");
    const HillClimbResult res =
        hill_climb_from(state, repair_seeds(delta, grown), opt);
    rep.repair_moves += res.moves;
    rep.examined += res.examined;
  }
  opt.mode = HillClimbMode::kFrontier;  // unseeded: one full round + cascade
  if (max_verify_rounds > 0) {
    GAPART_SPAN("repair.verify");
    while (rep.verify_rounds < max_verify_rounds &&
           timer.seconds() < budget_seconds) {
      const HillClimbResult res = hill_climb(state, opt);
      ++rep.verify_rounds;
      rep.repair_moves += res.moves;
      rep.examined += res.examined;
      if (res.moves == 0) break;  // verified fixed point
    }
  }
  rep.seconds = timer.seconds();
  rep.fitness_after = state.fitness(fitness);
  return rep;
}

}  // namespace gapart

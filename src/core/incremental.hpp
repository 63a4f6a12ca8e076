// Incremental graph partitioning (paper §3.5 / §4.2) as one damage-
// proportional repair step of a live partition.
//
// When a partitioned graph grows — new vertices appended, adjacency possibly
// perturbed locally — the previous partition is repaired in place, so the
// cost scales with the change, not the graph.  repair_step runs four tiers
// on the caller's PartitionState, each under its own span:
//
//   repair.extend   greedy_extend_parts: every new vertex takes the
//                   majority part of its already-assigned neighbours
//                   (most-constrained-first — the §5 strawman's kernel).
//                   O(new * deg).
//   repair.rebind   PartitionState::rebind_grown absorbs the grown graph in
//                   O(damage * deg) — no O(V + E) state rebuild.
//   repair.cascade  gain-ordered frontier climb seeded with the delta's
//                   repair seeds (new vertices, rewired survivors, and their
//                   neighbours), unverified: strictly O(damage).
//   repair.verify   full-boundary kFrontier rounds, O(boundary) each, only
//                   while the round cap and the latency budget allow; they
//                   restore the sweep fixed-point class.
//
// The streaming service runs it for every live delta (service/session.hpp)
// and logs its outcome — the part each new vertex took, then every move in
// order, captured by the state's move journal — so WAL replay and a
// follower apply the decision instead of re-making it.  The §3.5
// incremental GA is an optional tier on top: a DPGA seeded with the
// repaired solution (the service's kDeep refinement; examples/adaptive_mesh
// runs it inline).
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph_delta.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"

namespace gapart {

/// What a repair decided, in the form a WAL record carries it: the part the
/// extension gave each appended vertex, then every migration in the order it
/// was made.  An adopted refinement logs only moves.
struct RepairOutcome {
  std::vector<PartId> new_parts;
  std::vector<PartMove> moves;
};

/// What one repair_step did.
struct RepairReport {
  /// Deltas the session had absorbed once this one landed (set by the
  /// service; repair_step leaves it 0).
  std::uint64_t update_epoch = 0;
  VertexId damage = 0;
  int extend_moves = 0;         ///< new vertices assigned (extension)
  int repair_moves = 0;         ///< migrations (cascade + verification)
  std::int64_t examined = 0;    ///< gain-kernel probes
  int verify_rounds = 0;        ///< rounds the cap and budget admitted
  double seconds = 0.0;         ///< wall time of the repair step
  double fitness_after = 0.0;
  RepairOutcome outcome;  ///< extend_moves parts, then repair_moves moves
};

/// Repairs `state` — a partition of the graph `grown` grew from — after the
/// update `delta` (delta.old_num_vertices must equal the state's vertex
/// count; `grown` may only add vertices).  Extends, rebinds and runs the
/// seeded cascade, then at most `max_verify_rounds` verification rounds,
/// each admitted only while the step's elapsed time is under
/// `budget_seconds` and stopping early at a verified fixed point.  A delta
/// that does not fit, or that check_delta_seam finds inexact, throws before
/// the state is touched.  The old graph must stay alive for the call;
/// afterwards the state references `grown`.
RepairReport repair_step(PartitionState& state, const Graph& grown,
                         const GraphDelta& delta, const FitnessParams& fitness,
                         int max_verify_rounds, double budget_seconds);

}  // namespace gapart

// Partition representation, quality metrics, and the paper's two objectives.
//
// Terminology follows the paper (§2): a partition maps every vertex to one of
// n parts.  For part q,
//   W(q)  = sum of vertex weights in q                       (load)
//   I(q)  = (W(q) - W_total/n)^2                             (load imbalance)
//   C(q)  = total weight of edges with exactly one endpoint in q
//           ("the cost of all the outgoing edges from a part")
// and the two fitness functions are
//   Fitness1 = -( sum_q I(q) + lambda * sum_q C(q) )   — total communication
//   Fitness2 = -( sum_q I(q) + lambda * max_q C(q) )   — worst-case (non-
//              differentiable) communication
// The paper's tables report sum_q C(q) / 2 (each cut edge counted once) for
// Fitness1 experiments and max_q C(q) for Fitness2 experiments.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/connectivity_scratch.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace gapart {

/// Which communication term the composite objective uses.
enum class Objective {
  kTotalComm,  ///< Fitness1: sum over parts of outgoing edge cost.
  kWorstComm,  ///< Fitness2: cost of the worst part only.
};

const char* objective_name(Objective o);

struct FitnessParams {
  Objective objective = Objective::kTotalComm;
  /// The paper's lambda: relative importance of communication vs imbalance.
  double lambda = 1.0;
};

/// Full per-part metric breakdown of one assignment.
struct PartitionMetrics {
  std::vector<double> part_weight;  ///< W(q)
  std::vector<double> part_cut;     ///< C(q)
  double sum_part_cut = 0.0;        ///< sum_q C(q) (= 2x cut edge weight)
  double max_part_cut = 0.0;        ///< max_q C(q)
  double imbalance_sq = 0.0;        ///< sum_q I(q)

  /// Total weight of cut edges, each counted once — what Tables 1-3 report.
  double total_cut() const { return 0.5 * sum_part_cut; }
};

/// True iff `a` has one entry per vertex, all within [0, num_parts).
bool is_valid_assignment(const Graph& g, const Assignment& a, PartId num_parts);

/// O(V + E) metric computation from scratch.
PartitionMetrics compute_metrics(const Graph& g, const Assignment& a,
                                 PartId num_parts);

double fitness_from_metrics(const PartitionMetrics& m,
                            const FitnessParams& params);

/// Convenience: compute_metrics + fitness_from_metrics.
double evaluate_fitness(const Graph& g, const Assignment& a, PartId num_parts,
                        const FitnessParams& params);

/// PartitionState::content_hash() without building a state (validates `a`
/// first) — used to stamp session images.
std::uint64_t assignment_content_hash(const Graph& g, const Assignment& a,
                                      PartId num_parts);

/// What the content hash adds for vertex v in part p, through the same
/// tables it sums them with: lets tests reach ids no test graph holds.
std::uint64_t content_hash_vertex_item(VertexId v, PartId p);

/// One migration as a log records it: vertex `v` moved to part `to`.
struct PartMove {
  VertexId v = 0;
  PartId to = 0;
  bool operator==(const PartMove&) const = default;
};

/// Best candidate move for one vertex, as found by the single-scan gain
/// kernel (PartitionState::best_move).
struct BestMove {
  PartId to = -1;      ///< Destination part; -1 when no candidate beat min_gain.
  double gain = 0.0;   ///< Fitness delta of the winning move (0 when to < 0).
  int candidates = 0;  ///< Adjacent parts the kernel evaluated.
};

/// A mutable partition with incrementally maintained metrics and boundary.
///
/// This is the refinement engine under hill climbing (§3.6), Kernighan–Lin,
/// and greedy incremental assignment:
///   * move() updates W, C, the imbalance term, the cached max-part cut, the
///     per-vertex external-neighbour counts and the compact boundary frontier
///     in O(deg(v)).
///   * best_move() is a single-scan gain kernel: one pass over neighbors(v)
///     fills a reusable epoch-stamped per-part connectivity scratch, from
///     which the gains to all adjacent parts come out in O(deg + k_adjacent)
///     with zero allocations (plus one O(k) top-2 precompute under
///     kWorstComm) instead of the O(deg * k) neighbor_parts()+move_gain()
///     pattern, which survives as thin wrappers.
///   * is_boundary() is an O(1) flag lookup and frontier() exposes the live
///     boundary worklist, so local search never rescans interior vertices.
/// All derived quantities always match a from-scratch compute_metrics()
/// (fuzz-tested).  With integer vertex/edge weights (the paper's setting)
/// every maintained quantity and gain is bit-identical to the pre-kernel
/// per-candidate loops, because all intermediate sums are exact.
///
/// Holds a non-owning view of the graph: the Graph must outlive the state
/// (in particular, do not bind a temporary).  Const accessors share mutable
/// scratch, so a single state must not be read from two threads at once.
class PartitionState {
 public:
  PartitionState(const Graph& g, Assignment a, PartId num_parts);

  /// Builds the state as above, then adopts `sums` (the metrics() of a
  /// state with the same content, e.g. carried by a session image) as its
  /// maintained sums: with fractional weights their low bits depend on the
  /// move history, so this state then continues exactly as that one.
  /// Throws unless `sums` agrees with this content up to rounding.
  PartitionState(const Graph& g, Assignment a, PartId num_parts,
                 const PartitionMetrics& sums);

  const Graph& graph() const { return *g_; }
  PartId num_parts() const { return num_parts_; }
  const Assignment& assignment() const { return assign_; }

  /// Steals the assignment from an expiring state (avoids the O(V) copy when
  /// the state is discarded right after, e.g. a finished hill climb).
  Assignment release_assignment() && { return std::move(assign_); }
  PartId part_of(VertexId v) const { return assign_[static_cast<std::size_t>(v)]; }

  double part_weight(PartId q) const { return part_weight_[static_cast<std::size_t>(q)]; }
  double part_cut(PartId q) const { return part_cut_[static_cast<std::size_t>(q)]; }
  double sum_part_cut() const { return sum_part_cut_; }
  double max_part_cut() const;
  double imbalance_sq() const { return imbalance_sq_; }
  double total_cut() const { return 0.5 * sum_part_cut_; }

  double fitness(const FitnessParams& params) const;

  /// Moves v to part `to` (no-op when already there).
  void move(VertexId v, PartId to);

  /// While a journal is set, every move() that changes a part appends
  /// (v, to) to it, so whatever ran in between can be replayed by making
  /// the same moves in the same order — the same floating-point work, so
  /// the maintained sums come out bit for bit the same.  nullptr switches
  /// it off.  Copies of the state share the pointer.
  void set_move_journal(std::vector<PartMove>* journal) { journal_ = journal; }

  /// Rebinds the state to `grown` — a graph whose first num_vertices()
  /// vertices survive from the current graph — updating every maintained
  /// quantity (part weights/cuts, imbalance, boundary, frontier) in
  /// O(damage * deg + k) instead of the O(V + E) fresh construction.  This is
  /// what keeps a long-lived session's per-delta repair latency proportional
  /// to the damage, not the graph.
  ///
  /// `touched_old` lists the surviving vertices whose adjacency rows or
  /// weights changed (a GraphDelta's touched_old — sorted, deduplicated, all
  /// < num_vertices()).  Every changed edge must have both endpoints in the
  /// damage set (new vertices plus touched_old) — guaranteed by construction
  /// for appended_delta / diff_graphs deltas, because an edge change perturbs
  /// both endpoints' adjacency rows — and untouched survivors must keep their
  /// vertex weight.  `new_parts` assigns the appended vertices
  /// [num_vertices(), |grown|), each in [0, num_parts).  Survivors keep their
  /// current parts.  The old graph must stay alive for the duration of the
  /// call (it is read to retract the damaged vertices' old contributions);
  /// afterwards the state references `grown`, which must outlive it.
  void rebind_grown(const Graph& grown, std::span<const VertexId> touched_old,
                    std::span<const PartId> new_parts);

  /// Room for a graph of n vertices in every per-vertex array, so rebinds
  /// up to that size do not reallocate: a replay that knows where its log
  /// ends copies no array while it grows.  Changes no value.
  void reserve(VertexId n);

  /// Single-scan gain kernel: the best part to move v into among all parts
  /// adjacent to v, with ties broken toward the lowest part id (matching the
  /// legacy ascending neighbor_parts() probe loop).  Only candidates with
  /// gain strictly above `min_gain` are returned; to == -1 otherwise.
  /// O(deg(v) + k_adjacent), plus O(num_parts) once under kWorstComm.
  BestMove best_move(VertexId v, const FitnessParams& params,
                     double min_gain = 0.0) const;

  /// Fitness delta that move(v, to) would produce, without applying it.
  /// Thin wrapper over the gain kernel; O(deg(v) + num_parts).
  double move_gain(VertexId v, PartId to, const FitnessParams& params) const;

  /// True when v has at least one neighbour in a different part.  O(1).
  bool is_boundary(VertexId v) const {
    return ext_deg_[static_cast<std::size_t>(v)] > 0;
  }

  /// The live boundary worklist, in no particular order.  Invalidated by
  /// move(); copy it before interleaving reads with moves.
  const std::vector<VertexId>& frontier() const { return frontier_; }

  VertexId boundary_size() const {
    return static_cast<VertexId>(frontier_.size());
  }

  /// All boundary vertices, ascending (sorted copy of the frontier).
  std::vector<VertexId> boundary_vertices() const;

  /// The subset of `seeds` currently on the boundary, ascending and
  /// deduplicated — filtered frontier seeding for worklist-seeded repair
  /// (hill_climb_from).  O(|seeds| log |seeds|); out-of-range ids throw.
  std::vector<VertexId> filter_boundary(std::span<const VertexId> seeds) const;

  /// Graph-sized epoch-stamped flag scratch for callers' worklist
  /// bookkeeping (frontier climbs), handed out logically cleared.  Allocated
  /// once with the state, so a seeded repair touching d vertices costs O(d)
  /// — not an O(V) allocation + memset per climb.  Same single-caller
  /// discipline as the connectivity scratch: one climb at a time per state.
  EpochFlags& visit_scratch() {
    visit_flags_.clear();
    return visit_flags_;
  }

  /// Parts adjacent to v (excluding v's own part), ascending, deduplicated.
  /// Thin wrapper over the connectivity scan; prefer best_move() in hot code.
  std::vector<PartId> neighbor_parts(VertexId v) const;

  /// Snapshot of full metrics (recomputed from the maintained state).
  PartitionMetrics metrics() const;

  /// Order-independent 64-bit digest of the partition content: the
  /// (vertex, part) pairs, the part weights they imply (summed from scratch
  /// in vertex order, not the maintained sums, whose low bits depend on the
  /// move history when weights are fractional), and (n, k).  Built on
  /// common/checksum with a per-item mix and commutative combination, so two
  /// states over the same graph hash equal iff their assignments are equal,
  /// however they were reached — the replication layer's divergence-
  /// detection primitive, and what recovery must reproduce.  O(V + k),
  /// touches no scratch.
  std::uint64_t content_hash() const;

 private:
  /// Quantities shared by every candidate gain of one scanned vertex.
  struct ScanGainContext {
    PartId from = -1;
    double wdeg = 0.0;      ///< weighted degree of v
    double w = 0.0;         ///< vertex weight of v
    double imb_base = 0.0;  ///< imbalance with `from`'s terms pre-swapped
    double base_fitness = 0.0;
  };

  /// One pass over neighbors(v): fills conn_ with per-part edge weight and
  /// returns v's weighted degree.
  double scan_connectivity(VertexId v) const;

  ScanGainContext make_scan_context(VertexId v, PartId from, double wdeg,
                                    const FitnessParams& params) const;

  /// Gain of moving the scanned vertex to `to`.  `others_max` must be
  /// max(0, max part cut over parts other than from/to) — only read under
  /// kWorstComm.
  double gain_from_scan(const ScanGainContext& ctx, PartId to,
                        double others_max, const FitnessParams& params) const;

  /// Syncs the boundary flag / frontier membership of u with ext_deg_[u].
  void sync_frontier(VertexId u);

  const Graph* g_;
  PartId num_parts_;
  Assignment assign_;
  std::vector<double> part_weight_;
  std::vector<double> part_cut_;
  double sum_part_cut_ = 0.0;
  double imbalance_sq_ = 0.0;
  double mean_weight_ = 0.0;

  // Incrementally maintained boundary: ext_deg_[v] counts v's neighbours in
  // other parts; frontier_ is the compact list of vertices with ext_deg_>0,
  // frontier_pos_[v] its index there (-1 when interior).
  std::vector<std::int32_t> ext_deg_;
  std::vector<std::int32_t> frontier_pos_;
  std::vector<VertexId> frontier_;

  // Cached max_q C(q): refreshed in O(1) per move unless the move shrank the
  // current arg-max part, which lazily triggers one O(k) rescan.
  mutable double max_cut_cache_ = 0.0;
  mutable PartId max_cut_part_ = 0;
  mutable bool max_cut_dirty_ = false;

  // Reusable kernel scratch (see class comment re: thread safety).
  mutable ConnectivityScratch conn_;
  EpochFlags visit_flags_;

  std::vector<PartMove>* journal_ = nullptr;  ///< see set_move_journal
};

}  // namespace gapart

// One long-lived partitioning session: a live Graph + PartitionState fed by
// a stream of GraphDeltas.
//
// The session is the unit of the streaming service (service.hpp).  Its
// contract splits work into two planes, and replay:
//
//   synchronous (apply_update, caller's thread, O(damage) + budget):
//     repair_step (core/incremental.hpp) on the live state — greedy
//     extension of the new vertices, PartitionState::rebind_grown, the
//     seeded frontier cascade, then full-boundary verification rounds only
//     while the configured latency budget allows (an adaptive cost/quality
//     knob per update) — followed by the service's own work: epochs and
//     stats, the WAL append of the delta and the repair's outcome,
//     compaction and publication.
//
//   asynchronous (plan_refinement / run_refinement / complete_refinement,
//   service-scheduled on the shared Executor):
//     verified frontier hill-climb rounds and, when the policy escalates,
//     a DPGA burst seeded with the repaired solution (§3.5's incremental GA
//     as a background job).  Refinement runs on a captured epoch snapshot;
//     publication back into the live state is epoch-checked, so a refinement
//     raced by newer deltas is discarded, never merged wrongly.
//
//   replay (apply_logged, recovery and the replication follower): makes
//     the leader's logged decisions, never repairing or refining itself.
//
// Readers never block on either plane: snapshot() hands out the latest
// epoch-versioned, immutable SessionSnapshot via shared_ptr swap.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/executor.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "core/graph_delta.hpp"
#include "core/incremental.hpp"
#include "core/vcycle_ga.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "service/refine_policy.hpp"
#include "service/wal.hpp"

namespace gapart {

struct SessionConfig {
  PartId num_parts = 2;
  FitnessParams fitness;

  /// Latency budget for one apply_update call: after the damage-proportional
  /// cascade, O(boundary) verification rounds run only while the elapsed
  /// repair time stays under this budget (0 = cascade only — the strictest
  /// latency regime, leaving verification to background refinement).  The
  /// budget gates ENTRY to a round; an admitted round runs to completion, so
  /// one update can overshoot by up to a round + its cascade.
  double repair_budget_seconds = 0.0;
  /// Hard cap on verification rounds even when the budget allows more.
  int repair_max_verify_rounds = 4;

  /// Background-refinement trigger policy.
  RefinePolicyConfig policy;
  /// kLight refinement: verified frontier hill-climb round budget.
  int refine_hill_climb_passes = 8;
  /// kDeep refinement, both routes.  Sessions at/above
  /// policy.vcycle_min_vertices run the multilevel V-cycle engine with these
  /// options (see route_deep_vcycle); smaller ones run a flat DPGA burst
  /// with `deep_vcycle.dpga`.  dpga.ga.num_parts/fitness are overwritten
  /// with the session's; the job's cancel token is threaded in per run.
  /// Keep the budgets modest — this runs on the shared pool next to other
  /// sessions' work.
  VcycleGaOptions deep_vcycle;

  SessionConfig();
};

/// Immutable, epoch-versioned view of a session's partition.  The graph is
/// shared (a later update replaces the session's graph, never mutates it),
/// so a snapshot stays internally consistent forever.
struct SessionSnapshot {
  /// Number of deltas the session had absorbed when this was published.
  std::uint64_t update_epoch = 0;
  /// Total publish count (repairs + refinements); strictly increasing.
  std::uint64_t version = 0;
  const char* source = "open";  ///< "open" / "repair" / "refine" / "restore"
  std::shared_ptr<const Graph> graph;
  Assignment assignment;
  double fitness = 0.0;
  double total_cut = 0.0;
  /// The state's maintained metrics(): part weights and cuts, their sum and
  /// max, the imbalance — what the snapshot's session image carries.
  PartitionMetrics sums;
};

/// Point-in-time statistics copy (see PartitionService for aggregation).
/// The snapshot holds the version, fitness and cut; the registry's
/// `repair.damage` / `repair.moves` and each RepairReport hold the repair
/// counts.
struct SessionStats {
  std::uint64_t updates = 0;
  std::int64_t examined = 0;
  int refinements_planned = 0;
  int refinements_applied = 0;
  /// Completed but raced by a newer delta (captured epoch went stale).
  int refinements_stale = 0;
  /// Completed cleanly but found nothing better — the live partition's
  /// quality was (re)certified instead of replaced.
  int refinements_no_better = 0;
  /// Improved the fitness but its WAL record could not be written: the
  /// refinement was dropped (quality only) so the log stays a superset of
  /// the state — required for replication digests to be exact.
  int refinements_unlogged = 0;
  /// Bucketed lifetime percentiles from `repair_latency` (relative error
  /// <= 12.5% — one histogram bucket; see common/telemetry.hpp).
  double p50_repair_seconds = 0.0;
  double p99_repair_seconds = 0.0;
  /// Mergeable log-bucketed histogram of RepairReport::seconds (lifetime,
  /// bounded memory).  The service composes sessions into service-wide
  /// percentiles by merging these — merge is exact and associative, unlike
  /// merging quantiles.
  LogHistogram repair_latency;

  /// Durability (zeros when the session runs without a WAL).
  bool durable = false;
  /// Fail-stop: a WAL append exhausted its retries after the repair had
  /// already mutated the state; the session refuses further updates so the
  /// log never diverges from the acknowledged history.
  bool wal_failed = false;
  WalStats wal;
};

class PartitionSession {
 public:
  /// Starts a session on `graph` with `initial` as its partition.  The graph
  /// is shared because snapshots outlive updates.  `origin` labels the first
  /// snapshot's source ("open"; a session rebuilt from an image passes
  /// "restore", "recover" or "replicate").
  PartitionSession(std::shared_ptr<const Graph> graph, Assignment initial,
                   SessionConfig config, const char* origin = "open");

  /// Rebuilds the session a session image (service/wal.hpp) was taken of,
  /// at the image's update epoch and with its maintained sums, so it
  /// continues exactly as that session would.  `config` supplies the rest;
  /// its num_parts must equal the image's.
  PartitionSession(SessionImage image, SessionConfig config,
                   const char* origin);

  PartitionSession(const PartitionSession&) = delete;
  PartitionSession& operator=(const PartitionSession&) = delete;

  const SessionConfig& config() const { return config_; }

  /// Synchronous per-delta repair (see file comment).  `grown` is the new
  /// graph snapshot; `delta` describes how it differs from the session's
  /// current graph (delta.old_num_vertices must match).  Thread-safe against
  /// snapshot() and the refinement plane; concurrent apply_update calls on
  /// ONE session serialize on the session lock.
  ///
  /// When a WAL is attached, the delta and the repair's outcome are appended
  /// and fsynced before this call returns — the returned report IS the
  /// acknowledgement, so ack implies durable.  An append that exhausts its
  /// retries throws IoError and fail-stops the session (wal_failed).  An
  /// inexact delta (check_delta_seam) throws gapart::Error before anything
  /// is mutated or logged.
  RepairReport apply_update(std::shared_ptr<const Graph> grown,
                            const GraphDelta& delta);

  /// Latest published state; never blocks on repair or refinement beyond a
  /// pointer copy.  Never null.
  std::shared_ptr<const SessionSnapshot> snapshot() const;

  SessionStats stats() const;

  /// The WAL's counters (SessionStats::wal), or nullopt without a WAL.  Only
  /// an O(1) copy under the lock — what a per-pump poller should read
  /// instead of stats(), which also copies the latency histogram.
  std::optional<WalStats> wal_stats() const;

  // --- Asynchronous refinement protocol (driven by PartitionService) ------

  /// A captured refinement work order: immutable inputs for run_refinement.
  struct RefineJob {
    std::uint64_t update_epoch = 0;
    RefineDepth depth = RefineDepth::kNone;
    std::shared_ptr<const Graph> graph;
    Assignment assignment;
    double fitness = 0.0;
    /// Cooperative cancel flag, set by close(): run_refinement checks it at
    /// pass boundaries and before the DPGA burst, so a closing session never
    /// waits for a full deep burst to finish.
    std::shared_ptr<const std::atomic<bool>> cancel;
  };

  /// Consults the policy; when it fires, marks a refinement in flight and
  /// returns the captured job.  nullopt when the policy stays quiet or a
  /// job is already in flight.
  std::optional<RefineJob> plan_refinement();

  /// Applies a finished refinement: adopted only when no delta raced it
  /// (job.update_epoch still current) AND it improved the fitness; always
  /// clears the in-flight mark and resets the policy accumulators on
  /// adoption.  Adoption makes the moves that turn job.assignment into
  /// `refined` on the live state, in ascending vertex order; on a durable
  /// session they are logged as a kRefine record BEFORE they are made, and
  /// if the append fails the refinement is dropped (refinements_unlogged)
  /// so log and state never diverge.  Returns true when adopted.
  bool complete_refinement(const RefineJob& job, Assignment refined,
                           double refined_fitness);

  /// Clears the in-flight mark after a failed refinement attempt.
  void abandon_refinement();

  // --- Durability (service/wal.hpp) ---------------------------------------

  /// Attaches a write-ahead log: every subsequent apply_update appends its
  /// delta before acknowledging, adopted refinements are logged best-effort,
  /// and compaction runs when the log policy fires.  Called once, right
  /// after construction (durable open) or after replay (recovery).
  void attach_wal(std::unique_ptr<SessionWal> wal);

  /// Replica resync: writes `image`, the replacement session's state,
  /// through this session's WAL by the compaction steps (the image goes
  /// beside the old snapshot, CURRENT flips last, the log is truncated
  /// after) and hands the WAL over.  Those steps are crash-safe only when
  /// the image is at or past every record in the log, so an image older
  /// than this session's epoch throws gapart::Error.  A failed step throws
  /// IoError; this session then keeps its WAL and stays live.  Returns
  /// nullptr without a WAL.
  std::unique_ptr<SessionWal> hand_over_wal(const SessionImage& image);

  // --- Replication (service/replication.hpp) ------------------------------

  /// PartitionState::content_hash() of the live state — the divergence-
  /// detection digest leaders and followers exchange at snapshot boundaries.
  std::uint64_t state_digest() const;

  /// Applies the next WAL record of this session's chain (recovery and the
  /// replication follower): a kDelta record splices the grown graph and
  /// rebinds it with the logged parts of the appended vertices, then both
  /// kinds make the logged moves in order — the floating-point work the
  /// leader did, so state, digest and maintained sums match it bit for bit
  /// whatever this session's config says.  Malformed records throw
  /// gapart::Error before the state is touched.  `log_locally` (a follower)
  /// first appends the record to this session's own WAL; a failed append
  /// fail-stops the session, since a log that missed a shipped record would
  /// replay to a diverged state after the follower's next restart.
  void apply_logged(const WalRecord& record, bool log_locally);

  /// Sizes the state for an n-vertex graph before a replay that will reach
  /// it (PartitionState::reserve), so applying the records copies no
  /// per-vertex array.  Changes no value.
  void reserve_vertices(VertexId n);

  /// Follower-side lockstep compaction, triggered by the leader's shipped
  /// snapshot boundary rather than the local policy.  Checkpoints the
  /// current state (with its digest) and truncates the local log.  Returns
  /// false — keeping the log — when the snapshot write fails or the session
  /// has no WAL.
  bool compact_now();

  /// Leader-side compaction liveness: apply_update only evaluates the
  /// compaction policy right after an append, when the ship gate is
  /// necessarily still behind the new record — so with a strict gate
  /// (ship_retain_bytes == 0) the policy would never fire.  The shipper
  /// calls this after consuming the log to run any compaction the gate
  /// deferred.  Returns true when a compaction ran.
  bool poll_compaction();

  /// Leader-side: hands the WAL the shipper's consumed-offset gate so
  /// compaction defers (bounded by ship_retain_bytes) while the shipper is
  /// behind.  No-op on a non-durable session.
  void set_ship_gate(std::shared_ptr<WalShipGate> gate);

  /// Drains the session for teardown: marks it closed (further updates and
  /// refinement plans are refused), signals an in-flight refinement to
  /// cancel and waits until it has unwound.  Every acknowledged record is
  /// already fsynced, so the WAL needs no flush.  Idempotent; safe to call
  /// while a refinement is mid-run on the pool.
  void close();
  bool closed() const;

 private:
  /// Publishes the current state as the newest snapshot (mu_ held).
  void publish(const char* source);
  /// Throws unless the session takes updates (mu_ held).
  void admit_update();
  /// Appends one record; a failed append fail-stops the session (mu_ held,
  /// wal_ set).
  void log_or_fail_stop(WalRecordType type, std::uint64_t epoch,
                        const std::string& payload, VertexId damage);
  /// Advances the epoch, the policy accumulators and the update count for
  /// one absorbed delta (mu_ held).
  void count_update(VertexId damage);
  /// Checkpoints the latest snapshot into the WAL (mu_ held, wal_ set).
  /// False when that failed: the log is intact and the next trigger retries.
  bool compact_wal();
  RefineSignals signals() const;  // mu_ held

  const SessionConfig config_;

  mutable std::mutex mu_;  ///< guards everything below
  std::shared_ptr<const Graph> graph_;
  PartitionState state_;
  std::uint64_t update_epoch_ = 0;
  std::uint64_t version_ = 0;

  // Policy accumulators (reset when a refinement is adopted).
  double baseline_fitness_ = 0.0;
  int updates_since_refine_ = 0;
  std::int64_t damage_since_refine_ = 0;
  std::int64_t damage_since_deep_ = 0;
  bool refine_in_flight_ = false;

  // Durability + teardown plane.
  std::unique_ptr<SessionWal> wal_;
  bool wal_failed_ = false;  ///< fail-stop: an append exhausted its retries
  bool closed_ = false;
  /// Set for the duration of one in-flight refinement; close() flips it.
  std::shared_ptr<std::atomic<bool>> refine_cancel_;
  /// Signalled when refine_in_flight_ clears (close() drains on it).
  std::condition_variable refine_done_cv_;

  // Statistics.  Repair latencies accumulate into a fixed-size log-bucketed
  // histogram (stats_.repair_latency — bounded memory over an unbounded
  // stream, O(buckets) to scrape).
  SessionStats stats_;

  mutable std::mutex snap_mu_;  ///< guards snapshot_ only (reader-facing)
  std::shared_ptr<const SessionSnapshot> snapshot_;
};

/// Executes a refinement job (outside any session lock): kLight runs
/// verified gain-ordered frontier hill-climb rounds; kDeep additionally runs
/// a DPGA burst seeded with the climbed solution.  Deterministic for a given
/// rng; `executor` (optional) parallelizes the DPGA burst.  Returns the
/// refined assignment and its fitness.
struct RefineOutcome {
  Assignment assignment;
  double fitness = 0.0;
};
RefineOutcome run_refinement(const PartitionSession::RefineJob& job,
                             const SessionConfig& config, Rng rng,
                             Executor* executor);

/// The session image (service/wal.hpp) of one published snapshot under
/// `config`'s identity: what compaction checkpoints, save_session's file
/// and the replication kOpenSession payload.  Built from the immutable
/// snapshot, so encoding it never holds the session lock.
SessionImage snapshot_image(const SessionConfig& config,
                            const SessionSnapshot& snap);

}  // namespace gapart

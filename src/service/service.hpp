// PartitionService: many concurrent PartitionSessions over one shared
// Executor — the layer that turns the algorithm library into a long-running
// system.
//
// Clients (one per mesh/simulation/tenant) open sessions, stream GraphDeltas
// into them, and read epoch-versioned snapshots at any time from any thread.
// The service runs each session's synchronous repair on the submitting
// client's thread (so per-delta latency is the client's to budget) and
// multiplexes every session's asynchronous refinement — policy-triggered
// hill-climb rounds and DPGA bursts — onto the one shared pool, where a
// burst's island steps themselves fan out as nested tasks.  Every submitted
// delta is admitted and repaired in full: its verification rounds are
// bounded only by the session's latency budget and round cap, and the
// service applies no backpressure of its own.
//
// Thread-safety: all public methods are safe to call concurrently.  Updates
// to DIFFERENT sessions proceed in parallel; updates to one session
// serialize on that session's lock.  close_session never races a running
// refinement into use-after-free: jobs keep their session alive via
// shared_ptr and publication into a closed session is harmless.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/executor.hpp"
#include "service/session.hpp"

namespace gapart {

using SessionId = std::uint64_t;

struct ServiceConfig {
  /// Shared pool size when the service creates its own Executor
  /// (0 = hardware threads).  Ignored when an external pool is supplied.
  int num_threads = 0;
  /// Master switch for the asynchronous refinement plane.
  bool background_refinement = true;
  /// Seed for the per-job refinement RNG streams: refinement outcomes are a
  /// deterministic function of (seed, session id, captured epoch), whatever
  /// the pool's scheduling does.
  std::uint64_t seed = 0x5e55101d;
  /// Per-session write-ahead logging + crash recovery; durability.enabled()
  /// (a non-empty directory) makes every open_session durable.
  DurabilityConfig durability;
};

/// Service-wide aggregation over all open sessions.
struct ServiceStats {
  int sessions = 0;
  std::uint64_t updates = 0;
  int refinements_planned = 0;
  int refinements_applied = 0;
  int refinements_stale = 0;
  int refinements_no_better = 0;
  /// Every session's repair-latency histogram merged — exact composition
  /// (histogram merge is associative), so these are bucketed service-wide
  /// percentiles (relative error <= 12.5%; see common/telemetry.hpp).
  double p50_repair_seconds = 0.0;
  double p99_repair_seconds = 0.0;
  /// Pool tasks queued or executing at sampling time (refinement backlog
  /// gauge; racy by nature).
  int pool_backlog = 0;

  // Durability (summed over durable sessions' WalStats).
  int durable_sessions = 0;
  int failed_sessions = 0;  ///< fail-stopped by an unrecoverable WAL append
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t wal_compactions = 0;

  std::int64_t refine_start_failures = 0;  ///< task-start faults absorbed
};

/// What recovering one session directory took (PartitionService::recover).
struct RecoveryReport {
  SessionId session_id = 0;
  std::uint64_t snapshot_epoch = 0;  ///< replay started from this checkpoint
  std::uint64_t final_epoch = 0;     ///< epoch after the last replayed record
  std::size_t records_replayed = 0;
  /// The log ended in a partial record (the crash hit mid-append); the torn
  /// record was never acknowledged, so dropping it is correct.
  bool torn_tail = false;
  double seconds = 0.0;
};

class PartitionService {
 public:
  /// `executor` (optional, non-owning, must outlive the service) supplies
  /// the refinement pool; when null the service owns one of
  /// config.num_threads.
  explicit PartitionService(ServiceConfig config = {},
                            Executor* executor = nullptr);

  /// Waits for in-flight refinements, then shuts down.
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Opens a session on `graph` partitioned as `initial`; returns its id.
  /// A durable open writes the session's directory before the session
  /// becomes visible; when that throws, the service holds no new session
  /// and the partial directory is removed.
  SessionId open_session(std::shared_ptr<const Graph> graph,
                         Assignment initial, SessionConfig config);

  /// Opens a session from the session image save_session wrote at `path`
  /// (service/wal.hpp), resuming at its epoch with snapshot source
  /// "restore".  Identity and budgets come from `config` (whose num_parts
  /// must equal the image's).
  SessionId open_session_from_files(const std::string& path,
                                    SessionConfig config);

  /// Rebuilds every session found under config.durability.dir (one
  /// `session-<id>` directory each) from its checkpoint snapshot plus its
  /// log, applying each record's logged outcome
  /// (PartitionSession::apply_logged) — no repair runs, so the result is the
  /// acked state whatever `base` says.  Session ids are preserved.  `base`
  /// supplies the non-persisted session config knobs (budgets, policy) the
  /// recovered sessions use from then on; num_parts and the fitness
  /// objective come from each session's snapshot image.  Call on a fresh
  /// service before opening new sessions.  A directory holding neither
  /// CURRENT nor wal.log is an open that never completed and is skipped;
  /// one with wal.log but no CURRENT is an error.
  /// Throws WalCorruptError on mid-log corruption (a torn *tail* is
  /// tolerated and reported instead — it was never acknowledged).  Sessions
  /// are inserted only after every one replayed: after a throw the service
  /// holds none of them, so recover() can be retried.
  std::vector<RecoveryReport> recover(const SessionConfig& base);

  /// Closes a session: refuses further updates, cancels and drains any
  /// in-flight refinement (cooperative — the job unwinds at its next pass
  /// boundary), and drops it from the table.
  void close_session(SessionId id);

  /// Streams one delta into a session: a synchronous repair_step on the
  /// calling thread, then (policy permitting) schedules background
  /// refinement on the shared pool.
  ///
  /// When a WAL is attached (durable service), the report is returned only
  /// after the delta's record is appended and fsynced: ack implies durable.
  RepairReport submit_update(SessionId id, std::shared_ptr<const Graph> grown,
                             const GraphDelta& delta);

  /// Latest snapshot of one session; wait-free against repair/refinement.
  std::shared_ptr<const SessionSnapshot> snapshot(SessionId id) const;

  SessionStats session_stats(SessionId id) const;
  ServiceStats stats() const;

  /// Idle tick: consults every session's refinement policy and schedules
  /// background work for those whose triggers fired, exactly as a delta
  /// arrival would.  Without it a session that stops receiving traffic
  /// could never act on its staleness/damage accumulators — call this from
  /// a periodic housekeeping loop (or between client bursts).
  void poll();

  /// Checkpoints one session's latest snapshot as a session image written
  /// atomically at exactly `path` (for Chaco/METIS text, see graph/io).
  void save_session(SessionId id, const std::string& path) const;

  /// Blocks until every scheduled refinement has completed and published.
  void quiesce();

  int num_sessions() const;
  Executor& executor() { return *executor_; }
  const ServiceConfig& config() const { return config_; }

  // --- Replication plumbing (see service/replication.hpp) -----------------
  //
  // The shipper tails session WAL directories directly and the follower
  // rebuilds sessions from streamed open frames; both need slightly more
  // access than regular clients.

  /// All open session ids, ascending (a stable iteration order for the
  /// shipper's attach scan).
  std::vector<SessionId> session_ids() const;

  /// Shared handle to one session (throws on unknown id).  Jobs holding the
  /// handle keep the session alive across close_session.
  std::shared_ptr<PartitionSession> session_handle(SessionId id) const;

  /// Directory holding one session's WAL (`<durability.dir>/session-<id>`).
  std::string session_wal_dir(SessionId id) const { return session_dir(id); }

  /// Follower side of replication: (re)creates session `id` from a streamed
  /// open frame's session image, replacing any existing session with that
  /// id.  Identity comes from the image, everything else from `config`.
  /// When durability is enabled its WAL is checkpointed at exactly that
  /// state, so a crashed follower restarts from its own disk: a fresh WAL
  /// on a first open, the replaced session's WAL on a resync
  /// (PartitionSession::hand_over_wal).  A resync that throws leaves the
  /// replaced session live and restartable from its directory.
  void open_replica_session(SessionId id, SessionImage image,
                            SessionConfig config);

 private:
  std::shared_ptr<PartitionSession> find(SessionId id) const;
  /// Reserves a fresh id, gives the session a WAL when durability is on,
  /// then inserts it.
  SessionId open(std::shared_ptr<PartitionSession> session);
  /// Rebuilds a session from a WAL snapshot or an open frame: identity from
  /// the image, everything else (budgets, policy) from `base`.
  static std::shared_ptr<PartitionSession> session_from_image(
      SessionImage image, SessionConfig base, const char* origin);
  /// Attaches a fresh WAL checkpointed at the session's latest snapshot.
  void create_wal(SessionId id, PartitionSession& session) const;
  void insert_with_id(SessionId id, std::shared_ptr<PartitionSession> session);
  void maybe_schedule_refinement(SessionId id,
                                 const std::shared_ptr<PartitionSession>& s);
  std::string session_dir(SessionId id) const;

  ServiceConfig config_;
  std::unique_ptr<Executor> owned_executor_;
  Executor* executor_;

  mutable std::mutex mu_;  ///< guards the session table only
  std::unordered_map<SessionId, std::shared_ptr<PartitionSession>> sessions_;
  SessionId next_id_ = 1;

  std::atomic<std::int64_t> refine_start_failures_{0};
};

}  // namespace gapart

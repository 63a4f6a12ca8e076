// Leader/follower replication of a PartitionService over a Transport.
//
// The leader's durability layer already writes, per session, a CRC-framed
// WAL of outcomes: each record carries the delta and what the leader's
// repair or refinement decided (service/wal.hpp).  Replication reuses that
// artifact wholesale: a ReplicationShipper tails each session's wal.log —
// never past the log's end as the session lock last saw it, and every
// append is fsynced before it returns, so a follower can never hold an
// update the leader could still lose — and streams the records to a
// ReplicationFollower, which applies each logged outcome exactly as
// recovery does (PartitionSession::apply_logged), logging it to its own WAL
// first.  The follower never repairs, so it lands on the leader's state bit
// for bit whatever its own repair config or binary would decide.  A
// follower is therefore just "recovery that never stops": continuous
// tail-replay, including snapshot compactions applied in lockstep with the
// leader's.
//
// Wire protocol (GARP frames, CRC-framed like the WAL):
//
//   kOpenSession   full state bootstrap: the session image (service/wal.hpp)
//                  of the leader's snapshot at epoch E — identity, epoch,
//                  content digest, graph and partition, the same bytes
//                  save_session writes.  Sent on attach and on resync (a
//                  follower that fell behind a compaction).  Accepted at any
//                  seq above the follower's applied seq — it is a full
//                  reset.
//   kRecord        one WAL record (kDelta or kRefine), per-session seq.
//                  The follower accepts exactly applied_seq + 1 and
//                  enforces the WAL epoch chain (kDelta: epoch + 1;
//                  kRefine: current epoch); anything else is a duplicate or
//                  a gap, dropped and repaired by the leader's resume.
//   kCompact       the leader compacted at epoch E with digest D: the
//                  follower compares D against its own state digest —
//                  mismatch is exact divergence detection and fail-stops
//                  with ReplicationDivergedError — then compacts in
//                  lockstep.
//   kAck           follower -> leader: highest applied (seq, epoch), under
//                  the follower's accepted generation.
//
// Failure matrix (drop / dup / reorder / truncate / partition — injectable
// via common/fault_injection at the transport seam):
//   * CRC rejects truncated or corrupted frames.
//   * Per-session monotone seq rejects duplicates and reorders; gaps are
//     dropped and heal when the leader resumes from the acked offset after
//     `resume_after_stalled_pumps` pumps without ack progress.
//   * A slow follower exerts backpressure through the bounded unacked
//     queue; leader-side compaction defers for it via WalShipGate, bounded
//     by ship_retain_bytes — past that the follower pays a snapshot resync.
//
// Fencing: every frame carries the leader's generation (a monotone term,
// persisted in a GENERATION file on both sides).  Promotion bumps the
// follower's generation, so a deposed leader's late frames — lower
// generation — are rejected, and the deposed leader learns of its demotion
// from the first ack carrying a higher generation (split-brain prevention).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/service.hpp"
#include "service/transport.hpp"

namespace gapart {

class ReplicationError : public Error {
 public:
  explicit ReplicationError(const std::string& what) : Error(what) {}
};

/// Exact divergence detected: the follower's content digest differs from
/// the leader's at a snapshot boundary.  Fail-stop — a diverged replica
/// must never be promoted.
class ReplicationDivergedError : public ReplicationError {
 public:
  explicit ReplicationDivergedError(const std::string& what)
      : ReplicationError(what) {}
};

// --- Wire frames (exposed for tests: tamper/fuzz the codec directly) -------

enum class RepFrameType : std::uint8_t {
  kOpenSession = 1,
  kRecord = 2,
  kCompact = 3,
  kAck = 4,
};

struct RepFrame {
  RepFrameType type = RepFrameType::kRecord;
  /// kRecord: the WalRecordType being carried.
  std::uint8_t sub = 0;
  std::uint64_t generation = 0;  ///< leader fencing term (follower's on acks)
  std::uint64_t session = 0;     ///< SessionId
  std::uint64_t seq = 0;         ///< per-session monotone sequence number
  std::uint64_t epoch = 0;       ///< record epoch / open epoch / applied epoch
  std::string payload;
};

std::string encode_rep_frame(const RepFrame& frame);
/// nullopt on any framing/CRC violation — the caller counts and drops.
std::optional<RepFrame> decode_rep_frame(const std::string& wire);

/// The GENERATION fencing term persisted in a service's durability dir
/// (0 only when the file is absent; IoError when it cannot be examined,
/// ReplicationError when it is present but unparseable).  Written
/// atomically and durably (write_file_atomic); throws IoError on failure,
/// leaving the previous term in place.  Exposed for tests and the chaos
/// tooling.
std::uint64_t read_generation_file(const std::string& dir);
void write_generation_file(const std::string& dir, std::uint64_t generation);

// --- Leader side ------------------------------------------------------------

struct ShipperConfig {
  /// This leader's fencing term.  Must be >= the GENERATION file in the
  /// service's durability dir (a deposed leader restarting with a stale
  /// term is refused at construction).
  std::uint64_t generation = 1;
  /// Bounded per-session ship queue (unacked + unsent frames).  When full
  /// the shipper stops reading the log — backpressure, never frame loss —
  /// and leader-side compaction starts counting against ship_retain_bytes.
  std::size_t max_unacked_frames = 256;
  /// Pumps without ack progress (while frames are outstanding) before the
  /// shipper re-sends everything unacked from the acked offset.
  int resume_after_stalled_pumps = 3;
};

struct ShipperStats {
  int sessions_attached = 0;
  std::uint64_t generation = 0;
  std::uint64_t opens_shipped = 0;
  std::uint64_t records_shipped = 0;
  std::uint64_t compacts_shipped = 0;
  std::uint64_t frames_sent = 0;  ///< incl. resume re-sends
  std::uint64_t acks_received = 0;
  std::uint64_t send_failures = 0;     ///< TransportError on a send
  std::uint64_t resumes = 0;           ///< stalled -> re-sent from acked
  std::uint64_t snapshot_resyncs = 0;  ///< follower re-bootstrapped
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t frames_unacked = 0;
  /// A follower acked with a higher generation: this leader was deposed and
  /// has stopped shipping (its WAL keeps growing locally; operator decides).
  bool deposed = false;
  /// Replication lag in epochs (leader epoch - acked epoch), sampled once
  /// per session per pump; percentiles over the last 4,096 to 8,192 samples,
  /// bucketed (relative error <= 12.5%, see common/telemetry.hpp).
  double lag_epochs_p50 = 0.0;
  double lag_epochs_p99 = 0.0;
};

/// Tails every session of a (durable) leader service and streams WAL
/// records over one Transport.  It runs only when its caller pumps it.
class ReplicationShipper {
 public:
  /// Persists config.generation into the leader's GENERATION file; throws
  /// ReplicationError when the file already holds a larger term.
  ReplicationShipper(PartitionService& service, Transport& link,
                     ShipperConfig config = {});

  ReplicationShipper(const ReplicationShipper&) = delete;
  ReplicationShipper& operator=(const ReplicationShipper&) = delete;

  /// One shipping round: drain acks, attach new sessions, observe
  /// compactions (lockstep or resync), read log tails, send.
  /// Returns frames sent.  Transport failures are absorbed into stats and
  /// retried next pump.  No-op once deposed.
  int pump();

  /// True when every attached session's acked seq has caught up with
  /// everything shipped AND nothing remains unread in the logs.
  bool drained() const;

  ShipperStats stats() const;
  /// Highest epoch the follower has acknowledged for one session (0 when
  /// never acked or unknown).
  std::uint64_t acked_epoch(SessionId id) const;

 private:
  struct SessionShip {
    bool attached = false;
    bool needs_resync = false;
    std::uint64_t next_seq = 1;
    std::uint64_t acked_seq = 0;
    std::uint64_t acked_epoch = 0;
    std::uint64_t file_offset = kWalLogHeaderBytes;
    /// Highest record epoch read (or covered by the shipped open) so far.
    /// The tail filter hangs off it: a record ships iff it continues the
    /// chain from read_epoch (continues_epoch_chain) — anything else is a
    /// stale-prefix record already covered by the snapshot.  kRefine at the
    /// open epoch is deliberately shipped even when the snapshot may
    /// already include it: its moves name absolute destinations, so
    /// re-applying them to the state they produced moves nothing, and the
    /// ambiguity (adopted just before vs just after the open was captured)
    /// is undecidable from the log.
    std::uint64_t read_epoch = 0;
    std::uint64_t shipped_snapshot_epoch = 0;
    struct Queued {
      std::uint64_t seq = 0;
      std::string wire;
      /// Telemetry stamp of the most recent send (0 = never sent): acking
      /// this frame records ship->ack RTT.  A resume re-send re-stamps, so
      /// the RTT always measures the delivery that actually got acked.
      double sent_at = 0.0;
    };
    std::deque<Queued> queue;
    std::size_t sent_upto = 0;  ///< queue index of the first unsent frame
    int stalled_pumps = 0;
    bool progressed = false;  ///< acks advanced during the current pump
    std::shared_ptr<WalShipGate> gate;
  };

  void drain_acks();
  void resync(SessionId id, SessionShip& ship);
  void observe_compaction(SessionId id, SessionShip& ship,
                          const WalStats& wal);
  void read_tail(SessionId id, SessionShip& ship, const WalStats& wal);
  int send_pending(SessionShip& ship);
  void enqueue(SessionShip& ship, RepFrame frame);

  PartitionService& service_;
  Transport& link_;
  ShipperConfig config_;

  mutable std::mutex mu_;
  std::unordered_map<SessionId, SessionShip> ships_;
  ShipperStats stats_;
  // Two generations of lag samples; pump() retires the recent one into
  // the previous one when it fills.
  LogHistogram lag_recent_;
  LogHistogram lag_previous_;
};

// --- Follower side ----------------------------------------------------------

struct FollowerConfig {
  /// Template for replica sessions: the policy and budgets they use once
  /// promoted; identity fields come from each open frame.  Its repair
  /// settings play no part in following — the follower applies the
  /// leader's logged moves.  Background refinement on a follower service
  /// should be off for the same reason.
  SessionConfig base;
  /// Floor for the accepted fencing term (the GENERATION file, when
  /// present and larger, wins).
  std::uint64_t generation = 0;
};

struct FollowerStats {
  int sessions = 0;
  std::uint64_t generation = 0;  ///< highest leader term accepted
  std::uint64_t frames_received = 0;
  std::uint64_t opens_applied = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t compacts_applied = 0;
  std::uint64_t digests_verified = 0;  ///< snapshot-boundary digest matches
  std::uint64_t acks_sent = 0;
  std::uint64_t duplicates_dropped = 0;  ///< seq <= applied (dup/reorder)
  std::uint64_t gaps_dropped = 0;        ///< seq jumped ahead (drop upstream)
  std::uint64_t fenced_rejected = 0;     ///< stale-generation frames
  std::uint64_t corrupt_rejected = 0;    ///< framing/CRC failures, junk
  std::uint64_t apply_failures = 0;      ///< injected I/O or alloc faults
  bool diverged = false;
  bool promoted = false;
};

/// One promoted session's final position.
struct PromotedSession {
  SessionId id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t digest = 0;
};

struct PromotionReport {
  std::uint64_t generation = 0;  ///< the new term this service writes under
  double seconds = 0.0;          ///< drain + verify + fence time
  std::vector<PromotedSession> sessions;
};

/// Continuous tail-replay of a leader's stream into a local
/// PartitionService.  The service should be configured with
/// background_refinement = false and compaction disabled (zero thresholds)
/// — the follower compacts in lockstep with the leader, not by local
/// policy.
class ReplicationFollower {
 public:
  ReplicationFollower(PartitionService& service, Transport& link,
                      FollowerConfig config = {});

  ReplicationFollower(const ReplicationFollower&) = delete;
  ReplicationFollower& operator=(const ReplicationFollower&) = delete;

  /// recover() generalized: rebuilds any replica state already on the
  /// follower's disk (so a restarted follower resumes from its own WAL,
  /// not from scratch) and enters tail mode.  Returns the per-session
  /// recovery reports (empty on a fresh follower).
  std::vector<RecoveryReport> start_follower();

  /// Applies every frame currently available on the link (waiting up to
  /// `timeout_seconds` for the first one) and acks progress.  Returns
  /// frames processed.  Throws ReplicationDivergedError on a digest
  /// mismatch at a snapshot boundary (fail-stop; `diverged` stays set).
  int pump(double timeout_seconds = 0.0);

  /// Failover: drains the link (applies everything already shipped),
  /// verifies every session's assignment, bumps + persists the fencing
  /// generation, and opens the service for writes.  After promotion any
  /// late frame from the deposed leader is rejected by the fence.
  PromotionReport promote();

  FollowerStats stats() const;
  /// Applied epoch of one session (0 when unknown).
  std::uint64_t applied_epoch(SessionId id) const;

 private:
  struct Replica {
    std::uint64_t applied_seq = 0;
    std::uint64_t applied_epoch = 0;
  };

  /// Applies every frame currently on the link, waiting up to
  /// `timeout_seconds` for the first (mu_ held).  Returns frames received.
  int drain(double timeout_seconds);
  void handle_frame(const RepFrame& frame);
  void ack(SessionId id, const Replica& replica);
  /// Writes `generation` to the GENERATION file before it is adopted;
  /// throws IoError (the term then stays unadopted).
  void persist_generation(std::uint64_t generation);

  PartitionService& service_;
  Transport& link_;
  FollowerConfig config_;

  mutable std::mutex mu_;
  std::unordered_map<SessionId, Replica> replicas_;
  std::uint64_t generation_ = 0;
  FollowerStats stats_;
  bool started_ = false;
};

}  // namespace gapart

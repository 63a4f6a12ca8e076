// Per-session durability: a CRC-framed write-ahead delta log with snapshot
// compaction.
//
// A record logs an outcome, not a recipe: every accepted GraphDelta
// (graph/delta_codec: O(damage) bytes) together with what the live repair
// decided, appended as one framed record and fsynced before the synchronous
// repair acknowledges to the client (ack implies durable); an adopted
// refinement logs only its moves.
// Replay applies the logged decisions and never repairs, so a log replays
// to the acked state under any reader's config.  When the damage
// accumulated in the log crosses the compaction policy's threshold, the
// session state is checkpointed as one session image (temp file + fsync +
// rename) and the log is truncated.
//
// wal.log is magic "GAWL" | version 2, then frames of magic u32 | type u8 |
// epoch u64 | payload length u32 | crc u32 | payload, where a payload is
//
//   kDelta    encode_delta(grown, delta) | outcome
//   kRefine   outcome
//   outcome   move count u32 | one part per appended vertex |
//             moves as (vertex u32, part), in the order they were made
//
// and a part takes 1 byte when the session's num_parts <= 256, else 4.
//
// The session image is gapart's one internal snapshot format: the WAL's
// checkpoint, the replication kOpenSession payload and save_session's file
// are the same bytes.  Layout (host byte order, little-endian):
//
//   magic u32 "GSI1" | num_parts u32 | objective u32 | lambda f64 bits |
//   epoch u64 | digest u64 | graph length u64 |
//   graph   encode_delta(graph, GraphDelta{0, {}}) (graph/delta_codec) |
//   parts   encode_assignment(assignment) |
//   sums    k x f64 part weights | k x f64 part cuts | f64 cut sum |
//           f64 imbalance  (the state's maintained sums, see SessionImage) |
//   crc u32 over every byte before it
//
// Chaco/METIS text (graph/io) is for external interchange only.
//
// On-disk layout of one session directory:
//
//   snap-<E>           session image at update epoch E
//   CURRENT            the epoch E of the authoritative snapshot
//   wal.log            framed records past E — deltas with epochs > E,
//                      refinements at epochs >= E — plus possibly stale
//                      records <= E left by a compaction that crashed
//                      between the CURRENT rename and the log truncation
//                      (replay skips them, except refinements at E: one
//                      may postdate the snapshot, and re-applying one the
//                      snapshot holds moves nothing)
//
// Crash-consistency argument: CURRENT is only renamed over after the new
// snapshot image is fully written and fsynced, and the log is only
// truncated after CURRENT points at the new epoch.  Whatever the crash
// point, CURRENT names a complete snapshot and the log holds every record
// past it.  A torn final record (the crash hit mid-append) is detected by
// its CRC frame and dropped; a bad CRC *followed by valid records* is real
// corruption and surfaces as WalCorruptError — recovery never guesses.
//
// Thread-safety: none.  A SessionWal belongs to one PartitionSession and
// every call is made under that session's lock (append/compaction order must
// equal apply order, so this is not a restriction).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/backoff.hpp"
#include "common/bytes.hpp"
#include "core/incremental.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"
#include "service/refine_policy.hpp"

namespace gapart {

/// The log holds records that cannot all be trusted: a bad frame with valid
/// records after it.  Torn *tails* are not errors (see file comment).
class WalCorruptError : public IoError {
 public:
  explicit WalCorruptError(const std::string& what) : IoError(what) {}
};

/// When acknowledged updates become durable: always before the ack.  Every
/// append is fsynced before it returns, so the whole log is durable.  The
/// one enumerator stays only because callers still name it.
enum class FsyncPolicy {
  kEveryRecord,  ///< fsync before every acknowledgement (ack == durable).
};

struct DurabilityConfig {
  /// Root directory for session subdirectories; empty disables durability.
  std::string dir;
  /// Always kEveryRecord: every append is fsynced before the ack.
  FsyncPolicy fsync = FsyncPolicy::kEveryRecord;
  /// When to fold the log into a fresh snapshot (refine_policy).
  CompactionPolicy compaction;
  /// Retry schedule for transient log I/O failures.
  BackoffPolicy io_retry;
  /// Replicated sessions only (a WalShipGate is attached): how many log
  /// bytes compaction may retain waiting for the shipper to catch up.  Past
  /// this bound compaction proceeds anyway and the slow follower pays a
  /// snapshot resync.  0 = wait for the shipper unconditionally.
  std::uint64_t ship_retain_bytes = 32ull << 20;

  bool enabled() const { return !dir.empty(); }
};

enum class WalRecordType : std::uint8_t {
  kDelta = 1,   ///< payload = delta_codec bytes + the repair's outcome
  kRefine = 2,  ///< payload = the adopted refinement's outcome (moves only)
};

/// True for the byte of a WalRecordType above; every reader of a type byte
/// (a WAL frame, a shipped record) rejects any other value.
inline bool is_record_type(std::uint8_t type) {
  return type == static_cast<std::uint8_t>(WalRecordType::kDelta) ||
         type == static_cast<std::uint8_t>(WalRecordType::kRefine);
}

struct WalRecord {
  WalRecordType type = WalRecordType::kDelta;
  /// The session update epoch this record belongs to: a kDelta record's
  /// epoch is the epoch the delta produced; a kRefine record's epoch is the
  /// epoch whose state the refinement replaced.
  std::uint64_t epoch = 0;
  std::string payload;
};

/// The epoch chain every reader of a log enforces (recovery, the shipper,
/// the follower): a kDelta record advances a session at `epoch` to
/// `epoch + 1`, a kRefine record re-certifies `epoch`.
inline bool continues_epoch_chain(const WalRecord& record,
                                  std::uint64_t epoch) {
  return record.epoch ==
         (record.type == WalRecordType::kDelta ? epoch + 1 : epoch);
}

/// Appends a record's outcome section (see file comment) to `out`.
void encode_outcome(std::string& out, const RepairOutcome& outcome,
                    PartId num_parts);
/// Reads the outcome section that ends a record, for `num_new` appended
/// vertices of a `num_vertices`-vertex graph.  Throws gapart::Error unless
/// every vertex id is < num_vertices, every part < num_parts, and the
/// section ends exactly at the end of `in`.
RepairOutcome decode_outcome(ByteReader& in, VertexId num_new,
                             VertexId num_vertices, PartId num_parts);

struct WalReadResult {
  std::vector<WalRecord> records;
  /// The final record was torn (partial frame or bad CRC at the very tail).
  bool torn_tail = false;
  /// Byte length of the valid prefix — where appends may resume.
  std::uint64_t valid_bytes = 0;
};

/// Parses a log file.  A missing file reads as empty.  Throws
/// WalCorruptError when an invalid frame is followed by valid records, and
/// IoError on unreadable files.
WalReadResult read_log_file(const std::string& path);

/// Byte offset of the first record frame in wal.log (the file header).
constexpr std::uint64_t kWalLogHeaderBytes = 8;

/// One replication-shipper read over a *live* log file.
struct WalTail {
  std::vector<WalRecord> records;
  /// Absolute end offset of each record (aligned with `records`), so the
  /// caller can resume — or stop mid-batch under backpressure — exactly at a
  /// frame boundary.
  std::vector<std::uint64_t> ends;
  /// Where parsing stopped; equals `offset` when nothing was read.
  std::uint64_t end_offset = 0;
};

/// Parses frames from byte `offset` (>= kWalLogHeaderBytes), stopping at the
/// first frame whose end would exceed `limit_bytes` (the caller passes the
/// log's end, WalStats::log_end(), read under the session lock: a frame
/// still being appended, or one whose fsync failed and is being rolled back,
/// lies past it) or at the first invalid frame.  Unlike read_log_file, an
/// invalid frame is never fatal here: on a live log it is an append still in
/// flight, picked up by the next poll.  A missing file — or `offset` past
/// the current size, which happens when compaction truncated the log under
/// the shipper — reads as empty and the caller resolves it via the snapshot
/// epoch.
WalTail read_log_tail(const std::string& path, std::uint64_t offset,
                      std::uint64_t limit_bytes);

/// Compaction/shipping coordination for a replicated session: the shipper
/// publishes the log offset it has consumed, and compaction — which
/// truncates the log — defers while the shipper is behind, bounded by
/// DurabilityConfig::ship_retain_bytes.  Past the bound compaction proceeds
/// and the slow follower pays a snapshot resync instead of the leader paying
/// unbounded log retention.
struct WalShipGate {
  std::atomic<std::uint64_t> consumed_offset{0};
};

/// Appends the session image's parts section (u64 n + n x i32 parts).
void encode_assignment(std::string& out, const Assignment& assignment);
Assignment decode_assignment(std::string_view payload);

/// One session image (see file comment): everything a session rebuilt from
/// it needs to continue exactly as the session it was taken of.
struct SessionImage {
  PartId num_parts = 2;
  FitnessParams fitness;
  std::uint64_t epoch = 0;   ///< update epoch the image was taken at
  std::uint64_t digest = 0;  ///< PartitionState::content_hash() at `epoch`
  std::shared_ptr<const Graph> graph;
  Assignment assignment;
  /// The state's maintained sums at `epoch` (PartitionState::metrics()),
  /// which a rebuilt state adopts (see its constructor).
  PartitionMetrics sums;
};

std::string encode_session_image(const SessionImage& image);
/// Throws gapart::Error on a bad CRC or any malformed section.  The digest
/// and the sums are carried, not recomputed.
SessionImage decode_session_image(std::string_view bytes);

/// Writes `content` to `path` atomically and durably: creates the parent
/// directory if missing, then temp file, fsync, rename over, fsync of the
/// directory.  Throws IoError; on failure the previous file at `path` is
/// untouched.
void write_file_atomic(const std::string& path, const std::string& content);
/// The whole file; throws IoError when it cannot be read.
std::string read_file(const std::string& path);

/// Cumulative durability counters for one session (scraped into
/// SessionStats/ServiceStats).
struct WalStats {
  std::uint64_t appends = 0;
  std::uint64_t append_retries = 0;  ///< transient I/O errors retried away
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t compactions = 0;
  std::uint64_t compaction_failures = 0;  ///< kept the log; retried later
  std::uint64_t snapshot_epoch = 0;
  /// PartitionState::content_hash() of the snapshot state (persisted in
  /// its image) — what a follower must match when it compacts in lockstep.
  std::uint64_t snapshot_digest = 0;
  std::uint64_t log_records = 0;
  std::uint64_t log_bytes = 0;  ///< frames in wal.log after its header
  std::int64_t log_damage = 0;

  /// Absolute wal.log offset of the log's end: the file's size.  Every
  /// append is fsynced before it returns, so all of it is durable; the
  /// replication shipper caps its tail reads here, so a follower never
  /// holds a record the leader could still lose.
  std::uint64_t log_end() const { return kWalLogHeaderBytes + log_bytes; }
};

class SessionWal {
 public:
  /// Creates `dir` (parents included), writes `image` as the initial
  /// snapshot and CURRENT, and opens a fresh log: the session's opening
  /// state (epoch 0, or a leader's mid-life image on a follower) is durable
  /// before the session is handed out.
  static std::unique_ptr<SessionWal> create(std::string dir,
                                            const DurabilityConfig& config,
                                            const SessionImage& image);

  /// Everything recovery needs from one session directory: the snapshot
  /// image, the records to replay (deltas with epochs > image.epoch and
  /// refinements from image.epoch on; stale records skipped), and the
  /// reopened WAL positioned after the last valid record.
  struct Recovered {
    std::unique_ptr<SessionWal> wal;
    SessionImage image;
    std::vector<WalRecord> records;
    bool torn_tail = false;
  };
  static Recovered recover(std::string dir, const DurabilityConfig& config);

  ~SessionWal();
  SessionWal(const SessionWal&) = delete;
  SessionWal& operator=(const SessionWal&) = delete;

  /// Appends one record and fsyncs it, each step with retry/backoff on
  /// transient I/O errors.  `damage` feeds the compaction accumulator.
  /// Throws IoError once retries are exhausted, with the frame rolled back
  /// — the caller must then treat the session's log as broken (fail-stop)
  /// or surface the error.
  void append(WalRecordType type, std::uint64_t epoch,
              const std::string& payload, VertexId damage);

  /// decide_compaction over the current log accumulators.
  bool should_compact() const;

  /// Writes `image` as the snapshot at image.epoch and truncates the log
  /// (see the crash-consistency argument above).  Throws IoError on
  /// failure; CURRENT then still names a complete snapshot, the log holds
  /// every record past it, stats() describe both as they are on disk, and
  /// the caller retries later.
  void compact(const SessionImage& image);

  /// Attaches the compaction/shipping gate for a replicated session (see
  /// WalShipGate).  Pass nullptr to detach.
  void set_ship_gate(std::shared_ptr<WalShipGate> gate) {
    ship_gate_ = std::move(gate);
  }

  const std::string& dir() const { return dir_; }
  WalStats stats() const { return stats_; }

 private:
  SessionWal(std::string dir, DurabilityConfig config);

  void open_log(std::uint64_t resume_at, bool truncate_all);
  void append_frame_once(const std::string& frame);
  void fsync_log();
  void write_snapshot(const SessionImage& image);

  std::string dir_;
  DurabilityConfig config_;
  int fd_ = -1;
  std::shared_ptr<WalShipGate> ship_gate_;
  WalStats stats_;
};

}  // namespace gapart

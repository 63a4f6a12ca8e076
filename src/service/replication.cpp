#include "service/replication.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"

namespace gapart {

namespace {

constexpr std::uint32_t kRepMagic = 0x50524147u;  // "GARP"
// magic + type + sub + generation + session + seq + epoch + payload_len +
// crc.
constexpr std::size_t kRepHeaderSize = 4 + 1 + 1 + 8 + 8 + 8 + 8 + 4 + 4;
// CRC covers header bytes [4, kRepCrcOffset) chained with the payload.
constexpr std::size_t kRepCrcOffset = kRepHeaderSize - 4;

constexpr std::size_t kLagWindow = 4096;
/// Cap on log bytes read per session per pump (keeps one pump bounded).
constexpr std::uint64_t kMaxReadBytesPerPump = 4ull << 20;

std::string generation_path(const std::string& dir) {
  return dir + "/GENERATION";
}

}  // namespace

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

std::string encode_rep_frame(const RepFrame& frame) {
  std::string out;
  out.reserve(kRepHeaderSize + frame.payload.size());
  put<std::uint32_t>(out, kRepMagic);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(frame.type));
  put<std::uint8_t>(out, frame.sub);
  put<std::uint64_t>(out, frame.generation);
  put<std::uint64_t>(out, frame.session);
  put<std::uint64_t>(out, frame.seq);
  put<std::uint64_t>(out, frame.epoch);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(frame.payload.size()));
  std::uint32_t crc = crc32(out.data() + 4, out.size() - 4);
  crc = crc32(frame.payload.data(), frame.payload.size(), crc);
  put<std::uint32_t>(out, crc);
  out += frame.payload;
  return out;
}

std::optional<RepFrame> decode_rep_frame(const std::string& wire) {
  if (wire.size() < kRepHeaderSize) return std::nullopt;
  ByteReader header(std::string_view(wire).substr(0, kRepHeaderSize));
  if (header.get<std::uint32_t>() != kRepMagic) return std::nullopt;
  const auto type = header.get<std::uint8_t>();
  if (type < 1 || type > 4) return std::nullopt;
  RepFrame frame;
  frame.type = static_cast<RepFrameType>(type);
  frame.sub = header.get<std::uint8_t>();
  frame.generation = header.get<std::uint64_t>();
  frame.session = header.get<std::uint64_t>();
  frame.seq = header.get<std::uint64_t>();
  frame.epoch = header.get<std::uint64_t>();
  const auto payload_len = header.get<std::uint32_t>();
  if (wire.size() != kRepHeaderSize + payload_len) return std::nullopt;
  std::uint32_t crc = crc32(wire.data() + 4, kRepCrcOffset - 4);
  crc = crc32(wire.data() + kRepHeaderSize, payload_len, crc);
  if (crc != header.get<std::uint32_t>()) return std::nullopt;
  frame.payload = wire.substr(kRepHeaderSize);
  return frame;
}

std::uint64_t read_generation_file(const std::string& dir) {
  const std::string path = generation_path(dir);
  // Only a file that is truly absent reads as term 0.  One that cannot be
  // examined, or that names no term, must not: that would switch the fence
  // off.
  std::error_code ec;
  const bool present = std::filesystem::exists(path, ec);
  if (ec) throw IoError("cannot examine '" + path + "': " + ec.message());
  if (!present) return 0;
  const std::string text = read_file(path);
  const char* const last = text.data() + text.size();
  std::uint64_t generation = 0;
  const auto [end, err] = std::from_chars(text.data(), last, generation);
  const std::string_view rest(end, static_cast<std::size_t>(last - end));
  if (err != std::errc() || !(rest.empty() || rest == "\n")) {
    throw ReplicationError("'" + path + "' holds no fencing term");
  }
  return generation;
}

void write_generation_file(const std::string& dir, std::uint64_t generation) {
  write_file_atomic(generation_path(dir), std::to_string(generation) + "\n");
}

// ---------------------------------------------------------------------------
// ReplicationShipper
// ---------------------------------------------------------------------------

ReplicationShipper::ReplicationShipper(PartitionService& service,
                                       Transport& link, ShipperConfig config)
    : service_(service), link_(link), config_(config) {
  GAPART_REQUIRE(service_.config().durability.enabled(),
                 "replication ships WAL records: the leader service needs a "
                 "durability directory");
  // Fencing: a deposed leader restarting with a stale term must not be able
  // to ship again — its GENERATION file outlives it.
  const std::uint64_t persisted =
      read_generation_file(service_.config().durability.dir);
  if (persisted > config_.generation) {
    throw ReplicationError(
        "stale leader generation " + std::to_string(config_.generation) +
        ": this directory was already fenced at generation " +
        std::to_string(persisted));
  }
  write_generation_file(service_.config().durability.dir, config_.generation);
  stats_.generation = config_.generation;
}

void ReplicationShipper::enqueue(SessionShip& ship, RepFrame frame) {
  frame.generation = config_.generation;
  frame.seq = ship.next_seq++;
  SessionShip::Queued q;
  q.seq = frame.seq;
  q.wire = encode_rep_frame(frame);
  ship.queue.push_back(std::move(q));
}

void ReplicationShipper::resync(SessionId id, SessionShip& ship) {
  const auto session = service_.session_handle(id);
  // Order matters: reading the WAL stats BEFORE capturing the snapshot
  // means a compaction racing us lands with snapshot_epoch > what we record
  // here, so observe_compaction re-checks it next pump instead of silently
  // marking it covered.
  const std::optional<WalStats> wal = session->wal_stats();
  const auto snap = session->snapshot();

  RepFrame frame;
  frame.type = RepFrameType::kOpenSession;
  frame.session = id;
  frame.epoch = snap->update_epoch;
  frame.payload =
      encode_session_image(snapshot_image(session->config(), *snap));

  // A full reset: everything previously queued is superseded by the open.
  ship.queue.clear();
  ship.sent_upto = 0;
  ship.stalled_pumps = 0;
  enqueue(ship, std::move(frame));
  ship.attached = true;
  ship.needs_resync = false;
  ship.file_offset = kWalLogHeaderBytes;
  ship.read_epoch = snap->update_epoch;
  ship.shipped_snapshot_epoch = wal.has_value() ? wal->snapshot_epoch : 0;
  if (ship.gate == nullptr) {
    ship.gate = std::make_shared<WalShipGate>();
    session->set_ship_gate(ship.gate);
  }
  ship.gate->consumed_offset.store(kWalLogHeaderBytes,
                                   std::memory_order_release);
  ++stats_.opens_shipped;
}

void ReplicationShipper::observe_compaction(SessionId id, SessionShip& ship,
                                            const WalStats& wal) {
  if (wal.snapshot_epoch <= ship.shipped_snapshot_epoch) return;
  if (ship.read_epoch == wal.snapshot_epoch) {
    // Lockstep: the ship gate guarantees compaction only ran once we had
    // consumed the whole log, so everything folded into the snapshot is
    // already in the stream — the follower can fold too.  The digest rides
    // along for exact divergence detection at the boundary.
    RepFrame frame;
    frame.type = RepFrameType::kCompact;
    frame.session = id;
    frame.epoch = wal.snapshot_epoch;
    put<std::uint64_t>(frame.payload, wal.snapshot_digest);
    enqueue(ship, std::move(frame));
    ship.file_offset = kWalLogHeaderBytes;
    ship.shipped_snapshot_epoch = wal.snapshot_epoch;
    if (ship.gate != nullptr) {
      ship.gate->consumed_offset.store(kWalLogHeaderBytes,
                                       std::memory_order_release);
    }
    ++stats_.compacts_shipped;
  } else {
    // The log was folded past our read position (ship_retain_bytes gave up
    // on us): records we never shipped are gone.  Re-bootstrap from the
    // live state.
    ++stats_.snapshot_resyncs;
    resync(id, ship);
  }
}

void ReplicationShipper::read_tail(SessionId id, SessionShip& ship,
                                   const WalStats& wal) {
  if (ship.queue.size() >= config_.max_unacked_frames) {
    ++stats_.backpressure_stalls;
    return;
  }
  if (wal.log_end() <= ship.file_offset) return;
  // Never past the log's end as the session lock saw it: a frame appended
  // after that, or one whose fsync failed and is being rolled back, lies
  // beyond it, so a follower never holds an update the leader could lose.
  const std::uint64_t limit =
      std::min(wal.log_end(), ship.file_offset + kMaxReadBytesPerPump);
  const std::string path = service_.session_wal_dir(id) + "/wal.log";
  const WalTail tail = read_log_tail(path, ship.file_offset, limit);
  for (std::size_t i = 0; i < tail.records.size(); ++i) {
    if (ship.queue.size() >= config_.max_unacked_frames) {
      // Backpressure: stop at this frame boundary; the offset stays put so
      // the next pump resumes exactly here.
      ++stats_.backpressure_stalls;
      break;
    }
    const WalRecord& record = tail.records[i];
    if (continues_epoch_chain(record, ship.read_epoch)) {
      RepFrame frame;
      frame.type = RepFrameType::kRecord;
      frame.sub = static_cast<std::uint8_t>(record.type);
      frame.session = id;
      frame.epoch = record.epoch;
      frame.payload = record.payload;
      enqueue(ship, std::move(frame));
      ship.read_epoch = record.epoch;
      ++stats_.records_shipped;
    }
    // Skipped records (stale compaction prefix) still advance the offset.
    ship.file_offset = tail.ends[i];
  }
  if (ship.gate != nullptr) {
    ship.gate->consumed_offset.store(ship.file_offset,
                                     std::memory_order_release);
  }
}

int ReplicationShipper::send_pending(SessionShip& ship) {
  int sent = 0;
  while (ship.sent_upto < ship.queue.size()) {
    try {
      link_.send(ship.queue[ship.sent_upto].wire);
    } catch (const TransportError&) {
      ++stats_.send_failures;
      break;  // link down or backpressured; retry next pump
    }
    ship.queue[ship.sent_upto].sent_at = GAPART_TSTAMP();
    ++ship.sent_upto;
    ++sent;
    ++stats_.frames_sent;
  }
  return sent;
}

void ReplicationShipper::drain_acks() {
  while (auto wire = link_.receive(0.0)) {
    const auto frame = decode_rep_frame(*wire);
    if (!frame.has_value() || frame->type != RepFrameType::kAck) continue;
    ++stats_.acks_received;
    if (frame->generation > config_.generation) {
      // Someone promoted past us: this leader is deposed.  Stop shipping;
      // local durability keeps working, the operator decides what's next.
      stats_.deposed = true;
      return;
    }
    const auto it = ships_.find(frame->session);
    if (it == ships_.end()) continue;
    SessionShip& ship = it->second;
    if (frame->seq < ship.acked_seq) {
      // The follower moved backwards: it restarted and recovered from its
      // own disk.  Re-bootstrap it.
      ship.needs_resync = true;
      continue;
    }
    if (frame->seq == ship.acked_seq) continue;
    ship.acked_seq = frame->seq;
    ship.acked_epoch = frame->epoch;
    ship.progressed = true;
    while (!ship.queue.empty() && ship.queue.front().seq <= ship.acked_seq) {
      if (ship.queue.front().sent_at > 0.0) {
        GAPART_HISTOGRAM_RECORD("replication.ack_rtt_seconds",
                                GAPART_TSTAMP() - ship.queue.front().sent_at);
      }
      ship.queue.pop_front();
      if (ship.sent_upto > 0) --ship.sent_upto;
    }
  }
}

int ReplicationShipper::pump() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_.deposed) return 0;
  for (auto& [id, ship] : ships_) ship.progressed = false;
  drain_acks();
  if (stats_.deposed) return 0;

  int sent = 0;
  for (const SessionId id : service_.session_ids()) {
    SessionShip& ship = ships_[id];
    std::uint64_t epoch = 0;
    try {
      const auto session = service_.session_handle(id);
      const std::optional<WalStats> wal = session->wal_stats();
      epoch = session->snapshot()->update_epoch;
      if (!wal.has_value()) continue;
      if (!ship.attached || ship.needs_resync) resync(id, ship);
      observe_compaction(id, ship, *wal);
      read_tail(id, ship, *wal);
      // Compaction liveness: apply_update evaluates the policy only right
      // after an append, when the ship gate is necessarily still behind the
      // fresh record — a strict gate (ship_retain_bytes == 0) would defer
      // forever.  This pump just consumed the tail, so run anything the
      // gate deferred; observe_compaction ships the boundary next pump.
      if (ship.attached && ship.file_offset >= wal->log_end()) {
        session->poll_compaction();
      }
    } catch (const Error&) {
      continue;  // the session closed under us; next pump drops it
    }

    // Resume: no ack progress for N pumps with frames outstanding means
    // sent frames (or their acks) were lost — re-send everything unacked
    // with the original seqs; the follower's seq check dedups survivors.
    if (!ship.queue.empty() && !ship.progressed) {
      if (++ship.stalled_pumps >= config_.resume_after_stalled_pumps) {
        ship.sent_upto = 0;
        ship.stalled_pumps = 0;
        ++stats_.resumes;
        GAPART_COUNTER_ADD("replication.resumes", 1);
        // Every still-queued frame is about to go over the wire again.
        GAPART_COUNTER_ADD("replication.redelivered_frames",
                           ship.queue.size());
      }
    } else if (ship.progressed) {
      ship.stalled_pumps = 0;
    }

    sent += send_pending(ship);

    // In epochs of the session's chain: its update count restarts at 0 on
    // a recovered or promoted leader, its epochs do not.
    const std::uint64_t lag =
        epoch >= ship.acked_epoch ? epoch - ship.acked_epoch : 0;
    if (lag_samples_.size() < kLagWindow) {
      lag_samples_.push_back(static_cast<double>(lag));
    } else {
      lag_samples_[lag_next_] = static_cast<double>(lag);
      lag_next_ = (lag_next_ + 1) % kLagWindow;
    }
  }
  return sent;
}

bool ReplicationShipper::drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SessionId id : service_.session_ids()) {
    const auto it = ships_.find(id);
    if (it == ships_.end()) return false;
    const SessionShip& ship = it->second;
    if (!ship.attached || ship.needs_resync) return false;
    if (!ship.queue.empty()) return false;
    try {
      const auto wal = service_.session_handle(id)->wal_stats();
      if (wal.has_value() && wal->log_end() > ship.file_offset) {
        return false;
      }
    } catch (const Error&) {
      continue;
    }
  }
  return true;
}

ShipperStats ReplicationShipper::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ShipperStats out = stats_;
  out.sessions_attached = 0;
  out.frames_unacked = 0;
  for (const auto& [id, ship] : ships_) {
    if (ship.attached) ++out.sessions_attached;
    out.frames_unacked += ship.queue.size();
  }
  out.lag_epochs_p50 = quantile(lag_samples_, 0.50);
  out.lag_epochs_p99 = quantile(lag_samples_, 0.99);
  return out;
}

std::uint64_t ReplicationShipper::acked_epoch(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = ships_.find(id);
  return it == ships_.end() ? 0 : it->second.acked_epoch;
}

// ---------------------------------------------------------------------------
// ReplicationFollower
// ---------------------------------------------------------------------------

ReplicationFollower::ReplicationFollower(PartitionService& service,
                                         Transport& link,
                                         FollowerConfig config)
    : service_(service), link_(link), config_(std::move(config)) {
  generation_ = config_.generation;
  if (service_.config().durability.enabled()) {
    generation_ =
        std::max(generation_,
                 read_generation_file(service_.config().durability.dir));
  }
  stats_.generation = generation_;
}

void ReplicationFollower::persist_generation(std::uint64_t generation) {
  if (!service_.config().durability.enabled()) return;
  write_generation_file(service_.config().durability.dir, generation);
}

std::vector<RecoveryReport> ReplicationFollower::start_follower() {
  std::lock_guard<std::mutex> lock(mu_);
  GAPART_REQUIRE(!started_, "start_follower() called twice");
  std::vector<RecoveryReport> reports;
  if (service_.config().durability.enabled()) {
    // recover() generalized: the replica state already on disk replays
    // its logged outcomes, then tail mode continues it.
    // applied_seq restarts at 0 — the leader notices the backwards ack and
    // re-bootstraps or resumes as needed.
    reports = service_.recover(config_.base);
    for (const RecoveryReport& report : reports) {
      Replica replica;
      replica.applied_seq = 0;
      replica.applied_epoch = report.final_epoch;
      replicas_[report.session_id] = replica;
    }
  }
  started_ = true;
  stats_.sessions = service_.num_sessions();
  return reports;
}

void ReplicationFollower::ack(SessionId id, const Replica& replica) {
  RepFrame frame;
  frame.type = RepFrameType::kAck;
  frame.generation = generation_;
  frame.session = id;
  frame.seq = replica.applied_seq;
  frame.epoch = replica.applied_epoch;
  try {
    link_.send(encode_rep_frame(frame));
    ++stats_.acks_sent;
  } catch (const TransportError&) {
    // A lost ack only delays the leader; its resume re-sends and the seq
    // check dedups.
  }
}

void ReplicationFollower::handle_frame(const RepFrame& frame) {
  if (frame.type == RepFrameType::kAck) return;  // not addressed to us

  // Fencing: frames from a generation below the accepted term are a deposed
  // leader talking after failover — reject.  A higher term is a new leader;
  // persist it, then adopt it, before applying anything under it.
  if (frame.generation < generation_) {
    ++stats_.fenced_rejected;
    // Answer with an ack carrying OUR term: that is how a deposed leader,
    // still streaming into the void after a failover, learns it was fenced.
    ack(frame.session, replicas_[frame.session]);
    return;
  }
  if (frame.generation > generation_) {
    try {
      persist_generation(frame.generation);
    } catch (const IoError&) {
      ++stats_.apply_failures;  // not adopted; the leader re-delivers
      return;
    }
    generation_ = frame.generation;
    stats_.generation = generation_;
  }

  Replica& replica = replicas_[frame.session];

  if (frame.type == RepFrameType::kOpenSession) {
    // A full reset: accepted at any seq above the applied one.
    if (frame.seq <= replica.applied_seq) {
      ++stats_.duplicates_dropped;
      ack(frame.session, replica);
      return;
    }
    SessionImage image;
    try {
      image = decode_session_image(frame.payload);
    } catch (const Error&) {
      ++stats_.corrupt_rejected;  // CRC passed but the payload is junk
      return;
    }
    const std::uint64_t epoch = image.epoch;
    const std::uint64_t digest = image.digest;
    try {
      service_.open_replica_session(frame.session, std::move(image),
                                    config_.base);
    } catch (const std::bad_alloc&) {
      ++stats_.apply_failures;  // leader resume re-delivers the open
      return;
    } catch (const IoError&) {
      ++stats_.apply_failures;  // local snapshot write failed; no session
      return;
    } catch (const Error&) {
      ++stats_.corrupt_rejected;  // its sums do not fit its content
      return;
    }
    const std::uint64_t local =
        service_.session_handle(frame.session)->state_digest();
    if (local != digest) {
      stats_.diverged = true;
      throw ReplicationDivergedError(
          "session " + std::to_string(frame.session) +
          " diverged at open epoch " + std::to_string(epoch) +
          ": leader digest " + std::to_string(digest) + ", follower " +
          std::to_string(local));
    }
    ++stats_.digests_verified;
    replica.applied_seq = frame.seq;
    replica.applied_epoch = epoch;
    ++stats_.opens_applied;
    stats_.sessions = service_.num_sessions();
    ack(frame.session, replica);
    return;
  }

  // kRecord / kCompact: strict per-session sequencing.  Duplicates (dup or
  // reordered delivery) are dropped with a re-ack to unstick the leader;
  // gaps (a dropped frame upstream) are dropped and heal when the leader
  // resumes from the acked offset.
  if (frame.seq <= replica.applied_seq) {
    ++stats_.duplicates_dropped;
    ack(frame.session, replica);
    return;
  }
  if (frame.seq > replica.applied_seq + 1) {
    // A dropped frame upstream — or this follower restarted and its seq
    // counter reset.  Ack the real position: the leader resumes from it,
    // or (seeing the position move backwards) re-bootstraps us.
    ++stats_.gaps_dropped;
    ack(frame.session, replica);
    return;
  }
  std::shared_ptr<PartitionSession> session;
  try {
    session = service_.session_handle(frame.session);
  } catch (const Error&) {
    ++stats_.gaps_dropped;  // records before their open (the open dropped)
    ack(frame.session, replica);
    return;
  }

  if (frame.type == RepFrameType::kCompact) {
    if (frame.epoch != replica.applied_epoch) {
      stats_.diverged = true;
      throw ReplicationDivergedError(
          "session " + std::to_string(frame.session) +
          " compaction boundary at epoch " + std::to_string(frame.epoch) +
          " does not match applied epoch " +
          std::to_string(replica.applied_epoch));
    }
    if (frame.payload.size() != 8) {
      ++stats_.corrupt_rejected;
      return;
    }
    const std::uint64_t leader_digest =
        ByteReader(frame.payload).get<std::uint64_t>();
    const std::uint64_t local = session->state_digest();
    if (local != leader_digest) {
      // Exact divergence detection: bit-for-bit disagreement at a snapshot
      // boundary.  Fail-stop — this replica must never be promoted.
      stats_.diverged = true;
      throw ReplicationDivergedError(
          "session " + std::to_string(frame.session) + " diverged at epoch " +
          std::to_string(frame.epoch) + ": leader digest " +
          std::to_string(leader_digest) + ", follower " +
          std::to_string(local));
    }
    ++stats_.digests_verified;
    session->compact_now();  // false keeps the log; correctness unaffected
    replica.applied_seq = frame.seq;
    ++stats_.compacts_applied;
    ack(frame.session, replica);
    return;
  }

  // kRecord: a type byte no WAL record has is junk that passed the CRC; it
  // must never reach this follower's own log.
  if (!is_record_type(frame.sub)) {
    ++stats_.corrupt_rejected;
    return;
  }
  // The WAL epoch chain must hold exactly — the frame is CRC-valid and in
  // sequence, so a broken chain is protocol divergence, not noise.
  WalRecord record;
  record.type = static_cast<WalRecordType>(frame.sub);
  record.epoch = frame.epoch;
  record.payload = frame.payload;
  if (!continues_epoch_chain(record, replica.applied_epoch)) {
    stats_.diverged = true;
    throw ReplicationDivergedError(
        "session " + std::to_string(frame.session) + " record epoch " +
        std::to_string(record.epoch) + " breaks the chain at applied epoch " +
        std::to_string(replica.applied_epoch));
  }
  try {
    session->apply_logged(record, /*log_locally=*/true);
  } catch (const std::bad_alloc&) {
    ++stats_.apply_failures;  // injected alloc fault; resume re-delivers
    return;
  } catch (const IoError&) {
    ++stats_.apply_failures;  // local WAL hiccup; do not advance the seq
    return;
  }
  replica.applied_seq = frame.seq;
  replica.applied_epoch = record.epoch;
  ++stats_.records_applied;
  ack(frame.session, replica);
}

int ReplicationFollower::drain(double timeout_seconds) {
  int processed = 0;
  double timeout = timeout_seconds;
  while (auto wire = link_.receive(timeout)) {
    timeout = 0.0;  // only the first frame waits
    ++stats_.frames_received;
    ++processed;
    const auto frame = decode_rep_frame(*wire);
    if (!frame.has_value()) {
      ++stats_.corrupt_rejected;  // truncated or bit-flipped in flight
      continue;
    }
    handle_frame(*frame);
  }
  return processed;
}

int ReplicationFollower::pump(double timeout_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  GAPART_REQUIRE(started_, "call start_follower() before pump()");
  return drain(timeout_seconds);
}

PromotionReport ReplicationFollower::promote() {
  std::lock_guard<std::mutex> lock(mu_);
  GAPART_REQUIRE(started_, "call start_follower() before promote()");
  GAPART_REQUIRE(!stats_.diverged, "a diverged replica must not be promoted");
  WallTimer timer;

  // Drain the tail: everything the dead leader managed to ship is applied
  // before the fence goes up.
  drain(0.0);

  // Verify before serving: every promoted session must hold a complete,
  // valid assignment.
  PromotionReport report;
  for (const SessionId id : service_.session_ids()) {
    const auto session = service_.session_handle(id);
    const auto snap = session->snapshot();
    GAPART_REQUIRE(
        is_valid_assignment(*snap->graph, snap->assignment,
                            session->config().num_parts),
        "promotion verify failed: session ", id, " has an invalid assignment");
    PromotedSession promoted;
    promoted.id = id;
    promoted.epoch = snap->update_epoch;
    promoted.digest = session->state_digest();
    report.sessions.push_back(promoted);
  }

  // The fence: a strictly higher term, persisted before we serve writes.
  // Any late frame from the deposed leader now fails the generation check,
  // and the deposed leader itself learns of its demotion from our next ack.
  persist_generation(generation_ + 1);
  generation_ += 1;
  stats_.generation = generation_;
  stats_.promoted = true;

  report.generation = generation_;
  report.seconds = timer.seconds();
  return report;
}

FollowerStats ReplicationFollower::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FollowerStats out = stats_;
  out.sessions = service_.num_sessions();
  return out;
}

std::uint64_t ReplicationFollower::applied_epoch(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = replicas_.find(id);
  return it == replicas_.end() ? 0 : it->second.applied_epoch;
}

}  // namespace gapart

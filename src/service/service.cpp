#include "service/service.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "graph/delta_codec.hpp"

namespace gapart {

PartitionService::PartitionService(ServiceConfig config, Executor* executor)
    : config_(config) {
  if (executor != nullptr) {
    executor_ = executor;
  } else {
    const int threads = config_.num_threads > 0
                            ? config_.num_threads
                            : Executor::hardware_threads();
    owned_executor_ = std::make_unique<Executor>(threads);
    executor_ = owned_executor_.get();
  }
}

PartitionService::~PartitionService() {
  // In-flight refinement tasks hold shared_ptrs to their sessions; draining
  // before teardown keeps them off a destroyed service's pool.
  executor_->wait();
}

void PartitionService::insert_with_id(
    SessionId id, std::shared_ptr<PartitionSession> session) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool inserted = sessions_.emplace(id, std::move(session)).second;
  GAPART_REQUIRE(inserted, "session id ", id, " already exists");
  next_id_ = std::max(next_id_, id + 1);
}

std::string PartitionService::session_dir(SessionId id) const {
  return config_.durability.dir + "/session-" + std::to_string(id);
}

SessionId PartitionService::open_session(std::shared_ptr<const Graph> graph,
                                         Assignment initial,
                                         SessionConfig config) {
  return open(std::make_shared<PartitionSession>(
      std::move(graph), std::move(initial), std::move(config)));
}

SessionId PartitionService::open_session_from_files(const std::string& path,
                                                    SessionConfig config) {
  return open(std::make_shared<PartitionSession>(
      decode_session_image(read_file(path)), std::move(config), "restore"));
}

SessionId PartitionService::open(std::shared_ptr<PartitionSession> session) {
  SessionId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
  }
  // Make the opening state durable under the reserved id before the session
  // becomes visible.  A failed open leaves nothing behind: no session the
  // client never got an id for, and no partial directory for recover().
  if (config_.durability.enabled()) {
    try {
      create_wal(id, *session);
    } catch (...) {
      std::error_code ec;
      std::filesystem::remove_all(session_dir(id), ec);  // best effort
      throw;
    }
  }
  insert_with_id(id, std::move(session));
  return id;
}

std::shared_ptr<PartitionSession> PartitionService::session_from_image(
    SessionImage image, SessionConfig base, const char* origin) {
  base.num_parts = image.num_parts;
  base.fitness = image.fitness;
  return std::make_shared<PartitionSession>(std::move(image), std::move(base),
                                            origin);
}

void PartitionService::create_wal(SessionId id,
                                  PartitionSession& session) const {
  const SessionImage image =
      snapshot_image(session.config(), *session.snapshot());
  session.attach_wal(
      SessionWal::create(session_dir(id), config_.durability, image));
}

std::vector<RecoveryReport> PartitionService::recover(
    const SessionConfig& base) {
  GAPART_REQUIRE(config_.durability.enabled(),
                 "recover() needs a durability directory in the config");
  namespace fs = std::filesystem;
  std::vector<RecoveryReport> reports;
  std::error_code ec;
  if (!fs::exists(config_.durability.dir, ec)) return reports;

  // Deterministic recovery order: collect and sort the session ids first.
  // Only a name session_dir() writes counts; anything else an operator left
  // beside them ("session-1.bak", "session-01") is skipped.
  const std::string prefix = "session-";
  std::vector<SessionId> ids;
  for (const auto& entry : fs::directory_iterator(config_.durability.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    SessionId id = 0;
    const auto parsed = std::from_chars(name.data() + prefix.size(),
                                        name.data() + name.size(), id);
    if (parsed.ec != std::errc() || name != prefix + std::to_string(id)) {
      continue;
    }
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());

  // An entry whose status cannot be read is not taken for absent.
  const auto absent = [](const std::string& path) {
    std::error_code err;
    return fs::status(path, err).type() == fs::file_type::not_found;
  };
  // Replay every session before inserting any, so a session that fails to
  // recover leaves the service as it found it and recover() can be retried.
  std::vector<std::pair<SessionId, std::shared_ptr<PartitionSession>>>
      recovered;
  for (const SessionId id : ids) {
    const std::string dir = session_dir(id);
    // An open that died before CURRENT or wal.log existed never handed its
    // id back, so nothing in it was acked.
    if (absent(dir + "/CURRENT") && absent(dir + "/wal.log")) continue;
    WallTimer timer;
    auto rec = SessionWal::recover(dir, config_.durability);
    RecoveryReport rep;
    rep.session_id = id;
    rep.snapshot_epoch = rec.image.epoch;
    rep.records_replayed = rec.records.size();
    rep.torn_tail = rec.torn_tail;
    auto session = session_from_image(std::move(rec.image), base, "recover");

    // The state rebuilt from the image is sized exactly: size it for the
    // vertex count the last delta record reaches, or the first replayed
    // record regrows and copies every per-vertex array.
    VertexId reach = session->snapshot()->graph->num_vertices();
    for (const WalRecord& record : rec.records) {
      if (record.type == WalRecordType::kDelta) {
        reach = delta_grown_vertices(reach, record.payload);
      }
    }
    session->reserve_vertices(reach);

    // Replay applies each record's logged outcome; the session's repair
    // config plays no part.  The same core drives the replication follower
    // (log_locally=true there).
    for (const WalRecord& record : rec.records) {
      session->apply_logged(record, /*log_locally=*/false);
    }
    session->attach_wal(std::move(rec.wal));
    rep.final_epoch = session->snapshot()->update_epoch;
    rep.seconds = timer.seconds();
    reports.push_back(rep);
    recovered.emplace_back(id, std::move(session));
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, session] : recovered) {
    GAPART_REQUIRE(!sessions_.contains(id), "session id ", id,
                   " already exists");
  }
  for (auto& [id, session] : recovered) {
    sessions_.emplace(id, std::move(session));
    next_id_ = std::max(next_id_, id + 1);
  }
  return reports;
}

void PartitionService::close_session(SessionId id) {
  std::shared_ptr<PartitionSession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    GAPART_REQUIRE(it != sessions_.end(), "unknown session id ", id);
    session = std::move(it->second);
    sessions_.erase(it);
  }
  // Drain OUTSIDE the table lock: close() blocks until an in-flight
  // refinement unwinds, and that refinement may be queued behind other pool
  // work — holding mu_ here would stall every other session's operations.
  session->close();
}

std::shared_ptr<PartitionSession> PartitionService::find(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  GAPART_REQUIRE(it != sessions_.end(), "unknown session id ", id);
  return it->second;
}

RepairReport PartitionService::submit_update(
    SessionId id, std::shared_ptr<const Graph> grown, const GraphDelta& delta) {
  const auto session = find(id);
  RepairReport report = session->apply_update(std::move(grown), delta);
  maybe_schedule_refinement(id, session);
  return report;
}

void PartitionService::maybe_schedule_refinement(
    SessionId id, const std::shared_ptr<PartitionSession>& session) {
  if (!config_.background_refinement) return;
  auto job = session->plan_refinement();
  if (!job.has_value()) return;

  // Task-start fault point: an injected failure here models the pool
  // refusing the task (thread exhaustion).  The planned job is abandoned
  // cleanly — the policy accumulators stay primed and refire later.
  if (GAPART_FAULT_POINT(FaultSite::kTaskStart)) {
    session->abandon_refinement();
    refine_start_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Deterministic per-job stream: a pure function of (service seed, session
  // id, captured epoch), independent of pool scheduling.
  SplitMix64 mix(config_.seed ^ (id * 0x9e3779b97f4a7c15ULL) ^
                 job->update_epoch);
  Rng rng(mix.next());

  Executor* pool = executor_;
  const double scheduled_at = GAPART_TSTAMP();
  executor_->submit(
      [session, job = std::move(*job), rng, pool, scheduled_at]() mutable {
        // Schedule -> start queue wait: how long the job sat behind other
        // sessions' refinements before the pool picked it up.
        GAPART_HISTOGRAM_RECORD("refine.queue_wait_seconds",
                                GAPART_TSTAMP() - scheduled_at);
        // A throwing task would terminate the worker; refinement failures
        // only ever cost the refinement.
        try {
          RefineOutcome out =
              run_refinement(job, session->config(), rng, pool);
          session->complete_refinement(job, std::move(out.assignment),
                                       out.fitness, out.full_evaluations,
                                       out.delta_evaluations);
        } catch (...) {
          session->abandon_refinement();
        }
      });
}

void PartitionService::poll() {
  if (!config_.background_refinement) return;
  std::vector<std::pair<SessionId, std::shared_ptr<PartitionSession>>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.assign(sessions_.begin(), sessions_.end());
  }
  for (const auto& [id, session] : all) {
    maybe_schedule_refinement(id, session);
  }
}

std::shared_ptr<const SessionSnapshot> PartitionService::snapshot(
    SessionId id) const {
  return find(id)->snapshot();
}

SessionStats PartitionService::session_stats(SessionId id) const {
  return find(id)->stats();
}

ServiceStats PartitionService::stats() const {
  std::vector<std::shared_ptr<PartitionSession>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.reserve(sessions_.size());
    for (const auto& [id, s] : sessions_) sessions.push_back(s);
  }

  ServiceStats out;
  out.sessions = static_cast<int>(sessions.size());
  for (const auto& s : sessions) {
    const SessionStats st = s->stats();
    out.max_repair_seconds =
        std::max(out.max_repair_seconds, st.max_repair_seconds);
    out.repair_latency.merge(st.repair_latency);
    out.updates += st.updates;
    out.total_damage += st.total_damage;
    out.repair_moves += st.repair_moves;
    out.examined += st.examined;
    out.full_evaluations += st.full_evaluations;
    out.delta_evaluations += st.delta_evaluations;
    out.refinements_planned += st.refinements_planned;
    out.refinements_applied += st.refinements_applied;
    out.refinements_stale += st.refinements_stale;
    out.refinements_no_better += st.refinements_no_better;
    if (st.durable) {
      ++out.durable_sessions;
      out.failed_sessions += st.wal_failed ? 1 : 0;
      out.wal_appends += st.wal.appends;
      out.wal_append_retries += st.wal.append_retries;
      out.wal_fsyncs += st.wal.fsyncs;
      out.wal_bytes_appended += st.wal.bytes_appended;
      out.wal_compactions += st.wal.compactions;
      out.wal_compaction_failures += st.wal.compaction_failures;
    }
  }
  out.p50_repair_seconds = out.repair_latency.quantile(0.50);
  out.p99_repair_seconds = out.repair_latency.quantile(0.99);
  out.pool_backlog = executor_->pending();
  GAPART_GAUGE_SET("executor.pending", out.pool_backlog);
  out.refine_start_failures =
      refine_start_failures_.load(std::memory_order_relaxed);
  return out;
}

void PartitionService::save_session(SessionId id,
                                    const std::string& path) const {
  const auto session = find(id);
  write_file_atomic(path, encode_session_image(snapshot_image(
                              session->config(), *session->snapshot())));
}

void PartitionService::quiesce() { executor_->wait(); }

int PartitionService::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(sessions_.size());
}

std::vector<SessionId> PartitionService::session_ids() const {
  std::vector<SessionId> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ids.reserve(sessions_.size());
    for (const auto& [id, s] : sessions_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::shared_ptr<PartitionSession> PartitionService::session_handle(
    SessionId id) const {
  return find(id);
}

void PartitionService::open_replica_session(SessionId id, SessionImage image,
                                            SessionConfig config) {
  // Full-resync semantics: a second open frame for an id the follower
  // already tracks replaces the session wholesale (the leader compacted
  // past what this replica had, or the replica fell behind beyond resume).
  // Build the replacement COMPLETELY before touching the session map: if
  // the checkpoint write below throws, the old incarnation must survive so
  // a failover promotes a stale-but-valid state instead of nothing.
  auto session =
      session_from_image(std::move(image), std::move(config), "replicate");
  if (config_.durability.enabled()) {
    // A replica restarts from its own disk: checkpoint the streamed state at
    // exactly the leader's epoch.  A resync writes it through the live
    // incarnation's WAL by the compaction steps, so a failed write leaves
    // that incarnation live and its directory restartable.  A first open
    // starts the directory afresh, wiping whatever no live session owns.
    std::shared_ptr<PartitionSession> live;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = sessions_.find(id);
      if (it != sessions_.end()) live = it->second;
    }
    std::unique_ptr<SessionWal> wal;
    if (live != nullptr) {
      wal = live->hand_over_wal(
          snapshot_image(session->config(), *session->snapshot()));
    }
    if (wal != nullptr) {
      session->attach_wal(std::move(wal));
    } else {
      std::error_code ec;
      std::filesystem::remove_all(session_dir(id), ec);
      create_wal(id, *session);
    }
  }

  std::shared_ptr<PartitionSession> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      old = std::move(it->second);
      sessions_.erase(it);
    }
  }
  if (old != nullptr) old->close();
  insert_with_id(id, std::move(session));
}

}  // namespace gapart

#include "service/session.hpp"

#include <algorithm>
#include <optional>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/fault_injection.hpp"
#include "common/stats.hpp"
#include "core/dpga.hpp"
#include "core/eval.hpp"
#include "core/hill_climb.hpp"
#include "core/init.hpp"
#include "graph/delta_codec.hpp"

namespace gapart {

namespace {

const Graph& require_graph(const std::shared_ptr<const Graph>& g) {
  GAPART_REQUIRE(g != nullptr, "session graph must not be null");
  return *g;
}

}  // namespace

SessionConfig::SessionConfig() {
  // The deep tier runs as ONE background task next to every other session's
  // work, so its defaults are a burst, not the paper's full table budget.
  // The flat burst and the V-cycle's coarsest DPGA share these budgets; the
  // ascending per-level GAs stay small (they only polish a seeded
  // incumbent).
  DpgaConfig& burst = deep_vcycle.dpga;
  burst.num_islands = 4;
  burst.ga.population_size = 64;
  burst.ga.max_generations = 60;
  burst.ga.stall_generations = 15;
  burst.ga.hill_climb_offspring = true;
  burst.ga.hill_climb_fraction = 0.25;
  deep_vcycle.level_population = 24;
  deep_vcycle.level_max_generations = 20;
  deep_vcycle.level_stall = 5;
}

PartitionSession::PartitionSession(std::shared_ptr<const Graph> graph,
                                   Assignment initial, SessionConfig config,
                                   const char* origin)
    : config_(std::move(config)),
      graph_(std::move(graph)),
      state_(require_graph(graph_), std::move(initial), config_.num_parts) {
  // num_parts is validated by the PartitionState member initializer.
  std::lock_guard<std::mutex> lock(mu_);  // publish()'s contract
  stats_.full_evaluations = 1;  // the state construction
  baseline_fitness_ = state_.fitness(config_.fitness);
  publish(origin);
}

PartitionSession::PartitionSession(SessionImage image, SessionConfig config,
                                   const char* origin)
    : config_(std::move(config)),
      graph_(std::move(image.graph)),
      state_(require_graph(graph_), std::move(image.assignment),
             config_.num_parts, image.sums) {
  std::lock_guard<std::mutex> lock(mu_);  // publish()'s contract
  stats_.full_evaluations = 1;  // the state construction
  baseline_fitness_ = state_.fitness(config_.fitness);
  update_epoch_ = image.epoch;
  publish(origin);
}

void PartitionSession::admit_update() {
  GAPART_REQUIRE(!closed_, "session is closed");
  GAPART_REQUIRE(!wal_failed_,
                 "session fail-stopped: a WAL append exhausted its retries, "
                 "so an earlier repair mutated state the log never recorded "
                 "— accepting more updates would make the log unreplayable");
  // The delta path's allocation fault point: fires before any state is
  // touched, so an injected failure here is a clean rejection the client
  // can retry.
  if (GAPART_FAULT_POINT(FaultSite::kDeltaAlloc)) {
    throw std::bad_alloc();
  }
}

void PartitionSession::log_or_fail_stop(WalRecordType type,
                                        std::uint64_t epoch,
                                        const std::string& payload,
                                        VertexId damage) {
  try {
    wal_->append(type, epoch, payload, damage);
  } catch (const IoError&) {
    // Without this record every later one would replay against the wrong
    // graph.  Fail-stop the session rather than let the log miss an update
    // the state absorbs.
    wal_failed_ = true;
    throw;
  }
}

void PartitionSession::count_update(VertexId damage,
                                    const RepairOutcome& outcome) {
  ++update_epoch_;
  ++updates_since_refine_;
  damage_since_refine_ += damage;
  damage_since_deep_ += damage;
  ++stats_.updates;
  stats_.total_damage += static_cast<std::uint64_t>(damage);
  stats_.extend_moves += static_cast<std::int64_t>(outcome.new_parts.size());
  stats_.repair_moves += static_cast<std::int64_t>(outcome.moves.size());
}

RepairReport PartitionSession::apply_update(std::shared_ptr<const Graph> grown,
                                            const GraphDelta& delta) {
  const Graph& g = require_graph(grown);
  std::lock_guard<std::mutex> lock(mu_);
  admit_update();

  GAPART_SPAN("repair.apply");
  // repair_step checks the delta against the current graph and reads its
  // rows, so graph_ moves on only after it.
  RepairReport rep = repair_step(state_, g, delta, config_.fitness,
                                 config_.repair_max_verify_rounds,
                                 config_.repair_budget_seconds);
  graph_ = std::move(grown);
  count_update(rep.damage, rep.outcome);
  rep.update_epoch = update_epoch_;
  stats_.examined += rep.examined;
  stats_.delta_evaluations += rep.repair_moves;  // one delta per move
  stats_.repair_latency.record(rep.seconds);
  GAPART_COUNTER_ADD("repair.updates", 1);
  GAPART_COUNTER_ADD("repair.damage", rep.damage);
  GAPART_COUNTER_ADD("repair.moves", rep.repair_moves);
  GAPART_HISTOGRAM_RECORD("repair.latency_seconds", rep.seconds);

  // Write-ahead logging: the record — the delta plus the repair's outcome,
  // which replay applies as is — must be durable before this call returns,
  // because the returned report is the acknowledgement.
  if (wal_ != nullptr) {
    std::string payload = encode_delta(*graph_, delta);
    encode_outcome(payload, rep.outcome, config_.num_parts);
    log_or_fail_stop(WalRecordType::kDelta, update_epoch_, payload,
                     rep.damage);
  }

  publish("repair");
  if (wal_ != nullptr && wal_->should_compact()) compact_wal();
  return rep;
}

void PartitionSession::apply_logged(const WalRecord& record,
                                    bool log_locally) {
  GAPART_REQUIRE(is_record_type(static_cast<std::uint8_t>(record.type)),
                 "logged record of unknown type ",
                 static_cast<int>(record.type));
  // Decode outside the session lock: a kDelta record splices the grown
  // graph from the current one's rows and its own, an O(V + E) copy.
  std::shared_ptr<const Graph> grown = snapshot()->graph;
  GraphDelta delta{grown->num_vertices(), {}};
  ByteReader in(record.payload);
  const bool is_delta = record.type == WalRecordType::kDelta;
  RepairOutcome outcome;
  {
    GAPART_SPAN("replay.decode");
    if (is_delta) {
      DecodedDelta decoded = decode_delta(*grown, in);
      grown = std::make_shared<const Graph>(std::move(decoded.grown));
      delta = std::move(decoded.delta);
    }
    outcome = decode_outcome(in, delta.num_new(*grown), grown->num_vertices(),
                             config_.num_parts);
  }
  const VertexId damage = delta.damage(*grown);

  std::lock_guard<std::mutex> lock(mu_);
  GAPART_SPAN("replay.apply");
  admit_update();
  if (log_locally && wal_ != nullptr) {
    log_or_fail_stop(record.type, record.epoch, record.payload, damage);
  }
  if (is_delta) {
    state_.rebind_grown(*grown, delta.touched_old, outcome.new_parts);
    graph_ = std::move(grown);
    count_update(damage, outcome);
  }
  for (const PartMove& m : outcome.moves) state_.move(m.v, m.to);
  if (!is_delta) {
    ++stats_.refinements_applied;
    baseline_fitness_ = state_.fitness(config_.fitness);
  }
  publish(log_locally ? "replicate" : "recover");
}

void PartitionSession::reserve_vertices(VertexId n) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.reserve(n);
}

void PartitionSession::publish(const char* source) {
  auto snap = std::make_shared<SessionSnapshot>();
  snap->update_epoch = update_epoch_;
  snap->version = ++version_;
  snap->source = source;
  snap->graph = graph_;
  snap->assignment = state_.assignment();
  snap->fitness = state_.fitness(config_.fitness);
  snap->total_cut = state_.total_cut();
  snap->sums = state_.metrics();
  stats_.version = snap->version;
  if (cut_trajectory_.size() < SessionStats::kMaxHistory) {
    cut_trajectory_.emplace_back(update_epoch_, snap->total_cut);
  } else {  // sliding window: overwrite the oldest entry
    cut_trajectory_[cut_trajectory_next_] = {update_epoch_, snap->total_cut};
    cut_trajectory_next_ =
        (cut_trajectory_next_ + 1) % SessionStats::kMaxHistory;
  }
  std::lock_guard<std::mutex> lock(snap_mu_);
  snapshot_ = std::move(snap);
}

std::shared_ptr<const SessionSnapshot> PartitionSession::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return snapshot_;
}

RefineSignals PartitionSession::signals() const {
  RefineSignals s;
  s.current_fitness = state_.fitness(config_.fitness);
  s.baseline_fitness = baseline_fitness_;
  s.updates_since_refine = updates_since_refine_;
  s.damage_since_refine = damage_since_refine_;
  s.damage_since_deep = damage_since_deep_;
  s.refine_in_flight = refine_in_flight_;
  return s;
}

std::optional<PartitionSession::RefineJob> PartitionSession::plan_refinement() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return std::nullopt;
  const RefineDepth depth = decide_refinement(config_.policy, signals());
  if (depth == RefineDepth::kNone) return std::nullopt;
  refine_in_flight_ = true;
  refine_cancel_ = std::make_shared<std::atomic<bool>>(false);
  ++stats_.refinements_planned;
  RefineJob job;
  job.update_epoch = update_epoch_;
  job.depth = depth;
  job.graph = graph_;
  job.assignment = state_.assignment();
  job.fitness = state_.fitness(config_.fitness);
  job.cancel = refine_cancel_;
  return job;
}

bool PartitionSession::complete_refinement(const RefineJob& job,
                                           Assignment refined,
                                           double refined_fitness,
                                           std::int64_t full_evaluations,
                                           std::int64_t delta_evaluations) {
  // Diff the refined assignment against the captured one OUTSIDE the
  // session lock (the one O(V) step of adoption); a delta racing us just
  // makes the moves dead weight.
  const bool better = refined_fitness > job.fitness;
  RepairOutcome adopted;
  if (better) {
    GAPART_REQUIRE(is_valid_assignment(*job.graph, refined, config_.num_parts),
                   "refined assignment is not a ", config_.num_parts,
                   "-way partition of the job's graph");
    for (std::size_t v = 0; v < refined.size(); ++v) {
      if (refined[v] != job.assignment[v]) {
        adopted.moves.push_back({static_cast<VertexId>(v), refined[v]});
      }
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  refine_in_flight_ = false;
  refine_cancel_.reset();
  refine_done_cv_.notify_all();
  stats_.full_evaluations += full_evaluations;
  stats_.delta_evaluations += delta_evaluations;

  if (closed_) return false;  // close() is draining: never adopt into it

  if (job.update_epoch != update_epoch_) {
    // A newer delta invalidated the captured epoch: the refined assignment
    // no longer matches the live graph.  Leave the accumulators primed so
    // the policy refires on the new state.
    ++stats_.refinements_stale;
    GAPART_COUNTER_ADD("refine.stale", 1);
    return false;
  }

  // Epoch intact: between capture and now only refinement could have touched
  // the state, and in-flight exclusion rules that out — the live state is
  // still job.assignment.  Reset the accumulators either way: the current
  // quality has just been (re)certified.
  baseline_fitness_ = std::max(job.fitness, refined_fitness);
  updates_since_refine_ = 0;
  damage_since_refine_ = 0;
  if (job.depth == RefineDepth::kDeep) damage_since_deep_ = 0;

  if (!better) {
    ++stats_.refinements_no_better;
    GAPART_COUNTER_ADD("refine.no_better", 1);
    return false;
  }
  // Log the moves BEFORE making them, so recovery lands on the refined
  // partition and the log is always a superset of the state — replication
  // digests depend on it.  On append failure the refinement is dropped:
  // quality only, the session stays healthy.
  if (wal_ != nullptr) {
    std::string payload;
    encode_outcome(payload, adopted, config_.num_parts);
    try {
      wal_->append(WalRecordType::kRefine, update_epoch_, payload,
                   /*damage=*/0);
    } catch (const IoError&) {
      ++stats_.refinements_unlogged;
      GAPART_COUNTER_ADD("refine.unlogged", 1);
      return false;
    }
  }
  for (const PartMove& m : adopted.moves) state_.move(m.v, m.to);
  stats_.delta_evaluations += static_cast<std::int64_t>(adopted.moves.size());
  ++stats_.refinements_applied;
  GAPART_COUNTER_ADD("refine.applied", 1);
  GAPART_COUNTER_ADD("refine.moves", adopted.moves.size());
  publish("refine");
  return true;
}

void PartitionSession::abandon_refinement() {
  std::lock_guard<std::mutex> lock(mu_);
  refine_in_flight_ = false;
  refine_cancel_.reset();
  refine_done_cv_.notify_all();
}

void PartitionSession::attach_wal(std::unique_ptr<SessionWal> wal) {
  std::lock_guard<std::mutex> lock(mu_);
  GAPART_REQUIRE(wal_ == nullptr, "session already has a WAL attached");
  wal_ = std::move(wal);
}

std::unique_ptr<SessionWal> PartitionSession::hand_over_wal(
    const SessionImage& image) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) return nullptr;
  GAPART_REQUIRE(image.epoch >= update_epoch_, "resync image at epoch ",
                 image.epoch, " is behind the replica's log at epoch ",
                 update_epoch_);
  wal_->compact(image);
  return std::move(wal_);
}

std::uint64_t PartitionSession::state_digest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.content_hash();
}

void PartitionSession::set_ship_gate(std::shared_ptr<WalShipGate> gate) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ != nullptr) wal_->set_ship_gate(std::move(gate));
}

bool PartitionSession::compact_wal() {
  // Every state change publishes before mu_ is released, so the latest
  // snapshot IS the live state.
  try {
    wal_->compact(snapshot_image(config_, *snapshot()));
  } catch (const IoError&) {
    return false;
  }
  return true;
}

bool PartitionSession::compact_now() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr || wal_failed_) return false;
  return compact_wal();
}

bool PartitionSession::poll_compaction() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || wal_ == nullptr || wal_failed_) return false;
  if (!wal_->should_compact()) return false;
  return compact_wal();
}

void PartitionSession::close() {
  std::unique_lock<std::mutex> lock(mu_);
  closed_ = true;
  if (refine_cancel_ != nullptr) refine_cancel_->store(true);
  // Drain: the in-flight job sees the cancel flag at its next pass boundary,
  // unwinds through complete/abandon_refinement, and signals here.
  refine_done_cv_.wait(lock, [&] { return !refine_in_flight_; });
}

bool PartitionSession::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::optional<WalStats> PartitionSession::wal_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_ == nullptr) return std::nullopt;
  return wal_->stats();
}

SessionStats PartitionSession::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionStats out = stats_;
  out.p50_repair_seconds = out.repair_latency.quantile(0.50);
  out.p99_repair_seconds = out.repair_latency.quantile(0.99);
  out.max_repair_seconds = out.repair_latency.max();
  // Unroll the trajectory ring into chronological order.
  out.cut_trajectory.clear();
  out.cut_trajectory.reserve(cut_trajectory_.size());
  out.cut_trajectory.insert(
      out.cut_trajectory.end(),
      cut_trajectory_.begin() +
          static_cast<std::ptrdiff_t>(cut_trajectory_next_),
      cut_trajectory_.end());
  out.cut_trajectory.insert(
      out.cut_trajectory.end(), cut_trajectory_.begin(),
      cut_trajectory_.begin() +
          static_cast<std::ptrdiff_t>(cut_trajectory_next_));
  out.current_fitness = state_.fitness(config_.fitness);
  out.current_total_cut = state_.total_cut();
  out.durable = wal_ != nullptr;
  out.wal_failed = wal_failed_;
  if (wal_ != nullptr) out.wal = wal_->stats();
  return out;
}

RefineOutcome run_refinement(const PartitionSession::RefineJob& job,
                             const SessionConfig& config, Rng rng,
                             Executor* executor) {
  GAPART_REQUIRE(job.depth != RefineDepth::kNone,
                 "refinement job carries no work");
  const Graph& g = *job.graph;
  RefineOutcome out;

  // Verified gain-ordered frontier climb: the cheap tier, always run.
  const EvalContext eval(g, config.num_parts, config.fitness, executor);
  PartitionState state = eval.make_state(job.assignment);
  HillClimbOptions opt;
  opt.mode = HillClimbMode::kFrontier;
  opt.gain_ordered = true;
  opt.max_passes = config.refine_hill_climb_passes;
  opt.cancel = job.cancel.get();
  {
    GAPART_SPAN("refine.climb");
    hill_climb(eval, state, opt);
  }
  out.fitness = eval.adopt(state);
  out.assignment = std::move(state).release_assignment();

  // Deep tier: seeded with the climbed solution, running in the background
  // instead of the caller's path.  Large sessions route to the multilevel
  // V-cycle (coarse quotient evolution + seeded-repair uncoarsening, never
  // worse than its seed); the rest run the flat DPGA burst (§3.5's
  // incremental GA).  A cancelled job (its session is closing) skips the
  // burst — the climbed result above is returned as-is and discarded by
  // complete_refinement.
  const bool cancel_requested =
      job.cancel != nullptr && job.cancel->load(std::memory_order_relaxed);
  if (job.depth == RefineDepth::kDeep && !cancel_requested) {
    if (route_deep_vcycle(config.policy, g.num_vertices())) {
      GAPART_SPAN("refine.vcycle");
      VcycleGaOptions vo = config.deep_vcycle;
      vo.dpga.ga.num_parts = config.num_parts;
      vo.dpga.ga.fitness = config.fitness;
      vo.cancel = job.cancel.get();
      const VcycleGaResult res =
          vcycle_ga_refine(g, out.assignment, vo, rng, executor);
      out.full_evaluations += res.full_evaluations;
      out.delta_evaluations += res.delta_evaluations;
      if (res.fitness > out.fitness) {
        out.assignment = res.assignment;
        out.fitness = res.fitness;
      }
    } else {
      GAPART_SPAN("refine.dpga");
      DpgaConfig dc = config.deep_vcycle.dpga;
      dc.ga.num_parts = config.num_parts;
      dc.ga.fitness = config.fitness;
      auto initial = make_seeded_population(
          out.assignment, dc.ga.population_size, /*swap_fraction=*/0.08, rng);
      const DpgaResult res =
          run_dpga(g, dc, std::move(initial), rng.split(), executor);
      out.full_evaluations += res.full_evaluations;
      out.delta_evaluations += res.delta_evaluations;
      if (res.best_fitness > out.fitness) {
        out.assignment = res.best;
        out.fitness = res.best_fitness;
      }
    }
  }

  out.full_evaluations += eval.full_evaluations();
  out.delta_evaluations += eval.delta_evaluations();
  return out;
}

SessionImage snapshot_image(const SessionConfig& config,
                            const SessionSnapshot& snap) {
  std::uint64_t digest = 0;
  {
    GAPART_SPAN("image.digest");
    digest = assignment_content_hash(*snap.graph, snap.assignment,
                                     config.num_parts);
  }
  return {.num_parts = config.num_parts,
          .fitness = config.fitness,
          .epoch = snap.update_epoch,
          .digest = digest,
          .graph = snap.graph,
          .assignment = snap.assignment,
          .sums = snap.sums};
}

}  // namespace gapart

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>

#include "common/rng.hpp"
#include "core/vcycle_ga.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
#include "service/transport.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using gapart::Executor;
using gapart::Graph;
using gapart::GraphDelta;
using gapart::PartitionService;
using gapart::RepairReport;
using gapart::Rng;
using gapart::ServiceConfig;
using gapart::SessionConfig;

constexpr PartId kParts = 8;
/// The library's own seeds are constants: the workload seed shapes only the
/// generated inputs.
constexpr std::uint64_t kPartitionSeed = 0x5c1994;
/// Ship/follow rounds one update may take before the run is declared
/// broken (two are needed: ship, then collect the ack).
constexpr int kMaxPumps = 64;
/// At least this many host-pace samples between updates, spread evenly
/// over the run.
constexpr int kPaceSamples = 48;

// Update counts per second of --seconds, measured on the 4-core reference
// host at its usual pace.  They fix how much work a run does; the clock
// never does.
constexpr double kGrowUpdatesPerSecond = 6.0;
constexpr double kChurnUpdatesPerSecond = 70.0;
constexpr double kHotspotUpdatesPerSecond = 6.0;

const std::string kGrow = "grow_1m_durable";
const std::string kChurn = "churn_64k_replicated";
const std::string kHotspot = "hotspot_64k_refine";

/// Everything that differs between the workloads besides the generator.
struct Shape {
  VertexId rows = 0;
  VertexId cols = 0;
  int sessions = 1;
  int updates = 0;
  int setup_reps = 3;
  /// The drill image is taken once this many updates have completed.
  int image_after = 0;
  int drills = 0;
  int batch_size = 0;
  bool durable = false;
  bool replicated = false;
  bool refine = false;
  ServiceConfig service;
  ServiceConfig follower;
  SessionConfig session;
};

/// Produces update `update`'s edit list for session `session`, whose
/// current graph is `current`.  Called once per update, in order.
using Generator =
    std::function<EditList(int update, int session, const Graph& current)>;

Edge ordered(VertexId a, VertexId b) { return a < b ? Edge{a, b} : Edge{b, a}; }

/// Appends one `width`-vertex row under a grid with row-major ids: a path
/// along the row, one edge down per vertex, and a seeded diagonal on about
/// one vertex in eight.  Damage: the row plus the row below it.
Generator grow_rows(std::uint64_t seed, VertexId width) {
  return [rng = Rng(seed), width](int, int, const Graph& g) mutable {
    EditList e;
    const VertexId first = g.num_vertices();
    const VertexId below = first - width;
    e.append = width;
    for (VertexId j = 0; j < width; ++j) {
      if (j + 1 < width) e.add.push_back({first + j, first + j + 1});
      e.add.push_back({first + j, below + j});
      if (rng.uniform_int(8) == 0) {
        const VertexId to = j + (rng.uniform_int(2) == 0 ? -1 : 1);
        if (to >= 0 && to < width) e.add.push_back({first + j, below + to});
      }
    }
    return e;
  };
}

/// Diagonals of the cells of an h x w window at (r0, c0) of a side x side
/// grid, all in one orientation.
std::vector<Edge> window_diagonals(VertexId side, VertexId r0, VertexId c0,
                                   VertexId h, VertexId w, bool anti) {
  std::vector<Edge> edges;
  for (VertexId r = r0; r < r0 + h; ++r) {
    for (VertexId c = c0; c < c0 + w; ++c) {
      edges.push_back(anti ? ordered(r * side + c + 1, (r + 1) * side + c)
                           : ordered(r * side + c, (r + 1) * side + c + 1));
    }
  }
  return edges;
}

/// Each session alternates: add the diagonals of a window of seeded size
/// and place, then remove them.  Damage ~ h*w + h + w per update.
Generator churn_windows(std::uint64_t seed, VertexId side, int sessions,
                        VertexId min_side, VertexId max_side) {
  struct State {
    Rng rng;
    std::vector<std::vector<Edge>> live;
  };
  auto st = std::make_shared<State>(
      State{Rng(seed), std::vector<std::vector<Edge>>(sessions)});
  return [st, side, min_side, max_side](int, int s, const Graph&) {
    EditList e;
    auto& live = st->live[static_cast<std::size_t>(s)];
    if (!live.empty()) {
      e.remove = std::move(live);
      live.clear();
      return e;
    }
    Rng& rng = st->rng;
    const VertexId h = rng.uniform_int(min_side, max_side);
    const VertexId w = rng.uniform_int(min_side, max_side);
    const VertexId r0 = rng.uniform_int(side - h);
    const VertexId c0 = rng.uniform_int(side - w);
    e.add = window_diagonals(side, r0, c0, h, w, rng.uniform_int(2) == 1);
    live = e.add;
    return e;
  };
}

/// Every session has one fixed window of seeded place; each of its updates
/// redraws every cell's diagonal (none, one orientation, or the other) and
/// emits the difference.
Generator hotspot_windows(std::uint64_t seed, VertexId side, int sessions,
                          VertexId win) {
  struct Window {
    VertexId r0 = 0;
    VertexId c0 = 0;
    std::vector<Edge> current;  // sorted
  };
  struct State {
    Rng rng;
    std::vector<Window> windows;
  };
  auto st = std::make_shared<State>(
      State{Rng(seed), std::vector<Window>(sessions)});
  for (Window& w : st->windows) {
    w.r0 = st->rng.uniform_int(side - win);
    w.c0 = st->rng.uniform_int(side - win);
  }
  return [st, side, win](int, int s, const Graph&) {
    Window& w = st->windows[static_cast<std::size_t>(s)];
    std::vector<Edge> next;
    for (VertexId r = w.r0; r < w.r0 + win; ++r) {
      for (VertexId c = w.c0; c < w.c0 + win; ++c) {
        const int kind = st->rng.uniform_int(3);
        if (kind == 1) next.push_back(ordered(r * side + c, (r + 1) * side + c + 1));
        if (kind == 2) next.push_back(ordered(r * side + c + 1, (r + 1) * side + c));
      }
    }
    std::sort(next.begin(), next.end());
    EditList e;
    std::set_difference(next.begin(), next.end(), w.current.begin(),
                        w.current.end(), std::back_inserter(e.add));
    std::set_difference(w.current.begin(), w.current.end(), next.begin(),
                        next.end(), std::back_inserter(e.remove));
    w.current = std::move(next);
    return e;
  };
}

int scaled(double seconds, double per_second, int floor) {
  return std::max(floor, static_cast<int>(std::lround(seconds * per_second)));
}

Shape make_shape(const RunConfig& rc) {
  Shape sh;
  sh.session.num_parts = kParts;
  sh.service.background_refinement = false;
  if (rc.workload == kGrow) {
    sh.rows = sh.cols = rc.tiny ? 32 : 1000;
    sh.updates = rc.tiny ? 12 : scaled(rc.seconds, kGrowUpdatesPerSecond, 16);
    sh.durable = true;
    sh.service.durability.fsync = gapart::FsyncPolicy::kEveryRecord;
    sh.session.repair_budget_seconds = 0.0;  // cascade only
    // The default compaction policy fires on every 4th row (damage 2000
    // each); after update 6 the log holds two records past a snapshot.
    sh.image_after = 6;
    sh.drills = rc.tiny ? 2 : 5;
    sh.batch_size = rc.tiny ? 256 : 1 << 15;
  } else if (rc.workload == kChurn) {
    sh.rows = sh.cols = rc.tiny ? 32 : 256;
    sh.sessions = 4;
    const std::uint64_t records_per_snapshot = rc.tiny ? 4 : 32;
    sh.updates = rc.tiny ? 24 : scaled(rc.seconds, kChurnUpdatesPerSecond, 64);
    sh.durable = true;
    sh.replicated = true;
    sh.service.durability.fsync = gapart::FsyncPolicy::kEveryRecord;
    // Compact every `records_per_snapshot` records of a session, so
    // compaction updates outnumber the samples beyond the tail percentile.
    sh.service.durability.compaction.damage_threshold = 1;
    sh.service.durability.compaction.bytes_threshold = 0;
    sh.service.durability.compaction.min_records = records_per_snapshot;
    sh.service.durability.ship_retain_bytes = 0;  // lockstep with the follower
    sh.follower = sh.service;
    sh.follower.durability.compaction.damage_threshold = 0;
    sh.follower.durability.compaction.bytes_threshold = 0;
    // A budget no repair reaches: the round cap decides verification.
    sh.session.repair_budget_seconds = 60.0;
    // Every session's log is one record short of its next snapshot.
    sh.image_after = sh.sessions * static_cast<int>(records_per_snapshot - 1);
    sh.drills = rc.tiny ? 2 : 9;
    sh.batch_size = rc.tiny ? 256 : 1 << 12;
  } else if (rc.workload == kHotspot) {
    sh.rows = sh.cols = rc.tiny ? 32 : 256;
    // Four sessions, so every median pools four refinement trajectories:
    // one session's cut (and with it the V-cycle's work) drifts chaotically
    // with its inputs.
    sh.sessions = 4;
    sh.updates = rc.tiny ? 8 : scaled(rc.seconds, kHotspotUpdatesPerSecond, 16);
    sh.refine = true;
    sh.service.background_refinement = true;
    sh.session.repair_budget_seconds = 0.0;
    // Every update plans kDeep: any damage fires, and escalates.
    auto& policy = sh.session.policy;
    policy.quality_watermark = 0.0;
    policy.staleness_updates = 0;
    policy.damage_threshold = 1;
    policy.deep_damage_threshold = 1;
    policy.allow_deep = true;
    sh.image_after = sh.sessions;
    sh.drills = rc.tiny ? 2 : 12;
    sh.batch_size = rc.tiny ? 256 : 1 << 14;
  } else {
    throw std::invalid_argument("unknown workload '" + rc.workload + "'");
  }
  if (rc.tiny) sh.setup_reps = 2;
  return sh;
}

Generator make_generator(const RunConfig& rc, const Shape& sh) {
  const std::uint64_t seed = mix_u64(rc.seed, 0xed175);
  if (rc.workload == kGrow) return grow_rows(seed, sh.cols);
  if (rc.workload == kChurn) {
    return rc.tiny ? churn_windows(seed, sh.cols, sh.sessions, 3, 6)
                   : churn_windows(seed, sh.cols, sh.sessions, 9, 16);
  }
  return hotspot_windows(seed, sh.cols, sh.sessions, rc.tiny ? 6 : 12);
}

/// The live system of one set-up repetition.  Declaration order is the
/// reverse of destruction order: services outlive the replication endpoints.
struct Live {
  std::unique_ptr<PartitionService> leader;
  std::unique_ptr<PartitionService> follower_service;
  std::unique_ptr<gapart::LoopbackTransport> leader_link;
  std::unique_ptr<gapart::LoopbackTransport> follower_link;
  std::unique_ptr<gapart::ReplicationShipper> shipper;
  std::unique_ptr<gapart::ReplicationFollower> follower;
  std::string leader_dir;
  std::vector<SessionId> ids;
  /// The client's copy of each session's current graph.
  std::vector<std::shared_ptr<const Graph>> graphs;
};

/// One set-up: from-scratch V-cycle partition, open every session (durable
/// checkpoint included), and bootstrap the follower.
std::unique_ptr<Live> open_live(const Shape& sh,
                                const std::shared_ptr<const Graph>& base,
                                Executor& pool, const std::string& dir) {
  gapart::VcycleGaOptions vo = sh.session.deep_vcycle;
  vo.dpga.ga.num_parts = kParts;
  vo.dpga.ga.fitness = sh.session.fitness;
  Rng rng(kPartitionSeed);
  const gapart::VcycleGaResult initial =
      gapart::vcycle_ga_partition(*base, vo, rng, &pool);

  auto live = std::make_unique<Live>();
  ServiceConfig sc = sh.service;
  if (sh.durable) {
    live->leader_dir = dir + "/leader";
    sc.durability.dir = live->leader_dir;
  }
  live->leader = std::make_unique<PartitionService>(sc, &pool);
  for (int s = 0; s < sh.sessions; ++s) {
    live->ids.push_back(
        live->leader->open_session(base, initial.assignment, sh.session));
    live->graphs.push_back(base);
  }
  if (!sh.replicated) return live;

  ServiceConfig fc = sh.follower;
  fc.durability.dir = dir + "/follower";
  live->follower_service = std::make_unique<PartitionService>(fc, &pool);
  auto [leader_end, follower_end] = gapart::LoopbackTransport::create_pair();
  live->leader_link = std::move(leader_end);
  live->follower_link = std::move(follower_end);
  live->shipper = std::make_unique<gapart::ReplicationShipper>(
      *live->leader, *live->leader_link, gapart::ShipperConfig{});
  gapart::FollowerConfig fcfg;
  fcfg.base = sh.session;
  live->follower = std::make_unique<gapart::ReplicationFollower>(
      *live->follower_service, *live->follower_link, fcfg);
  live->follower->start_follower();
  for (int pumps = 0;; ++pumps) {
    live->shipper->pump();
    if (live->follower->stats().opens_applied >=
            static_cast<std::uint64_t>(sh.sessions) &&
        live->shipper->drained()) {
      break;
    }
    if (pumps >= kMaxPumps) throw CheckFailed("follower bootstrap stalled");
    live->follower->pump(0.0);
  }
  return live;
}

std::uint64_t leader_compactions(const Live& live) {
  std::uint64_t total = 0;
  for (const SessionId id : live.ids) {
    total += live.leader->session_stats(id).wal.compactions;
  }
  return total;
}

/// Pumps shipper and follower on the client thread until the follower has
/// acknowledged `epoch` of session `id`.
void await_follower(Live& live, SessionId id, std::uint64_t epoch,
                    std::uint64_t seq, SpanLog& spans, UpdateSample& u) {
  for (;;) {
    u.ship_s += timed(spans, "replication.ship", seq,
                      [&] { live.shipper->pump(); });
    ++u.pumps;
    if (live.shipper->acked_epoch(id) >= epoch) return;
    if (u.pumps >= kMaxPumps) {
      throw CheckFailed("follower never acknowledged epoch " +
                        std::to_string(epoch) + " of session " +
                        std::to_string(id));
    }
    u.follower_s += timed(spans, "replication.follower", seq,
                          [&] { live.follower->pump(0.0); });
  }
}

/// The state every recovery drill restores: a copy of the leader's session
/// directories (durable) or a save_session checkpoint (in-memory), plus the
/// live digests at that moment.
struct Image {
  std::string dir;
  std::vector<std::pair<SessionId, std::uint64_t>> digests;
};

std::string session_prefix(const std::string& dir, SessionId id) {
  return dir + "/session-" + std::to_string(id);
}

Image capture_image(const Shape& sh, const Live& live,
                    const std::string& work_dir) {
  Image img;
  img.dir = work_dir + "/image";
  fs::remove_all(img.dir);
  if (sh.durable) {
    fs::copy(live.leader_dir, img.dir, fs::copy_options::recursive);
  } else {
    fs::create_directories(img.dir);
    for (const SessionId id : live.ids) {
      live.leader->save_session(id, session_prefix(img.dir, id));
    }
  }
  for (const SessionId id : live.ids) {
    img.digests.emplace_back(id,
                             live.leader->session_handle(id)->state_digest());
  }
  return img;
}

/// A fresh service restores the image: recover() over a copy of the WAL
/// directories, or open_session_from_files per checkpoint.  Checks every
/// restored digest against the live one.
void drill(const Shape& sh, const Image& img, Executor& pool,
           const std::string& work_dir, SpanLog& spans, RunResult& out) {
  if (img.dir.empty()) throw CheckFailed("recovery drill before its image");
  const std::string dir = work_dir + "/drill";
  fs::remove_all(dir);
  ServiceConfig sc = sh.service;
  if (sh.durable) {
    fs::copy(img.dir, dir, fs::copy_options::recursive);
    sc.durability.dir = dir;
  }
  std::int64_t records = 0;
  {
    PartitionService service(sc, &pool);
    std::vector<SessionId> restored;
    const double secs = timed(spans, "recovery.drill", 0, [&] {
      if (sh.durable) {
        for (const auto& rep : service.recover(sh.session)) {
          restored.push_back(rep.session_id);
          records += static_cast<std::int64_t>(rep.records_replayed);
          out.recovery_session_s.push_back(rep.seconds);
        }
        return;
      }
      for (const auto& [id, digest] : img.digests) {
        const Clock::time_point t0 = Clock::now();
        restored.push_back(service.open_session_from_files(
            session_prefix(img.dir, id), sh.session));
        out.recovery_session_s.push_back(seconds_between(t0, Clock::now()));
      }
    });
    out.recovery_s.push_back(secs);
    if (restored.size() != img.digests.size()) {
      throw CheckFailed("recovery restored " + std::to_string(restored.size()) +
                        " of " + std::to_string(img.digests.size()) +
                        " sessions");
    }
    for (std::size_t i = 0; i < restored.size(); ++i) {
      if (service.session_handle(restored[i])->state_digest() !=
          img.digests[i].second) {
        throw CheckFailed("recovered digest of session " +
                          std::to_string(img.digests[i].first) +
                          " differs from the live one");
      }
    }
  }
  fs::remove_all(dir);
  if (out.recovery_s.size() > 1 && records != out.recovery_records) {
    throw CheckFailed("recovery drills replayed different record counts");
  }
  out.recovery_records = records;
}

/// End-of-run checks: follower digests equal the leader's, and every
/// session's maintained cut equals a from-scratch recount.
void final_checks(const Shape& sh, Live& live, RunResult& out) {
  if (sh.replicated) {
    for (int pumps = 0;; ++pumps) {
      live.shipper->pump();
      if (live.shipper->drained()) break;
      if (pumps >= kMaxPumps) throw CheckFailed("follower never drained");
      live.follower->pump(0.0);
    }
    for (const SessionId id : live.ids) {
      if (live.follower_service->session_handle(id)->state_digest() !=
          live.leader->session_handle(id)->state_digest()) {
        throw CheckFailed("follower digest of session " + std::to_string(id) +
                          " differs from the leader's");
      }
    }
    out.resumes = live.shipper->stats().resumes;
  }
  live.leader->quiesce();
  for (std::size_t s = 0; s < live.ids.size(); ++s) {
    const auto snap = live.leader->snapshot(live.ids[s]);
    if (snap->graph != live.graphs[s]) {
      throw CheckFailed("session graph differs from the client's");
    }
    const double recount =
        gapart::compute_metrics(*snap->graph, snap->assignment, kParts)
            .total_cut();
    if (std::fabs(recount - snap->total_cut) >
        1e-6 * std::max(1.0, std::fabs(recount))) {
      throw CheckFailed("session " + std::to_string(live.ids[s]) +
                        " maintains total_cut " +
                        std::to_string(snap->total_cut) +
                        " but a recount gives " + std::to_string(recount));
    }
    out.cut_final += snap->total_cut;
    const gapart::SessionStats st = live.leader->session_stats(live.ids[s]);
    out.wal_bytes += st.wal.bytes_appended;
    out.wal_fsyncs += st.wal.fsyncs;
    out.refine_planned += st.refinements_planned;
    out.refine_applied += st.refinements_applied;
    out.refine_stale += st.refinements_stale;
    out.refine_no_better += st.refinements_no_better;
  }
}

/// After which completed update each drill runs: spread evenly over the
/// updates after the image (a traced pass runs them after the last one).
std::vector<int> drill_schedule(const Shape& sh) {
  std::vector<int> after;
  const int span = sh.updates - sh.image_after;
  for (int j = 0; j < sh.drills; ++j) {
    after.push_back(sh.image_after + (j + 1) * span / (sh.drills + 1));
  }
  return after;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {kGrow, kChurn, kHotspot};
  return names;
}

RunResult run_workload(const RunConfig& rc, Executor& pool, SpanLog& spans) {
  const Shape sh = make_shape(rc);
  if (sh.image_after > sh.updates) {
    throw std::invalid_argument("run too short for its recovery image");
  }
  Generator generate = make_generator(rc, sh);
  RunResult out;
  out.batch_size = sh.batch_size;

  // Inputs: the base graph and the lookup plan (not part of set-up time).
  // The digest starts from a constant, so only the generated inputs move it.
  const auto base =
      std::make_shared<const Graph>(gapart::make_grid(sh.rows, sh.cols));
  std::vector<std::pair<int, VertexId>> plan(1 << 16);
  Rng plan_rng(mix_u64(rc.seed, 0x10c4));
  std::uint64_t digest = 0;
  for (auto& [s, v] : plan) {
    s = plan_rng.uniform_int(sh.sessions);
    v = plan_rng.uniform_int(base->num_vertices());
    digest = mix_u64(digest, static_cast<std::uint64_t>(s) << 32 |
                                 static_cast<std::uint32_t>(v));
  }
  ReadBatch reads(std::move(plan), sh.batch_size);

  HostPace pace;
  std::unique_ptr<Live> live;
  for (int rep = 0; rep < sh.setup_reps; ++rep) {
    live.reset();
    fs::remove_all(rc.work_dir);
    fs::create_directories(rc.work_dir);
    pace.sample();
    const Clock::time_point t0 = Clock::now();
    live = open_live(sh, base, pool, rc.work_dir + "/live");
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  if (rc.traced) {
    gapart::TelemetryRegistry::instance().reset_for_tests();
    gapart::Tracer& tracer = gapart::Tracer::instance();
    tracer.enable(1 << 17);
    spans.enable();
    // Marks the client thread's lane so the benchmark's spans can join it.
    tracer.record("e2ebench.client", tracer.now_us(), 0.0);
  }

  const std::vector<int> drills = drill_schedule(sh);
  std::size_t next_drill = 0;
  const int pace_every = std::max(1, sh.updates / kPaceSamples);
  Image image;
  for (int i = 0; i < sh.updates; ++i) {
    const int s = i % sh.sessions;
    const SessionId id = live->ids[static_cast<std::size_t>(s)];
    const std::uint64_t seq = static_cast<std::uint64_t>(i) + 1;
    const Graph& current = *live->graphs[static_cast<std::size_t>(s)];
    const EditList edits = generate(i, s, current);
    digest = mix_edits(digest, edits);
    const std::uint64_t compactions_before = leader_compactions(*live);

    // The update: the adapter turns the edit list into today's
    // submit_update(grown, delta) call, then the completion condition.
    UpdateSample u;
    const Clock::time_point t0 = Clock::now();
    std::shared_ptr<const Graph> grown;
    GraphDelta delta;
    u.build_s = timed(spans, "graph.build", seq, [&] {
      grown = std::make_shared<const Graph>(build_grown(current, edits));
    });
    u.diff_s = timed(spans, "graph_delta.diff", seq,
                     [&] { delta = gapart::diff_graphs(current, *grown); });
    RepairReport rep;
    u.submit_s = timed(spans, "service.submit", seq, [&] {
      rep = live->leader->submit_update(id, grown, delta);
    });
    if (sh.replicated) {
      await_follower(*live, id, rep.update_epoch, seq, spans, u);
    }
    if (sh.refine) {
      u.refine_wait_s = timed(spans, "refine.wait", seq,
                              [&] { live->leader->quiesce(); });
    }
    const Clock::time_point t1 = Clock::now();
    spans.add("update", seq, t0, t1);

    u.latency_s = seconds_between(t0, t1);
    u.repair_s = rep.seconds;
    u.damage = rep.damage;
    u.examined = rep.examined;
    u.moves = rep.repair_moves;
    u.verify_rounds = rep.verify_rounds;
    u.compacted = leader_compactions(*live) > compactions_before;
    live->graphs[static_cast<std::size_t>(s)] = std::move(grown);
    out.updates.push_back(u);

    timed(spans, "read.batch", seq, [&] {
      out.batch_s.push_back(reads.run(*live->leader, live->ids, kParts));
    });
    if ((i + 1) % pace_every == 0) pace.sample();

    if (i + 1 == sh.image_after) image = capture_image(sh, *live, rc.work_dir);
    while (!rc.traced && next_drill < drills.size() &&
           drills[next_drill] == i + 1) {
      drill(sh, image, pool, rc.work_dir, spans, out);
      ++next_drill;
    }
  }

  if (rc.traced) {
    auto& registry = gapart::TelemetryRegistry::instance();
    out.registry = registry.snapshot();
    std::ostringstream os;
    registry.write_json(os);
    out.registry_json = os.str();
  }
  for (; next_drill < drills.size(); ++next_drill) {
    drill(sh, image, pool, rc.work_dir, spans, out);
  }

  final_checks(sh, *live, out);
  out.pace = pace.ratio();
  out.pace_samples = pace.samples();
  out.input_digest = digest;
  out.lookups = reads.lookups();
  out.attempted = static_cast<std::int64_t>(out.updates.size()) +
                  out.lookups + static_cast<std::int64_t>(out.recovery_s.size());
  out.summary = rc.workload + ": " + std::to_string(sh.sessions) + " x " +
                std::to_string(sh.rows) + "x" + std::to_string(sh.cols) +
                " grid, k=" + std::to_string(kParts) + ", " +
                std::to_string(sh.updates) + " updates, " +
                std::to_string(sh.drills) + " recovery drills, pool " +
                std::to_string(pool.num_threads()) + " threads";
  live.reset();
  fs::remove_all(rc.work_dir);
  return out;
}

}  // namespace e2e

// Streaming partition service: refinement-trigger policy units, session
// repair over delta streams, epoch-versioned snapshot consistency under
// concurrent deltas + reads, background refinement, and snapshot/restore
// round-trips through the session image.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "core/graph_delta.hpp"
#include "core/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/refine_policy.hpp"
#include "service/session.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

// ---------------------------------------------------------------------------
// Policy units: decide_refinement is pure, so the trigger matrix is testable
// without sessions or clocks.

RefinePolicyConfig policy_config() {
  RefinePolicyConfig c;
  c.quality_watermark = 0.10;
  c.staleness_updates = 8;
  c.damage_threshold = 100;
  c.deep_damage_threshold = 1000;
  c.deep_watermark_factor = 4.0;
  return c;
}

TEST(RefinePolicy, QuietWhenNothingFired) {
  RefineSignals s;
  s.current_fitness = -100.0;
  s.baseline_fitness = -100.0;
  s.updates_since_refine = 3;
  s.damage_since_refine = 10;
  EXPECT_EQ(decide_refinement(policy_config(), s), RefineDepth::kNone);
}

TEST(RefinePolicy, QualityWatermarkTriggersLight) {
  RefineSignals s;
  s.baseline_fitness = -100.0;
  s.current_fitness = -120.0;  // 20% degradation > 10% watermark
  EXPECT_EQ(decide_refinement(policy_config(), s), RefineDepth::kLight);
}

TEST(RefinePolicy, StalenessTriggersLight) {
  RefineSignals s;
  s.baseline_fitness = -100.0;
  s.current_fitness = -100.0;
  s.updates_since_refine = 8;
  EXPECT_EQ(decide_refinement(policy_config(), s), RefineDepth::kLight);
}

TEST(RefinePolicy, DamageAccumulationTriggersLight) {
  RefineSignals s;
  s.baseline_fitness = -100.0;
  s.current_fitness = -100.0;
  s.damage_since_refine = 100;
  EXPECT_EQ(decide_refinement(policy_config(), s), RefineDepth::kLight);
}

TEST(RefinePolicy, DeepEscalationOnAccumulatedDamage) {
  RefineSignals s;
  s.baseline_fitness = -100.0;
  s.current_fitness = -100.0;
  s.damage_since_refine = 100;
  s.damage_since_deep = 1000;
  EXPECT_EQ(decide_refinement(policy_config(), s), RefineDepth::kDeep);

  auto no_deep = policy_config();
  no_deep.allow_deep = false;
  EXPECT_EQ(decide_refinement(no_deep, s), RefineDepth::kLight);
}

TEST(RefinePolicy, DeepEscalationOnSevereDegradation) {
  RefineSignals s;
  s.baseline_fitness = -100.0;
  s.current_fitness = -150.0;  // 50% > 10% * 4
  EXPECT_EQ(decide_refinement(policy_config(), s), RefineDepth::kDeep);
}

TEST(RefinePolicy, InFlightSuppressesEverything) {
  RefineSignals s;
  s.baseline_fitness = -100.0;
  s.current_fitness = -200.0;
  s.updates_since_refine = 1000;
  s.damage_since_refine = 100000;
  s.damage_since_deep = 100000;
  s.refine_in_flight = true;
  EXPECT_EQ(decide_refinement(policy_config(), s), RefineDepth::kNone);
}

TEST(RefinePolicy, DisabledTriggersStayQuiet) {
  RefinePolicyConfig off;
  off.quality_watermark = 0.0;
  off.staleness_updates = 0;
  off.damage_threshold = 0;
  RefineSignals s;
  s.baseline_fitness = -100.0;
  s.current_fitness = -1000.0;
  s.updates_since_refine = 1 << 20;
  s.damage_since_refine = 1 << 20;
  EXPECT_EQ(decide_refinement(off, s), RefineDepth::kNone);
}

TEST(RefinePolicy, DegradationIsRelativeAndClampedAtZero) {
  EXPECT_DOUBLE_EQ(fitness_degradation(-110.0, -100.0), 0.1);
  EXPECT_DOUBLE_EQ(fitness_degradation(-90.0, -100.0), 0.0);  // improved
  EXPECT_DOUBLE_EQ(fitness_degradation(-0.5, 0.0), 0.5);  // zero baseline
}

// ---------------------------------------------------------------------------
// Delta-stream helpers: grids that grow by rows (pure growth) and grids with
// a toggled diagonal window (churn — same vertices, rewired edges).

std::shared_ptr<const Graph> shared_grid(VertexId rows, VertexId cols) {
  return std::make_shared<const Graph>(make_grid(rows, cols));
}

/// n x n grid with the diagonals of a w x w window added on odd phases: the
/// delta between consecutive phases touches only the window.
std::shared_ptr<const Graph> churn_grid(VertexId n, VertexId w, int phase) {
  GraphBuilder b(n * n);
  const auto at = [n](VertexId r, VertexId c) { return r * n + c; };
  for (VertexId r = 0; r < n; ++r) {
    for (VertexId c = 0; c < n; ++c) {
      if (c + 1 < n) b.add_edge(at(r, c), at(r, c + 1));
      if (r + 1 < n) b.add_edge(at(r, c), at(r + 1, c));
    }
  }
  if (phase % 2 == 1) {
    const VertexId r0 = n / 3;
    for (VertexId r = r0; r < r0 + w && r + 1 < n; ++r) {
      for (VertexId c = r0; c < r0 + w && c + 1 < n; ++c) {
        b.add_edge(at(r, c), at(r + 1, c + 1));
      }
    }
  }
  return std::make_shared<const Graph>(b.build());
}

SessionConfig basic_config(PartId k) {
  SessionConfig cfg;
  cfg.num_parts = k;
  return cfg;
}

Assignment block_partition(VertexId n_vertices, PartId k) {
  Assignment a(static_cast<std::size_t>(n_vertices));
  for (VertexId v = 0; v < n_vertices; ++v) {
    a[static_cast<std::size_t>(v)] = static_cast<PartId>(
        std::min<std::int64_t>(k - 1, static_cast<std::int64_t>(v) * k /
                                          n_vertices));
  }
  return a;
}

void expect_snapshot_consistent(const SessionSnapshot& snap, PartId k) {
  ASSERT_NE(snap.graph, nullptr);
  ASSERT_TRUE(is_valid_assignment(*snap.graph, snap.assignment, k));
  const auto m = compute_metrics(*snap.graph, snap.assignment, k);
  EXPECT_NEAR(snap.total_cut, m.total_cut(), 1e-9);
  EXPECT_NEAR(snap.sums.max_part_cut, m.max_part_cut, 1e-9);
  EXPECT_NEAR(snap.sums.imbalance_sq, m.imbalance_sq, 1e-9);
}

// ---------------------------------------------------------------------------
// Session: synchronous repair plane.

// Column-band start (bench_common):
// appended rows cross every band boundary, so growth always leaves the
// repair tier work.
using bench::column_bands;

TEST(PartitionSession, GrowthStreamKeepsStateConsistent) {
  const PartId k = 4;
  auto g = shared_grid(12, 12);
  PartitionSession session(g, column_bands(12, 12, k), basic_config(k));

  auto snap = session.snapshot();
  EXPECT_STREQ(snap->source, "open");
  expect_snapshot_consistent(*snap, k);

  std::shared_ptr<const Graph> prev = g;
  for (VertexId rows = 13; rows <= 20; ++rows) {
    auto grown = shared_grid(rows, 12);
    const GraphDelta delta = diff_graphs(*prev, *grown);
    const RepairReport rep = session.apply_update(grown, delta);

    EXPECT_EQ(rep.damage, delta.damage(*grown));
    EXPECT_EQ(rep.extend_moves, 12);
    // The maintained fitness must equal a from-scratch evaluation after
    // every update — rebind + repair never drift.
    snap = session.snapshot();
    EXPECT_STREQ(snap->source, "repair");
    EXPECT_EQ(snap->update_epoch, static_cast<std::uint64_t>(rows - 12));
    expect_snapshot_consistent(*snap, k);
    EXPECT_NEAR(rep.fitness_after,
                evaluate_fitness(*grown, snap->assignment, k, {}), 1e-9);
    prev = grown;
  }

  const SessionStats st = session.stats();
  EXPECT_EQ(st.updates, 8u);
  EXPECT_EQ(session.snapshot()->version, 9u);  // open + 8 repairs
  EXPECT_GT(st.examined, 0);
}

TEST(PartitionSession, UpdateMatchesRepairStep) {
  // apply_update is repair_step on the live state, with the session's
  // repair_max_verify_rounds as the round cap (0: the cascade only).  With
  // no latency budget the session and a bare PartitionState must decide
  // identically, down to the logged outcome.
  const PartId k = 4;
  auto g = shared_grid(12, 12);
  Rng rng(0x9eed);
  Assignment start(144);
  for (auto& p : start) p = static_cast<PartId>(rng.uniform_int(k));

  for (const int cap : {3, 0}) {
    SCOPED_TRACE(::testing::Message() << "cap " << cap);
    SessionConfig cfg = basic_config(k);
    cfg.repair_budget_seconds = std::numeric_limits<double>::infinity();
    cfg.repair_max_verify_rounds = cap;
    PartitionSession session(g, start, cfg);
    PartitionState mirror(*g, start, k);

    std::shared_ptr<const Graph> prev = g;
    for (int i = 0; i < 5; ++i) {
      SCOPED_TRACE(::testing::Message() << "step " << i);
      auto grown = shared_grid(static_cast<VertexId>(13 + i), 12);
      const GraphDelta delta = diff_graphs(*prev, *grown);
      prev = grown;
      const RepairReport want = repair_step(mirror, *grown, delta, cfg.fitness,
                                            cap, cfg.repair_budget_seconds);
      const RepairReport got = session.apply_update(grown, delta);
      EXPECT_EQ(session.snapshot()->assignment, mirror.assignment());
      EXPECT_EQ(got.verify_rounds, want.verify_rounds);
      EXPECT_LE(got.verify_rounds, cap);
      EXPECT_EQ(got.repair_moves, want.repair_moves);
      EXPECT_EQ(got.examined, want.examined);
      EXPECT_EQ(got.extend_moves, want.extend_moves);
      EXPECT_EQ(got.damage, want.damage);
      EXPECT_EQ(got.outcome.new_parts, want.outcome.new_parts);
      EXPECT_EQ(got.outcome.moves, want.outcome.moves);
      EXPECT_EQ(got.outcome.moves.size(),
                static_cast<std::size_t>(got.repair_moves));
      EXPECT_NEAR(got.fitness_after, want.fitness_after, 1e-9);
      EXPECT_EQ(got.update_epoch, static_cast<std::uint64_t>(i + 1));
    }
  }
}

TEST(PartitionSession, ChurnStreamRepairsRewiredWindows) {
  const PartId k = 2;
  auto prev = churn_grid(16, 5, 0);
  PartitionSession session(prev, block_partition(256, k), basic_config(k));

  for (int phase = 1; phase <= 6; ++phase) {
    auto next = churn_grid(16, 5, phase);
    const GraphDelta delta = diff_graphs(*prev, *next);
    ASSERT_GT(delta.touched_old.size(), 0u);
    const RepairReport rep = session.apply_update(next, delta);
    EXPECT_EQ(rep.extend_moves, 0);
    expect_snapshot_consistent(*session.snapshot(), k);
    EXPECT_NEAR(rep.fitness_after,
                evaluate_fitness(*next, session.snapshot()->assignment, k, {}),
                1e-9);
    prev = next;
  }
}

TEST(PartitionSession, MismatchedDeltaRejected) {
  const PartId k = 2;
  auto g = shared_grid(6, 6);
  PartitionSession session(g, block_partition(36, k), basic_config(k));
  auto grown = shared_grid(7, 6);
  GraphDelta wrong;
  wrong.old_num_vertices = 35;  // session has 36
  EXPECT_THROW(session.apply_update(grown, wrong), Error);
  EXPECT_THROW(session.apply_update(nullptr, appended_delta(*grown, 36)),
               Error);
}

TEST(PartitionSession, LatencyBudgetAdmitsVerificationRounds) {
  const PartId k = 4;
  auto g = shared_grid(16, 16);

  SessionConfig tight = basic_config(k);
  tight.repair_budget_seconds = 0.0;  // cascade only
  SessionConfig roomy = basic_config(k);
  roomy.repair_budget_seconds = 10.0;  // effectively unbounded in a test
  roomy.repair_max_verify_rounds = 50;

  // A deliberately bad start partition leaves plenty for verification rounds
  // to find beyond the seeded cascade.
  Rng rng(0xbad);
  Assignment scrambled(256);
  for (auto& p : scrambled) p = static_cast<PartId>(rng.uniform_int(k));

  auto grown = shared_grid(17, 16);
  const GraphDelta delta = diff_graphs(*g, *grown);

  PartitionSession ts(g, scrambled, tight);
  const RepairReport tr = ts.apply_update(grown, delta);
  EXPECT_EQ(tr.verify_rounds, 0);

  PartitionSession rs(g, scrambled, roomy);
  const RepairReport rr = rs.apply_update(grown, delta);
  EXPECT_GT(rr.verify_rounds, 0);
  EXPECT_GE(rr.fitness_after, tr.fitness_after);
  // The budgeted session ends at a verified local optimum.
  const auto snap = rs.snapshot();
  PartitionState check(*snap->graph, snap->assignment, k);
  for (const VertexId v : check.boundary_vertices()) {
    EXPECT_LT(check.best_move(v, {}, 1e-9).to, 0);
  }
}

// ---------------------------------------------------------------------------
// Refinement plane.

TEST(PartitionSession, RefinementJobLifecycle) {
  const PartId k = 4;
  auto g = shared_grid(16, 16);
  SessionConfig cfg = basic_config(k);
  cfg.repair_budget_seconds = 0.0;       // leave quality on the table
  cfg.policy.damage_threshold = 1;       // fire immediately
  cfg.policy.staleness_updates = 0;
  cfg.policy.quality_watermark = 0.0;

  Rng rng(0x5eed);
  Assignment scrambled(256);
  for (auto& p : scrambled) p = static_cast<PartId>(rng.uniform_int(k));
  PartitionSession session(g, scrambled, cfg);

  auto grown = shared_grid(17, 16);
  session.apply_update(grown, diff_graphs(*g, *grown));

  auto job = session.plan_refinement();
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->depth, RefineDepth::kLight);
  // In-flight exclusion: no second job while the first runs.
  EXPECT_FALSE(session.plan_refinement().has_value());

  const RefineOutcome out = run_refinement(*job, cfg, Rng(1), nullptr);
  EXPECT_GT(out.fitness, job->fitness);  // scrambled start: must improve
  // Determinism: same job + seed, same outcome.
  const RefineOutcome out2 = run_refinement(*job, cfg, Rng(1), nullptr);
  EXPECT_EQ(out.assignment, out2.assignment);
  EXPECT_DOUBLE_EQ(out.fitness, out2.fitness);

  Assignment refined = out.assignment;
  EXPECT_TRUE(session.complete_refinement(*job, std::move(refined),
                                          out.fitness));
  const auto snap = session.snapshot();
  EXPECT_STREQ(snap->source, "refine");
  expect_snapshot_consistent(*snap, k);
  EXPECT_NEAR(snap->fitness, out.fitness, 1e-9);
  EXPECT_EQ(session.stats().refinements_applied, 1);
}

TEST(PartitionSession, RefinementImprovesAndIsPoolWidthIndependent) {
  const PartId k = 4;
  auto g = shared_grid(16, 16);
  SessionConfig cfg = basic_config(k);
  cfg.repair_budget_seconds = 0.0;
  cfg.policy.damage_threshold = 1;  // fire immediately
  cfg.policy.staleness_updates = 0;
  cfg.policy.quality_watermark = 0.0;

  Rng rng(0x5eed);
  Assignment scrambled(256);
  for (auto& p : scrambled) p = static_cast<PartId>(rng.uniform_int(k));
  PartitionSession session(g, scrambled, cfg);

  auto grown = shared_grid(17, 16);
  session.apply_update(grown, diff_graphs(*g, *grown));
  auto job = session.plan_refinement();
  ASSERT_TRUE(job.has_value());

  Executor pool(4);
  const RefineOutcome out = run_refinement(*job, cfg, Rng(1), &pool);
  EXPECT_GT(out.fitness, job->fitness);  // scrambled start: must improve
  EXPECT_TRUE(
      is_valid_assignment(*job->graph, out.assignment, k));
  // Deterministic for a fixed pool width, and the width does not matter:
  // refinement of one graph is one serial climb.
  const RefineOutcome out2 = run_refinement(*job, cfg, Rng(1), &pool);
  EXPECT_EQ(out.assignment, out2.assignment);
  Executor one_thread(1);
  const RefineOutcome out1 = run_refinement(*job, cfg, Rng(1), &one_thread);
  EXPECT_EQ(out.assignment, out1.assignment);
  EXPECT_EQ(out.fitness, out1.fitness);

  Assignment refined = out.assignment;
  EXPECT_TRUE(session.complete_refinement(*job, std::move(refined),
                                          out.fitness));
  expect_snapshot_consistent(*session.snapshot(), k);
}

TEST(PartitionSession, StaleRefinementIsDiscarded) {
  const PartId k = 2;
  auto g = shared_grid(12, 12);
  SessionConfig cfg = basic_config(k);
  cfg.policy.damage_threshold = 1;
  Rng rng(7);
  Assignment scrambled(144);
  for (auto& p : scrambled) p = static_cast<PartId>(rng.uniform_int(k));
  PartitionSession session(g, scrambled, cfg);

  auto g13 = shared_grid(13, 12);
  session.apply_update(g13, diff_graphs(*g, *g13));
  auto job = session.plan_refinement();
  ASSERT_TRUE(job.has_value());

  // A delta lands while the refinement "runs": the job's epoch goes stale.
  auto g14 = shared_grid(14, 12);
  session.apply_update(g14, diff_graphs(*g13, *g14));

  const RefineOutcome out = run_refinement(*job, cfg, Rng(2), nullptr);
  Assignment refined = out.assignment;
  EXPECT_FALSE(session.complete_refinement(*job, std::move(refined),
                                           out.fitness));
  EXPECT_EQ(session.stats().refinements_stale, 1);
  EXPECT_EQ(session.stats().refinements_no_better, 0);
  EXPECT_STREQ(session.snapshot()->source, "repair");
  // The in-flight mark cleared: planning works again.
  EXPECT_TRUE(session.plan_refinement().has_value());
}

// ---------------------------------------------------------------------------
// Persistence.

TEST(PartitionSession, SnapshotRestoreRoundTripViaStreams) {
  // save_session streams the session image to a file; open_session_from_files
  // rebuilds a session from it that continues the delta stream exactly
  // where the saved one stopped.
  const PartId k = 4;
  const std::string path = ::testing::TempDir() + "/gapart_session_image";
  ServiceConfig service_config;
  service_config.num_threads = 1;
  service_config.background_refinement = false;  // deltas only
  PartitionService service(service_config);
  auto g = shared_grid(10, 10);
  const SessionId id =
      service.open_session(g, block_partition(100, k), basic_config(k));
  auto grown = shared_grid(12, 10);
  service.submit_update(id, grown, diff_graphs(*g, *grown));
  service.save_session(id, path);
  const auto a = service.snapshot(id);
  const std::uint64_t digest = service.session_handle(id)->state_digest();

  // One session image carries identity, epoch, digest, graph and partition.
  const SessionImage image = decode_session_image(read_file(path));
  EXPECT_EQ(image.num_parts, k);
  EXPECT_EQ(image.epoch, a->update_epoch);
  EXPECT_EQ(image.digest, digest);

  const SessionId id2 = service.open_session_from_files(path, basic_config(k));
  const auto b = service.snapshot(id2);
  EXPECT_STREQ(b->source, "restore");
  EXPECT_EQ(service.session_handle(id2)->config().num_parts, k);
  EXPECT_EQ(b->update_epoch, a->update_epoch);
  EXPECT_EQ(service.session_handle(id2)->state_digest(), digest);
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_EQ(a->graph->num_vertices(), b->graph->num_vertices());
  EXPECT_EQ(a->graph->num_edges(), b->graph->num_edges());
  EXPECT_EQ(a->fitness, b->fitness);
  expect_snapshot_consistent(*b, k);

  // The restored session keeps absorbing the stream where the original
  // stopped.
  auto grown2 = shared_grid(13, 10);
  const GraphDelta delta = diff_graphs(*grown, *grown2);
  const RepairReport ra = service.submit_update(id, grown2, delta);
  const RepairReport rb = service.submit_update(id2, grown2, delta);
  EXPECT_EQ(ra.damage, rb.damage);
  EXPECT_EQ(ra.update_epoch, rb.update_epoch);
  EXPECT_EQ(service.snapshot(id)->assignment,
            service.snapshot(id2)->assignment);
}

TEST(PartitionService, SaveAndReopenSessionThroughFiles) {
  const PartId k = 2;
  const std::string prefix = ::testing::TempDir() + "/gapart_service_ckpt";
  ServiceConfig service_config;
  service_config.num_threads = 1;
  PartitionService service(service_config);
  auto g = shared_grid(8, 8);
  const SessionId id =
      service.open_session(g, block_partition(64, k), basic_config(k));
  auto grown = shared_grid(9, 8);
  service.submit_update(id, grown, diff_graphs(*g, *grown));
  service.quiesce();
  service.save_session(id, prefix);
  const auto before = service.snapshot(id);

  const SessionId id2 = service.open_session_from_files(prefix, basic_config(k));
  const auto after = service.snapshot(id2);
  EXPECT_EQ(before->assignment, after->assignment);
  EXPECT_NEAR(before->fitness, after->fitness, 1e-9);
  expect_snapshot_consistent(*after, k);
}

// ---------------------------------------------------------------------------
// Service: concurrency.

TEST(PartitionService, BackgroundRefinementPublishesBetterSnapshots) {
  const PartId k = 4;
  ServiceConfig service_config;
  service_config.num_threads = 2;
  PartitionService service(service_config);
  SessionConfig cfg = basic_config(k);
  cfg.repair_budget_seconds = 0.0;
  cfg.policy.damage_threshold = 1;  // refine after every update
  cfg.policy.allow_deep = false;

  Rng rng(0xabc);
  auto g = shared_grid(16, 16);
  Assignment scrambled(256);
  for (auto& p : scrambled) p = static_cast<PartId>(rng.uniform_int(k));
  const SessionId id = service.open_session(g, scrambled, cfg);
  // The registry is process-wide: its counters are read as increments.
  const auto counter = [](const char* name) {
    return TelemetryRegistry::instance().counter(name).value();
  };
  const char* const kCounters[] = {"repair.moves",    "refine.moves",
                                   "refine.applied",  "refine.stale",
                                   "refine.no_better", "refine.unlogged"};
  std::vector<std::uint64_t> at_open;
  for (const char* name : kCounters) at_open.push_back(counter(name));

  // One update, then quiesce: the scheduled refinement finishes with its
  // captured epoch still current, and the scrambled cascade-only repair
  // leaves it certain improving moves — it must be adopted.
  auto g17 = shared_grid(17, 16);
  const RepairReport rep =
      service.submit_update(id, g17, diff_graphs(*g, *g17));
  std::int64_t repair_moves = rep.repair_moves;
  service.quiesce();
  {
    const SessionStats st = service.session_stats(id);
    EXPECT_EQ(st.refinements_planned, 1);
    EXPECT_EQ(st.refinements_applied, 1);
    const auto snap = service.snapshot(id);
    EXPECT_STREQ(snap->source, "refine");
    expect_snapshot_consistent(*snap, k);
    EXPECT_GT(snap->fitness, rep.fitness_after);  // same graph: comparable
  }

  // Keep streaming without quiescing: refinements race deltas; whatever the
  // interleaving, the books must balance once drained.
  std::shared_ptr<const Graph> prev = g17;
  for (VertexId rows = 18; rows <= 21; ++rows) {
    auto grown = shared_grid(rows, 16);
    repair_moves +=
        service.submit_update(id, grown, diff_graphs(*prev, *grown))
            .repair_moves;
    prev = grown;
  }
  service.quiesce();
  const SessionStats st = service.session_stats(id);
  EXPECT_GT(st.refinements_planned, 1);
  EXPECT_EQ(st.refinements_planned, st.refinements_applied +
                                        st.refinements_stale +
                                        st.refinements_no_better);
  expect_snapshot_consistent(*service.snapshot(id), k);

  const ServiceStats agg = service.stats();
  EXPECT_EQ(agg.sessions, 1);
  EXPECT_EQ(agg.updates, 5u);
  EXPECT_GE(agg.p99_repair_seconds, agg.p50_repair_seconds);

#ifdef GAPART_TELEMETRY
  // Migration volume and refinement outcomes reach the registry.
  std::vector<std::uint64_t> added;
  for (std::size_t i = 0; i < at_open.size(); ++i) {
    added.push_back(counter(kCounters[i]) - at_open[i]);
  }
  EXPECT_EQ(added[0], static_cast<std::uint64_t>(repair_moves));
  EXPECT_GE(added[1], static_cast<std::uint64_t>(st.refinements_applied));
  EXPECT_EQ(added[2], static_cast<std::uint64_t>(st.refinements_applied));
  EXPECT_EQ(added[3], static_cast<std::uint64_t>(st.refinements_stale));
  EXPECT_EQ(added[4], static_cast<std::uint64_t>(st.refinements_no_better));
  EXPECT_EQ(added[5], 0u);  // no WAL: nothing to fail
#endif
}

TEST(PartitionService, ConcurrentSessionsWithConcurrentReaders) {
  // The MT fuzz: one writer thread per session streaming growth deltas with
  // background refinement racing them, plus reader threads hammering
  // snapshot().  Every snapshot must be internally consistent (assignment
  // matches ITS graph, metrics match a from-scratch recompute) and versions
  // must be monotone per reader.
  const PartId k = 4;
  constexpr int kSessions = 4;
  constexpr int kUpdates = 12;
  constexpr VertexId kCols = 10;

  ServiceConfig service_config;
  service_config.num_threads = 4;
  PartitionService service(service_config);
  SessionConfig cfg = basic_config(k);
  cfg.policy.damage_threshold = 16;  // refinements race the stream
  cfg.policy.allow_deep = false;

  std::vector<SessionId> ids;
  for (int s = 0; s < kSessions; ++s) {
    auto g = shared_grid(10, kCols);
    ids.push_back(service.open_session(
        g, block_partition(g->num_vertices(), k), cfg));
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::uint64_t> last_version(kSessions, 0);
      while (!done.load(std::memory_order_acquire)) {
        for (int s = 0; s < kSessions; ++s) {
          const auto snap = service.snapshot(ids[static_cast<std::size_t>(s)]);
          if (snap == nullptr ||
              !is_valid_assignment(*snap->graph, snap->assignment, k)) {
            ++failures;
            continue;
          }
          const auto m = compute_metrics(*snap->graph, snap->assignment, k);
          if (std::abs(m.total_cut() - snap->total_cut) > 1e-6 ||
              snap->version < last_version[static_cast<std::size_t>(s)]) {
            ++failures;
          }
          last_version[static_cast<std::size_t>(s)] = snap->version;
        }
      }
      (void)r;
    });
  }

  std::vector<std::thread> writers;
  for (int s = 0; s < kSessions; ++s) {
    writers.emplace_back([&, s] {
      std::shared_ptr<const Graph> prev = shared_grid(10, kCols);
      for (int u = 1; u <= kUpdates; ++u) {
        auto grown = shared_grid(static_cast<VertexId>(10 + u), kCols);
        service.submit_update(ids[static_cast<std::size_t>(s)], grown,
                              diff_graphs(*prev, *grown));
        prev = grown;
      }
    });
  }
  for (auto& w : writers) w.join();
  service.quiesce();
  done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0);
  for (int s = 0; s < kSessions; ++s) {
    const auto snap = service.snapshot(ids[static_cast<std::size_t>(s)]);
    EXPECT_EQ(snap->update_epoch, static_cast<std::uint64_t>(kUpdates));
    expect_snapshot_consistent(*snap, k);
  }
  const ServiceStats agg = service.stats();
  EXPECT_EQ(agg.sessions, kSessions);
  EXPECT_EQ(agg.updates, static_cast<std::uint64_t>(kSessions * kUpdates));
}

TEST(PartitionService, PollTicksIdleSessionsIntoRefinement) {
  const PartId k = 4;
  ServiceConfig service_config;
  service_config.num_threads = 2;
  PartitionService service(service_config);
  SessionConfig cfg = basic_config(k);
  cfg.repair_budget_seconds = 0.0;
  // Fire on any damage: the job planned at update 1 races update 2 (or
  // lands between them — either way, in-flight suppression plus staleness
  // leaves accumulated triggers that only poll() can act on once the
  // traffic stops).
  cfg.policy.damage_threshold = 1;
  cfg.policy.quality_watermark = 0.0;
  cfg.policy.staleness_updates = 0;
  cfg.policy.allow_deep = false;

  Rng rng(0x1d1e);
  auto g = shared_grid(14, 14);
  Assignment scrambled(196);
  for (auto& p : scrambled) p = static_cast<PartId>(rng.uniform_int(k));
  const SessionId id = service.open_session(g, scrambled, cfg);

  // Two quick back-to-back updates.
  auto g15 = shared_grid(15, 14);
  service.submit_update(id, g15, diff_graphs(*g, *g15));
  auto g16 = shared_grid(16, 14);
  service.submit_update(id, g16, diff_graphs(*g15, *g16));
  service.quiesce();
  const int applied_before = service.session_stats(id).refinements_applied;

  // No further traffic: only poll() can act on the accumulated staleness.
  for (VertexId i = 0; i < 3; ++i) {
    service.poll();
    service.quiesce();
  }
  const SessionStats st = service.session_stats(id);
  EXPECT_GE(st.refinements_applied, applied_before);
  EXPECT_EQ(st.refinements_planned, st.refinements_applied +
                                        st.refinements_stale +
                                        st.refinements_no_better);
  // Idle completions certified the state: polling again stays quiet.
  const int planned = st.refinements_planned;
  service.poll();
  service.quiesce();
  EXPECT_EQ(service.session_stats(id).refinements_planned, planned);
  expect_snapshot_consistent(*service.snapshot(id), k);
}

TEST(PartitionService, CloseSessionIsSafeWithRefinementInFlight) {
  const PartId k = 2;
  ServiceConfig service_config;
  service_config.num_threads = 2;
  PartitionService service(service_config);
  SessionConfig cfg = basic_config(k);
  cfg.policy.damage_threshold = 1;

  auto g = shared_grid(12, 12);
  Rng rng(3);
  Assignment scrambled(144);
  for (auto& p : scrambled) p = static_cast<PartId>(rng.uniform_int(k));
  const SessionId id = service.open_session(g, scrambled, cfg);
  auto grown = shared_grid(13, 12);
  service.submit_update(id, grown, diff_graphs(*g, *grown));
  service.close_session(id);  // refinement may still be running
  EXPECT_THROW(service.snapshot(id), Error);
  service.quiesce();  // the orphaned job publishes into its own capture only
  EXPECT_EQ(service.num_sessions(), 0);
  EXPECT_THROW(service.close_session(id), Error);
}

TEST(PartitionService, UnknownSessionIdsThrow) {
  ServiceConfig service_config;
  service_config.num_threads = 1;
  PartitionService service(service_config);
  auto g = shared_grid(4, 4);
  EXPECT_THROW(service.submit_update(99, g, appended_delta(*g, 16)), Error);
  EXPECT_THROW(service.snapshot(99), Error);
  EXPECT_THROW(service.session_stats(99), Error);
}

}  // namespace
}  // namespace gapart

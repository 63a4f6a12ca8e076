// Durability end-to-end: crash recovery (kill-point fuzz against a
// never-crashed reference, torn tails, stale snapshot prefixes, mid-log
// corruption), the fault-injection storm ("no acknowledged delta is ever
// lost"), fail-stop on exhausted WAL retries, the overload ladder, and the
// close/drain handshake.  Companion suites: test_wal.cpp (log mechanics),
// test_fault_injection.cpp (the injector itself).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/assert.hpp"
#include "common/fault_injection.hpp"
#include "core/graph_delta.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

namespace fs = std::filesystem;
using bench::column_bands;

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/gapart_dur_" + name;
  fs::remove_all(dir);
  return dir;
}

std::shared_ptr<const Graph> shared_grid(VertexId rows, VertexId cols) {
  return std::make_shared<const Graph>(make_grid(rows, cols));
}

/// Session knobs for deterministic replay comparisons: a budget far beyond
/// any real round cost means the wall clock never gates verification — the
/// admitted round count is then a pure function of the delta stream (the
/// moves == 0 early break), so a never-crashed run and a killed-and-recovered
/// run are comparable bit-for-bit.
SessionConfig session_config(PartId k) {
  SessionConfig cfg;
  cfg.num_parts = k;
  cfg.repair_budget_seconds = 60.0;
  return cfg;
}

ServiceConfig durable_config(const std::string& dir) {
  ServiceConfig sc;
  sc.num_threads = 2;
  sc.background_refinement = false;  // replay determinism: deltas only
  sc.durability.dir = dir;
  return sc;
}

void expect_snapshot_consistent(const SessionSnapshot& snap, PartId k) {
  ASSERT_NE(snap.graph, nullptr);
  ASSERT_TRUE(is_valid_assignment(*snap.graph, snap.assignment, k));
  const auto m = compute_metrics(*snap.graph, snap.assignment, k);
  EXPECT_NEAR(snap.total_cut, m.total_cut(), 1e-9);
}

// ---------------------------------------------------------------------------
// Recovery: snapshot + replay reproduces the live session exactly.

TEST(Durability, DurableSessionRecoversExactly) {
  const PartId k = 3;
  const std::string dir = fresh_dir("exact");
  auto prev = shared_grid(12, 12);

  SessionSnapshot live;
  {
    PartitionService service(durable_config(dir));
    const SessionId id = service.open_session(prev, column_bands(12, 12, k),
                                              session_config(k));
    ASSERT_EQ(id, 1u);
    for (VertexId rows = 13; rows <= 18; ++rows) {
      auto next = shared_grid(rows, 12);
      service.submit_update(id, next, diff_graphs(*prev, *next));
      prev = next;
    }
    const SessionStats st = service.session_stats(id);
    EXPECT_TRUE(st.durable);
    EXPECT_FALSE(st.wal_failed);
    EXPECT_EQ(st.wal.appends, 6u);
    EXPECT_GE(st.wal.fsyncs, 6u);  // default policy: fsync per record
    live = *service.snapshot(id);
  }  // "crash": the service goes away without any orderly close

  PartitionService service(durable_config(dir));
  const auto reports = service.recover(session_config(k));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].session_id, 1u);
  EXPECT_EQ(reports[0].snapshot_epoch, 0u);
  EXPECT_EQ(reports[0].final_epoch, 6u);
  EXPECT_EQ(reports[0].records_replayed, 6u);
  EXPECT_FALSE(reports[0].torn_tail);

  const auto snap = service.snapshot(1);
  EXPECT_EQ(snap->update_epoch, 6u);
  EXPECT_EQ(snap->assignment, live.assignment);
  EXPECT_DOUBLE_EQ(snap->fitness, live.fitness);
  expect_snapshot_consistent(*snap, k);

  const ServiceStats ss = service.stats();
  EXPECT_EQ(ss.durable_sessions, 1);
  EXPECT_EQ(ss.failed_sessions, 0);

  // The recovered session is live: it keeps absorbing (and logging) deltas.
  auto next = shared_grid(19, 12);
  const RepairReport rep =
      service.submit_update(1, next, diff_graphs(*prev, *next));
  EXPECT_EQ(rep.update_epoch, 7u);
}

TEST(Durability, RecoveryReplaysCompactedLog) {
  const PartId k = 3;
  const std::string dir = fresh_dir("compacted");
  ServiceConfig sc = durable_config(dir);
  sc.durability.compaction.damage_threshold = 1;  // every delta is "damage"
  sc.durability.compaction.min_records = 2;       // ... so compact every 2

  auto prev = shared_grid(12, 12);
  SessionSnapshot live;
  {
    PartitionService service(sc);
    const SessionId id = service.open_session(prev, column_bands(12, 12, k),
                                              session_config(k));
    for (VertexId rows = 13; rows <= 19; ++rows) {
      auto next = shared_grid(rows, 12);
      service.submit_update(id, next, diff_graphs(*prev, *next));
      prev = next;
    }
    const SessionStats st = service.session_stats(id);
    EXPECT_GE(st.wal.compactions, 2u);
    EXPECT_GE(st.wal.snapshot_epoch, 4u);
    live = *service.snapshot(id);
  }

  PartitionService service(sc);
  const auto reports = service.recover(session_config(k));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GE(reports[0].snapshot_epoch, 4u);
  EXPECT_LE(reports[0].records_replayed, 3u);  // only the post-snapshot tail
  EXPECT_EQ(reports[0].final_epoch, 7u);
  EXPECT_EQ(service.snapshot(1)->assignment, live.assignment);
}

TEST(Durability, TornTailRecoversToLastDurableEpoch) {
  const PartId k = 3;
  const std::string dir = fresh_dir("torn");
  auto prev = shared_grid(12, 12);
  std::vector<Assignment> at_epoch(1);  // [0] unused
  {
    PartitionService service(durable_config(dir));
    const SessionId id = service.open_session(prev, column_bands(12, 12, k),
                                              session_config(k));
    for (VertexId rows = 13; rows <= 17; ++rows) {
      auto next = shared_grid(rows, 12);
      service.submit_update(id, next, diff_graphs(*prev, *next));
      at_epoch.push_back(service.snapshot(id)->assignment);
      prev = next;
    }
  }

  // Tear the final record: the crash hit mid-append, after the bytes for
  // epochs 1..4 were already durable.
  const std::string log = dir + "/session-1/wal.log";
  const auto size = fs::file_size(log);
  fs::resize_file(log, size - 3);

  PartitionService service(durable_config(dir));
  const auto reports = service.recover(session_config(k));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].torn_tail);
  EXPECT_EQ(reports[0].final_epoch, 4u);
  EXPECT_EQ(service.snapshot(1)->assignment, at_epoch[4]);
}

TEST(Durability, StaleLogPrefixSkipped) {
  // Forge the one crash window compaction leaves open: CURRENT already
  // renamed to the new snapshot, the log not yet truncated.  Replay must
  // skip the records the snapshot already covers.
  const PartId k = 3;
  const std::string dir = fresh_dir("stale_prefix");
  auto prev = shared_grid(12, 12);
  SessionSnapshot live;
  {
    PartitionService service(durable_config(dir));
    const SessionId id = service.open_session(prev, column_bands(12, 12, k),
                                              session_config(k));
    for (VertexId rows = 13; rows <= 17; ++rows) {
      auto next = shared_grid(rows, 12);
      service.submit_update(id, next, diff_graphs(*prev, *next));
      prev = next;
      if (rows == 14) {
        // Epoch-2 state, written in exactly the snapshot file formats.
        service.save_session(id, dir + "/session-1/snap-2");
      }
    }
    live = *service.snapshot(id);
  }
  {
    std::ofstream cur(dir + "/session-1/CURRENT", std::ios::trunc);
    cur << "2\n";
  }

  PartitionService service(durable_config(dir));
  const auto reports = service.recover(session_config(k));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].snapshot_epoch, 2u);
  EXPECT_EQ(reports[0].records_replayed, 3u);  // epochs 3..5 only
  EXPECT_EQ(reports[0].final_epoch, 5u);
  EXPECT_EQ(service.snapshot(1)->assignment, live.assignment);
}

TEST(Durability, CorruptMidLogFailsRecovery) {
  const PartId k = 3;
  const std::string dir = fresh_dir("corrupt");
  auto prev = shared_grid(12, 12);
  {
    PartitionService service(durable_config(dir));
    const SessionId id = service.open_session(prev, column_bands(12, 12, k),
                                              session_config(k));
    for (VertexId rows = 13; rows <= 16; ++rows) {
      auto next = shared_grid(rows, 12);
      service.submit_update(id, next, diff_graphs(*prev, *next));
      prev = next;
    }
  }

  // Flip one payload byte of the FIRST record: valid records follow, so this
  // is silent-corruption, not a torn tail — recovery must refuse.
  const std::string log = dir + "/session-1/wal.log";
  std::fstream f(log, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(8 + 25 + 2);  // file header + first frame header + 2
  char byte = 0;
  f.get(byte);
  f.seekp(8 + 25 + 2);
  f.put(static_cast<char>(byte ^ 0x5a));
  f.close();

  PartitionService service(durable_config(dir));
  EXPECT_THROW(service.recover(session_config(k)), WalCorruptError);
}

// ---------------------------------------------------------------------------
// Kill-point fuzz: for every prefix length p of a growth + churn trace, kill
// after p acknowledged deltas and recover — the recovered partition must
// equal the never-crashed reference at epoch p, and finishing the remaining
// trace must land on the reference's final state.

/// Step s of the trace: an 8-column grid that gains a row every other step
/// and toggles a diagonal window on odd steps (growth + churn mixed),
/// optionally with fractional weights.
std::shared_ptr<const Graph> trace_graph(int step, bool weighted) {
  const VertexId cols = 8;
  const VertexId rows = 8 + static_cast<VertexId>((step + 1) / 2);
  GraphBuilder b(rows * cols);
  const auto at = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(at(r, c), at(r, c + 1));
      if (r + 1 < rows) b.add_edge(at(r, c), at(r + 1, c));
    }
  }
  if (step % 2 == 1) {
    for (VertexId r = 2; r < 6; ++r) {
      for (VertexId c = 2; c < 6; ++c) b.add_edge(at(r, c), at(r + 1, c + 1));
    }
  }
  const Graph g = b.build();
  return std::make_shared<const Graph>(
      weighted ? testing::with_fractional_weights(g) : g);
}

void kill_point_fuzz(bool weighted, Objective objective) {
  const PartId k = 3;
  const int kSteps = 6;
  const std::string tag =
      std::string(weighted ? "_weighted" : "") +
      (objective == Objective::kWorstComm ? "_worst" : "");
  SessionConfig scfg = session_config(k);
  scfg.fitness.objective = objective;
  const auto trace = [weighted](int step) {
    return trace_graph(step, weighted);
  };
  // The weighted run also compacts every third record, so later kill points
  // recover from a mid-trace snapshot image instead of epoch 0's.
  const auto config = [weighted](const std::string& dir) {
    ServiceConfig sc = durable_config(dir);
    if (weighted) {
      sc.durability.compaction.damage_threshold = 1;
      sc.durability.compaction.min_records = 3;
    }
    return sc;
  };
  const auto digest = [](PartitionService& service) {
    return service.session_handle(1)->state_digest();
  };
  // The fitness is read off the maintained sums, so exact equality also
  // pins their low bits (move-order rounding under fractional weights).
  const auto fitness = [](PartitionService& service) {
    return service.snapshot(1)->fitness;
  };

  // Never-crashed reference: one durable run over the whole trace, the
  // assignment, content digest and fitness captured at every epoch.
  std::vector<Assignment> reference(1);
  std::vector<std::uint64_t> reference_digest(1);
  std::vector<double> reference_fitness(1);
  {
    const std::string dir = fresh_dir("fuzz_ref" + tag);
    PartitionService service(config(dir));
    auto prev = trace(0);
    const SessionId id =
        service.open_session(prev, column_bands(8, 8, k), scfg);
    for (int s = 1; s <= kSteps; ++s) {
      auto next = trace(s);
      service.submit_update(id, next, diff_graphs(*prev, *next));
      reference.push_back(service.snapshot(id)->assignment);
      reference_digest.push_back(digest(service));
      reference_fitness.push_back(fitness(service));
      prev = next;
    }
  }

  for (int p = 1; p <= kSteps; ++p) {
    const std::string dir = fresh_dir("fuzz_p" + std::to_string(p) + tag);
    auto prev = trace(0);
    {
      PartitionService service(config(dir));
      const SessionId id =
          service.open_session(prev, column_bands(8, 8, k), scfg);
      for (int s = 1; s <= p; ++s) {
        auto next = trace(s);
        service.submit_update(id, next, diff_graphs(*prev, *next));
        prev = next;
      }
    }  // kill

    PartitionService service(config(dir));
    const auto reports = service.recover(session_config(k));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].final_epoch, static_cast<std::uint64_t>(p));
    EXPECT_EQ(reports[0].snapshot_epoch,
              static_cast<std::uint64_t>(weighted ? p / 3 * 3 : 0));
    EXPECT_EQ(service.snapshot(1)->assignment, reference[p])
        << "kill point " << p;
    EXPECT_EQ(digest(service), reference_digest[p]) << "kill point " << p;
    EXPECT_EQ(fitness(service), reference_fitness[p]) << "kill point " << p;

    // The recovered session finishes the trace identically to the
    // reference: recovery left no hidden divergence behind.
    for (int s = p + 1; s <= kSteps; ++s) {
      auto next = trace(s);
      service.submit_update(1, next, diff_graphs(*prev, *next));
      prev = next;
    }
    EXPECT_EQ(service.snapshot(1)->assignment, reference[kSteps])
        << "kill point " << p;
    EXPECT_EQ(digest(service), reference_digest[kSteps])
        << "kill point " << p;
    EXPECT_EQ(fitness(service), reference_fitness[kSteps])
        << "kill point " << p;
  }

  // Torn variant: kill mid-append of record p — recovery lands on p-1.
  const int p = 4;
  const std::string dir = fresh_dir("fuzz_torn" + tag);
  {
    PartitionService service(config(dir));
    auto prev = trace(0);
    const SessionId id =
        service.open_session(prev, column_bands(8, 8, k), scfg);
    for (int s = 1; s <= p; ++s) {
      auto next = trace(s);
      service.submit_update(id, next, diff_graphs(*prev, *next));
      prev = next;
    }
  }
  const std::string log = dir + "/session-1/wal.log";
  fs::resize_file(log, fs::file_size(log) - 3);
  PartitionService service(config(dir));
  const auto reports = service.recover(session_config(k));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].torn_tail);
  EXPECT_EQ(reports[0].final_epoch, static_cast<std::uint64_t>(p - 1));
  EXPECT_EQ(service.snapshot(1)->assignment, reference[p - 1]);
  EXPECT_EQ(digest(service), reference_digest[p - 1]);
  EXPECT_EQ(fitness(service), reference_fitness[p - 1]);
}

TEST(Durability, KillPointFuzzMatchesReference) {
  kill_point_fuzz(false, Objective::kTotalComm);
  {
    SCOPED_TRACE("weighted trace");
    kill_point_fuzz(true, Objective::kTotalComm);
  }
  {
    // kWorstComm gains read the maintained part cuts directly.
    SCOPED_TRACE("weighted worst-comm trace");
    kill_point_fuzz(true, Objective::kWorstComm);
  }
}

// ---------------------------------------------------------------------------
// Fault storms (compiled seam required).

#if GAPART_FAULT_INJECTION

TEST(Durability, FaultStormLosesNoAckedDelta) {
  const PartId k = 3;
  const std::string dir = fresh_dir("storm");
  ServiceConfig sc = durable_config(dir);
  sc.durability.io_retry.max_attempts = 12;
  sc.durability.io_retry.initial_seconds = 1e-6;
  sc.durability.io_retry.max_seconds = 1e-5;
  sc.durability.compaction.damage_threshold = 1;  // compact under fire too
  sc.durability.compaction.min_records = 2;

  std::uint64_t acked_epoch = 0;
  Assignment acked;
  {
    PartitionService service(sc);
    auto prev = shared_grid(12, 12);
    const SessionId id = service.open_session(prev, column_bands(12, 12, k),
                                              session_config(k));
    // 10% of every WAL write, fsync, snapshot write, and delta allocation
    // fails (deterministic schedule).  Transient failures must be retried
    // invisibly; pre-mutation failures surface and the client retries.
    ScopedFaultInjection scope(/*seed=*/2026, /*probability=*/0.10);
    for (VertexId rows = 13; rows <= 24; ++rows) {
      auto next = shared_grid(rows, 12);
      const GraphDelta delta = diff_graphs(*prev, *next);
      for (;;) {
        try {
          const RepairReport rep = service.submit_update(id, next, delta);
          acked_epoch = rep.update_epoch;
          break;
        } catch (const std::bad_alloc&) {
          // Injected before any mutation: the delta is simply resubmitted.
        }
      }
      acked = service.snapshot(id)->assignment;
      prev = next;
    }
    EXPECT_EQ(acked_epoch, 12u);
    EXPECT_GT(FaultInjector::instance().total_injected(), 0u);
    const SessionStats st = service.session_stats(id);
    EXPECT_FALSE(st.wal_failed);
    EXPECT_EQ(st.wal.appends, 12u);
  }  // scope disarms, then the service dies without a close

  PartitionService service(sc);
  const auto reports = service.recover(session_config(k));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].final_epoch, acked_epoch);
  EXPECT_FALSE(reports[0].torn_tail);
  EXPECT_EQ(service.snapshot(1)->assignment, acked);
}

TEST(Durability, FailStopAfterExhaustedAppendRetries) {
  const PartId k = 3;
  const std::string dir = fresh_dir("failstop");
  ServiceConfig sc = durable_config(dir);
  sc.durability.io_retry.max_attempts = 1;  // no retries: first fault is fatal

  PartitionService service(sc);
  auto g = shared_grid(12, 12);
  const SessionId id =
      service.open_session(g, column_bands(12, 12, k), session_config(k));
  auto grown = shared_grid(13, 12);
  const GraphDelta delta = diff_graphs(*g, *grown);
  {
    ScopedFaultInjection scope(FaultSite::kWalAppend, /*nth=*/1);
    EXPECT_THROW(service.submit_update(id, grown, delta), IoError);
  }

  // The repair ran but was never acknowledged: the published snapshot must
  // still be the pre-update state (exactly what recovery will rebuild).
  EXPECT_EQ(service.snapshot(id)->update_epoch, 0u);
  const SessionStats st = service.session_stats(id);
  EXPECT_TRUE(st.wal_failed);
  EXPECT_EQ(service.stats().failed_sessions, 1);

  // Fail-stop: the session refuses to diverge further from its log.
  EXPECT_THROW(service.submit_update(id, grown, delta), Error);
}

TEST(Durability, TaskStartFaultAbandonsCleanly) {
  const PartId k = 3;
  ServiceConfig sc;
  sc.num_threads = 2;
  SessionConfig cfg = session_config(k);
  cfg.policy.staleness_updates = 1;  // every update wants a refinement
  cfg.policy.allow_deep = false;

  PartitionService service(sc);
  auto g = shared_grid(12, 12);
  const SessionId id = service.open_session(g, column_bands(12, 12, k), cfg);
  auto grown = shared_grid(13, 12);
  {
    ScopedFaultInjection scope(FaultSite::kTaskStart, /*nth=*/1);
    service.submit_update(id, grown, diff_graphs(*g, *grown));
  }
  service.quiesce();
  ServiceStats ss = service.stats();
  EXPECT_EQ(ss.refine_start_failures, 1);
  EXPECT_EQ(ss.refinements_planned, 1);

  // The abandoned plan left the accumulators primed: the next poll retries.
  service.poll();
  service.quiesce();
  ss = service.stats();
  EXPECT_EQ(ss.refinements_planned, 2);
  EXPECT_EQ(ss.refine_start_failures, 1);
}

#else  // !GAPART_FAULT_INJECTION

TEST(Durability, FaultStormLosesNoAckedDelta) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(Durability, FailStopAfterExhaustedAppendRetries) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(Durability, TaskStartFaultAbandonsCleanly) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}

#endif  // GAPART_FAULT_INJECTION

// ---------------------------------------------------------------------------
// Graceful degradation + teardown.

TEST(Durability, ShedAndDeferUnderBacklog) {
  const PartId k = 3;
  ServiceConfig sc;
  sc.num_threads = 2;  // exactly one pool worker to occupy
  sc.overload.shed_verification_backlog = 1;
  sc.overload.defer_refinement_backlog = 1;
  SessionConfig cfg = session_config(k);
  cfg.policy.staleness_updates = 1;

  PartitionService service(sc);
  auto g = shared_grid(12, 12);
  const SessionId id = service.open_session(g, column_bands(12, 12, k), cfg);

  // Occupy the pool: backlog >= 1 until released.
  std::atomic<bool> release{false};
  service.executor().submit([&release] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  auto g13 = shared_grid(13, 12);
  const RepairReport shed =
      service.submit_update(id, g13, diff_graphs(*g, *g13));
  EXPECT_EQ(shed.verify_rounds, 0);  // budget says >= 1; overload shed them
  ServiceStats ss = service.stats();
  EXPECT_EQ(ss.verifications_shed, 1);
  EXPECT_EQ(ss.refinements_deferred, 1);  // staleness fired, pool too deep
  EXPECT_EQ(ss.refinements_planned, 0);

  release.store(true, std::memory_order_release);
  service.quiesce();

  // Pressure gone: the full pipeline is back.
  auto g14 = shared_grid(14, 12);
  const RepairReport full =
      service.submit_update(id, g14, diff_graphs(*g13, *g14));
  EXPECT_GE(full.verify_rounds, 1);
  service.quiesce();
  EXPECT_EQ(service.stats().verifications_shed, 1);
}

TEST(Durability, RejectWithBackpressureAtInflightCap) {
  // Every submit counts itself against max_inflight_repairs, so a cap of 1
  // admits a solo caller and rejects whoever overlaps one.  Overlap a slow
  // repair (big session) with a fast client retrying try_submit_update —
  // the documented backpressure protocol.  The overlap window is timing-
  // dependent, so the assertions hold whether or not a rejection landed:
  // every rejection is counted, nothing is lost, nothing applies twice.
  const PartId k = 3;
  ServiceConfig sc;
  sc.num_threads = 2;
  sc.background_refinement = false;
  sc.overload.max_inflight_repairs = 1;

  PartitionService service(sc);
  auto big = shared_grid(64, 64);
  auto small = shared_grid(12, 12);
  const SessionId a =
      service.open_session(big, column_bands(64, 64, k), session_config(k));
  const SessionId b =
      service.open_session(small, column_bands(12, 12, k), session_config(k));

  // A solo submit is at the cap, not over it: admitted.
  auto small13 = shared_grid(13, 12);
  EXPECT_NO_THROW(service.submit_update(b, small13, diff_graphs(*small, *small13)));

  auto big65 = shared_grid(65, 64);
  const GraphDelta big_delta = diff_graphs(*big, *big65);
  std::atomic<int> rejections{0};
  std::thread slow([&] {
    // The big session's client also obeys the protocol — it could lose the
    // admission race to the fast client's first attempt.
    while (!service.try_submit_update(a, big65, big_delta)) {
      rejections.fetch_add(1, std::memory_order_relaxed);
    }
  });

  auto small14 = shared_grid(14, 12);
  const GraphDelta small_delta = diff_graphs(*small13, *small14);
  while (!service.try_submit_update(b, small14, small_delta)) {
    rejections.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  slow.join();

  EXPECT_EQ(service.stats().updates_rejected,
            rejections.load(std::memory_order_relaxed));
  EXPECT_EQ(service.snapshot(a)->update_epoch, 1u);
  EXPECT_EQ(service.snapshot(b)->update_epoch, 2u);
}

TEST(Durability, CloseSessionDrainsInflightRefinement) {
  // TSan target: open / submit (schedules refinement) / immediately close,
  // with a stats scraper racing the whole time.  close_session must cancel
  // and drain the job — no use-after-free, no deadlock, no leaked session.
  const PartId k = 4;
  ServiceConfig sc;
  sc.num_threads = 4;
  SessionConfig cfg = session_config(k);
  cfg.policy.staleness_updates = 1;
  cfg.policy.allow_deep = false;
  cfg.refine_hill_climb_passes = 64;  // long enough that close interrupts it

  PartitionService service(sc);
  auto g = shared_grid(20, 20);
  auto grown = shared_grid(21, 20);
  const GraphDelta delta = diff_graphs(*g, *grown);
  const Assignment initial = column_bands(20, 20, k);

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)service.stats();
      (void)service.num_sessions();
    }
  });
  for (int i = 0; i < 8; ++i) {
    const SessionId id = service.open_session(g, initial, cfg);
    service.submit_update(id, grown, delta);
    service.close_session(id);
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(service.num_sessions(), 0);
}

// ---------------------------------------------------------------------------
// Chaco/METIS file IO error contract.  These writers serve external
// interchange only; checkpoints are session images (service/wal.hpp).

#if GAPART_FAULT_INJECTION
TEST(DurabilityIo, WriterFaultSurfacesAsIoError) {
  const std::string path = fresh_dir("iowrite") + ".graph";
  const Graph g = make_grid(4, 4);
  {
    ScopedFaultInjection scope(FaultSite::kFileWrite, /*nth=*/1);
    EXPECT_THROW(write_graph_file(path, g), IoError);
  }
  // Disarmed, the same write succeeds and round-trips.
  write_graph_file(path, g);
  EXPECT_EQ(read_graph_file(path).num_vertices(), 16);
}
#else
TEST(DurabilityIo, WriterFaultSurfacesAsIoError) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
#endif

TEST(DurabilityIo, TruncatedGraphFileIsTyped) {
  const std::string path = fresh_dir("iotrunc") + ".graph";
  write_graph_file(path, make_grid(4, 4));

  std::string contents;
  {
    std::ifstream is(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
  }
  // Drop the last vertex line: the header now promises more than the file
  // holds — a crashed writer's artifact, which must be a typed error, never
  // a silently smaller graph.
  const auto cut = contents.find_last_of('\n', contents.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    os << contents.substr(0, cut + 1);
  }
  EXPECT_THROW(read_graph_file(path), IoError);

  EXPECT_THROW(read_graph_file(path + ".does-not-exist"), IoError);
}

}  // namespace
}  // namespace gapart

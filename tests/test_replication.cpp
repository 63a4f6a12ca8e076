// Replication end-to-end over the loopback transport: bit-identical
// convergence, lockstep compaction with digest exchange, resume after link
// partitions, slow-follower backpressure and snapshot resync, the seeded
// transport fault matrix ("converges or fail-stops, never silently
// diverges"), fencing/split-brain prevention, promotion draining frames
// shipped but never pumped, divergence fail-stop, junk record rejection, a
// rolled-back append that never ships, follower restart, and the
// kill-point-fuzzed failover sweep against a never-crashed reference.
// Companions: test_transport.cpp (the seam itself), test_durability.cpp
// (single-node recovery).
#include "service/replication.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/assert.hpp"
#include "common/fault_injection.hpp"
#include "core/graph_delta.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/transport.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

namespace fs = std::filesystem;
using bench::column_bands;

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/gapart_rep_" + name;
  fs::remove_all(dir);
  return dir;
}

std::shared_ptr<const Graph> shared_grid(VertexId rows, VertexId cols) {
  return std::make_shared<const Graph>(make_grid(rows, cols));
}

std::shared_ptr<const Graph> weighted_grid(VertexId rows, VertexId cols) {
  return std::make_shared<const Graph>(
      testing::with_fractional_weights(make_grid(rows, cols)));
}

/// Deterministic-repair session knobs (see test_durability.cpp): a huge
/// budget makes the admitted verification rounds a pure function of the
/// delta stream, so the leader and a reference session decide identically.
/// The follower decides nothing: it applies the leader's logged moves.
SessionConfig session_config(PartId k) {
  SessionConfig cfg;
  cfg.num_parts = k;
  cfg.repair_budget_seconds = 60.0;
  return cfg;
}

ServiceConfig leader_config(const std::string& dir) {
  ServiceConfig sc;
  sc.num_threads = 2;
  sc.background_refinement = false;  // determinism: deltas only
  sc.durability.dir = dir;
  sc.durability.ship_retain_bytes = 0;  // wait for the shipper by default
  return sc;
}

ServiceConfig follower_config(const std::string& dir) {
  ServiceConfig sc = leader_config(dir);
  // The follower compacts in lockstep with the leader, never by local
  // policy: zero thresholds disable decide_compaction entirely.
  sc.durability.compaction.damage_threshold = 0;
  sc.durability.compaction.bytes_threshold = 0;
  // Fast retries so the fault-storm tests ride out injected I/O failures
  // without slowing the clean tests down.
  sc.durability.io_retry.max_attempts = 12;
  sc.durability.io_retry.initial_seconds = 1e-6;
  sc.durability.io_retry.max_seconds = 1e-5;
  return sc;
}

/// One full replication rig over a loopback link.
struct Rig {
  std::unique_ptr<LoopbackTransport> leader_end;
  std::unique_ptr<LoopbackTransport> follower_end;
  std::unique_ptr<PartitionService> leader;
  std::unique_ptr<PartitionService> follower_service;
  std::unique_ptr<ReplicationShipper> shipper;
  std::unique_ptr<ReplicationFollower> follower;

  Rig(const std::string& name, ShipperConfig ship = {},
      ServiceConfig (*leader_cfg)(const std::string&) = leader_config) {
    auto pair = LoopbackTransport::create_pair();
    leader_end = std::move(pair.first);
    follower_end = std::move(pair.second);
    leader = std::make_unique<PartitionService>(
        leader_cfg(fresh_dir(name + "_leader")));
    follower_service = std::make_unique<PartitionService>(
        follower_config(fresh_dir(name + "_follower")));
    shipper =
        std::make_unique<ReplicationShipper>(*leader, *leader_end, ship);
    // The follower's repair config differs from the leader's on purpose:
    // it applies the leader's logged moves and never repairs, so its own
    // round cap and budget must not matter.
    FollowerConfig fcfg;
    fcfg.base = session_config(3);
    fcfg.base.repair_max_verify_rounds = 0;
    fcfg.base.repair_budget_seconds = 0.0;
    follower = std::make_unique<ReplicationFollower>(*follower_service,
                                                     *follower_end, fcfg);
    follower->start_follower();
  }

  /// Pumps both ends until the shipper reports drained (or `rounds` runs
  /// out — callers assert on drained()).
  void settle(int rounds = 200) {
    for (int i = 0; i < rounds; ++i) {
      shipper->pump();
      follower->pump();
      if (shipper->drained()) break;
    }
  }
};

void expect_converged(Rig& rig, SessionId id) {
  ASSERT_TRUE(rig.shipper->drained());
  const auto leader_session = rig.leader->session_handle(id);
  const auto follower_session = rig.follower_service->session_handle(id);
  const auto lsnap = leader_session->snapshot();
  const auto fsnap = follower_session->snapshot();
  EXPECT_EQ(fsnap->update_epoch, lsnap->update_epoch);
  EXPECT_EQ(fsnap->assignment, lsnap->assignment);
  EXPECT_EQ(follower_session->state_digest(), leader_session->state_digest());
  // Read off the maintained sums: equal to the last bit when the follower
  // continues from the leader's sums rather than from fresh ones.
  EXPECT_EQ(fsnap->fitness, lsnap->fitness);
  EXPECT_EQ(rig.follower->applied_epoch(id), lsnap->update_epoch);
}

/// The bytes of the follower's own log for session `id`.
std::string follower_log(Rig& rig, SessionId id) {
  std::ifstream in(rig.follower_service->session_wal_dir(id) + "/wal.log",
                   std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// ---------------------------------------------------------------------------

TEST(Replication, FollowerConvergesBitIdentically) {
  const PartId k = 3;
  // The last pass attaches the follower only after two updates, so its open
  // frame carries sums with a move history behind them.
  struct Pass {
    bool weighted;
    std::uint64_t attach_after;
    const char* name;
  };
  for (const Pass pass : {Pass{false, 0, "unit grid"},
                          Pass{true, 0, "weighted grid"},
                          Pass{true, 2, "weighted grid, late attach"}}) {
    SCOPED_TRACE(pass.name);
    const auto grid = pass.weighted ? weighted_grid : shared_grid;
    Rig rig(std::string("converge") + (pass.weighted ? "_weighted" : "") +
            (pass.attach_after > 0 ? "_late" : ""));
    auto prev = grid(12, 12);
    const SessionId id = rig.leader->open_session(
        prev, column_bands(12, 12, k), session_config(k));
    for (VertexId rows = 12; rows <= 18; ++rows) {
      if (rows > 12) {
        auto next = grid(rows, 12);
        rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
        prev = next;
      }
      if (static_cast<std::uint64_t>(rows - 12) < pass.attach_after) continue;
      rig.shipper->pump();  // the first pump attaches
      rig.follower->pump();
    }
    rig.settle();
    expect_converged(rig, id);

    const std::uint64_t records = 6 - pass.attach_after;
    const ShipperStats ss = rig.shipper->stats();
    EXPECT_EQ(ss.opens_shipped, 1u);
    EXPECT_EQ(ss.records_shipped, records);
    EXPECT_FALSE(ss.deposed);
    const FollowerStats fs_ = rig.follower->stats();
    EXPECT_EQ(fs_.opens_applied, 1u);
    EXPECT_EQ(fs_.records_applied, records);
    EXPECT_GE(fs_.digests_verified, 1u);  // the open's digest checked
    EXPECT_FALSE(fs_.diverged);

    // The follower logged everything to its OWN wal: a restarted follower
    // replays to the same state (checked end-to-end in FollowerRestart).
    EXPECT_TRUE(rig.follower_service->session_stats(id).durable);
    EXPECT_EQ(rig.follower_service->session_stats(id).wal.appends, records);
  }
}

TEST(Replication, MultiSessionShippingKeepsSessionsIndependent) {
  const PartId k = 3;
  Rig rig("multi");
  auto prev_a = shared_grid(12, 12);
  auto prev_b = shared_grid(10, 10);
  const SessionId a = rig.leader->open_session(
      prev_a, column_bands(12, 12, k), session_config(k));
  const SessionId b = rig.leader->open_session(
      prev_b, column_bands(10, 10, k), session_config(k));
  for (VertexId step = 1; step <= 4; ++step) {
    auto next_a = shared_grid(12 + step, 12);
    rig.leader->submit_update(a, next_a, diff_graphs(*prev_a, *next_a));
    prev_a = next_a;
    if (step % 2 == 0) {
      auto next_b = shared_grid(10 + step / 2, 10);
      rig.leader->submit_update(b, next_b, diff_graphs(*prev_b, *next_b));
      prev_b = next_b;
    }
    rig.shipper->pump();
    rig.follower->pump();
  }
  rig.settle();
  expect_converged(rig, a);
  expect_converged(rig, b);
  EXPECT_EQ(rig.shipper->stats().sessions_attached, 2);
}

TEST(Replication, LockstepCompactionVerifiesDigests) {
  const PartId k = 3;
  ShipperConfig ship;
  Rig rig("compact", ship, [](const std::string& dir) {
    ServiceConfig sc = leader_config(dir);
    sc.durability.compaction.damage_threshold = 1;  // every delta is damage
    sc.durability.compaction.min_records = 2;       // ... compact every 2
    return sc;
  });
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  for (VertexId rows = 13; rows <= 20; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
    // Pump INSIDE the stream: ship_retain_bytes=0 defers leader compaction
    // until the shipper consumed the log, so compactions land mid-stream.
    rig.shipper->pump();
    rig.follower->pump();
    rig.shipper->pump();
  }
  rig.settle();
  expect_converged(rig, id);

  // The leader compacted, the compaction was shipped, the follower verified
  // the digest and folded its own log in lockstep.
  EXPECT_GE(rig.leader->session_stats(id).wal.compactions, 2u);
  EXPECT_GE(rig.shipper->stats().compacts_shipped, 2u);
  const FollowerStats fs_ = rig.follower->stats();
  EXPECT_GE(fs_.compacts_applied, 2u);
  EXPECT_GE(fs_.digests_verified, fs_.compacts_applied);
  EXPECT_FALSE(fs_.diverged);
  EXPECT_GE(rig.follower_service->session_stats(id).wal.compactions, 1u);
  // Both snapshots agree on the digest at the last common boundary.
  EXPECT_EQ(rig.follower_service->session_stats(id).wal.snapshot_epoch,
            rig.leader->session_stats(id).wal.snapshot_epoch);
  EXPECT_EQ(rig.follower_service->session_stats(id).wal.snapshot_digest,
            rig.leader->session_stats(id).wal.snapshot_digest);
}

TEST(Replication, ResumesAfterLinkPartition) {
  const PartId k = 3;
  ShipperConfig ship;
  ship.resume_after_stalled_pumps = 2;
  Rig rig("partition", ship);
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  rig.settle();

  // Partition the link, stream through it: every send fails.
  rig.leader_end->set_link_down(true);
  for (VertexId rows = 13; rows <= 16; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
    rig.shipper->pump();
  }
  EXPECT_GT(rig.shipper->stats().send_failures, 0u);
  EXPECT_GT(rig.shipper->stats().frames_unacked, 0u);
  EXPECT_EQ(rig.follower->applied_epoch(id), 0u);

  // Heal: the shipper resumes from the acked offset and converges.
  rig.leader_end->set_link_down(false);
  rig.settle();
  expect_converged(rig, id);
}

TEST(Replication, SlowFollowerHitsBackpressureThenCatchesUp) {
  const PartId k = 3;
  ShipperConfig ship;
  ship.max_unacked_frames = 2;  // tiny ship queue
  Rig rig("slow", ship);
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  // Stream without ever letting the follower run: the queue fills, the
  // shipper stalls at the bound instead of buffering unboundedly.
  for (VertexId rows = 13; rows <= 20; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
    rig.shipper->pump();
  }
  const ShipperStats mid = rig.shipper->stats();
  EXPECT_GT(mid.backpressure_stalls, 0u);
  EXPECT_LE(mid.frames_unacked, 2u);
  EXPECT_GT(mid.lag_epochs_p99, 0.0);

  rig.settle();
  expect_converged(rig, id);
}

TEST(Replication, SnapshotResyncWhenCompactionOutranTheShipper) {
  const PartId k = 3;
  Rig rig("resync", {}, [](const std::string& dir) {
    ServiceConfig sc = leader_config(dir);
    sc.durability.compaction.damage_threshold = 1;
    sc.durability.compaction.min_records = 2;
    sc.durability.ship_retain_bytes = 1;  // give up on the shipper instantly
    return sc;
  });
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  rig.settle();
  // Stream WITHOUT pumping: the leader compacts past the shipper's read
  // position (retain bound = 1 byte), so the records it never read are gone
  // from the log.
  for (VertexId rows = 13; rows <= 20; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
  }
  EXPECT_GE(rig.leader->session_stats(id).wal.compactions, 1u);
  rig.settle();
  // The shipper re-bootstrapped the follower from the live state instead of
  // silently skipping the folded records.
  EXPECT_GE(rig.shipper->stats().snapshot_resyncs, 1u);
  expect_converged(rig, id);
}

#if GAPART_FAULT_INJECTION
TEST(Replication, FailedResyncLeavesTheOldReplicaRestartable) {
  const PartId k = 3;
  // Two images of one session, the second a few updates past the first:
  // what a leader streams on the open and on a later resync.
  ServiceConfig source_cfg;
  source_cfg.background_refinement = false;
  PartitionService source(source_cfg);
  auto prev = shared_grid(12, 12);
  const SessionId src = source.open_session(prev, column_bands(12, 12, k),
                                            session_config(k));
  const auto image_of = [&] {
    const auto handle = source.session_handle(src);
    return snapshot_image(handle->config(), *handle->snapshot());
  };
  const SessionImage old_image = image_of();
  for (VertexId rows = 13; rows <= 15; ++rows) {
    auto next = shared_grid(rows, 12);
    source.submit_update(src, next, diff_graphs(*prev, *next));
    prev = next;
  }
  const SessionImage new_image = image_of();
  ASSERT_NE(new_image.digest, old_image.digest);

  const ServiceConfig cfg = follower_config(fresh_dir("failed_resync"));
  const auto recovered_digest = [&] {
    PartitionService restarted(cfg);
    const auto reports = restarted.recover(session_config(k));
    EXPECT_EQ(reports.size(), 1u);
    return reports.empty() ? 0 : restarted.session_handle(1)->state_digest();
  };
  PartitionService replica(cfg);
  replica.open_replica_session(1, old_image, session_config(k));
  {
    // The resync's checkpoint write fails.
    ScopedFaultInjection scope(FaultSite::kFileWrite, /*nth=*/1);
    EXPECT_THROW(replica.open_replica_session(1, new_image, session_config(k)),
                 IoError);
  }
  ASSERT_EQ(replica.num_sessions(), 1);
  EXPECT_EQ(replica.session_handle(1)->state_digest(), old_image.digest);
  EXPECT_EQ(recovered_digest(), old_image.digest);

  replica.open_replica_session(1, new_image, session_config(k));
  EXPECT_EQ(replica.session_handle(1)->state_digest(), new_image.digest);
  EXPECT_EQ(recovered_digest(), new_image.digest);
  int snapshots = 0;
  for (const auto& entry :
       fs::directory_iterator(replica.session_wal_dir(1))) {
    snapshots += entry.path().filename().string().rfind("snap-", 0) == 0;
  }
  EXPECT_EQ(snapshots, 1);

  // A resync image behind the replica's log is refused before any write.
  EXPECT_THROW(replica.open_replica_session(1, old_image, session_config(k)),
               Error);
  EXPECT_EQ(replica.session_handle(1)->state_digest(), new_image.digest);
}
#else
TEST(Replication, FailedResyncLeavesTheOldReplicaRestartable) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
#endif

#if GAPART_FAULT_INJECTION
// An update whose fsync failed was never acknowledged, and its frame was
// rolled back: the shipper caps its reads at the log's end as the session
// lock saw it, so the update never reaches the follower.
TEST(Replication, RolledBackAppendNeverShips) {
  const PartId k = 3;
  Rig rig("rolled_back", {}, [](const std::string& dir) {
    ServiceConfig sc = leader_config(dir);
    sc.durability.io_retry.max_attempts = 1;  // the first failure is final
    return sc;
  });
  auto g12 = shared_grid(12, 12);
  auto g13 = shared_grid(13, 12);
  auto g14 = shared_grid(14, 12);
  const SessionId id = rig.leader->open_session(g12, column_bands(12, 12, k),
                                                session_config(k));
  rig.settle();  // the follower opens at epoch 0
  rig.leader->submit_update(id, g13, diff_graphs(*g12, *g13));
  rig.settle();
  ASSERT_EQ(rig.shipper->acked_epoch(id), 1u);
  const std::uint64_t digest = rig.leader->session_handle(id)->state_digest();

  {
    ScopedFaultInjection scope(FaultSite::kWalFsync, /*nth=*/1);
    EXPECT_THROW(rig.leader->submit_update(id, g14, diff_graphs(*g13, *g14)),
                 IoError);
  }
  EXPECT_TRUE(rig.leader->session_stats(id).wal_failed);
  rig.settle();
  ASSERT_TRUE(rig.shipper->drained());
  EXPECT_EQ(rig.shipper->stats().records_shipped, 1u);
  EXPECT_EQ(rig.follower->applied_epoch(id), 1u);
  EXPECT_EQ(rig.follower_service->session_handle(id)->state_digest(), digest);

  // The leader's own log recovers to the same state.
  const ServiceConfig cfg = rig.leader->config();
  rig.shipper.reset();
  rig.leader.reset();
  PartitionService restarted(cfg);
  const auto reports = restarted.recover(session_config(k));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].final_epoch, 1u);
  EXPECT_EQ(restarted.session_handle(id)->state_digest(), digest);
}
#else
TEST(Replication, RolledBackAppendNeverShips) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
#endif

#if GAPART_FAULT_INJECTION
TEST(Replication, TransportFaultMatrixNeverSilentlyDiverges) {
  const PartId k = 3;
  // Multiple seeded 10% fault schedules over every site (drop, dup,
  // reorder, truncate, send failure, plus the WAL/alloc sites).  Contract:
  // the follower converges bit-identically or fail-stops with a typed
  // error — it never silently diverges.
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    ShipperConfig ship;
    ship.resume_after_stalled_pumps = 2;
    Rig rig("faults" + std::to_string(seed), ship,
            [](const std::string& dir) {
              ServiceConfig sc = leader_config(dir);
              sc.durability.io_retry.max_attempts = 12;
              sc.durability.io_retry.initial_seconds = 1e-6;
              sc.durability.io_retry.max_seconds = 1e-5;
              return sc;
            });
    auto prev = shared_grid(12, 12);
    const SessionId id = rig.leader->open_session(
        prev, column_bands(12, 12, k), session_config(k));
    {
      ScopedFaultInjection scope(seed, 0.10);
      for (VertexId rows = 13; rows <= 20; ++rows) {
        auto next = shared_grid(rows, 12);
        const GraphDelta delta = diff_graphs(*prev, *next);
        for (;;) {
          try {
            rig.leader->submit_update(id, next, delta);
            break;
          } catch (const std::bad_alloc&) {
            // injected pre-mutation: resubmit, exactly like a real client
          }
        }
        prev = next;
        try {
          rig.shipper->pump();
          rig.follower->pump();
        } catch (const ReplicationDivergedError& e) {
          FAIL() << "seed " << seed << " diverged: " << e.what();
        }
      }
      EXPECT_GT(FaultInjector::instance().total_injected(), 0u);
    }  // disarm, then settle cleanly
    rig.settle(500);
    expect_converged(rig, id);
    EXPECT_FALSE(rig.follower->stats().diverged);
  }
}
#else
TEST(Replication, TransportFaultMatrixNeverSilentlyDiverges) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
#endif

TEST(Replication, PromotionFencesTheDeposedLeader) {
  const PartId k = 3;
  Rig rig("fence");
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  for (VertexId rows = 13; rows <= 15; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
  }
  rig.settle();
  expect_converged(rig, id);

  // Failover: promote the follower.  Generation bumps past the leader's.
  const PromotionReport report = rig.follower->promote();
  EXPECT_EQ(report.generation, 2u);
  ASSERT_EQ(report.sessions.size(), 1u);
  EXPECT_EQ(report.sessions[0].epoch, 3u);
  EXPECT_EQ(report.sessions[0].digest,
            rig.leader->session_handle(id)->state_digest());
  EXPECT_GE(report.seconds, 0.0);
  // The fence is durable: the follower dir's GENERATION outlives it.
  EXPECT_EQ(read_generation_file(
                rig.follower_service->config().durability.dir),
            2u);

  // Split brain: the deposed leader keeps writing and shipping.  Every one
  // of its post-fencing frames must be rejected.
  const std::uint64_t epoch_before = rig.follower->applied_epoch(id);
  const std::uint64_t digest_before =
      rig.follower_service->session_handle(id)->state_digest();
  auto next = shared_grid(16, 12);
  rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
  rig.shipper->pump();
  rig.follower->pump();
  const FollowerStats fs_ = rig.follower->stats();
  EXPECT_GT(fs_.fenced_rejected, 0u);
  EXPECT_EQ(rig.follower->applied_epoch(id), epoch_before);
  EXPECT_EQ(rig.follower_service->session_handle(id)->state_digest(),
            digest_before);

  // ... and the deposed leader learns of its demotion from the fence ack.
  rig.shipper->pump();
  EXPECT_TRUE(rig.shipper->stats().deposed);

  // A deposed leader cannot come back with a stale term: the GENERATION
  // file fences its own directory too.
  write_generation_file(rig.leader->config().durability.dir, 9);
  ShipperConfig stale;
  stale.generation = 3;
  EXPECT_THROW(
      ReplicationShipper(*rig.leader, *rig.leader_end, stale),
      ReplicationError);
}

// promote() drains what the leader already shipped before it fences:
// frames sent but never pumped are applied, so the promoted state is the
// leader's last shipped state, not the follower's last pumped one.
TEST(Replication, PromoteAppliesFramesShippedButNotPumped) {
  const PartId k = 3;
  Rig rig("promote_drain");
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  rig.settle();  // the follower holds the session at epoch 0
  ASSERT_TRUE(rig.shipper->drained());
  ASSERT_EQ(rig.follower->applied_epoch(id), 0u);
  for (VertexId rows = 13; rows <= 15; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
  }
  // The leader ships all three records; the follower never pumps them.
  EXPECT_EQ(rig.shipper->pump(), 3);
  EXPECT_EQ(rig.shipper->stats().records_shipped, 3u);
  const std::uint64_t received = rig.follower->stats().frames_received;
  EXPECT_EQ(rig.follower->applied_epoch(id), 0u);

  const PromotionReport report = rig.follower->promote();
  const FollowerStats fs_ = rig.follower->stats();
  EXPECT_EQ(fs_.frames_received, received + 3);
  EXPECT_EQ(fs_.records_applied, 3u);
  ASSERT_EQ(report.sessions.size(), 1u);
  EXPECT_EQ(report.sessions[0].id, id);
  EXPECT_EQ(report.sessions[0].epoch, 3u);
  EXPECT_EQ(report.sessions[0].digest,
            rig.leader->session_handle(id)->state_digest());
  EXPECT_EQ(rig.follower->applied_epoch(id), 3u);
}

TEST(Replication, GarbageGenerationFileIsRejected) {
  // A GENERATION file that names no term must stop both ends: reading it as
  // term 0 would switch the fence off.
  const std::string leader_dir = fresh_dir("garbage_gen_leader");
  const std::string follower_dir = fresh_dir("garbage_gen_follower");
  for (const std::string& dir : {leader_dir, follower_dir}) {
    fs::create_directories(dir);
    std::ofstream(dir + "/GENERATION") << "term?\n";
  }
  PartitionService leader_service(leader_config(leader_dir));
  PartitionService follower_service(follower_config(follower_dir));
  auto pair = LoopbackTransport::create_pair();
  EXPECT_THROW(ReplicationShipper(leader_service, *pair.first),
               ReplicationError);
  EXPECT_THROW(ReplicationFollower(follower_service, *pair.second),
               ReplicationError);
}

TEST(Replication, UnreadableGenerationFileIsRejected) {
  // A GENERATION entry that cannot be examined (here a symlink to itself,
  // so stat fails with ELOOP rather than "not found") is no evidence that
  // the file is absent: both ends must refuse to start at term 0.
  const std::string leader_dir = fresh_dir("looped_gen_leader");
  const std::string follower_dir = fresh_dir("looped_gen_follower");
  for (const std::string& dir : {leader_dir, follower_dir}) {
    fs::create_directories(dir);
    fs::create_symlink(dir + "/GENERATION", dir + "/GENERATION");
    EXPECT_THROW(read_generation_file(dir), IoError);
  }
  PartitionService leader_service(leader_config(leader_dir));
  PartitionService follower_service(follower_config(follower_dir));
  auto pair = LoopbackTransport::create_pair();
  EXPECT_THROW(ReplicationShipper(leader_service, *pair.first), IoError);
  EXPECT_THROW(ReplicationFollower(follower_service, *pair.second), IoError);
}

#if GAPART_FAULT_INJECTION
TEST(Replication, GenerationWriteFaultKeepsTheOldTerm) {
  const std::string dir = fresh_dir("generation_fault");
  write_generation_file(dir, 5);
  {
    ScopedFaultInjection scope(FaultSite::kFileWrite, /*nth=*/1);
    EXPECT_THROW(write_generation_file(dir, 6), IoError);
  }
  EXPECT_EQ(read_generation_file(dir), 5u);
  write_generation_file(dir, 6);
  EXPECT_EQ(read_generation_file(dir), 6u);
}
#else
TEST(Replication, GenerationWriteFaultKeepsTheOldTerm) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
#endif

TEST(Replication, DivergenceFailStopsWithTypedError) {
  const PartId k = 3;
  Rig rig("diverge", {}, [](const std::string& dir) {
    ServiceConfig sc = leader_config(dir);
    sc.durability.compaction.damage_threshold = 1;
    sc.durability.compaction.min_records = 1;  // compact at every boundary
    return sc;
  });
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  auto g13 = shared_grid(13, 12);
  rig.leader->submit_update(id, g13, diff_graphs(*prev, *g13));
  prev = g13;
  rig.settle();
  expect_converged(rig, id);

  // Tamper with the replica: relabel parts 0 and 1 wholesale, through a
  // refinement record the leader never logged.  The cut and the balance are
  // unchanged, and the follower only ever applies the leader's moves, so
  // nothing heals it back — only the content digest can tell the states
  // apart.
  const auto replica = rig.follower_service->session_handle(id);
  const auto before = replica->snapshot();
  RepairOutcome swap;
  for (std::size_t v = 0; v < before->assignment.size(); ++v) {
    const PartId part = before->assignment[v];
    if (part < 2) swap.moves.push_back({static_cast<VertexId>(v), 1 - part});
  }
  WalRecord tamper;
  tamper.type = WalRecordType::kRefine;
  tamper.epoch = before->update_epoch;
  encode_outcome(tamper.payload, swap, k);
  replica->apply_logged(tamper, /*log_locally=*/false);

  // The next snapshot boundary exchanges digests and must fail-stop.
  auto g14 = shared_grid(14, 12);
  rig.leader->submit_update(id, g14, diff_graphs(*prev, *g14));
  rig.shipper->pump();
  EXPECT_THROW(
      {
        for (int i = 0; i < 50; ++i) {
          rig.shipper->pump();
          rig.follower->pump();
        }
      },
      ReplicationDivergedError);
  EXPECT_TRUE(rig.follower->stats().diverged);
  // A diverged replica must never be promoted.
  EXPECT_THROW(rig.follower->promote(), Error);
}

// A CRC-valid, in-sequence record frame whose type byte no WAL record has
// is junk: the follower rejects it before it reaches its own log.
TEST(Replication, RecordOfUnknownTypeIsRejectedUnlogged) {
  const PartId k = 3;
  Rig rig("bad_type");
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  auto g13 = shared_grid(13, 12);
  rig.leader->submit_update(id, g13, diff_graphs(*prev, *g13));
  prev = g13;
  rig.settle();
  expect_converged(rig, id);

  const std::string log_before = follower_log(rig, id);
  const std::uint64_t applied = rig.follower->stats().records_applied;
  // The shape of a kRefine with nothing to move, at the next seq.
  const ShipperStats ss = rig.shipper->stats();
  RepFrame junk;
  junk.type = RepFrameType::kRecord;
  junk.generation = ss.generation;
  junk.session = id;
  junk.seq = ss.opens_shipped + ss.records_shipped + ss.compacts_shipped + 1;
  junk.epoch = rig.follower->applied_epoch(id);
  encode_outcome(junk.payload, RepairOutcome{}, k);
  for (const std::uint8_t sub : {0, 3}) {
    junk.sub = sub;
    rig.leader_end->send(encode_rep_frame(junk));
    rig.follower->pump();
  }
  FollowerStats fs_ = rig.follower->stats();
  EXPECT_EQ(fs_.corrupt_rejected, 2u);
  EXPECT_EQ(fs_.records_applied, applied);
  EXPECT_FALSE(fs_.diverged);
  EXPECT_EQ(follower_log(rig, id), log_before);
  // A direct caller gets a typed error, not a record of unknown type.
  WalRecord record;
  record.type = static_cast<WalRecordType>(3);
  record.epoch = junk.epoch;
  record.payload = junk.payload;
  EXPECT_THROW(rig.follower_service->session_handle(id)->apply_logged(
                   record, /*log_locally=*/true),
               Error);
  EXPECT_EQ(follower_log(rig, id), log_before);

  // The real stream goes on past the junk.
  auto g14 = shared_grid(14, 12);
  rig.leader->submit_update(id, g14, diff_graphs(*prev, *g14));
  rig.settle();
  expect_converged(rig, id);
  fs_ = rig.follower->stats();
  EXPECT_EQ(fs_.records_applied, applied + 1);
  EXPECT_FALSE(fs_.diverged);
}

// A CRC-valid, in-sequence record frame whose epoch skips one breaks the
// WAL epoch chain: the follower fail-stops before the record reaches its
// own log.
TEST(Replication, RecordThatSkipsAnEpochFailStopsUnlogged) {
  const PartId k = 3;
  Rig rig("epoch_skip");
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  auto g13 = shared_grid(13, 12);
  rig.leader->submit_update(id, g13, diff_graphs(*prev, *g13));
  rig.settle();
  expect_converged(rig, id);

  const std::string log_before = follower_log(rig, id);
  const ShipperStats ss = rig.shipper->stats();
  RepFrame skip;
  skip.type = RepFrameType::kRecord;
  skip.sub = static_cast<std::uint8_t>(WalRecordType::kDelta);
  skip.generation = ss.generation;
  skip.session = id;
  skip.seq = ss.opens_shipped + ss.records_shipped + ss.compacts_shipped + 1;
  skip.epoch = rig.follower->applied_epoch(id) + 2;
  // The chain is checked before the payload is decoded.
  encode_outcome(skip.payload, RepairOutcome{}, k);
  rig.leader_end->send(encode_rep_frame(skip));
  EXPECT_THROW(rig.follower->pump(), ReplicationDivergedError);
  EXPECT_TRUE(rig.follower->stats().diverged);
  EXPECT_EQ(rig.follower->applied_epoch(id), 1u);
  EXPECT_EQ(follower_log(rig, id), log_before);
}

// Ship lag counts epochs of the session's chain.  A leader recovered from a
// compacted log has absorbed no update in this process, yet a follower that
// misses the next updates trails it by that many epochs.
TEST(Replication, ShipLagCountsEpochsAfterLeaderRestart) {
  const PartId k = 3;
  Rig rig("lag_restart");
  const std::string leader_dir = rig.leader->config().durability.dir;
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  for (VertexId rows = 13; rows <= 20; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
  }
  ASSERT_TRUE(rig.leader->session_handle(id)->compact_now());

  // Restart the leader; the fresh follower bootstraps to epoch 8.
  rig.shipper.reset();
  rig.leader.reset();
  rig.leader = std::make_unique<PartitionService>(leader_config(leader_dir));
  ASSERT_EQ(rig.leader->recover(session_config(k)).size(), 1u);
  rig.shipper =
      std::make_unique<ReplicationShipper>(*rig.leader, *rig.leader_end);
  rig.settle();
  ASSERT_EQ(rig.follower->applied_epoch(id), 8u);

  // Four more updates; only the shipper runs, so nothing gets acked.
  for (VertexId rows = 21; rows <= 24; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
    rig.shipper->pump();
  }
  EXPECT_EQ(rig.leader->snapshot(id)->update_epoch, 12u);
  EXPECT_EQ(rig.shipper->acked_epoch(id), 8u);
  EXPECT_GE(rig.shipper->stats().lag_epochs_p99, 1.0);
}

// Ship-lag percentiles cover recent pumps, not the shipper's lifetime: a
// stall that starts after a long healthy run shows in p99 within 82 samples.
TEST(Replication, ShipLagPercentilesShowAStallAfterALongHealthyRun) {
  const PartId k = 3;
  Rig rig("lag_window");
  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  rig.settle();
  ASSERT_TRUE(rig.shipper->drained());
  for (int i = 0; i < 16384; ++i) rig.shipper->pump();  // lag 0 each
  EXPECT_EQ(rig.shipper->stats().lag_epochs_p99, 0.0);

  // The follower stops acking: 120 pumps at lag 1, under 1% of all the
  // samples ever taken but well over 1% of the last 8,192.
  auto next = shared_grid(13, 12);
  rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
  for (int i = 0; i < 120; ++i) rig.shipper->pump();
  EXPECT_EQ(rig.shipper->acked_epoch(id), 0u);
  EXPECT_GE(rig.shipper->stats().lag_epochs_p99, 1.0);
}

TEST(Replication, FollowerRestartResumesFromItsOwnDisk) {
  const PartId k = 3;
  const std::string follower_dir = fresh_dir("restart_follower");
  Rig rig("restart");
  // Rebuild the rig's follower on a dir we control.
  rig.follower.reset();
  rig.follower_service =
      std::make_unique<PartitionService>(follower_config(follower_dir));
  FollowerConfig fcfg;
  fcfg.base = session_config(k);
  rig.follower = std::make_unique<ReplicationFollower>(
      *rig.follower_service, *rig.follower_end, fcfg);
  rig.follower->start_follower();

  auto prev = shared_grid(12, 12);
  const SessionId id = rig.leader->open_session(
      prev, column_bands(12, 12, k), session_config(k));
  for (VertexId rows = 13; rows <= 15; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
  }
  rig.settle();
  expect_converged(rig, id);

  // "Crash" the follower (no orderly close) and restart it on its own dir:
  // start_follower replays its local WAL back to the applied state.
  rig.follower.reset();
  rig.follower_service.reset();
  rig.follower_service =
      std::make_unique<PartitionService>(follower_config(follower_dir));
  rig.follower = std::make_unique<ReplicationFollower>(
      *rig.follower_service, *rig.follower_end, fcfg);
  const auto reports = rig.follower->start_follower();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].final_epoch, 3u);
  EXPECT_EQ(rig.follower->applied_epoch(id), 3u);

  // The stream continues; the leader notices the follower's position (its
  // acks) moved backwards in seq and re-bootstraps, then converges.
  for (VertexId rows = 16; rows <= 18; ++rows) {
    auto next = shared_grid(rows, 12);
    rig.leader->submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
  }
  rig.settle(500);
  expect_converged(rig, id);
}

// ---------------------------------------------------------------------------
// The acceptance sweep: kill the leader at EVERY point of a faulted trace,
// promote the follower, and require of every session (a) zero acked deltas
// lost and (b) the promoted state bit-equal to a never-crashed reference at
// that epoch.  Two sessions ship two record shapes: one grows by a row per
// update, the other churns (rewired survivors, no appended vertex).

TEST(Replication, KillPointFuzzedFailoverLosesNoAckedDelta) {
  const PartId k = 3;
  constexpr int kTraceLen = 8;
  struct Stream {
    const char* name;
    std::shared_ptr<const Graph> (*graph)(int step);
    Assignment start;
  };
  const std::vector<Stream> streams = {
      {"growth",
       [](int step) {
         return shared_grid(12 + static_cast<VertexId>(step), 12);
       },
       column_bands(12, 12, k)},
      {"churn", testing::churn_graph, column_bands(32, 32, k)},
  };

  // Never-crashed reference per stream: one plain session absorbing the
  // same trace, its digest recorded at every epoch ([0] = epoch 0).
  std::vector<std::vector<std::uint64_t>> reference_digest;
  for (const Stream& stream : streams) {
    auto prev = stream.graph(0);
    PartitionSession session(prev, stream.start, session_config(k));
    std::vector<std::uint64_t> digests{session.state_digest()};
    for (int step = 1; step <= kTraceLen; ++step) {
      auto next = stream.graph(step);
      session.apply_update(next, diff_graphs(*prev, *next));
      prev = next;
      digests.push_back(session.state_digest());
    }
    reference_digest.push_back(std::move(digests));
  }

  for (int kill_point = 1; kill_point <= kTraceLen; ++kill_point) {
    SCOPED_TRACE("kill point " + std::to_string(kill_point));
    ShipperConfig ship;
    ship.resume_after_stalled_pumps = 2;
    Rig rig("kill" + std::to_string(kill_point), ship,
            [](const std::string& dir) {
              ServiceConfig sc = leader_config(dir);
              sc.durability.io_retry.max_attempts = 12;
              sc.durability.io_retry.initial_seconds = 1e-6;
              sc.durability.io_retry.max_seconds = 1e-5;
              return sc;
            });
    std::vector<SessionId> ids;
    std::vector<std::shared_ptr<const Graph>> prevs;
    for (const Stream& stream : streams) {
      prevs.push_back(stream.graph(0));
      ids.push_back(rig.leader->open_session(prevs.back(), stream.start,
                                             session_config(k)));
    }

    // Stream with 10% faults on every transport and I/O site, tracking per
    // session the highest epoch the FOLLOWER acknowledged — the replicated
    // system's acks, the only ones failover promises to keep.
    std::vector<std::uint64_t> follower_acked(streams.size(), 0);
    {
      ScopedFaultInjection scope(2026u + static_cast<std::uint64_t>(kill_point),
                                 0.10);
      for (int step = 1; step <= kill_point; ++step) {
        for (std::size_t s = 0; s < streams.size(); ++s) {
          auto next = streams[s].graph(step);
          const GraphDelta delta = diff_graphs(*prevs[s], *next);
          for (;;) {
            try {
              rig.leader->submit_update(ids[s], next, delta);
              break;
            } catch (const std::bad_alloc&) {
            }
          }
          prevs[s] = next;
        }
        for (int pump = 0; pump < 3; ++pump) {
          rig.shipper->pump();
          rig.follower->pump();
        }
        for (std::size_t s = 0; s < streams.size(); ++s) {
          follower_acked[s] = rig.shipper->acked_epoch(ids[s]);
        }
      }
    }

    // kill -9 the leader: shipper and leader service vanish mid-stream;
    // whatever frames were in flight stay on the link.
    rig.shipper.reset();
    rig.leader.reset();

    const PromotionReport report = rig.follower->promote();
    EXPECT_FALSE(rig.follower->stats().diverged);
    ASSERT_LE(report.sessions.size(), streams.size());
    for (std::size_t s = 0; s < streams.size(); ++s) {
      SCOPED_TRACE(streams[s].name);
      const auto promoted = std::find_if(
          report.sessions.begin(), report.sessions.end(),
          [&](const PromotedSession& p) { return p.id == ids[s]; });
      if (promoted == report.sessions.end()) {
        // The storm kept this session's open from landing before the kill.
        // That is a legal outcome only if nothing of it was acknowledged.
        EXPECT_EQ(follower_acked[s], 0u);
        continue;
      }
      // (a) Zero acked deltas lost: promotion never lands below the last
      // follower-acked epoch.
      EXPECT_GE(promoted->epoch, follower_acked[s]);
      // (b) Bit-identical to the never-crashed reference at that epoch.
      ASSERT_LT(promoted->epoch, reference_digest[s].size());
      EXPECT_EQ(promoted->digest, reference_digest[s][promoted->epoch])
          << "promoted at epoch " << promoted->epoch;

      // The promoted service accepts writes — it is the leader now.
      auto next = streams[s].graph(kTraceLen + 1);
      auto promoted_prev = rig.follower_service->snapshot(ids[s])->graph;
      const RepairReport rep = rig.follower_service->submit_update(
          ids[s], next, diff_graphs(*promoted_prev, *next));
      EXPECT_EQ(rep.update_epoch, promoted->epoch + 1);
    }
  }
}

}  // namespace
}  // namespace gapart

// Durability end-to-end: crash recovery (kill-point fuzz against a
// never-crashed reference, torn tails, stale snapshot prefixes, mid-log
// corruption, foreign entries in the durability directory, opens that never
// completed, all-or-none recovery), the fault-injection storms on one session
// and on concurrent sessions racing background refinement ("no acknowledged
// delta is ever lost"), fail-stop on exhausted WAL retries, one fsync per
// acknowledged update with none left for close(), and the close/drain
// handshake.
// Companion suites: test_wal.cpp (log mechanics), test_fault_injection.cpp
// (the injector itself).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/assert.hpp"
#include "common/checksum.hpp"
#include "common/fault_injection.hpp"
#include "common/telemetry.hpp"
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

/// Flips one payload byte of the log's first record.  With valid records
/// after it, that is silent corruption, not a torn tail.
void flip_first_record_byte(const std::string& log) {
  std::fstream f(log, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(8 + 21 + 2);  // file header + first frame header + 2
  char byte = 0;
  f.get(byte);
  f.seekp(8 + 21 + 2);
  f.put(static_cast<char>(byte ^ 0x5a));
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
    EXPECT_GE(st.wal.fsyncs, 6u);  // every append is fsynced
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

  // Corrupt the FIRST record: valid records follow, so recovery must refuse.
  flip_first_record_byte(dir + "/session-1/wal.log");

  PartitionService service(durable_config(dir));
  EXPECT_THROW(service.recover(session_config(k)), WalCorruptError);
}

// recover() reads only the names session_dir() writes: an operator's copy
// beside a session, or any other "session-" entry, is skipped.
TEST(Durability, RecoveryIgnoresForeignSessionEntries) {
  const PartId k = 3;
  const std::string dir = fresh_dir("foreign_entries");
  std::uint64_t digest = 0;
  {
    PartitionService service(durable_config(dir));
    auto prev = shared_grid(12, 12);
    const SessionId id = service.open_session(prev, column_bands(12, 12, k),
                                              session_config(k));
    auto next = shared_grid(13, 12);
    service.submit_update(id, next, diff_graphs(*prev, *next));
    digest = service.session_handle(id)->state_digest();
  }
  // First a copy that parses as id 1, then names that parse to no id.
  fs::copy(dir + "/session-1", dir + "/session-1.bak",
           fs::copy_options::recursive);
  for (const char* foreign : {"", "session-01", "session-x", "session-"}) {
    SCOPED_TRACE(foreign);
    if (*foreign != '\0') fs::create_directory(dir + "/" + foreign);
    PartitionService service(durable_config(dir));
    const auto reports = service.recover(session_config(k));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].session_id, 1u);
    EXPECT_EQ(reports[0].final_epoch, 1u);
    EXPECT_EQ(service.session_ids(), std::vector<SessionId>{1});
    EXPECT_EQ(service.session_handle(1)->state_digest(), digest);
  }
}

// A crash mid-open leaves a session directory without CURRENT or wal.log.
// Its id was never handed back, so recovery skips it; a directory that has a
// log but no CURRENT lost acked state and stays an error.
TEST(Durability, RecoverySkipsAnOpenThatNeverCompleted) {
  const PartId k = 3;
  const std::string dir = fresh_dir("open_never_completed");
  std::uint64_t digest = 0;
  {
    PartitionService service(durable_config(dir));
    auto prev = shared_grid(12, 12);
    const SessionId id = service.open_session(prev, column_bands(12, 12, k),
                                              session_config(k));
    auto next = shared_grid(13, 12);
    service.submit_update(id, next, diff_graphs(*prev, *next));
    digest = service.session_handle(id)->state_digest();
  }
  fs::create_directory(dir + "/session-7");
  std::ofstream(dir + "/session-7/snap-0.tmp") << "partial";
  {
    PartitionService service(durable_config(dir));
    const auto reports = service.recover(session_config(k));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].session_id, 1u);
    EXPECT_EQ(service.session_ids(), std::vector<SessionId>{1});
    EXPECT_EQ(service.session_handle(1)->state_digest(), digest);
  }

  fs::copy_file(dir + "/session-1/wal.log", dir + "/session-7/wal.log");
  PartitionService service(durable_config(dir));
  EXPECT_THROW(service.recover(session_config(k)), IoError);
  EXPECT_EQ(service.num_sessions(), 0);
}

// recover() inserts every session or none: a corrupt log in one session
// leaves the service empty, and a retry fails the same way instead of
// tripping over the sessions the first attempt inserted.
TEST(Durability, FailedRecoveryInsertsNothing) {
  const PartId k = 3;
  const std::string dir = fresh_dir("failed_recovery");
  {
    PartitionService service(durable_config(dir));
    for (int s = 0; s < 2; ++s) {
      auto prev = shared_grid(12, 12);
      const SessionId id = service.open_session(
          prev, column_bands(12, 12, k), session_config(k));
      for (VertexId rows = 13; rows <= 14; ++rows) {
        auto next = shared_grid(rows, 12);
        service.submit_update(id, next, diff_graphs(*prev, *next));
        prev = next;
      }
    }
  }
  flip_first_record_byte(dir + "/session-2/wal.log");

  PartitionService service(durable_config(dir));
  for (int attempt = 0; attempt < 2; ++attempt) {
    SCOPED_TRACE(attempt);
    EXPECT_THROW(service.recover(session_config(k)), WalCorruptError);
    EXPECT_EQ(service.num_sessions(), 0);
  }
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
// A record logs the repair's outcome, so replay never consults the reader's
// repair config.

TEST(Durability, RecoveryIgnoresTheReadersRepairConfig) {
  const PartId k = 4;
  const int kUpdates = 14;
  // A scrambled start leaves the verification rounds plenty to move.
  Rng rng(0x1b);
  Assignment start(32 * 32);
  for (PartId& p : start) p = static_cast<PartId>(rng.uniform_int(k));
  struct End {
    std::uint64_t digest = 0;
    double fitness = 0.0;
  };
  const auto stream = [&](const std::string& dir, const SessionConfig& cfg) {
    PartitionService service(durable_config(dir));
    auto prev = testing::churn_graph(0);
    const SessionId id = service.open_session(prev, start, cfg);
    for (int s = 1; s <= kUpdates; ++s) {
      auto next = testing::churn_graph(s);
      service.submit_update(id, next, diff_graphs(*prev, *next));
      prev = next;
    }
    return End{service.session_handle(id)->state_digest(),
               service.snapshot(id)->fitness};
  };
  SessionConfig writer = session_config(k);  // cap 4, 60 s budget
  SessionConfig cap1 = writer;
  cap1.repair_max_verify_rounds = 1;
  SessionConfig cascade_only = writer;
  cascade_only.repair_max_verify_rounds = 0;
  cascade_only.repair_budget_seconds = 0.0;

  const std::string dir = fresh_dir("reader_config");
  const End live = stream(dir, writer);
  // Re-running the stream under another cap ends elsewhere: the verification
  // rounds matter, so a replay that re-ran the repair could not match.
  ASSERT_NE(stream(fresh_dir("reader_config_cap0"), cascade_only).digest,
            live.digest);

  for (const SessionConfig& reader : {cap1, cascade_only}) {
    SCOPED_TRACE(::testing::Message()
                 << "reader cap " << reader.repair_max_verify_rounds);
    PartitionService service(durable_config(dir));
    const auto reports = service.recover(reader);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].records_replayed,
              static_cast<std::size_t>(kUpdates));
    EXPECT_EQ(service.session_handle(1)->state_digest(), live.digest);
    EXPECT_EQ(service.snapshot(1)->fitness, live.fitness);
    expect_snapshot_consistent(*service.snapshot(1), k);
  }
}

// A session directory the durable service wrote, committed byte for byte:
// a 3 x 4 grid with fractional weights (testing::with_fractional_weights),
// k = 2, opened on a random start (parts drawn by Rng(1)), then two updates
// that each append a row under the default repair config (cap 4, 60 s
// budget: the repairs made 11 and 2 moves), then one adopted refinement
// (3 moves) at epoch 2.  The log is the format's contract with every later
// binary: a change to the record format or to replay must regenerate these
// bytes, and the pinned results below, in the same diff.
// CURRENT: 2 bytes.
constexpr const char* kCurrent =
    "300a";
// snap-0: 721 bytes.
constexpr const char* kSnap0 =
    "475349310200000000000000000000000000f03f00000000000000000cf3f02d69ca9038"
    "39020000000000004744433201000000000c00000000000000000000000000f03f020000"
    "0001000000922449922449f23f03000000b76ddbb66ddbf63f555555555555f53f030000"
    "0000000000922449922449f23f02000000b76ddbb66ddbf63f04000000000000000000f0"
    "3faaaaaaaaaaaafa3f0200000001000000b76ddbb66ddbf63f05000000244992244992f4"
    "3f00000000000000400300000000000000b76ddbb66ddbf63f04000000244992244992f4"
    "3f06000000499224499224f93faaaaaaaaaaaa02400400000001000000000000000000f0"
    "3f03000000244992244992f43f05000000499224499224f93f07000000922449922449f2"
    "3f56555555555505400300000002000000244992244992f43f04000000499224499224f9"
    "3f08000000b76ddbb66ddbf63f00000000000008400300000003000000499224499224f9"
    "3f07000000b76ddbb66ddbf63f09000000000000000000f03f000000000000f03f040000"
    "0004000000922449922449f23f06000000b76ddbb66ddbf63f08000000000000000000f0"
    "3f0a000000244992244992f43f555555555555f53f0300000005000000b76ddbb66ddbf6"
    "3f07000000000000000000f03f0b000000499224499224f93faaaaaaaaaaaafa3f020000"
    "0006000000000000000000f03f0a000000499224499224f93f0000000000000040030000"
    "0007000000244992244992f43f09000000499224499224f93f0b000000922449922449f2"
    "3faaaaaaaaaaaa02400200000008000000499224499224f93f0a000000922449922449f2"
    "3f0c00000000000000010000000100000000000000010000000000000001000000010000"
    "000100000000000000000000000100000000000000aaaaaaaaaaaa22400000000000002a"
    "406ddbb66ddbb62b406ddbb66ddbb62b406ddbb66ddbb63b403e8ee3388ee31a402dc934"
    "81";
// wal.log: 779 bytes.
constexpr const char* kWalLog =
    "4741574c0200000057414c520101000000000000006f01000095e1e76847444332010c00"
    "00000f00000003000000090000000a0000000b000000aaaaaaaaaaaafa3f030000000600"
    "0000000000000000f03f0a000000499224499224f93f0c000000922449922449f23f0000"
    "0000000000400400000007000000244992244992f43f09000000499224499224f93f0b00"
    "0000922449922449f23f0d000000b76ddbb66ddbf63faaaaaaaaaaaa0240030000000800"
    "0000499224499224f93f0a000000922449922449f23f0e000000000000000000f03f5655"
    "5555555505400200000009000000922449922449f23f0d000000000000000000f03f0000"
    "000000000840030000000a000000b76ddbb66ddbf63f0c000000000000000000f03f0e00"
    "0000244992244992f43f000000000000f03f020000000b000000000000000000f03f0d00"
    "0000244992244992f43f0b00000000010106000000000700000000080000000102000000"
    "0103000000000b000000010d0000000004000000010a0000000003000000010e00000000"
    "57414c5201020000000000000042010000048c726447444332010f000000120000000300"
    "00000c0000000d0000000e00000056555555555505400300000009000000922449922449"
    "f23f0d000000000000000000f03f0f000000244992244992f43f00000000000008400400"
    "00000a000000b76ddbb66ddbf63f0c000000000000000000f03f0e000000244992244992"
    "f43f10000000499224499224f93f000000000000f03f030000000b000000000000000000"
    "f03f0d000000244992244992f43f11000000922449922449f23f555555555555f53f0200"
    "00000c000000244992244992f43f10000000922449922449f23faaaaaaaaaaaafa3f0300"
    "00000d000000499224499224f93f0f000000922449922449f23f11000000b76ddbb66ddb"
    "f63f0000000000000040020000000e000000922449922449f23f10000000b76ddbb66ddb"
    "f63f020000000000000a00000001070000000157414c5202020000000000000013000000"
    "281a476b0300000006000000010a000000000b00000000";

std::string from_hex(std::string_view hex) {
  std::string bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

TEST(Durability, CommittedLogReplaysToPinnedDigest) {
  const std::string dir = fresh_dir("committed_log");
  fs::create_directories(dir + "/session-1");
  for (const auto& [name, hex] : {std::pair{"CURRENT", kCurrent},
                                  std::pair{"snap-0", kSnap0},
                                  std::pair{"wal.log", kWalLog}}) {
    std::ofstream(dir + "/session-1/" + name, std::ios::binary)
        << from_hex(hex);
  }
  // A reader whose repair config is unlike the writer's.
  SessionConfig reader;
  reader.num_parts = 2;
  reader.repair_max_verify_rounds = 0;
  reader.repair_budget_seconds = 0.0;
  // Replay's spans: one image decode, then a decode and an apply per record.
  const auto span_count = [](const char* name) {
    return TelemetryRegistry::instance().histogram(name).merged().count();
  };
  const char* const spans[] = {"span.image.decode", "span.replay.decode",
                               "span.replay.apply"};
  std::vector<std::uint64_t> before;
  for (const char* name : spans) before.push_back(span_count(name));
  PartitionService service(durable_config(dir));
  const auto reports = service.recover(reader);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].records_replayed, 3u);
  EXPECT_EQ(reports[0].final_epoch, 2u);
  EXPECT_EQ(service.session_handle(1)->state_digest(), 16790083805578881333ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(service.snapshot(1)->fitness),
            0xc02134d34d34d350ull);
  expect_snapshot_consistent(*service.snapshot(1), 2);
#ifdef GAPART_TELEMETRY
  const std::uint64_t added[] = {1, 3, 3};
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(span_count(spans[i]), before[i] + added[i]) << spans[i];
  }
#endif
}

// The image format and the content digest are pinned by bytes, whichever
// kernels write them: the committed weighted image re-encodes to itself,
// and a unit-weight image (whose rows take the block-copy path) keeps the
// length, CRC and digest every earlier binary gave it.
TEST(Durability, SessionImageReencodesByteForByte) {
  const std::string snap0 = from_hex(kSnap0);
  ASSERT_EQ(snap0.size(), 721u);
  EXPECT_EQ(encode_session_image(decode_session_image(snap0)), snap0);

  const PartId k = 3;
  const Graph grid = make_grid(12, 12);
  const SessionImage image =
      testing::image_of(grid, column_bands(12, 12, k), k, /*epoch=*/5);
  EXPECT_EQ(image.digest, 15472686672500039213ull);
  const std::string bytes = encode_session_image(image);
  EXPECT_EQ(bytes.size(), 3401u);
  // The CRC the image ends with (a CRC over the whole image, that CRC
  // included, is the constant residue 0x2144df1c).
  EXPECT_EQ(crc32(bytes.data(), bytes.size() - 4), 0xff862b9fu);
  EXPECT_EQ(encode_session_image(decode_session_image(bytes)), bytes);
}

TEST(Durability, RefineRecordHoldsOnlyItsMoves) {
  const PartId k = 4;
  const std::string dir = fresh_dir("refine_record");
  SessionConfig cfg = session_config(k);
  cfg.repair_budget_seconds = 0.0;  // cascade only: refinement finds more
  cfg.policy.damage_threshold = 1;
  cfg.policy.allow_deep = false;
  Rng rng(0x5eed);
  Assignment scrambled(256);
  for (PartId& p : scrambled) p = static_cast<PartId>(rng.uniform_int(k));
  auto g = shared_grid(16, 16);
  auto grown = shared_grid(17, 16);

  std::uint64_t digest = 0;
  double fitness = 0.0;
  {
    PartitionService service(durable_config(dir));
    const SessionId id = service.open_session(g, scrambled, cfg);
    service.submit_update(id, grown, diff_graphs(*g, *grown));
    const auto session = service.session_handle(id);
    const auto job = session->plan_refinement();
    ASSERT_TRUE(job.has_value());
    const RefineOutcome out = run_refinement(*job, cfg, Rng(1), nullptr);
    std::size_t moves = 0;
    for (std::size_t v = 0; v < out.assignment.size(); ++v) {
      moves += out.assignment[v] != job->assignment[v] ? 1 : 0;
    }
    const std::uint64_t before = service.session_stats(id).wal.bytes_appended;
    ASSERT_TRUE(session->complete_refinement(*job, out.assignment,
                                             out.fitness));
    const std::uint64_t record =
        service.session_stats(id).wal.bytes_appended - before;
    // Frame header, move count, then 5 B per move: no per-vertex bytes.
    ASSERT_GT(moves, 0u);
    EXPECT_EQ(record, 21 + 4 + 5 * moves);
    EXPECT_LT(record, 8 + 4 * out.assignment.size());
    EXPECT_EQ(service.snapshot(id)->assignment, out.assignment);
    digest = session->state_digest();
    fitness = service.snapshot(id)->fitness;
  }
  PartitionService service(durable_config(dir));
  service.recover(cfg);
  EXPECT_EQ(service.session_handle(1)->state_digest(), digest);
  EXPECT_EQ(service.snapshot(1)->fitness, fitness);
}

// A refinement at the snapshot's epoch is replayed, not skipped as part of
// a stale prefix: adopted right after a compaction, it is the log's first
// record and the snapshot lacks it.  When the snapshot already holds it (the
// crash window of StaleLogPrefixSkipped, forged after the refinement),
// re-applying it moves nothing.
TEST(Durability, RefinementAtTheSnapshotEpochIsReplayed) {
  const PartId k = 4;
  SessionConfig cfg = session_config(k);
  cfg.repair_budget_seconds = 0.0;  // cascade only: refinement finds more
  cfg.policy.damage_threshold = 1;
  cfg.policy.allow_deep = false;
  Rng rng(0x5eed);
  Assignment scrambled(256);
  for (PartId& p : scrambled) p = static_cast<PartId>(rng.uniform_int(k));
  auto g = shared_grid(16, 16);
  auto g17 = shared_grid(17, 16);
  auto g18 = shared_grid(18, 16);

  for (const bool snapshot_holds_it : {false, true}) {
    SCOPED_TRACE(snapshot_holds_it ? "snapshot holds the refinement"
                                   : "refinement postdates the snapshot");
    const std::string dir = fresh_dir(
        snapshot_holds_it ? "refine_in_snapshot" : "refine_after_snapshot");
    std::uint64_t digest = 0;
    double fitness = 0.0;
    {
      PartitionService service(durable_config(dir));
      const SessionId id = service.open_session(g, scrambled, cfg);
      service.submit_update(id, g17, diff_graphs(*g, *g17));
      const auto session = service.session_handle(id);
      if (!snapshot_holds_it) {
        ASSERT_TRUE(session->compact_now());  // snapshot at epoch 1
      }
      const auto job = session->plan_refinement();
      ASSERT_TRUE(job.has_value());
      const RefineOutcome out = run_refinement(*job, cfg, Rng(1), nullptr);
      ASSERT_TRUE(
          session->complete_refinement(*job, out.assignment, out.fitness));
      if (snapshot_holds_it) {
        service.save_session(id, dir + "/session-1/snap-1");
      }
      service.submit_update(id, g18, diff_graphs(*g17, *g18));
      digest = session->state_digest();
      fitness = service.snapshot(id)->fitness;
    }
    if (snapshot_holds_it) {
      std::ofstream cur(dir + "/session-1/CURRENT", std::ios::trunc);
      cur << "1\n";
    }
    PartitionService service(durable_config(dir));
    const auto reports = service.recover(cfg);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].snapshot_epoch, 1u);
    EXPECT_EQ(reports[0].records_replayed, 2u);  // the refinement, epoch 2
    EXPECT_EQ(reports[0].final_epoch, 2u);
    EXPECT_EQ(service.session_handle(1)->state_digest(), digest);
    EXPECT_EQ(service.snapshot(1)->fitness, fitness);
  }
}

// An inexact delta is rejected before anything is mutated or logged: the
// session stays healthy, and its log keeps replaying to the live state.
TEST(Durability, InexactDeltaIsRejectedBeforeItIsLogged) {
  const PartId k = 4;
  struct Repro {
    const char* name;
    bool add_old_edge;  // add (0, 63); otherwise drop the cut edge (55, 63)
  };
  for (const Repro repro : {Repro{"old-old edge added", true},
                            Repro{"seam edge dropped", false}}) {
    SCOPED_TRACE(repro.name);
    const std::string dir =
        fresh_dir(std::string("inexact_") + (repro.add_old_edge ? "a" : "b"));
    auto prev = shared_grid(8, 8);
    Assignment start = column_bands(8, 8, k);
    start[55] = 0;  // the edge (55, 63) is cut
    // One appended row, plus the rewire appended_delta cannot see.
    const Graph row = make_grid(9, 8);
    GraphBuilder b(row.num_vertices());
    for (VertexId u = 0; u < row.num_vertices(); ++u) {
      for (const VertexId v : row.neighbors(u)) {
        const bool dropped = !repro.add_old_edge && u == 55 && v == 63;
        if (v > u && !dropped) b.add_edge(u, v);
      }
    }
    if (repro.add_old_edge) b.add_edge(0, 63);
    auto inexact = std::make_shared<const Graph>(b.build());

    std::uint64_t digest = 0;
    {
      PartitionService service(durable_config(dir));
      const SessionId id = service.open_session(prev, start, session_config(k));
      EXPECT_THROW(
          service.submit_update(id, inexact, appended_delta(*inexact, 64)),
          Error);
      EXPECT_EQ(service.snapshot(id)->update_epoch, 0u);
      EXPECT_EQ(service.session_stats(id).wal.appends, 0u);
      EXPECT_FALSE(service.session_stats(id).wal_failed);
      // The exact delta for the same graph goes through.
      service.submit_update(id, inexact, diff_graphs(*prev, *inexact));
      EXPECT_EQ(service.snapshot(id)->update_epoch, 1u);
      expect_snapshot_consistent(*service.snapshot(id), k);
      digest = service.session_handle(id)->state_digest();
    }
    PartitionService service(durable_config(dir));
    const auto reports = service.recover(session_config(k));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].final_epoch, 1u);
    EXPECT_EQ(service.session_handle(1)->state_digest(), digest);
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

// Several durable sessions, one client thread each, with background
// refinement racing them and 10% of every fault site failing; then the
// service dies without a close.  Recovery must land every session at or
// past its last ack, on the exact state the service died in: no session
// fail-stopped, so every state change reached its log.
TEST(Durability, ConcurrentFaultStormLosesNoAckedDelta) {
  const PartId k = 4;
  constexpr int kSessions = 4;
  constexpr int kUpdates = 12;
  const std::string dir = fresh_dir("concurrent_storm");
  ServiceConfig sc;
  sc.num_threads = 4;
  sc.durability.dir = dir;
  // Fires once per session mid-stream (~90 damaged vertices per update), so
  // recovery replays a tail of deltas and raced refinements from the log.
  sc.durability.compaction.damage_threshold = 640;
  sc.durability.io_retry.max_attempts = 12;
  sc.durability.io_retry.initial_seconds = 1e-5;
  sc.durability.io_retry.max_seconds = 1e-3;
  SessionConfig cfg;
  cfg.num_parts = k;
  cfg.repair_budget_seconds = 0.0;   // cascade only: refinements find more
  cfg.policy.damage_threshold = 64;  // refinements race the stream
  cfg.policy.staleness_updates = 16;
  cfg.policy.allow_deep = false;
  // Session s streams churn steps s * kUpdates .. (s + 1) * kUpdates.
  const auto step = [](int s, int u) { return s * kUpdates + u; };

  std::vector<SessionId> ids;
  std::vector<std::uint64_t> acked(kSessions, 0);
  std::vector<std::uint64_t> digest_at_death(kSessions, 0);
  {
    PartitionService service(sc);
    for (int s = 0; s < kSessions; ++s) {
      // Bands with 3% of the vertices scrambled leave the refinements work.
      Assignment start = column_bands(32, 32, k);
      Rng rng(0xd07aULL + static_cast<std::uint64_t>(s));
      for (int i = 0; i < 30; ++i) {
        start[rng.uniform_u64(start.size())] =
            static_cast<PartId>(rng.uniform_int(k));
      }
      ids.push_back(
          service.open_session(testing::churn_graph(step(s, 0)), start, cfg));
    }
#ifdef GAPART_TELEMETRY
    Tracer::instance().clear();
    Tracer::instance().enable();
#endif
    {
      // Armed after the opens: their epoch-0 checkpoints are not under a
      // client retry loop.
      ScopedFaultInjection scope(/*seed=*/2026, /*probability=*/0.10);
      std::vector<std::string> errors(kSessions);
      std::vector<std::thread> clients;
      for (int s = 0; s < kSessions; ++s) {
        clients.emplace_back([&, s] {
          const auto i = static_cast<std::size_t>(s);
          auto prev = testing::churn_graph(step(s, 0));
          for (int u = 1; u <= kUpdates; ++u) {
            auto next = testing::churn_graph(step(s, u));
            const GraphDelta delta = diff_graphs(*prev, *next);
            for (;;) {
              try {
                acked[i] = service.submit_update(ids[i], next, delta)
                               .update_epoch;
                break;
              } catch (const std::bad_alloc&) {
                // Injected before any mutation: resubmit the same delta.
              } catch (const std::exception& e) {
                errors[i] = e.what();
                return;
              }
            }
            prev = next;
          }
        });
      }
      for (auto& c : clients) c.join();
      service.quiesce();
      // The scope clears the injector's counters on exit.
      EXPECT_GT(FaultInjector::instance().total_injected(), 0u);
      for (int s = 0; s < kSessions; ++s) {
        const auto i = static_cast<std::size_t>(s);
        EXPECT_EQ(errors[i], "") << "session " << ids[i];
        EXPECT_EQ(acked[i], static_cast<std::uint64_t>(kUpdates));
        EXPECT_FALSE(service.session_stats(ids[i]).wal_failed);
        digest_at_death[i] = service.session_handle(ids[i])->state_digest();
      }
      const ServiceStats st = service.stats();
      EXPECT_GT(st.wal_compactions, 0u);
      EXPECT_GT(st.refinements_planned, 0);
    }
#ifdef GAPART_TELEMETRY
    Tracer& tracer = Tracer::instance();
    tracer.disable();
    std::ostringstream trace;
    tracer.export_chrome_trace(trace);
    tracer.clear();
    const auto spans = testing::parse_trace_spans(trace.str());
    EXPECT_GE(spans.size(), 100u);
    testing::expect_spans_nest(spans);
#endif
  }  // the service dies without a close

  PartitionService service(sc);
  const auto reports = service.recover(cfg);
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kSessions));
  std::size_t replayed = 0;
  for (const RecoveryReport& report : reports) {
    replayed += report.records_replayed;
  }
  EXPECT_GT(replayed, 0u);
  for (int s = 0; s < kSessions; ++s) {
    const auto i = static_cast<std::size_t>(s);
    SCOPED_TRACE("session " + std::to_string(ids[i]));
    EXPECT_EQ(reports[i].session_id, ids[i]);
    EXPECT_GE(reports[i].final_epoch, acked[i]);
    expect_snapshot_consistent(*service.snapshot(ids[i]), k);
    EXPECT_EQ(service.session_handle(ids[i])->state_digest(),
              digest_at_death[i]);
  }
}

// A refinement whose fsync fails after its retries is dropped unlogged, so
// its frame must not stay in the log for recovery to replay.
TEST(Durability, FailedRefinementFsyncLeavesNoRecord) {
  const PartId k = 3;
  const std::string dir = fresh_dir("refine_fsync");
  ServiceConfig sc = durable_config(dir);
  sc.durability.io_retry.max_attempts = 1;
  SessionConfig cfg = session_config(k);
  cfg.repair_budget_seconds = 0.0;  // cascade only: refinement finds more
  cfg.policy.staleness_updates = 1;
  cfg.policy.allow_deep = false;
  Rng rng(7);
  Assignment start(12 * 12);
  for (PartId& p : start) p = static_cast<PartId>(rng.uniform_int(k));
  auto g12 = shared_grid(12, 12);
  auto g13 = shared_grid(13, 12);
  auto g14 = shared_grid(14, 12);

  std::uint64_t digest = 0;
  double fitness = 0.0;
  {
    PartitionService service(sc);
    const SessionId id = service.open_session(g12, start, cfg);
    service.submit_update(id, g13, diff_graphs(*g12, *g13));
    const auto session = service.session_handle(id);
    const auto job = session->plan_refinement();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->depth, RefineDepth::kLight);
    const RefineOutcome out = run_refinement(*job, cfg, Rng(1), nullptr);
    const std::string log = dir + "/session-1/wal.log";
    const auto log_bytes = fs::file_size(log);
    {
      ScopedFaultInjection scope(FaultSite::kWalFsync, /*nth=*/1);
      EXPECT_FALSE(
          session->complete_refinement(*job, out.assignment, out.fitness));
    }
    EXPECT_EQ(service.session_stats(id).refinements_unlogged, 1);
    EXPECT_EQ(fs::file_size(log), log_bytes);
    service.submit_update(id, g14, diff_graphs(*g13, *g14));
    EXPECT_FALSE(service.session_stats(id).wal_failed);
    digest = session->state_digest();
    fitness = service.snapshot(id)->fitness;
  }
  PartitionService service(sc);
  const auto reports = service.recover(cfg);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].records_replayed, 2u);
  EXPECT_EQ(reports[0].final_epoch, 2u);
  EXPECT_EQ(service.snapshot(1)->fitness, fitness);
  EXPECT_EQ(service.session_handle(1)->state_digest(), digest);
}

// A compaction whose log-truncation fsync fails has already renamed CURRENT
// and truncated the log, so the WAL's accounting must describe the log that
// exists: the next append whose fsync fails then rolls back to where its
// frame began, and recovery replays nothing the client was told failed.
TEST(Durability, FailedCompactionFsyncKeepsLogAccounting) {
  const PartId k = 3;
  const std::string dir = fresh_dir("compact_fsync");
  const std::string session_dir = dir + "/session-1";
  ServiceConfig sc = durable_config(dir);
  sc.durability.io_retry.max_attempts = 1;
  auto g12 = shared_grid(12, 12);
  auto g13 = shared_grid(13, 12);
  auto g14 = shared_grid(14, 12);
  auto g15 = shared_grid(15, 12);

  std::uint64_t digest = 0;
  {
    PartitionService service(sc);
    const SessionId id = service.open_session(g12, column_bands(12, 12, k),
                                              session_config(k));
    service.submit_update(id, g13, diff_graphs(*g12, *g13));
    service.submit_update(id, g14, diff_graphs(*g13, *g14));
    const auto session = service.session_handle(id);
    digest = session->state_digest();
    {
      // Two fsyncs write the image, two CURRENT; the fifth is the log's.
      ScopedFaultInjection scope(FaultSite::kWalFsync, /*nth=*/5);
      EXPECT_FALSE(session->compact_now());
    }
    const WalStats st = *session->wal_stats();
    EXPECT_EQ(st.compaction_failures, 1u);
    EXPECT_EQ(fs::file_size(session_dir + "/wal.log"), kWalLogHeaderBytes);
    EXPECT_EQ(st.log_end(), kWalLogHeaderBytes);
    EXPECT_EQ(st.log_records, 0u);
    EXPECT_EQ(st.log_bytes, 0u);
    EXPECT_EQ(st.log_damage, 0);
    EXPECT_EQ(st.snapshot_epoch, 2u);
    EXPECT_FALSE(fs::exists(session_dir + "/snap-0"));
    EXPECT_TRUE(fs::exists(session_dir + "/snap-2"));
    {
      ScopedFaultInjection scope(FaultSite::kWalFsync, /*nth=*/1);
      EXPECT_THROW(service.submit_update(id, g15, diff_graphs(*g14, *g15)),
                   IoError);
    }
    EXPECT_EQ(fs::file_size(session_dir + "/wal.log"), kWalLogHeaderBytes);
  }
  PartitionService service(sc);
  const auto reports = service.recover(session_config(k));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].records_replayed, 0u);
  EXPECT_EQ(reports[0].final_epoch, 2u);
  EXPECT_EQ(service.session_handle(1)->state_digest(), digest);
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

// A durable open that fails leaves nothing: no session the client never got
// an id for, and no partial directory that would make recovery fail.
TEST(Durability, FailedOpenLeavesNoSessionBehind) {
  const PartId k = 3;
  const std::string dir = fresh_dir("failed_open");
  std::uint64_t digest = 0;
  {
    PartitionService service(durable_config(dir));
    auto prev = shared_grid(12, 12);
    const SessionId id = service.open_session(prev, column_bands(12, 12, k),
                                              session_config(k));
    auto next = shared_grid(13, 12);
    service.submit_update(id, next, diff_graphs(*prev, *next));
    digest = service.session_handle(id)->state_digest();
    {
      ScopedFaultInjection scope(FaultSite::kFileWrite, /*nth=*/1);
      EXPECT_THROW(service.open_session(shared_grid(12, 12),
                                        column_bands(12, 12, k),
                                        session_config(k)),
                   IoError);
    }
    EXPECT_EQ(service.num_sessions(), 1);
    EXPECT_EQ(service.session_ids(), std::vector<SessionId>{id});
    EXPECT_FALSE(fs::exists(dir + "/session-2"));
  }
  PartitionService service(durable_config(dir));
  const auto reports = service.recover(session_config(k));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].session_id, 1u);
  EXPECT_EQ(service.session_ids(), std::vector<SessionId>{1});
  EXPECT_EQ(service.session_handle(1)->state_digest(), digest);
}

#else  // !GAPART_FAULT_INJECTION

TEST(Durability, FailedOpenLeavesNoSessionBehind) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(Durability, FaultStormLosesNoAckedDelta) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(Durability, ConcurrentFaultStormLosesNoAckedDelta) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(Durability, FailedRefinementFsyncLeavesNoRecord) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(Durability, FailedCompactionFsyncKeepsLogAccounting) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(Durability, FailStopAfterExhaustedAppendRetries) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}
TEST(Durability, TaskStartFaultAbandonsCleanly) {
  GTEST_SKIP() << "built without GAPART_FAULT_INJECTION";
}

#endif  // GAPART_FAULT_INJECTION

// Ack implies durable at the session layer: each acknowledged update costs
// exactly one fsync and leaves wal.log ending at log_end(), so close() has
// nothing left to flush and syncs nothing.
TEST(Durability, EveryAckIsFsyncedSoCloseSyncsNothing) {
  const PartId k = 3;
  const std::string dir = fresh_dir("ack_fsync");
  ServiceConfig sc = durable_config(dir);
  // Zero thresholds disable compaction: one append per update.
  sc.durability.compaction.damage_threshold = 0;
  sc.durability.compaction.bytes_threshold = 0;
  PartitionService service(sc);
  auto prev = shared_grid(12, 12);
  const SessionId id = service.open_session(prev, column_bands(12, 12, k),
                                            session_config(k));
  const auto session = service.session_handle(id);
  const std::string log = service.session_wal_dir(id) + "/wal.log";
  std::uint64_t fsyncs = session->wal_stats()->fsyncs;
  for (VertexId rows = 13; rows <= 15; ++rows) {
    auto next = shared_grid(rows, 12);
    service.submit_update(id, next, diff_graphs(*prev, *next));
    prev = next;
    const WalStats st = *session->wal_stats();
    EXPECT_EQ(st.fsyncs, fsyncs + 1);
    EXPECT_EQ(st.log_records, static_cast<std::uint64_t>(rows - 12));
    EXPECT_EQ(fs::file_size(log), st.log_end());
    fsyncs = st.fsyncs;
  }
  service.close_session(id);
  ASSERT_TRUE(session->closed());
  EXPECT_EQ(session->wal_stats()->fsyncs, fsyncs);
}

// ---------------------------------------------------------------------------
// Backlog + teardown.

TEST(Durability, FullPipelineUnderBacklog) {
  // A busy pool changes no work: the update still runs its verification
  // rounds, and the refinement it earns is planned and queued behind the
  // backlog that stats() reports.
  const PartId k = 3;
  ServiceConfig sc;
  sc.num_threads = 2;  // exactly one pool worker to occupy
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
  const RepairReport report =
      service.submit_update(id, g13, diff_graphs(*g, *g13));
  EXPECT_GE(report.verify_rounds, 1);
  ServiceStats ss = service.stats();
  EXPECT_EQ(ss.refinements_planned, 1);
  EXPECT_GE(ss.pool_backlog, 2);  // the blocker and the queued refinement

  release.store(true, std::memory_order_release);
  service.quiesce();
  ss = service.stats();
  EXPECT_EQ(ss.pool_backlog, 0);
  EXPECT_EQ(ss.refinements_planned, 1);
  EXPECT_EQ(ss.refinements_applied + ss.refinements_stale +
                ss.refinements_no_better,
            1);
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

// read_file, which recovery reads every snapshot and log through, returns
// the whole file or throws IoError.
TEST(DurabilityIo, ReadFileIsWholeOrTyped) {
  const std::string dir = fresh_dir("ioread");
  std::string content((std::size_t{1} << 20) + 3, '\0');
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<char>(i * 131 % 251);
  }
  write_file_atomic(dir + "/image", content);
  EXPECT_EQ(read_file(dir + "/image"), content);
  write_file_atomic(dir + "/empty", "");
  EXPECT_EQ(read_file(dir + "/empty"), "");
  EXPECT_THROW(read_file(dir + "/missing"), IoError);
  EXPECT_THROW(read_file(dir), IoError);
}

}  // namespace
}  // namespace gapart

// Durability building blocks: CRC framing, the delta codec round-trip, log
// read/append (torn tails vs mid-log corruption), the compaction policy, and
// the retry/backoff loop.
#include "service/wal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/backoff.hpp"
#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "core/graph_delta.hpp"
#include "graph/delta_codec.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "service/refine_policy.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// CRC32 (the frame checksum).

TEST(WalChecksum, KnownVector) {
  // The IEEE 802.3 reference value for the ASCII digits "123456789".
  const std::string digits = "123456789";
  EXPECT_EQ(crc32(digits.data(), digits.size()), 0xCBF43926u);
}

TEST(WalChecksum, ChainableAcrossSplits) {
  const std::string bytes = "write-ahead logs never lie";
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = crc32(bytes.data(), split);
    const std::uint32_t chained =
        crc32(bytes.data() + split, bytes.size() - split, head);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(WalChecksum, SensitiveToEveryByte) {
  std::string bytes = "sensitive";
  const std::uint32_t base = crc32(bytes.data(), bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] ^= 0x01;
    EXPECT_NE(crc32(mutated.data(), mutated.size()), base) << "byte " << i;
  }
}

/// The bytewise table-driven CRC-32 that the sliced kernel replaced, kept as
/// the oracle of both kernels.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t len,
                             std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

TEST(WalChecksum, SlicedKernelMatchesBytewiseReference) {
  Rng rng(0xc3c32);
  std::vector<unsigned char> buf(std::size_t{1} << 20);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next_u64());
  // crc32 folds 64-byte blocks, then 16-byte steps, and slices the rest;
  // crc32_sliced slices everything.  Lengths to 1,100 cover several folds,
  // every 16-byte step count and every tail, at every 16-byte alignment,
  // under the seeds in use: frames and images chain from 0, the content
  // digest seeds its two halves with the other two.
  for (const std::uint32_t seed : {0u, 0x9e3779b9u, 0x85ebca6bu}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t len = 0; len <= 1100; ++len) {
        const unsigned char* p = buf.data() + offset;
        const std::uint32_t want = crc32_bytewise(p, len, seed);
        ASSERT_EQ(crc32_sliced(p, len, seed), want)
            << "sliced: seed " << seed << ", offset " << offset << ", length "
            << len;
        ASSERT_EQ(crc32(p, len, seed), want)
            << "seed " << seed << ", offset " << offset << ", length " << len;
      }
    }
  }
  // The whole buffer, in one call and chained at split points: pieces up
  // to 16 KB, then pieces of 1-300 bytes, whose splits land inside 64-byte
  // blocks and leave tails of every length.
  const std::uint32_t whole = crc32_bytewise(buf.data(), buf.size(), 0);
  EXPECT_EQ(crc32(buf.data(), buf.size()), whole);
  EXPECT_EQ(crc32_sliced(buf.data(), buf.size()), whole);
  for (const std::size_t max_piece : {std::size_t{1} << 14, std::size_t{300}}) {
    std::uint32_t chained = 0;
    for (std::size_t pos = 0; pos < buf.size();) {
      const std::size_t len = std::min<std::size_t>(
          buf.size() - pos, 1 + rng.uniform_u64(max_piece));
      chained = crc32(buf.data() + pos, len, chained);
      pos += len;
    }
    EXPECT_EQ(chained, whole) << "pieces up to " << max_piece << " bytes";
  }
}

// ---------------------------------------------------------------------------
// Delta codec: damage-proportional record bytes -> exact graph rebuild.

TEST(WalCodec, PureGrowthRoundTrip) {
  const Graph prev = make_grid(8, 8);
  const Graph grown = make_grid(10, 8);
  const GraphDelta delta = diff_graphs(prev, grown);

  const std::string bytes = encode_delta(grown, delta);
  // Damage-proportional: two new rows touch far fewer than |V| vertices, so
  // the record must be much smaller than a full snapshot would be.
  EXPECT_LT(bytes.size(), 2000u);

  const DecodedDelta decoded = decode_delta(prev, bytes);
  testing::expect_graphs_identical(decoded.grown, grown);
  EXPECT_EQ(decoded.delta.old_num_vertices, delta.old_num_vertices);
  EXPECT_EQ(decoded.delta.touched_old, delta.touched_old);
}

TEST(WalCodec, ChurnRoundTripWithWeights) {
  // Same vertex set, rewired, reweighted or thinned: every change must come
  // through touched_old rows.  A weight of 0 leaves the edge out.
  struct Shape {
    double chain5 = 1.0;  // edge (5, 6)
    double wrap = 2.0;    // edge (0, 11)
    double chord = 0.0;   // edge (2, 9)
    double vertex3 = 1.0;
    double vertex10 = 1.0;
  };
  const auto build = [](const Shape& s) {
    GraphBuilder b(12);
    for (VertexId v = 0; v + 1 < 12; ++v) {
      b.add_edge(v, v + 1, v == 5 ? s.chain5 : 1.0);
    }
    if (s.wrap > 0) b.add_edge(0, 11, s.wrap);
    if (s.chord > 0) b.add_edge(2, 9, s.chord);
    b.set_vertex_weight(3, s.vertex3);
    b.set_vertex_weight(10, s.vertex10);
    return b.build();
  };
  struct Case {
    const char* name;
    Graph prev;
    Graph grown;
  };
  const Graph churned = build({.chain5 = 3.5, .chord = 0.75, .vertex3 = 4.0});
  const Case cases[] = {
      {"rewired and reweighted", build({}), churned},
      {"edges removed only", build({.wrap = 1.0, .chord = 1.0}),
       build({.wrap = 0.0})},
      // The record is unweighted; the touched row drops the only weight.
      {"weight only in a touched row", build({.wrap = 1.0, .vertex3 = 4.0}),
       build({.wrap = 1.0, .chord = 1.0})},
      // The record is weighted; every weight it carries is 1.
      {"weights only in untouched rows", build({.vertex10 = 2.5}),
       build({.chord = 1.0, .vertex10 = 2.5})},
      {"empty predecessor", Graph(), churned},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const GraphDelta delta = diff_graphs(c.prev, c.grown);
    ASSERT_TRUE(c.prev.num_vertices() == 0 || !delta.touched_old.empty());
    const DecodedDelta decoded =
        decode_delta(c.prev, encode_delta(c.grown, delta));
    testing::expect_graphs_identical(decoded.grown, c.grown);
    EXPECT_EQ(decoded.delta.touched_old, delta.touched_old);
  }
}

TEST(WalCodec, GrowthPlusChurnRoundTrip) {
  // New vertices AND old-old rewiring in one delta.
  GraphBuilder pb(6);
  for (VertexId v = 0; v + 1 < 6; ++v) pb.add_edge(v, v + 1);
  const Graph prev = pb.build();

  GraphBuilder gb(9);
  for (VertexId v = 0; v + 1 < 6; ++v) gb.add_edge(v, v + 1);
  gb.add_edge(1, 4, 2.0);   // old-old churn
  gb.add_edge(5, 6);        // growth attaching to a touched survivor
  gb.add_edge(6, 7);
  gb.add_edge(7, 8);
  gb.add_edge(8, 2, 1.5);   // growth attaching back into the interior
  const Graph grown = gb.build();

  const GraphDelta delta = diff_graphs(prev, grown);
  const DecodedDelta decoded = decode_delta(prev, encode_delta(grown, delta));
  testing::expect_graphs_identical(decoded.grown, grown);
  EXPECT_EQ(decoded.delta.touched_old, delta.touched_old);
}

TEST(WalCodec, RejectsTruncatedAndCorruptBytes) {
  const Graph prev = make_grid(6, 6);
  const Graph grown = make_grid(7, 6);
  const std::string bytes = encode_delta(grown, diff_graphs(prev, grown));

  EXPECT_THROW(decode_delta(prev, std::string_view(bytes).substr(
                                      0, bytes.size() - 4)),
               Error);
  EXPECT_THROW(decode_delta(prev, std::string_view(bytes).substr(1)), Error);
  EXPECT_THROW(decode_delta(prev, ""), Error);
  // Decoding against the wrong previous snapshot must fail the seam checks,
  // not fabricate a graph.
  EXPECT_THROW(decode_delta(make_grid(5, 5), bytes), Error);
}

TEST(WalCodec, RejectsAsymmetricRecordedRows) {
  // A 4x4 grid grows the diagonal (5, 10), written by hand with both
  // endpoints touched.  A record whose rows disagree on the diagonal has no
  // one graph it describes.
  const Graph prev = make_grid(4, 4);
  const auto record = [&prev](bool five_lists_ten, bool ten_lists_five,
                               bool five_lists_four = true) {
    std::string out;
    put<std::uint32_t>(out, 0x32434447u);  // "GDC2"
    put<std::uint8_t>(out, 0);             // unit weights: no weight fields
    put<std::uint32_t>(out, 16);           // old_n
    put<std::uint32_t>(out, 16);           // new_n
    put<std::uint32_t>(out, 2);            // touched survivors 5 and 10
    put<std::uint32_t>(out, 5);
    put<std::uint32_t>(out, 10);
    const auto row = [&](VertexId v, VertexId mate, bool lists_mate) {
      std::vector<VertexId> nbrs(prev.neighbors(v).begin(),
                                 prev.neighbors(v).end());
      if (lists_mate) {
        nbrs.insert(std::upper_bound(nbrs.begin(), nbrs.end(), mate), mate);
      }
      if (v == 5 && !five_lists_four) std::erase(nbrs, 4);
      put<std::uint32_t>(out, static_cast<std::uint32_t>(nbrs.size()));
      for (const VertexId x : nbrs) put<std::uint32_t>(out, x);
    };
    row(5, 10, five_lists_ten);
    row(10, 5, ten_lists_five);
    return out;
  };

  GraphBuilder b(16);
  for (VertexId u = 0; u < 16; ++u) {
    for (const VertexId v : prev.neighbors(u)) {
      if (v > u) b.add_edge(u, v);
    }
  }
  b.add_edge(5, 10);
  const Graph grown = b.build();
  ASSERT_EQ(record(true, true), encode_delta(grown, diff_graphs(prev, grown)));
  testing::expect_graphs_identical(
      decode_delta(prev, record(true, true)).grown, grown);

  EXPECT_THROW(decode_delta(prev, record(false, true)), Error);
  EXPECT_THROW(decode_delta(prev, record(true, false)), Error);
  // Untouched 4 keeps its row, copied verbatim; only 5's new row shows the
  // edge (4, 5) dropped.
  EXPECT_THROW(decode_delta(prev, record(true, true, false)), Error);
}

// ---------------------------------------------------------------------------
// Log file framing.

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/gapart_wal_" + name;
  fs::remove_all(dir);
  return dir;
}

std::unique_ptr<SessionWal> make_wal(const std::string& dir,
                                     DurabilityConfig cfg = {}) {
  cfg.dir = dir;
  const Graph g = make_grid(4, 4);
  Assignment a(16, 0);
  for (std::size_t i = 8; i < 16; ++i) a[i] = 1;
  return SessionWal::create(dir, cfg, testing::image_of(g, a, 2, 0));
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(fs::file_size(path));
}

TEST(WalLog, AppendReadRoundTrip) {
  const std::string dir = fresh_dir("roundtrip");
  {
    auto wal = make_wal(dir);
    wal->append(WalRecordType::kDelta, 1, "first-delta", 5);
    wal->append(WalRecordType::kDelta, 2, "second-delta", 3);
    wal->append(WalRecordType::kRefine, 2, std::string("a\0b", 3), 0);
    const WalStats st = wal->stats();
    EXPECT_EQ(st.appends, 3u);
    EXPECT_EQ(st.log_records, 3u);
    EXPECT_EQ(st.log_damage, 8);
    EXPECT_GE(st.fsyncs, 3u);  // default policy: every record
  }
  const WalReadResult read = read_log_file(dir + "/wal.log");
  EXPECT_FALSE(read.torn_tail);
  ASSERT_EQ(read.records.size(), 3u);
  EXPECT_EQ(read.records[0].type, WalRecordType::kDelta);
  EXPECT_EQ(read.records[0].epoch, 1u);
  EXPECT_EQ(read.records[0].payload, "first-delta");
  EXPECT_EQ(read.records[1].payload, "second-delta");
  EXPECT_EQ(read.records[2].type, WalRecordType::kRefine);
  EXPECT_EQ(read.records[2].payload, std::string("a\0b", 3));
  EXPECT_EQ(read.valid_bytes, file_size(dir + "/wal.log"));
}

TEST(WalLog, TornTailIsDroppedNotFatal) {
  const std::string dir = fresh_dir("torn");
  std::uint64_t after_two = 0;
  {
    auto wal = make_wal(dir);
    wal->append(WalRecordType::kDelta, 1, "one", 1);
    wal->append(WalRecordType::kDelta, 2, "two", 1);
    after_two = file_size(dir + "/wal.log");
    wal->append(WalRecordType::kDelta, 3, "three-longer-payload", 1);
  }
  // Chop bytes off the final record at several depths: partial payload,
  // partial header, a single stray byte.
  for (const std::uint64_t keep :
       {after_two + 30, after_two + 10, after_two + 1}) {
    fs::resize_file(dir + "/wal.log", keep);
    const WalReadResult read = read_log_file(dir + "/wal.log");
    EXPECT_TRUE(read.torn_tail) << "keep=" << keep;
    ASSERT_EQ(read.records.size(), 2u) << "keep=" << keep;
    EXPECT_EQ(read.records[1].payload, "two");
    EXPECT_EQ(read.valid_bytes, after_two);
  }
  // Truncated exactly at a record boundary: clean, no torn tail.
  fs::resize_file(dir + "/wal.log", after_two);
  const WalReadResult read = read_log_file(dir + "/wal.log");
  EXPECT_FALSE(read.torn_tail);
  EXPECT_EQ(read.records.size(), 2u);
}

TEST(WalLog, CorruptionBeforeValidRecordsIsFatal) {
  const std::string dir = fresh_dir("midlog");
  std::uint64_t after_one = 0;
  {
    auto wal = make_wal(dir);
    wal->append(WalRecordType::kDelta, 1, "payload-number-one", 1);
    after_one = file_size(dir + "/wal.log");
    wal->append(WalRecordType::kDelta, 2, "payload-number-two", 1);
  }
  // Flip one payload byte of record 1: its CRC fails, and because record 2
  // still parses, this is mid-log corruption — reading must refuse.
  {
    std::fstream f(dir + "/wal.log",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(after_one) - 4);
    f.put('X');
  }
  EXPECT_THROW(read_log_file(dir + "/wal.log"), WalCorruptError);
}

TEST(WalLog, MissingAndHeaderOnlyFilesReadEmpty) {
  const std::string dir = fresh_dir("empty");
  const WalReadResult missing = read_log_file(dir + "/wal.log");
  EXPECT_FALSE(missing.torn_tail);
  EXPECT_TRUE(missing.records.empty());

  { auto wal = make_wal(dir); }  // create writes the header, no records
  const WalReadResult header_only = read_log_file(dir + "/wal.log");
  EXPECT_FALSE(header_only.torn_tail);
  EXPECT_TRUE(header_only.records.empty());
  EXPECT_EQ(header_only.valid_bytes, file_size(dir + "/wal.log"));
}

TEST(WalLog, ForeignFileIsRejected) {
  const std::string dir = fresh_dir("foreign");
  fs::create_directories(dir);
  {
    std::ofstream f(dir + "/wal.log", std::ios::binary);
    f << "this is not a write-ahead log at all";
  }
  EXPECT_THROW(read_log_file(dir + "/wal.log"), WalCorruptError);
}

TEST(WalLog, CompactTruncatesAndAppendsResume) {
  const std::string dir = fresh_dir("compact");
  DurabilityConfig cfg;
  auto wal = make_wal(dir, cfg);
  wal->append(WalRecordType::kDelta, 1, "aaa", 4);
  wal->append(WalRecordType::kDelta, 2, "bbb", 4);

  const Graph g = make_grid(4, 4);
  const Assignment a(16, 1);
  wal->compact(testing::image_of(g, a, 2, 2));
  WalStats st = wal->stats();
  EXPECT_EQ(st.compactions, 1u);
  EXPECT_EQ(st.snapshot_epoch, 2u);
  EXPECT_EQ(st.log_records, 0u);
  EXPECT_EQ(st.log_damage, 0);

  // The log is empty again and appends pick up after the checkpoint.
  EXPECT_TRUE(read_log_file(dir + "/wal.log").records.empty());
  wal->append(WalRecordType::kDelta, 3, "ccc", 4);
  const WalReadResult read = read_log_file(dir + "/wal.log");
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].epoch, 3u);

  // CURRENT names the new checkpoint; the stale epoch-0 snapshot is gone.
  std::ifstream cur(dir + "/CURRENT");
  std::uint64_t epoch = 99;
  cur >> epoch;
  EXPECT_EQ(epoch, 2u);
  EXPECT_FALSE(fs::exists(dir + "/snap-0"));
  EXPECT_TRUE(fs::exists(dir + "/snap-2"));
}

TEST(WalLog, FsyncPolicyGovernsSyncCount) {
  // Ack implies durable: every append costs exactly one fsync.
  const std::string dir = fresh_dir("fsync_count");
  auto wal = make_wal(dir);
  const std::uint64_t base = wal->stats().fsyncs;  // creation syncs
  for (std::uint64_t i = 1; i <= 7; ++i) {
    wal->append(WalRecordType::kDelta, i, "x", 1);
    EXPECT_EQ(wal->stats().fsyncs - base, i);
  }
}

TEST(WalLog, AssignmentPayloadRoundTrip) {
  const Assignment a = {0, 3, 1, 2, 2, 0, 1};
  std::string payload;
  encode_assignment(payload, a);
  EXPECT_EQ(decode_assignment(payload), a);
  EXPECT_THROW(decode_assignment(payload.substr(0, payload.size() - 1)),
               Error);
  EXPECT_THROW(decode_assignment(""), Error);
}

// ---------------------------------------------------------------------------
// Compaction policy (pure).

TEST(WalCompactionPolicy, TriggersOnDamageOrBytesAboveFloor) {
  CompactionPolicy p;
  p.damage_threshold = 100;
  p.bytes_threshold = 1000;
  p.min_records = 4;

  EXPECT_FALSE(decide_compaction(p, {1000, 10000, 3}));  // below min_records
  EXPECT_FALSE(decide_compaction(p, {99, 999, 10}));     // nothing fired
  EXPECT_TRUE(decide_compaction(p, {100, 0, 4}));        // damage fired
  EXPECT_TRUE(decide_compaction(p, {0, 1000, 4}));       // bytes fired
}

TEST(WalCompactionPolicy, ZeroThresholdsDisable) {
  CompactionPolicy p;
  p.damage_threshold = 0;
  p.bytes_threshold = 0;
  p.min_records = 1;
  EXPECT_FALSE(decide_compaction(p, {1 << 30, 1u << 30, 1000}));
}

// ---------------------------------------------------------------------------
// Retry with exponential backoff.

TEST(WalBackoff, RetriesTransientFailuresWithExponentialSchedule) {
  BackoffPolicy p;
  p.max_attempts = 5;
  p.initial_seconds = 0.001;
  p.multiplier = 2.0;
  p.max_seconds = 0.003;

  int calls = 0;
  std::vector<double> slept;
  const int retries = retry_with_backoff(
      p,
      [&] {
        if (++calls < 4) throw IoError("transient");
      },
      [&](double s) { slept.push_back(s); });
  EXPECT_EQ(retries, 3);
  EXPECT_EQ(calls, 4);
  // 0.001, 0.002, then capped at 0.003.
  ASSERT_EQ(slept.size(), 3u);
  EXPECT_DOUBLE_EQ(slept[0], 0.001);
  EXPECT_DOUBLE_EQ(slept[1], 0.002);
  EXPECT_DOUBLE_EQ(slept[2], 0.003);
}

TEST(WalBackoff, ExhaustionRethrowsAndNonTransientPropagates) {
  BackoffPolicy p;
  p.max_attempts = 3;
  int io_calls = 0;
  EXPECT_THROW(retry_with_backoff(
                   p, [&] { ++io_calls; throw IoError("down"); },
                   [](double) {}),
               IoError);
  EXPECT_EQ(io_calls, 3);

  // Contract violations are not transient: no retry may paper over a bug.
  int logic_calls = 0;
  EXPECT_THROW(retry_with_backoff(
                   p, [&] { ++logic_calls; throw Error("bug"); },
                   [](double) {}),
               Error);
  EXPECT_EQ(logic_calls, 1);

  int ok_calls = 0;
  EXPECT_EQ(retry_with_backoff(p, [&] { ++ok_calls; }, [](double) {}), 0);
  EXPECT_EQ(ok_calls, 1);
}

// ---------------------------------------------------------------------------
// Replication-era additions: the log end the shipper reads up to, live tail
// reads, and snapshot digests in CURRENT.

// Recovery demands a gapless epoch chain: a delta for epoch 3 right after
// epoch 1 means a record is missing, and so does a refinement for an epoch
// the log has not reached.
TEST(WalLog, RecoveryRejectsABrokenEpochChain) {
  for (const WalRecordType second :
       {WalRecordType::kDelta, WalRecordType::kRefine}) {
    const std::string dir = fresh_dir("epoch_gap");
    {
      auto wal = make_wal(dir);
      wal->append(WalRecordType::kDelta, 1, "first", 1);
      wal->append(second, 3, "third", 1);
    }
    EXPECT_THROW(SessionWal::recover(dir, DurabilityConfig{}),
                 WalCorruptError);
  }
}

// Every append is fsynced before it returns, so the shipper's read cap, the
// log's end, is the file's size whatever happened last: an append, an
// append whose fsync failed and was rolled back, or a compaction.
TEST(WalLog, ReadCapIsTheFileSize) {
  DurabilityConfig cfg;
  cfg.io_retry.max_attempts = 1;  // the first failed fsync is final
  const std::string dir = fresh_dir("read_cap");
  const std::string log = dir + "/wal.log";
  auto wal = make_wal(dir, cfg);
  EXPECT_EQ(wal->stats().log_end(), file_size(log));
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    wal->append(WalRecordType::kDelta, epoch, std::string(epoch, 'x'), 1);
    EXPECT_EQ(wal->stats().log_end(), file_size(log));
  }
  const auto records_under_cap = [&] {
    return read_log_tail(log, kWalLogHeaderBytes, wal->stats().log_end())
        .records.size();
  };
  EXPECT_EQ(records_under_cap(), 3u);
#if GAPART_FAULT_INJECTION
  const std::uint64_t before = file_size(log);
  {
    ScopedFaultInjection scope(FaultSite::kWalFsync, /*nth=*/1);
    EXPECT_THROW(wal->append(WalRecordType::kDelta, 4, "lost", 1), IoError);
  }
  EXPECT_EQ(file_size(log), before);
  EXPECT_EQ(wal->stats().log_end(), file_size(log));
  EXPECT_EQ(records_under_cap(), 3u);
#endif
  wal->compact(testing::image_of(make_grid(4, 4), Assignment(16, 0), 2, 3));
  EXPECT_EQ(wal->stats().log_end(), kWalLogHeaderBytes);
  EXPECT_EQ(wal->stats().log_end(), file_size(log));
  EXPECT_EQ(records_under_cap(), 0u);
}

TEST(WalLog, TailReadResumesAtFrameBoundaries) {
  const std::string dir = fresh_dir("tail");
  auto wal = make_wal(dir);
  wal->append(WalRecordType::kDelta, 1, "one", 1);
  wal->append(WalRecordType::kDelta, 2, "two", 1);
  wal->append(WalRecordType::kRefine, 2, "ref", 0);
  const std::string path = dir + "/wal.log";
  const std::uint64_t end = wal->stats().log_end();

  // Full read from the header.
  const WalTail all = read_log_tail(path, kWalLogHeaderBytes, end);
  ASSERT_EQ(all.records.size(), 3u);
  EXPECT_EQ(all.records[0].payload, "one");
  EXPECT_EQ(all.records[2].type, WalRecordType::kRefine);
  EXPECT_EQ(all.end_offset, end);
  ASSERT_EQ(all.ends.size(), 3u);
  EXPECT_EQ(all.ends[2], end);

  // Resume from a recorded boundary: exactly the remaining records.
  const WalTail rest = read_log_tail(path, all.ends[0], end);
  ASSERT_EQ(rest.records.size(), 2u);
  EXPECT_EQ(rest.records[0].payload, "two");

  // A limit strictly inside the second frame stops the read BEFORE it: a
  // frame past the cap must never be shipped.
  const WalTail capped = read_log_tail(path, kWalLogHeaderBytes,
                                       all.ends[1] - 1);
  ASSERT_EQ(capped.records.size(), 1u);
  EXPECT_EQ(capped.end_offset, all.ends[0]);

  // Offset past the file (compaction truncated under the reader) and a
  // missing file both read as empty, never throw.
  EXPECT_TRUE(read_log_tail(path, end + 4096, end + 8192).records.empty());
  EXPECT_TRUE(read_log_tail(dir + "/no-such.log", kWalLogHeaderBytes, end)
                  .records.empty());
}

TEST(WalLog, TailReadTreatsInvalidFrameAsInFlightAppend) {
  const std::string dir = fresh_dir("tail_torn");
  auto wal = make_wal(dir);
  wal->append(WalRecordType::kDelta, 1, "whole", 1);
  const std::string path = dir + "/wal.log";
  const std::uint64_t whole_end = wal->stats().log_end();
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x55\x00\x33", 3);  // a torn append, mid-flight
  }
  // Unlike read_log_file on recovery, a live tail read reports the valid
  // prefix and stops — the torn bytes are tomorrow's complete record.
  const WalTail tail = read_log_tail(path, kWalLogHeaderBytes, whole_end + 3);
  ASSERT_EQ(tail.records.size(), 1u);
  EXPECT_EQ(tail.records[0].payload, "whole");
  EXPECT_EQ(tail.end_offset, whole_end);
}

TEST(WalLog, SnapshotDigestPersistsThroughCurrentFile) {
  const Graph g = make_grid(4, 4);
  Assignment a(16, 0);
  for (std::size_t i = 8; i < 16; ++i) a[i] = 1;
  const std::uint64_t digest = assignment_content_hash(g, a, 2);

  // A follower bootstrapping from a mid-life leader snapshot: epoch (in
  // CURRENT and the image) and digest (in the image) survive recovery.
  const std::string dir = fresh_dir("current_digest");
  DurabilityConfig cfg;
  cfg.dir = dir;
  {
    auto wal = SessionWal::create(dir, cfg,
                                  testing::image_of(g, a, 2, /*epoch=*/7));
    EXPECT_EQ(wal->stats().snapshot_epoch, 7u);
    EXPECT_EQ(wal->stats().snapshot_digest, digest);
  }
  auto rec = SessionWal::recover(dir, cfg);
  EXPECT_EQ(rec.image.epoch, 7u);
  EXPECT_EQ(rec.image.digest, digest);
  EXPECT_TRUE(rec.records.empty());

  // compact() refreshes both.
  auto wal = std::move(rec.wal);
  wal->append(WalRecordType::kDelta, 8, "x", 1);
  SessionImage image = testing::image_of(g, a, 2, 8);
  image.digest = digest ^ 0x1234u;
  wal->compact(image);
  EXPECT_EQ(wal->stats().snapshot_epoch, 8u);
  EXPECT_EQ(wal->stats().snapshot_digest, digest ^ 0x1234u);
  const auto rec2 = SessionWal::recover(dir, cfg);
  EXPECT_EQ(rec2.image.epoch, 8u);
  EXPECT_EQ(rec2.image.digest, digest ^ 0x1234u);
}

}  // namespace
}  // namespace gapart

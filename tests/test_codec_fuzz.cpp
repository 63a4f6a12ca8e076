// Codec fuzz for the decoders that read durable, shipped or external state:
// decode_delta (WAL records, replicated records, the graph section of a
// snapshot), decode_outcome (the logged decisions every record ends with)
// and decode_session_image (WAL snapshots, kOpenSession payloads,
// save_session files) in WalCodecFuzz; the log readers read_log_file and
// read_log_tail, the GARP frame decoder decode_rep_frame and the text graph
// reader read_graph in DecoderFuzz.  Each decoder is fed every truncation
// of a valid encoding plus seeded flips, and may only answer with its value
// or a gapart::Error subclass — never another exception type, never
// undefined behaviour.  Both suite names are in the sanitizer CI jobs'
// filter, so they also run under TSan and ASan+UBSan there.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "core/graph_delta.hpp"
#include "graph/delta_codec.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/partition.hpp"
#include "service/replication.hpp"
#include "service/wal.hpp"
#include "test_util.hpp"

namespace gapart {
namespace {

constexpr int kFlips = 3000;

/// rows x 5 grid plus, optionally, a diagonal (7, 13) that churns two
/// survivors' rows; fractional weights when `weighted`.
Graph fuzz_grid(VertexId rows, bool weighted, bool diagonal) {
  GraphBuilder b(rows * 5);
  for (VertexId v = 0; v < rows * 5; ++v) {
    if (v % 5 != 4) b.add_edge(v, v + 1);
    if (v + 5 < rows * 5) b.add_edge(v, v + 5);
  }
  if (diagonal) b.add_edge(7, 13);
  const Graph g = b.build();
  return weighted ? testing::with_fractional_weights(g) : g;
}

/// `valid` with one seeded byte XORed by a non-zero mask.
std::string flip_one_byte(const std::string& valid, Rng& rng) {
  std::string mutant = valid;
  const auto pos = static_cast<std::size_t>(rng.uniform_u64(valid.size()));
  mutant[pos] = static_cast<char>(mutant[pos] ^ (1 + rng.uniform_int(255)));
  return mutant;
}

/// Passes when `decode(bytes)` returns or throws a gapart::Error.
template <typename Decode>
void expect_only_typed_errors(Decode decode, const std::string& bytes,
                              int flip) {
  try {
    decode(bytes);
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "flip " << flip << ": " << typeid(e).name()
                  << " escaped: " << e.what();
  }
}

/// Every proper prefix of `valid` must be rejected with a typed error.
template <typename Decode>
void expect_truncations_rejected(Decode decode, const std::string& valid) {
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_THROW(decode(valid.substr(0, len)), Error) << "prefix " << len;
  }
}

TEST(WalCodecFuzz, DeltaRecordRejectsTruncationsAndSurvivesFlips) {
  // Growth plus churn against a non-empty predecessor, once unit-weighted
  // and once weighted, so both settings of the weight flag are mutated.
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted rows" : "unit rows");
    const Graph prev = fuzz_grid(6, weighted, false);
    const Graph grown = fuzz_grid(8, weighted, true);
    const std::string valid = encode_delta(grown, diff_graphs(prev, grown));
    const auto decode = [&prev](std::string_view bytes) {
      return decode_delta(prev, bytes);
    };
    testing::expect_graphs_identical(decode(valid).grown, grown);

    expect_truncations_rejected(decode, valid);
    Rng rng(weighted ? 0xf1f2 : 0xf1f1);
    for (int i = 0; i < kFlips; ++i) {
      expect_only_typed_errors(decode, flip_one_byte(valid, rng), i);
    }
  }
}

// A unit graph stays weight-free through every decode: the splice of an
// unweighted record onto a unit predecessor, and a session image's graph.
TEST(WalCodecFuzz, UnitGraphsDecodeWithoutEdgeWeights) {
  const Graph prev = fuzz_grid(6, false, false);
  const Graph grown = fuzz_grid(8, false, true);
  const Graph spliced =
      decode_delta(prev, encode_delta(grown, diff_graphs(prev, grown))).grown;
  testing::expect_graphs_identical(spliced, grown);
  testing::expect_unit_edge_weights(spliced);

  const SessionImage image = decode_session_image(encode_session_image(
      testing::image_of(grown, Assignment(40, 0), 2, /*epoch=*/1)));
  testing::expect_graphs_identical(*image.graph, grown);
  testing::expect_unit_edge_weights(*image.graph);
}

/// rows x 5 grid with the diagonal (7, 13) at `diagonal` and the last
/// vertex at weight `last_vertex`; every other weight is 1.0.
Graph grid_with(VertexId rows, double diagonal, double last_vertex) {
  GraphBuilder b(rows * 5);
  for (VertexId v = 0; v < rows * 5; ++v) {
    if (v % 5 != 4) b.add_edge(v, v + 1);
    if (v + 5 < rows * 5) b.add_edge(v, v + 5);
  }
  b.add_edge(7, 13, diagonal);
  b.set_vertex_weight(rows * 5 - 1, last_vertex);
  return b.build();
}

// Mixed cases keep exact weights: the splice lands on the graph, and the
// unit_weights(), that GraphBuilder builds from the same rows, including
// weighted predecessors whose records leave every edge weight at 1.0.
TEST(WalCodecFuzz, MixedWeightSplicesMatchTheBuilder) {
  struct Case {
    const char* name;
    Graph prev;
    Graph grown;
  };
  const Case cases[] = {
      {"unit predecessor, weighted record", grid_with(6, 1.0, 1.0),
       grid_with(8, 2.5, 1.0)},
      {"weighted predecessor, weighted record", grid_with(6, 2.5, 1.0),
       grid_with(8, 0.75, 1.0)},
      {"weighted predecessor, unweighted record", grid_with(6, 2.5, 1.0),
       grid_with(8, 1.0, 1.0)},
      {"weighted predecessor, weighted record of unit edges",
       grid_with(6, 2.5, 1.0), grid_with(8, 1.0, 3.0)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string record =
        encode_delta(c.grown, diff_graphs(c.prev, c.grown));
    const Graph spliced = decode_delta(c.prev, record).grown;
    testing::expect_graphs_identical(spliced, c.grown);
    if (c.grown.edge_weight(7, 13).value() == 1.0) {
      testing::expect_unit_edge_weights(spliced);
    }
  }
}

TEST(WalCodecFuzz, OutcomeSectionRejectsTruncationsAndSurvivesFlips) {
  // The tail of a kDelta record with 3 appended vertices in a 40-vertex
  // graph, with 1-byte parts (k <= 256) and with 4-byte parts.
  for (const PartId k : {4, 256, 300}) {
    SCOPED_TRACE(::testing::Message() << k << " parts");
    const RepairOutcome outcome{{1, 0, k - 1}, {{39, 2}, {0, k - 1}, {39, 0}}};
    std::string valid;
    encode_outcome(valid, outcome, k);
    EXPECT_EQ(valid.size(), k <= 256 ? 4u + 3 + 3 * 5 : 4u + 3 * 4 + 3 * 8);
    const auto decode = [k](std::string_view bytes) {
      ByteReader in(bytes);
      return decode_outcome(in, 3, 40, k);
    };
    const RepairOutcome out = decode(valid);
    EXPECT_EQ(out.new_parts, outcome.new_parts);
    EXPECT_EQ(out.moves, outcome.moves);
    // Vertex ids are checked against the graph, parts against the session.
    ByteReader smaller_graph(valid);
    EXPECT_THROW(decode_outcome(smaller_graph, 3, 39, k), Error);
    ByteReader fewer_parts(valid);
    EXPECT_THROW(decode_outcome(fewer_parts, 3, 40, k - 1), Error);
    // The section ends the record.
    EXPECT_THROW(decode(valid + '\0'), Error);

    expect_truncations_rejected(decode, valid);
    Rng rng(0x0c0e + static_cast<std::uint64_t>(k));
    for (int i = 0; i < kFlips; ++i) {
      expect_only_typed_errors(decode, flip_one_byte(valid, rng), i);
    }
  }
}

TEST(WalCodecFuzz, SessionImageRejectsTruncationsAndSurvivesFlips) {
  const Graph g = fuzz_grid(6, true, true);
  Assignment a(30);
  for (std::size_t v = 0; v < a.size(); ++v) a[v] = static_cast<PartId>(v % 3);
  SessionImage source = testing::image_of(g, a, 3, /*epoch=*/11);
  source.fitness.objective = Objective::kWorstComm;
  source.fitness.lambda = 0.3;
  // Sums a live state could hold: off from the from-scratch ones in the
  // last bits only.
  source.sums.part_weight[1] = std::nextafter(source.sums.part_weight[1], 0.0);
  source.sums.imbalance_sq = std::nextafter(source.sums.imbalance_sq, 1e9);
  const std::string valid = encode_session_image(source);

  const SessionImage image = decode_session_image(valid);
  EXPECT_EQ(image.num_parts, 3);
  EXPECT_EQ(image.fitness.objective, Objective::kWorstComm);
  EXPECT_EQ(image.fitness.lambda, 0.3);
  EXPECT_EQ(image.epoch, 11u);
  EXPECT_EQ(image.digest, source.digest);
  EXPECT_EQ(image.assignment, a);
  testing::expect_graphs_identical(*image.graph, g);
  EXPECT_EQ(image.sums.part_weight, source.sums.part_weight);
  EXPECT_EQ(image.sums.part_cut, source.sums.part_cut);
  EXPECT_EQ(image.sums.sum_part_cut, source.sums.sum_part_cut);
  EXPECT_EQ(image.sums.imbalance_sq, source.sums.imbalance_sq);
  EXPECT_EQ(image.sums.max_part_cut, source.sums.max_part_cut);
  // A state rebuilt from the image adopts the carried sums.
  const PartitionState state(*image.graph, image.assignment, 3, image.sums);
  EXPECT_EQ(state.part_weight(1), source.sums.part_weight[1]);
  EXPECT_EQ(state.imbalance_sq(), source.sums.imbalance_sq);

  expect_truncations_rejected(decode_session_image, valid);
  Rng rng(0x1a6e);
  for (int i = 0; i < kFlips; ++i) {
    // CRC left stale: no single-byte error gets past the checksum.
    EXPECT_THROW(decode_session_image(flip_one_byte(valid, rng)), Error)
        << "flip " << i;
  }
  // CRC recomputed: the mutant reaches the decoder's own checks, and a
  // mutant that decodes reaches the state's check of the carried sums.
  const auto decode_and_adopt = [](std::string_view bytes) {
    const SessionImage im = decode_session_image(bytes);
    const PartitionState adopted(*im.graph, im.assignment, im.num_parts,
                                 im.sums);
    return adopted.fitness(im.fitness);
  };
  for (int i = 0; i < kFlips; ++i) {
    std::string mutant = flip_one_byte(valid, rng);
    const std::uint32_t crc = crc32(mutant.data(), mutant.size() - 4);
    std::memcpy(mutant.data() + mutant.size() - 4, &crc, sizeof(crc));
    expect_only_typed_errors(decode_and_adopt, mutant, i);
  }
}

// ---------------------------------------------------------------------------
// Log readers, GARP frames and the text graph reader.

constexpr int kBitFlips = 400;

std::string flip_bit(std::string bytes, std::size_t bit) {
  bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
  return bytes;
}

/// A wal.log written by SessionWal under `dir`: kDelta records carrying the
/// delta and outcome bytes of a 5-column grid that grows a row per epoch
/// (toggling a diagonal that rewires two survivors), with a refinement's
/// moves-only kRefine record after epoch 2.  Returns the records in order.
std::vector<WalRecord> write_real_log(const std::string& dir) {
  std::filesystem::remove_all(dir);
  DurabilityConfig cfg;
  cfg.dir = dir;
  Graph prev = fuzz_grid(3, false, false);
  auto wal = SessionWal::create(
      dir, cfg, testing::image_of(prev, Assignment(15, 0), 2, 0));
  std::vector<WalRecord> records;
  const auto append = [&](WalRecordType type, std::uint64_t epoch,
                          std::string payload) {
    wal->append(type, epoch, payload, 1);
    records.push_back({type, epoch, std::move(payload)});
  };
  for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
    const Graph grown =
        fuzz_grid(static_cast<VertexId>(3 + epoch), false, epoch % 2 == 1);
    const RepairOutcome outcome{
        Assignment(5, static_cast<PartId>(epoch % 2)),
        {{0, 1}, {static_cast<VertexId>(epoch), 0}}};
    std::string payload = encode_delta(grown, diff_graphs(prev, grown));
    encode_outcome(payload, outcome, 2);
    append(WalRecordType::kDelta, epoch, std::move(payload));
    if (epoch == 2) {
      std::string moves;
      encode_outcome(moves, RepairOutcome{{}, {{3, 1}, {9, 1}, {3, 0}}}, 2);
      append(WalRecordType::kRefine, epoch, std::move(moves));
    }
    prev = grown;
  }
  return records;
}

/// Replaces the file at `path` with `bytes`.
void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << "cannot write " << path;
}

/// `got` holds the first records of `want`, each unchanged.
void expect_prefix(const std::vector<WalRecord>& got,
                   const std::vector<WalRecord>& want) {
  ASSERT_LE(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i].type) << "record " << i;
    EXPECT_EQ(got[i].epoch, want[i].epoch) << "record " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "record " << i;
  }
}

/// End offset of the file header, then of each record's frame: a frame is
/// its 21-byte header (magic, type, epoch, length, crc) and the payload.
std::vector<std::uint64_t> frame_ends(const std::vector<WalRecord>& records) {
  std::vector<std::uint64_t> ends{kWalLogHeaderBytes};
  for (const WalRecord& r : records) {
    ends.push_back(ends.back() + 21 + r.payload.size());
  }
  return ends;
}

/// Frames wholly inside the first `len` bytes.
std::size_t frames_within(const std::vector<std::uint64_t>& ends,
                          std::uint64_t len) {
  std::size_t n = 0;
  while (n + 1 < ends.size() && ends[n + 1] <= len) ++n;
  return n;
}

TEST(DecoderFuzz, LogFileReadsAPrefixOrRefusesTheLog) {
  const std::string dir = ::testing::TempDir() + "/gapart_fuzz_log_file";
  const std::vector<WalRecord> records = write_real_log(dir);
  const std::string path = dir + "/wal.log";
  const std::string valid = read_file(path);
  const std::vector<std::uint64_t> ends = frame_ends(records);
  ASSERT_EQ(ends.back(), valid.size());

  // A truncation is what a crash mid-append leaves: the whole frames before
  // it, and a torn tail exactly when a partial frame follows them.
  for (std::size_t len = 0; len <= valid.size(); ++len) {
    SCOPED_TRACE(::testing::Message() << "prefix " << len);
    write_bytes(path, valid.substr(0, len));
    const WalReadResult read = read_log_file(path);
    if (len < kWalLogHeaderBytes) {
      EXPECT_TRUE(read.records.empty());
      EXPECT_EQ(read.torn_tail, len > 0);
      continue;
    }
    const std::size_t whole = frames_within(ends, len);
    ASSERT_EQ(read.records.size(), whole);
    expect_prefix(read.records, records);
    EXPECT_EQ(read.valid_bytes, ends[whole]);
    EXPECT_EQ(read.torn_tail, len != ends[whole]);
  }

  // A flipped bit loses its frame and every one after it: the reader keeps
  // the frames before it with the tail torn, or refuses the log.
  Rng rng(0x10f1);
  for (int i = 0; i < kBitFlips; ++i) {
    const auto bit =
        static_cast<std::size_t>(rng.uniform_u64(valid.size() * 8));
    SCOPED_TRACE(::testing::Message() << "bit " << bit);
    write_bytes(path, flip_bit(valid, bit));
    try {
      const WalReadResult read = read_log_file(path);
      EXPECT_TRUE(read.torn_tail);
      EXPECT_LT(read.records.size(), records.size());
      expect_prefix(read.records, records);
    } catch (const WalCorruptError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << typeid(e).name() << " escaped: " << e.what();
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(DecoderFuzz, LogTailReadsAPrefix) {
  const std::string dir = ::testing::TempDir() + "/gapart_fuzz_log_tail";
  const std::vector<WalRecord> records = write_real_log(dir);
  const std::string path = dir + "/wal.log";
  const std::string valid = read_file(path);
  const std::vector<std::uint64_t> ends = frame_ends(records);
  ASSERT_EQ(ends.back(), valid.size());

  const auto expect_tail_prefix = [&](const WalTail& tail) {
    ASSERT_EQ(tail.ends.size(), tail.records.size());
    expect_prefix(tail.records, records);
    for (std::size_t i = 0; i < tail.ends.size(); ++i) {
      EXPECT_EQ(tail.ends[i], ends[i + 1]) << "record " << i;
    }
    EXPECT_EQ(tail.end_offset, ends[tail.records.size()]);
  };

  for (std::size_t len = 0; len <= valid.size(); ++len) {
    SCOPED_TRACE(::testing::Message() << "prefix " << len);
    write_bytes(path, valid.substr(0, len));
    const WalTail tail = read_log_tail(path, kWalLogHeaderBytes, UINT64_MAX);
    EXPECT_EQ(tail.records.size(),
              len < kWalLogHeaderBytes ? 0 : frames_within(ends, len));
    expect_tail_prefix(tail);
  }

  // On a live log an invalid frame is an append in flight, so only a
  // damaged file header makes the tail reader throw.
  Rng rng(0x7a11);
  for (int i = 0; i < kBitFlips; ++i) {
    const auto bit =
        static_cast<std::size_t>(rng.uniform_u64(valid.size() * 8));
    SCOPED_TRACE(::testing::Message() << "bit " << bit);
    write_bytes(path, flip_bit(valid, bit));
    if (bit / 8 < kWalLogHeaderBytes) {
      EXPECT_THROW(read_log_tail(path, kWalLogHeaderBytes, UINT64_MAX),
                   WalCorruptError);
      continue;
    }
    const WalTail tail = read_log_tail(path, kWalLogHeaderBytes, UINT64_MAX);
    EXPECT_LT(tail.records.size(), records.size());
    expect_tail_prefix(tail);
  }
  std::filesystem::remove_all(dir);
}

TEST(DecoderFuzz, RepFramesRejectEveryTruncationAndBitFlip) {
  // One frame of each type, with the payload the shipper or the follower
  // would put in it.
  const Graph g = fuzz_grid(3, false, true);
  const Graph grown = fuzz_grid(4, false, false);
  std::vector<RepFrame> frames(4);
  frames[0].type = RepFrameType::kOpenSession;
  frames[0].payload =
      encode_session_image(testing::image_of(g, Assignment(15, 1), 2, 7));
  frames[1].type = RepFrameType::kRecord;
  frames[1].sub = static_cast<std::uint8_t>(WalRecordType::kDelta);
  frames[1].payload = encode_delta(grown, diff_graphs(g, grown));
  encode_outcome(frames[1].payload, RepairOutcome{Assignment(5, 0), {{2, 1}}},
                 2);
  frames[2].type = RepFrameType::kCompact;
  put<std::uint64_t>(frames[2].payload, 0x0123456789abcdefULL);
  frames[3].type = RepFrameType::kAck;

  for (std::size_t i = 0; i < frames.size(); ++i) {
    RepFrame& frame = frames[i];
    SCOPED_TRACE(::testing::Message()
                 << "frame type " << static_cast<int>(frame.type));
    frame.generation = 3;
    frame.session = 42;
    frame.seq = 10 + i;
    frame.epoch = 7 + i;
    const std::string wire = encode_rep_frame(frame);
    const std::optional<RepFrame> back = decode_rep_frame(wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->type, frame.type);
    EXPECT_EQ(back->sub, frame.sub);
    EXPECT_EQ(back->generation, frame.generation);
    EXPECT_EQ(back->session, frame.session);
    EXPECT_EQ(back->seq, frame.seq);
    EXPECT_EQ(back->epoch, frame.epoch);
    EXPECT_EQ(back->payload, frame.payload);

    for (std::size_t len = 0; len < wire.size(); ++len) {
      EXPECT_FALSE(decode_rep_frame(wire.substr(0, len)).has_value())
          << "prefix " << len;
    }
    for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
      EXPECT_FALSE(decode_rep_frame(flip_bit(wire, bit)).has_value())
          << "bit " << bit;
    }
  }
}

TEST(DecoderFuzz, GraphTextReadsAGraphOrThrowsTyped) {
  const auto decode = [](const std::string& text) {
    std::istringstream is(text);
    return read_graph(is);
  };
  for (const bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "weighted" : "unweighted");
    const Graph g = fuzz_grid(6, weighted, true);
    std::ostringstream os;
    write_graph(os, g);
    const std::string valid = os.str();
    const Graph back = decode(valid);
    EXPECT_EQ(back.num_vertices(), g.num_vertices());
    EXPECT_EQ(back.num_edges(), g.num_edges());

    for (std::size_t len = 0; len < valid.size(); ++len) {
      SCOPED_TRACE("truncated");
      expect_only_typed_errors(decode, valid.substr(0, len),
                               static_cast<int>(len));
    }
    Rng rng(weighted ? 0x7e47 : 0x7e46);
    for (int i = 0; i < kFlips; ++i) {
      const auto bit =
          static_cast<std::size_t>(rng.uniform_u64(valid.size() * 8));
      expect_only_typed_errors(decode, flip_bit(valid, bit), i);
    }
  }
}

}  // namespace
}  // namespace gapart

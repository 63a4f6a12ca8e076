// Codec fuzz for the binary decoders that read durable or shipped state:
// decode_delta (WAL records, replicated records, the graph section of a
// snapshot), decode_outcome (the logged decisions every record ends with)
// and decode_session_image (WAL snapshots, kOpenSession payloads,
// save_session files).  Each decoder is fed every truncation of a
// valid encoding plus seeded single-byte flips, and may only answer with
// its value or a gapart::Error subclass — never another exception type,
// never undefined behaviour.  The suite name matches the sanitizer CI job's
// `Wal` filter, so it also runs under ASan+UBSan there.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
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
#include "graph/partition.hpp"
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

}  // namespace
}  // namespace gapart

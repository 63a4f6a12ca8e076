#include "graph/delta_codec.hpp"

#include <cstdint>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace gapart {

namespace {

constexpr std::uint32_t kCodecMagic = 0x32434447u;  // "GDC2"
constexpr std::uint8_t kWeightedRows = 0x01;        // the one header flag
// magic u32 + flags u8 + old_n u32 + new_n u32 + touched count u32
constexpr std::size_t kHeaderBytes = 17;

void append_vertex_row(std::string& out, const Graph& g, VertexId v,
                       bool weighted) {
  if (weighted) put<double>(out, g.vertex_weight(v));
  const auto nbrs = g.neighbors(v);
  const auto wgts = g.edge_weights(v);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(nbrs.size()));
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    put<std::uint32_t>(out, static_cast<std::uint32_t>(nbrs[i]));
    if (weighted) put<double>(out, wgts[i]);
  }
}

}  // namespace

std::string encode_delta(const Graph& grown, const GraphDelta& delta) {
  const VertexId n_new = grown.num_vertices();
  GAPART_REQUIRE(delta.old_num_vertices >= 0 &&
                     delta.old_num_vertices <= n_new,
                 "delta old vertex count ", delta.old_num_vertices,
                 " out of range for |V| = ", n_new);
  const bool weighted = !grown.unit_weights();
  // A row's head ([weight] + degree) and each of its neighbour slots are
  // both `slot` bytes.  Sizing the record exactly keeps the appends below
  // from reallocating: a snapshot image encodes every row through here.
  const std::size_t slot = weighted ? 12 : 4;
  std::size_t size = kHeaderBytes;
  VertexId prev_id = -1;
  for (const VertexId v : delta.touched_old) {
    GAPART_REQUIRE(v > prev_id && v < delta.old_num_vertices,
                   "touched list must be sorted survivors; got ", v);
    prev_id = v;
    size += 4 + slot * (1 + static_cast<std::size_t>(grown.degree(v)));
  }
  for (VertexId v = delta.old_num_vertices; v < n_new; ++v) {
    size += slot * (1 + static_cast<std::size_t>(grown.degree(v)));
  }

  std::string out;
  out.reserve(size);
  put<std::uint32_t>(out, kCodecMagic);
  put<std::uint8_t>(out, weighted ? kWeightedRows : 0);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(delta.old_num_vertices));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(n_new));
  put<std::uint32_t>(out,
                     static_cast<std::uint32_t>(delta.touched_old.size()));
  for (const VertexId v : delta.touched_old) {
    put<std::uint32_t>(out, static_cast<std::uint32_t>(v));
  }
  for (const VertexId v : delta.touched_old) {
    append_vertex_row(out, grown, v, weighted);
  }
  for (VertexId v = delta.old_num_vertices; v < n_new; ++v) {
    append_vertex_row(out, grown, v, weighted);
  }
  return out;
}

DecodedDelta decode_delta(const Graph& prev, ByteReader& in) {
  GAPART_REQUIRE(in.get<std::uint32_t>() == kCodecMagic,
                 "delta record has wrong magic");
  const auto flags = in.get<std::uint8_t>();
  GAPART_REQUIRE((flags & ~kWeightedRows) == 0, "delta record has unknown ",
                 "flags ", static_cast<int>(flags));
  const bool weighted = (flags & kWeightedRows) != 0;
  const auto old_n32 = in.get<std::uint32_t>();
  const auto new_n32 = in.get<std::uint32_t>();
  GAPART_REQUIRE(old_n32 == static_cast<std::uint32_t>(prev.num_vertices()),
                 "delta record expects a ", old_n32,
                 "-vertex predecessor, got ", prev.num_vertices());
  GAPART_REQUIRE(new_n32 >= old_n32 &&
                     new_n32 <= static_cast<std::uint32_t>(
                                    std::numeric_limits<VertexId>::max()),
                 "implausible grown vertex count ", new_n32);
  const auto old_n = static_cast<VertexId>(old_n32);
  const auto new_n = static_cast<VertexId>(new_n32);

  const auto touched_count = in.get<std::uint32_t>();
  GAPART_REQUIRE(touched_count <= old_n32, "touched count ", touched_count,
                 " exceeds survivor count ", old_n32);
  // Ids take 4 bytes and rows at least a head: reject counts the bytes
  // cannot hold before they size any allocation below.
  const std::uint64_t rows = std::uint64_t{touched_count} + (new_n32 - old_n32);
  GAPART_REQUIRE(
      4 * std::uint64_t{touched_count} + rows * (weighted ? 12 : 4) <=
          in.remaining(),
      "delta record claims ", rows, " rows in ", in.remaining(), " bytes");
  DecodedDelta out;
  out.delta.old_num_vertices = old_n;
  out.delta.touched_old.reserve(touched_count);
  std::vector<bool> recorded(static_cast<std::size_t>(new_n), false);
  VertexId prev_id = -1;
  for (std::uint32_t i = 0; i < touched_count; ++i) {
    const auto v32 = in.get<std::uint32_t>();
    GAPART_REQUIRE(v32 < old_n32, "touched vertex ", v32, " not a survivor");
    const auto v = static_cast<VertexId>(v32);
    GAPART_REQUIRE(v > prev_id, "touched list not sorted ascending at ", v);
    prev_id = v;
    out.delta.touched_old.push_back(v);
    recorded[static_cast<std::size_t>(v)] = true;
  }
  for (VertexId v = old_n; v < new_n; ++v) {
    recorded[static_cast<std::size_t>(v)] = true;
  }

  GraphBuilder b(new_n);

  // Untouched survivors: rows copied verbatim from the predecessor.  Each
  // undirected edge must reach the builder exactly once (duplicates are
  // merged by SUMMING weights), so an untouched-untouched edge is added from
  // its lower endpoint and an untouched-recorded edge is left to the
  // recorded side.
  for (VertexId u = 0; u < old_n; ++u) {
    if (recorded[static_cast<std::size_t>(u)]) continue;
    b.set_vertex_weight(u, prev.vertex_weight(u));
    const auto nbrs = prev.neighbors(u);
    const auto wgts = prev.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v > u && !recorded[static_cast<std::size_t>(v)]) {
        b.add_edge(u, v, wgts[i]);
      }
    }
  }

  // Recorded vertices (touched survivors in record order, then the appended
  // range): rows come from the record.  A recorded-recorded edge is added
  // from its lower endpoint; a recorded-untouched edge is added here, and
  // the seam check below holds it against the predecessor.
  const auto read_row = [&](VertexId r) {
    b.set_vertex_weight(r, weighted ? in.get<double>() : 1.0);
    const auto deg = in.get<std::uint32_t>();
    GAPART_REQUIRE(deg < new_n32, "vertex ", r, " claims degree ", deg,
                   " in a ", new_n32, "-vertex graph");
    VertexId prev_nbr = -1;
    for (std::uint32_t i = 0; i < deg; ++i) {
      const auto x32 = in.get<std::uint32_t>();
      const double w = weighted ? in.get<double>() : 1.0;
      GAPART_REQUIRE(x32 < new_n32, "neighbour ", x32, " out of range");
      const auto x = static_cast<VertexId>(x32);
      GAPART_REQUIRE(x != r, "self-loop on vertex ", r);
      GAPART_REQUIRE(x > prev_nbr, "adjacency of ", r, " not sorted at ", x);
      prev_nbr = x;
      if (!recorded[static_cast<std::size_t>(x)] || x > r) {
        b.add_edge(r, x, w);
      }
    }
  };
  for (const VertexId v : out.delta.touched_old) read_row(v);
  for (VertexId v = old_n; v < new_n; ++v) read_row(v);

  out.grown = b.build();
  check_delta_seam(prev, out.grown, out.delta);
  return out;
}

DecodedDelta decode_delta(const Graph& prev, std::string_view bytes) {
  ByteReader in(bytes);
  DecodedDelta out = decode_delta(prev, in);
  GAPART_REQUIRE(in.remaining() == 0, "delta record has ", in.remaining(),
                 " trailing bytes");
  return out;
}

}  // namespace gapart

#include "sfc/ibp.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "sfc/indexing.hpp"

namespace gapart {

namespace {

/// Grid resolution per axis: 2^kQuantizationBits cells.
constexpr int kQuantizationBits = 10;

}  // namespace

const char* index_scheme_name(IndexScheme s) {
  switch (s) {
    case IndexScheme::kRowMajor:
      return "row-major";
    case IndexScheme::kShuffledRowMajor:
      return "shuffled-row-major";
    case IndexScheme::kHilbert:
      return "hilbert";
  }
  return "unknown";
}

IndexScheme parse_index_scheme(const std::string& name) {
  if (name == "row-major" || name == "rowmajor") return IndexScheme::kRowMajor;
  if (name == "shuffled" || name == "shuffled-row-major" || name == "morton") {
    return IndexScheme::kShuffledRowMajor;
  }
  if (name == "hilbert") return IndexScheme::kHilbert;
  throw Error("unknown index scheme '" + name +
              "' (expected row-major|shuffled|hilbert)");
}

std::vector<std::uint64_t> ibp_indices(const Graph& g,
                                       const IbpOptions& options) {
  GAPART_REQUIRE(g.has_coordinates(),
                 "IBP requires vertex coordinates; this graph has none");
  const auto q = quantize_points(g.coordinates(), kQuantizationBits);
  std::vector<std::uint64_t> idx(q.x.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    // Grid cell: row = quantized y, col = quantized x.
    const std::uint64_t row = q.y[i];
    const std::uint64_t col = q.x[i];
    switch (options.scheme) {
      case IndexScheme::kRowMajor:
        idx[i] =
            row_major_index(row, col, std::uint64_t{1} << kQuantizationBits);
        break;
      case IndexScheme::kShuffledRowMajor:
        idx[i] = morton_index(row, col, kQuantizationBits);
        break;
      case IndexScheme::kHilbert:
        idx[i] = hilbert_index(col, row, kQuantizationBits);
        break;
    }
  }
  return idx;
}

Assignment ibp_partition(const Graph& g, PartId num_parts,
                         const IbpOptions& options) {
  GAPART_REQUIRE(num_parts >= 1, "need at least one part");
  GAPART_REQUIRE(g.num_vertices() >= num_parts, "fewer vertices than parts");
  const auto idx = ibp_indices(g, options);

  std::vector<VertexId> order(static_cast<std::size_t>(g.num_vertices()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&idx](VertexId a, VertexId b) {
    const auto ia = idx[static_cast<std::size_t>(a)];
    const auto ib = idx[static_cast<std::size_t>(b)];
    return ia != ib ? ia < ib : a < b;
  });

  // Coloring: cut the sorted list into num_parts equal-weight sublists.
  Assignment out(static_cast<std::size_t>(g.num_vertices()), 0);
  const double total = g.total_vertex_weight();
  double acc = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const double w = g.vertex_weight(order[i]);
    // Part of the weight midpoint of this vertex.
    auto p = static_cast<PartId>((acc + 0.5 * w) * static_cast<double>(num_parts) /
                                 total);
    p = std::min<PartId>(p, num_parts - 1);
    out[static_cast<std::size_t>(order[i])] = p;
    acc += w;
  }
  return out;
}

}  // namespace gapart

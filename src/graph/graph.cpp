#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/assert.hpp"

namespace gapart {

bool Graph::has_edge(VertexId u, VertexId v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::optional<double> Graph::edge_weight(VertexId u, VertexId v) const {
  const auto nbrs = neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return std::nullopt;
  const auto offset = static_cast<std::size_t>(it - nbrs.begin());
  return edge_weights(u)[offset];
}

double Graph::weighted_degree(VertexId v) const {
  const auto w = edge_weights(v);
  return std::accumulate(w.begin(), w.end(), 0.0);
}

std::string Graph::summary() const {
  std::ostringstream os;
  os << "|V|=" << num_vertices() << " |E|=" << num_edges();
  if (num_vertices() > 0) {
    std::int32_t dmin = degree(0);
    std::int32_t dmax = degree(0);
    for (VertexId v = 1; v < num_vertices(); ++v) {
      dmin = std::min(dmin, degree(v));
      dmax = std::max(dmax, degree(v));
    }
    os << " deg=[" << dmin << "," << dmax << "]";
  }
  os << (unit_weights_ ? " unit-weights" : " weighted");
  if (has_coordinates()) os << " with-coords";
  return os.str();
}

bool Graph::same_rows(const Graph& other, VertexId begin, VertexId end) const {
  GAPART_REQUIRE(0 <= begin && begin <= end && end <= num_vertices() &&
                     end <= other.num_vertices(),
                 "rows [", begin, ", ", end, ") out of range for |V| = ",
                 num_vertices(), " and ", other.num_vertices());
  const auto b = static_cast<std::size_t>(begin);
  const auto e = static_cast<std::size_t>(end);
  const std::int32_t* xa = xadj_.data();
  const std::int32_t* xb = other.xadj_.data();
  // Every degree is equal exactly when every offset of the block differs by
  // the same shift.  Accumulated without an early exit, so it vectorizes.
  const std::int32_t shift = xb[b] - xa[b];
  std::int32_t mismatch = 0;
  for (std::size_t v = b + 1; v <= e; ++v) mismatch |= (xb[v] - xa[v]) ^ shift;
  if (mismatch != 0) return false;

  const auto first = static_cast<std::size_t>(xa[b]);
  const auto other_first = static_cast<std::size_t>(xb[b]);
  const auto len = static_cast<std::size_t>(xa[e]) - first;
  if (!std::equal(adjncy_.data() + first, adjncy_.data() + first + len,
                  other.adjncy_.data() + other_first)) {
    return false;
  }
  if (unit_weights_ && other.unit_weights_) return true;
  // Weights are positive and finite, so equal values have equal bits.  A
  // graph without an edge-weight array has only 1.0 there.
  const auto same_bits = [](const double* x, const double* y, std::size_t k) {
    return k == 0 || std::memcmp(x, y, k * sizeof(double)) == 0;
  };
  const double* wa = ewgt_.empty() ? nullptr : ewgt_.data() + first;
  const double* wb =
      other.ewgt_.empty() ? nullptr : other.ewgt_.data() + other_first;
  if (wa != nullptr && wb != nullptr) {
    if (!same_bits(wa, wb, len)) return false;
  } else if (wa != nullptr || wb != nullptr) {
    const double* w = wa != nullptr ? wa : wb;
    if (!std::all_of(w, w + len, [](double x) { return x == 1.0; })) {
      return false;
    }
  }
  return same_bits(vwgt_.data() + b, other.vwgt_.data() + b, e - b);
}

void Graph::seal(std::int32_t max_degree) {
  const auto is_one = [](double w) { return w == 1.0; };
  if (std::all_of(ewgt_.begin(), ewgt_.end(), is_one)) {
    std::vector<double>().swap(ewgt_);
    ones_.assign(static_cast<std::size_t>(max_degree), 1.0);
  }
  // Summed in vertex order (rebind_grown takes the mean load from this
  // total); n ones sum to exactly n.
  const bool unit_vertices = std::all_of(vwgt_.begin(), vwgt_.end(), is_one);
  total_vwgt_ = unit_vertices
                    ? static_cast<double>(vwgt_.size())
                    : std::accumulate(vwgt_.begin(), vwgt_.end(), 0.0);
  unit_weights_ = unit_vertices && ewgt_.empty();
}

GraphBuilder::GraphBuilder(VertexId num_vertices)
    : num_vertices_(num_vertices) {
  GAPART_REQUIRE(num_vertices >= 0, "negative vertex count ", num_vertices);
}

void GraphBuilder::add_checked_edge(VertexId u, VertexId v, double weight) {
  GAPART_REQUIRE(u >= 0 && u < num_vertices_, "edge endpoint ", u,
                 " out of range [0,", num_vertices_, ")");
  GAPART_REQUIRE(v >= 0 && v < num_vertices_, "edge endpoint ", v,
                 " out of range [0,", num_vertices_, ")");
  GAPART_REQUIRE(weight > 0.0, "edge weight must be positive, got ", weight);
  if (u == v) return;  // self-loops carry no cut information
  if (weight != 1.0 || !wgts_.empty()) {
    wgts_.resize(edges_.size(), 1.0);  // the unit edges added before it
    wgts_.push_back(weight);
  }
  edges_.push_back({u, v});
}

void GraphBuilder::set_vertex_weight(VertexId v, double weight) {
  GAPART_REQUIRE(v >= 0 && v < num_vertices_, "vertex ", v, " out of range");
  GAPART_REQUIRE(weight > 0.0, "vertex weight must be positive, got ", weight);
  if (vwgt_.empty()) vwgt_.assign(static_cast<std::size_t>(num_vertices_), 1.0);
  vwgt_[static_cast<std::size_t>(v)] = weight;
}

void GraphBuilder::set_coordinate(VertexId v, Point2 p) {
  GAPART_REQUIRE(v >= 0 && v < num_vertices_, "vertex ", v, " out of range");
  if (coords_.empty()) coords_.resize(static_cast<std::size_t>(num_vertices_));
  coords_[static_cast<std::size_t>(v)] = p;
}

void GraphBuilder::set_coordinates(std::vector<Point2> coords) {
  GAPART_REQUIRE(static_cast<VertexId>(coords.size()) == num_vertices_,
                 "coordinate count ", coords.size(), " != vertex count ",
                 num_vertices_);
  coords_ = std::move(coords);
}

namespace {

// Rows longer than this (hubs) are sorted in O(d log d) before the merge;
// shorter ones are insertion-sorted by it.
constexpr std::int32_t kInsertionSortMax = 32;

/// Sorts a hub's scattered row by neighbour id, stably when its weights move
/// with the ids, so duplicates keep the order they were added in.
template <bool kWeighted>
void sort_hub_row(VertexId* ids, double* w, std::size_t d,
                  std::vector<std::pair<VertexId, double>>& scratch) {
  if constexpr (!kWeighted) {
    std::sort(ids, ids + d);  // equal unit entries are interchangeable
  } else {
    scratch.clear();
    for (std::size_t i = 0; i < d; ++i) scratch.emplace_back(ids[i], w[i]);
    std::stable_sort(
        scratch.begin(), scratch.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < d; ++i) {
      ids[i] = scratch[i].first;
      w[i] = scratch[i].second;
    }
  }
}

/// Inserts a row's scattered entries [i, end), in the order added, into its
/// sorted and merged output [row, out): each is appended, shifted into
/// place, or merged into the entry with its id, adding its weight, so
/// duplicates sum in the order added.  The output never overtakes the input
/// (out <= i), so this compacts in place.  Without weights it stops at the
/// first duplicate and returns its index, so that the caller can lay down
/// unit weights and go on weighted; otherwise it returns `end`.
template <bool kWeighted>
std::int32_t insert_row(VertexId* adj, double* w, std::int32_t row,
                        std::int32_t& out, std::int32_t i, std::int32_t end) {
  for (; i < end; ++i) {
    const VertexId x = adj[i];
    const double wx = kWeighted ? w[i] : 1.0;
    std::int32_t j = out;
    while (j > row && adj[j - 1] > x) --j;
    if (j > row && adj[j - 1] == x) {
      if constexpr (!kWeighted) return i;
      w[j - 1] += wx;
      continue;
    }
    for (std::int32_t k = out; k > j; --k) {
      adj[k] = adj[k - 1];
      if constexpr (kWeighted) w[k] = w[k - 1];
    }
    adj[j] = x;
    if constexpr (kWeighted) w[j] = wx;
    ++out;
  }
  return end;
}

}  // namespace

Graph GraphBuilder::build() {
  const auto n = static_cast<std::size_t>(num_vertices_);
  // Offsets and cursors are int32 and count every stored direction of every
  // added edge, duplicates included: refuse before allocating anything.
  constexpr auto kMaxEntries =
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  GAPART_REQUIRE(edges_.size() <= kMaxEntries / 2, "graph of ", edges_.size(),
                 " added edges overflows its int32 offsets");
  const std::size_t m2 = edges_.size() * 2;

  // One scatter: count degrees, write both directions of every edge once,
  // in the order added, straight into adjncy_ (and ewgt_ for weighted
  // input), then sort each row stably and merge its duplicates, compacting
  // in place.  Degrees are counted two slots up, so after the prefix sum
  // xadj[v + 1] is row v's start, and the scatter advances it to row v's
  // end.
  Graph g;
  auto& xadj = g.xadj_;
  xadj.assign(n + 2, 0);
  for (const auto& [u, v] : edges_) {
    ++xadj[static_cast<std::size_t>(u) + 2];
    ++xadj[static_cast<std::size_t>(v) + 2];
  }
  std::partial_sum(xadj.begin(), xadj.end(), xadj.begin());
  xadj.pop_back();

  g.adjncy_.resize(m2);
  if (!wgts_.empty()) g.ewgt_.resize(m2);
  VertexId* adj = g.adjncy_.data();
  double* w = g.ewgt_.empty() ? nullptr : g.ewgt_.data();
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const auto [u, v] = edges_[i];
    const auto cu =
        static_cast<std::size_t>(xadj[static_cast<std::size_t>(u) + 1]++);
    const auto cv =
        static_cast<std::size_t>(xadj[static_cast<std::size_t>(v) + 1]++);
    adj[cu] = v;
    adj[cv] = u;
    if (w != nullptr) w[cu] = w[cv] = wgts_[i];
  }

  // Row by row: sort and merge duplicates, compacting in place.  Unit input
  // gets a weight array at its first duplicate, all ones, so every slot not
  // yet written holds its unit weight; a multiplicity is a sum of ones.
  std::vector<std::pair<VertexId, double>> scratch;
  std::int32_t out = 0;
  std::int32_t begin = 0;
  std::int32_t max_degree = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::int32_t end = xadj[u + 1];
    const std::int32_t row = out;
    if (std::adjacent_find(adj + begin, adj + end,
                           std::greater_equal<VertexId>()) == adj + end) {
      // Strictly ascending, so sorted with nothing to merge: read only, and
      // stored again only where earlier merges compacted the output.
      if (out < begin) {
        std::copy(adj + begin, adj + end, adj + out);
        if (w != nullptr) std::copy(w + begin, w + end, w + out);
      }
      out += end - begin;
    } else {
      if (end - begin > kInsertionSortMax) {
        const auto d = static_cast<std::size_t>(end - begin);
        if (w != nullptr) {
          sort_hub_row<true>(adj + begin, w + begin, d, scratch);
        } else {
          sort_hub_row<false>(adj + begin, nullptr, d, scratch);
        }
      }
      std::int32_t i = begin;
      if (w == nullptr) {
        i = insert_row<false>(adj, nullptr, row, out, begin, end);
        if (i < end) {
          g.ewgt_.assign(m2, 1.0);
          w = g.ewgt_.data();
        }
      }
      if (w != nullptr) insert_row<true>(adj, w, row, out, i, end);
    }
    xadj[u + 1] = out;
    max_degree = std::max(max_degree, out - row);
    begin = end;
  }
  g.adjncy_.resize(static_cast<std::size_t>(out));
  if (w != nullptr) g.ewgt_.resize(static_cast<std::size_t>(out));

  // Copy (not move) so the builder stays usable: callers may add more edges
  // and build() again (e.g. connectivity stitching loops).
  if (vwgt_.empty()) {
    g.vwgt_.assign(n, 1.0);
  } else {
    g.vwgt_ = vwgt_;
  }
  g.coords_ = coords_;
  g.seal(max_degree);
  return g;
}

}  // namespace gapart

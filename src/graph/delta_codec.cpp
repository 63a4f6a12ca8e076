#include "graph/delta_codec.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace gapart {

namespace {

constexpr std::uint32_t kCodecMagic = 0x32434447u;  // "GDC2"
constexpr std::uint8_t kWeightedRows = 0x01;        // the one header flag
// magic u32 + flags u8 + old_n u32 + new_n u32 + touched count u32
constexpr std::size_t kHeaderBytes = 17;

// An id's int32 bytes are its u32 wire value (common/bytes.hpp: host byte
// order, little-endian), so a unit-weight row's neighbours go out as one
// block.
static_assert(std::is_same_v<VertexId, std::int32_t>);

void append_vertex_row(std::string& out, const Graph& g, VertexId v,
                       bool weighted) {
  const auto nbrs = g.neighbors(v);
  if (!weighted) {
    put<std::uint32_t>(out, static_cast<std::uint32_t>(nbrs.size()));
    out.append(reinterpret_cast<const char*>(nbrs.data()), nbrs.size_bytes());
    return;
  }
  put<double>(out, g.vertex_weight(v));
  const auto wgts = g.edge_weights(v);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(nbrs.size()));
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    put<std::uint32_t>(out, static_cast<std::uint32_t>(nbrs[i]));
    put<double>(out, wgts[i]);
  }
}

void check_encodable(const Graph& grown, const GraphDelta& delta) {
  GAPART_REQUIRE(delta.old_num_vertices >= 0 &&
                     delta.old_num_vertices <= grown.num_vertices(),
                 "delta old vertex count ", delta.old_num_vertices,
                 " out of range for |V| = ", grown.num_vertices());
  VertexId prev_id = -1;
  for (const VertexId v : delta.touched_old) {
    GAPART_REQUIRE(v > prev_id && v < delta.old_num_vertices,
                   "touched list must be sorted survivors; got ", v);
    prev_id = v;
  }
}

}  // namespace

std::size_t encoded_delta_size(const Graph& grown, const GraphDelta& delta) {
  check_encodable(grown, delta);
  // A row's head ([weight] + degree) and each of its neighbour slots are
  // both `slot` bytes.
  const std::size_t slot = grown.unit_weights() ? 4 : 12;
  std::size_t size = kHeaderBytes;
  for (const VertexId v : delta.touched_old) {
    size += 4 + slot * (1 + static_cast<std::size_t>(grown.degree(v)));
  }
  for (VertexId v = delta.old_num_vertices; v < grown.num_vertices(); ++v) {
    size += slot * (1 + static_cast<std::size_t>(grown.degree(v)));
  }
  return size;
}

void encode_delta(std::string& out, const Graph& grown,
                  const GraphDelta& delta) {
  check_encodable(grown, delta);
  const VertexId n_new = grown.num_vertices();
  const bool weighted = !grown.unit_weights();
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
}

std::string encode_delta(const Graph& grown, const GraphDelta& delta) {
  // Sized exactly, so the appends never reallocate.
  std::string out;
  out.reserve(encoded_delta_size(grown, delta));
  encode_delta(out, grown, delta);
  return out;
}

// Writes the grown graph's arrays in one ascending pass: each run of
// untouched survivors is block-copied from the predecessor with its offsets
// shifted by a constant, and each recorded row — touched survivors, then the
// appended range, both in vertex order — is appended from the record.
// Edge weights are written only from the first entry that is not 1.0 (or
// from the start, when the predecessor stores them), so a unit predecessor
// and an unweighted record give a unit graph with no weight array; a result
// whose weights all come out 1.0 drops its array (Graph::seal).  Graph
// befriends this class.
class GraphSplice {
 public:
  GraphSplice(const Graph& prev, const GraphDelta& delta, VertexId new_n,
              bool weighted, ByteReader& in)
      : prev_(prev),
        touched_(delta.touched_old),
        old_n_(delta.old_num_vertices),
        new_n_(new_n),
        weighted_(weighted),
        write_weights_(!prev.ewgt_.empty()),
        in_(in),
        mate_(touched_.size() + static_cast<std::size_t>(new_n - old_n_)) {}

  Graph splice() {
    entries_ = count_entries();
    g_.xadj_.reserve(static_cast<std::size_t>(new_n_) + 1);
    g_.adjncy_.reserve(entries_);
    if (write_weights_) g_.ewgt_.reserve(entries_);
    g_.vwgt_.reserve(static_cast<std::size_t>(new_n_));
    for (const VertexId t : touched_) {
      copy_survivors(t);
      read_row(t);
    }
    copy_survivors(old_n_);
    for (VertexId v = old_n_; v < new_n_; ++v) read_row(v);
    // Each lower listing matched a distinct upper one, so equal counts
    // leave no upper listing unmatched.
    GAPART_REQUIRE(lower_listings_ == upper_listings_, "delta record lists ",
                   upper_listings_ - lower_listings_,
                   " edge(s) between recorded vertices from one end only");
    g_.seal(max_degree_);
    return std::move(g_);
  }

 private:
  /// Entries of the grown adjacency: the predecessor's, less the touched
  /// survivors' old rows, plus every recorded degree.  Walks the rows on a
  /// copy of the reader, so every row's bytes are known to be there before
  /// anything is allocated from its degree.
  std::size_t count_entries() const {
    ByteReader rows = in_;
    std::uint64_t entries = prev_.adjncy_.size();
    for (const VertexId t : touched_) {
      entries -= static_cast<std::uint64_t>(prev_.degree(t));
    }
    for (std::size_t i = 0; i < mate_.size(); ++i) {
      if (weighted_) rows.take(sizeof(double));
      const auto deg = rows.get<std::uint32_t>();
      GAPART_REQUIRE(deg < static_cast<std::uint32_t>(new_n_), "row ", i,
                     " claims degree ", deg, " in a ", new_n_,
                     "-vertex graph");
      rows.take(std::size_t{deg} * (weighted_ ? 12 : 4));
      entries += deg;
    }
    GAPART_REQUIRE(entries <= static_cast<std::uint64_t>(
                                  std::numeric_limits<std::int32_t>::max()),
                   "grown graph of ", entries,
                   " adjacency entries overflows its int32 offsets");
    return static_cast<std::size_t>(entries);
  }

  /// Untouched survivors [next_, end): the predecessor's rows verbatim.
  void copy_survivors(VertexId end) {
    const auto& xadj = prev_.xadj_;
    const auto from = xadj[static_cast<std::size_t>(next_)];
    const auto to = xadj[static_cast<std::size_t>(end)];
    const auto shift = static_cast<std::int32_t>(g_.adjncy_.size()) - from;
    for (VertexId v = next_; v < end; ++v) {
      const auto next = xadj[static_cast<std::size_t>(v) + 1];
      max_degree_ = std::max(max_degree_,
                             next - xadj[static_cast<std::size_t>(v)]);
      g_.xadj_.push_back(next + shift);
    }
    g_.adjncy_.insert(g_.adjncy_.end(), prev_.adjncy_.begin() + from,
                      prev_.adjncy_.begin() + to);
    if (write_weights_ && prev_.ewgt_.empty()) {
      g_.ewgt_.insert(g_.ewgt_.end(), static_cast<std::size_t>(to - from), 1.0);
    } else if (write_weights_) {
      g_.ewgt_.insert(g_.ewgt_.end(), prev_.ewgt_.begin() + from,
                      prev_.ewgt_.begin() + to);
    }
    g_.vwgt_.insert(g_.vwgt_.end(), prev_.vwgt_.begin() + next_,
                    prev_.vwgt_.begin() + end);
    next_ = end;
  }

  /// Index of x among the recorded rows, or -1 for an unrecorded survivor.
  std::ptrdiff_t row_of(VertexId x) const {
    if (x >= old_n_) {
      return static_cast<std::ptrdiff_t>(touched_.size()) + (x - old_n_);
    }
    const auto it = std::lower_bound(touched_.begin(), touched_.end(), x);
    return it != touched_.end() && *it == x ? it - touched_.begin() : -1;
  }

  /// Recorded vertex r's row, from the record.  An edge to an unrecorded
  /// survivor is left to check_delta_seam; one to a recorded vertex x < r
  /// must match the next unmatched entry above x in x's row, which
  /// mate_[row_of(x)] tracks as r ascends.
  void read_row(VertexId r) {
    const double vw = weighted_ ? in_.get<double>() : 1.0;
    GAPART_REQUIRE(vw > 0.0, "vertex ", r, " has weight ", vw);
    g_.vwgt_.push_back(vw);
    const auto deg = in_.get<std::uint32_t>();  // bounded by count_entries
    auto first_above = static_cast<std::int32_t>(g_.adjncy_.size());
    VertexId last = -1;
    for (std::uint32_t i = 0; i < deg; ++i) {
      const auto x32 = in_.get<std::uint32_t>();
      const double w = weighted_ ? in_.get<double>() : 1.0;
      GAPART_REQUIRE(x32 < static_cast<std::uint32_t>(new_n_), "neighbour ",
                     x32, " out of range");
      const auto x = static_cast<VertexId>(x32);
      GAPART_REQUIRE(x != r, "self-loop on vertex ", r);
      GAPART_REQUIRE(x > last, "adjacency of ", r, " not sorted at ", x);
      GAPART_REQUIRE(w > 0.0, "edge (", r, ", ", x, ") has weight ", w);
      last = x;
      if (w != 1.0 && !write_weights_) start_weights();
      g_.adjncy_.push_back(x);
      if (write_weights_) g_.ewgt_.push_back(w);
      if (x < r) ++first_above;
      const std::ptrdiff_t row = row_of(x);
      if (row < 0) continue;
      if (x > r) {
        ++upper_listings_;
        continue;
      }
      std::int32_t& c = mate_[static_cast<std::size_t>(row)];
      const std::int32_t end = g_.xadj_[static_cast<std::size_t>(x) + 1];
      while (c < end && g_.adjncy_[static_cast<std::size_t>(c)] < r) ++c;
      GAPART_REQUIRE(c < end && g_.adjncy_[static_cast<std::size_t>(c)] == r &&
                         (write_weights_
                              ? g_.ewgt_[static_cast<std::size_t>(c)]
                              : 1.0) == w,
                     "delta record lists edge (", r, ", ", x,
                     ") but not the same edge in the row of ", x);
      ++c;
      ++lower_listings_;
    }
    mate_[static_cast<std::size_t>(row_of(r))] = first_above;
    g_.xadj_.push_back(static_cast<std::int32_t>(g_.adjncy_.size()));
    max_degree_ = std::max(max_degree_, static_cast<std::int32_t>(deg));
    next_ = r + 1;
  }

  /// The first edge weight other than 1.0: from here on the grown graph
  /// stores weights, and every entry written so far weighs 1.0.
  void start_weights() {
    g_.ewgt_.reserve(entries_);
    g_.ewgt_.assign(g_.adjncy_.size(), 1.0);
    write_weights_ = true;
  }

  const Graph& prev_;
  const std::vector<VertexId>& touched_;
  const VertexId old_n_;
  const VertexId new_n_;
  const bool weighted_;  // the record carries weights
  bool write_weights_;   // g_ stores edge weights (see Graph::seal)
  ByteReader& in_;
  Graph g_;
  std::size_t entries_ = 0;        // adjacency entries of the grown graph
  std::int32_t max_degree_ = 0;
  VertexId next_ = 0;              // first vertex not written yet
  // Per recorded row: its next unmatched entry (an int32 offset, as xadj_).
  std::vector<std::int32_t> mate_;
  std::uint64_t lower_listings_ = 0;
  std::uint64_t upper_listings_ = 0;
};

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
  VertexId prev_id = -1;
  for (std::uint32_t i = 0; i < touched_count; ++i) {
    const auto v32 = in.get<std::uint32_t>();
    GAPART_REQUIRE(v32 < old_n32, "touched vertex ", v32, " not a survivor");
    const auto v = static_cast<VertexId>(v32);
    GAPART_REQUIRE(v > prev_id, "touched list not sorted ascending at ", v);
    prev_id = v;
    out.delta.touched_old.push_back(v);
  }

  out.grown = GraphSplice(prev, out.delta, new_n, weighted, in).splice();
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

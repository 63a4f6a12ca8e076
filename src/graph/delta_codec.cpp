#include "graph/delta_codec.hpp"

#include <algorithm>
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

/// Writes vertex v's row at `at` and returns the byte after it.
char* write_row(char* at, const Graph& g, VertexId v, bool weighted) {
  const auto nbrs = g.neighbors(v);
  if (weighted) at = put_at(at, g.vertex_weight(v));
  at = put_at(at, static_cast<std::uint32_t>(nbrs.size()));
  if (!weighted) {
    // Id by id: a mesh row is a few ids, too short for a memcpy call.
    for (const VertexId x : nbrs) at = put_at(at, static_cast<std::uint32_t>(x));
    return at;
  }
  const auto wgts = g.edge_weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    at = put_at(at, static_cast<std::uint32_t>(nbrs[i]));
    at = put_at(at, wgts[i]);
  }
  return at;
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
  const auto appended =
      static_cast<std::size_t>(grown.num_vertices() - delta.old_num_vertices);
  return size + slot * (appended + static_cast<std::size_t>(grown.degree_from(
                                       delta.old_num_vertices)));
}

char* encode_delta(char* out, const Graph& grown, const GraphDelta& delta) {
  check_encodable(grown, delta);
  const VertexId n_new = grown.num_vertices();
  const bool weighted = !grown.unit_weights();
  out = put_at(out, kCodecMagic);
  out = put_at(out, weighted ? kWeightedRows : std::uint8_t{0});
  out = put_at(out, static_cast<std::uint32_t>(delta.old_num_vertices));
  out = put_at(out, static_cast<std::uint32_t>(n_new));
  out = put_at(out, static_cast<std::uint32_t>(delta.touched_old.size()));
  for (const VertexId v : delta.touched_old) {
    out = put_at(out, static_cast<std::uint32_t>(v));
  }
  for (const VertexId v : delta.touched_old) {
    out = write_row(out, grown, v, weighted);
  }
  for (VertexId v = delta.old_num_vertices; v < n_new; ++v) {
    out = write_row(out, grown, v, weighted);
  }
  return out;
}

std::string encode_delta(const Graph& grown, const GraphDelta& delta) {
  std::string out(encoded_delta_size(grown, delta), '\0');
  const char* end = encode_delta(out.data(), grown, delta);
  GAPART_ASSERT(end == out.data() + out.size(), "delta record wrote ",
                end - out.data(), " of its ", out.size(), " bytes");
  return out;
}

// Writes the grown graph's arrays in one ascending pass: each run of
// untouched survivors is block-copied from the predecessor with its offsets
// shifted by a constant, and each recorded row — touched survivors, then the
// appended range, both in vertex order — is read from the record through a
// raw cursor, once count_entries has proven every row's bytes present.
// A touched row is sized on its own; the appended range, which is the whole
// graph for an image, is sized once and written by index.
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
        in_(in) {}

  Graph splice() {
    entries_ = count_entries();
    g_.xadj_.reserve(static_cast<std::size_t>(new_n_) + 1);
    g_.adjncy_.reserve(entries_);
    if (write_weights_) g_.ewgt_.reserve(entries_);
    g_.vwgt_.reserve(static_cast<std::size_t>(new_n_));
    for (const VertexId t : touched_) {
      copy_survivors(t);
      const char* head = cursor_ + (weighted_ ? sizeof(double) : 0);
      size_to(t + 1, static_cast<std::size_t>(pos_) +
                         get_at<std::uint32_t>(head));  // t's degree
      read_rows(t, t + 1);
    }
    copy_survivors(old_n_);
    size_to(new_n_, entries_);
    read_rows(old_n_, new_n_);
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
  /// anything is allocated from its degree, then takes them all for the
  /// cursor.
  std::size_t count_entries() {
    ByteReader rows = in_;
    std::uint64_t entries = prev_.adjncy_.size();
    for (const VertexId t : touched_) {
      entries -= static_cast<std::uint64_t>(prev_.degree(t));
    }
    const std::size_t num_rows =
        touched_.size() + static_cast<std::size_t>(new_n_ - old_n_);
    for (std::size_t i = 0; i < num_rows; ++i) {
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
    cursor_ = in_.take(in_.remaining() - rows.remaining()).data();
    return static_cast<std::size_t>(entries);
  }

  /// Sizes the arrays for vertices [0, vertices) and `entries` adjacency
  /// entries, where they are shorter: the slots a row is written into.
  void size_to(VertexId vertices, std::size_t entries) {
    const auto n = static_cast<std::size_t>(vertices);
    if (g_.xadj_.size() < n + 1) g_.xadj_.resize(n + 1);
    if (g_.vwgt_.size() < n) g_.vwgt_.resize(n);
    if (g_.adjncy_.size() < entries) {
      g_.adjncy_.resize(entries);
      if (write_weights_) g_.ewgt_.resize(entries, 1.0);
    }
  }

  /// Untouched survivors [next_, end): the predecessor's rows verbatim,
  /// their offsets shifted in one block.
  void copy_survivors(VertexId end) {
    const auto first = static_cast<std::size_t>(next_);
    const auto last = static_cast<std::size_t>(end);
    const auto& xadj = prev_.xadj_;
    const auto from = xadj[first];
    const auto to = xadj[last];
    const auto shift = pos_ - from;
    g_.xadj_.resize(last + 1);
    std::int32_t max_degree = max_degree_;
    for (std::size_t v = first; v < last; ++v) {
      g_.xadj_[v + 1] = xadj[v + 1] + shift;
      max_degree = std::max(max_degree, xadj[v + 1] - xadj[v]);
    }
    max_degree_ = max_degree;
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
    pos_ += to - from;
    next_ = end;
  }

  void read_rows(VertexId first, VertexId end) {
    if (weighted_) {
      read_rows<true>(first, end);
    } else {
      read_rows<false>(first, end);
    }
  }

  /// Recorded rows [first, end), from the record, into slots size_to made.
  /// An edge to an unrecorded survivor is left to check_delta_seam; one to
  /// a recorded vertex x < r must sit, with the same weight, in x's row,
  /// which is written and strictly ascending, so a binary search finds it.
  template <bool kWeighted>
  void read_rows(VertexId first, VertexId end) {
    // Locals: the rows' int32 stores could otherwise alias these members.
    const char* at = cursor_;
    auto pos = static_cast<std::size_t>(pos_);
    std::int32_t max_degree = max_degree_;
    const VertexId new_n = new_n_;
    const VertexId old_n = old_n_;
    for (VertexId r = first; r < end; ++r) {
      const double vw = kWeighted ? get_at<double>(at) : 1.0;
      GAPART_REQUIRE(vw > 0.0, "vertex ", r, " has weight ", vw);
      g_.vwgt_[static_cast<std::size_t>(r)] = vw;
      const auto deg = get_at<std::uint32_t>(at);  // by count_entries
      VertexId last = -1;
      for (std::uint32_t i = 0; i < deg; ++i) {
        const auto x32 = get_at<std::uint32_t>(at);
        const double w = kWeighted ? get_at<double>(at) : 1.0;
        GAPART_REQUIRE(x32 < static_cast<std::uint32_t>(new_n), "neighbour ",
                       x32, " out of range");
        const auto x = static_cast<VertexId>(x32);
        GAPART_REQUIRE(x != r, "self-loop on vertex ", r);
        GAPART_REQUIRE(x > last, "adjacency of ", r, " not sorted at ", x);
        GAPART_REQUIRE(w > 0.0, "edge (", r, ", ", x, ") has weight ", w);
        last = x;
        if (kWeighted && w != 1.0 && !write_weights_) start_weights();
        g_.adjncy_[pos] = x;
        if (write_weights_) g_.ewgt_[pos] = w;
        ++pos;
        const bool recorded =
            x >= old_n ||
            std::binary_search(touched_.begin(), touched_.end(), x);
        if (!recorded) continue;
        if (x > r) {
          ++upper_listings_;
          continue;
        }
        const auto row =
            g_.adjncy_.begin() + g_.xadj_[static_cast<std::size_t>(x)];
        const auto row_end =
            g_.adjncy_.begin() + g_.xadj_[static_cast<std::size_t>(x) + 1];
        const auto mate = std::lower_bound(row, row_end, r);
        GAPART_REQUIRE(
            mate != row_end && *mate == r &&
                (write_weights_ ? g_.ewgt_[static_cast<std::size_t>(
                                      mate - g_.adjncy_.begin())]
                                : 1.0) == w,
            "delta record lists edge (", r, ", ", x,
            ") but not the same edge in the row of ", x);
        ++lower_listings_;
      }
      g_.xadj_[static_cast<std::size_t>(r) + 1] =
          static_cast<std::int32_t>(pos);
      max_degree = std::max(max_degree, static_cast<std::int32_t>(deg));
    }
    cursor_ = at;
    pos_ = static_cast<std::int32_t>(pos);
    max_degree_ = max_degree;
    next_ = end;
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
  const char* cursor_ = nullptr;   // the next recorded row's first byte
  Graph g_;
  std::size_t entries_ = 0;        // adjacency entries of the grown graph
  std::int32_t max_degree_ = 0;
  VertexId next_ = 0;              // first vertex not written yet
  std::int32_t pos_ = 0;           // first adjacency entry not written yet
  std::uint64_t lower_listings_ = 0;
  std::uint64_t upper_listings_ = 0;
};

namespace {

struct RecordHeader {
  bool weighted = false;
  VertexId old_n = 0;
  VertexId new_n = 0;
  std::uint32_t touched_count = 0;
};

/// Reads and checks a record's header against a `prev_n`-vertex
/// predecessor, including that the bytes after it can hold the touched ids
/// and a head per row, so no count it returns sizes an allocation the
/// bytes cannot back.
RecordHeader read_header(ByteReader& in, VertexId prev_n) {
  GAPART_REQUIRE(in.get<std::uint32_t>() == kCodecMagic,
                 "delta record has wrong magic");
  const auto flags = in.get<std::uint8_t>();
  GAPART_REQUIRE((flags & ~kWeightedRows) == 0, "delta record has unknown ",
                 "flags ", static_cast<int>(flags));
  RecordHeader h;
  h.weighted = (flags & kWeightedRows) != 0;
  const auto old_n32 = in.get<std::uint32_t>();
  const auto new_n32 = in.get<std::uint32_t>();
  GAPART_REQUIRE(old_n32 == static_cast<std::uint32_t>(prev_n),
                 "delta record expects a ", old_n32,
                 "-vertex predecessor, got ", prev_n);
  GAPART_REQUIRE(new_n32 >= old_n32 &&
                     new_n32 <= static_cast<std::uint32_t>(
                                    std::numeric_limits<VertexId>::max()),
                 "implausible grown vertex count ", new_n32);
  h.old_n = static_cast<VertexId>(old_n32);
  h.new_n = static_cast<VertexId>(new_n32);
  h.touched_count = in.get<std::uint32_t>();
  GAPART_REQUIRE(h.touched_count <= old_n32, "touched count ", h.touched_count,
                 " exceeds survivor count ", old_n32);
  // Ids take 4 bytes and rows at least a head: reject counts the bytes
  // cannot hold before they size any allocation.
  const std::uint64_t rows =
      std::uint64_t{h.touched_count} + (new_n32 - old_n32);
  GAPART_REQUIRE(
      4 * std::uint64_t{h.touched_count} + rows * (h.weighted ? 12 : 4) <=
          in.remaining(),
      "delta record claims ", rows, " rows in ", in.remaining(), " bytes");
  return h;
}

}  // namespace

VertexId delta_grown_vertices(VertexId prev_n, std::string_view record) {
  ByteReader in(record);
  return read_header(in, prev_n).new_n;
}

DecodedDelta decode_delta(const Graph& prev, ByteReader& in) {
  const RecordHeader h = read_header(in, prev.num_vertices());
  DecodedDelta out;
  out.delta.old_num_vertices = h.old_n;
  out.delta.touched_old.reserve(h.touched_count);
  VertexId prev_id = -1;
  for (std::uint32_t i = 0; i < h.touched_count; ++i) {
    const auto v32 = in.get<std::uint32_t>();
    GAPART_REQUIRE(v32 < static_cast<std::uint32_t>(h.old_n), "touched vertex ",
                   v32, " not a survivor");
    const auto v = static_cast<VertexId>(v32);
    GAPART_REQUIRE(v > prev_id, "touched list not sorted ascending at ", v);
    prev_id = v;
    out.delta.touched_old.push_back(v);
  }

  out.grown = GraphSplice(prev, out.delta, h.new_n, h.weighted, in).splice();
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

// Binary codec for graph deltas: the damage-proportional wire format the
// durability layer logs, and the one binary graph encoding in gapart.
//
// A serialized delta carries exactly what the grown graph changed relative
// to its predecessor — the appended vertex range and the *new* adjacency of
// every touched survivor — so one record costs O(damage * degree) bytes,
// never O(V + E).  This is what makes a delta WAL cheaper than logging graph
// snapshots.  A whole graph is the delta from the empty graph
// (`GraphDelta{0, {}}` against `Graph()`), which is how the session image
// (service/wal.hpp) stores one.
//
// Layout (host byte order, little-endian on every supported target):
//
//   header   magic u32 "GDC2" | flags u8 | old_n u32 | new_n u32 |
//            touched count u32 | touched survivor ids u32, ascending
//   row      [vertex weight f64] | degree u32 |
//            degree x (neighbour u32 [edge weight f64]), ascending
//
// one row per touched survivor (in id order), then one per appended vertex
// old_n..new_n-1.  Weights are written only when the grown graph is not
// unit-weighted, signalled by flag bit 0; without it decode fills in 1.0.
//
// decode_delta splices the grown graph from the predecessor and the record
// in one ascending pass: each run of untouched survivors is block-copied
// from the predecessor's arrays, and each recorded row is appended from the
// record.  That is an O(V + E) sequential copy, no edge list is built, and
// the result is the graph GraphBuilder would build from the same rows, bit
// for bit, stored alike: a unit predecessor and an unweighted record write
// no edge-weight array (graph/graph.hpp), so replaying a unit graph moves
// only its offsets, neighbour ids and vertex weights.  The contract that
// makes the copy safe, checked on every decode (gapart::Error otherwise, so
// a corrupt or inexact record never becomes a silently wrong graph):
//   * the delta is exact (diff_graphs exact): touched_old lists every
//     survivor whose adjacency, edge weights or vertex weight changed, and
//     the seam between recorded and untouched vertices agrees with the
//     predecessor both ways (check_delta_seam);
//   * every edge between two recorded vertices is listed by both, with the
//     same weight;
//   * rows are sorted without duplicates or self-loops, ids in range, and
//     every weight positive.
//
// Coordinates are deliberately not carried: the repair/refinement pipeline
// never reads them after initialization.  Reconstructed graphs are
// coordinate-free.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "core/graph_delta.hpp"
#include "graph/graph.hpp"

namespace gapart {

/// Serializes (grown, delta) into a self-contained record payload of
/// O(damage * degree) bytes.  `delta` must be exact for `grown` (see file
/// comment); old_num_vertices must not exceed |grown|.
std::string encode_delta(const Graph& grown, const GraphDelta& delta);
/// As above, writing the record's encoded_delta_size(grown, delta) bytes
/// at `out` through one cursor and returning the byte after them: a caller
/// that embeds the record in a larger buffer (the session image) sizes it
/// with encoded_delta_size first.
char* encode_delta(char* out, const Graph& grown, const GraphDelta& delta);
/// Byte length of encode_delta(grown, delta); throws as encode_delta does.
std::size_t encoded_delta_size(const Graph& grown, const GraphDelta& delta);

struct DecodedDelta {
  Graph grown;       ///< Reconstructed grown graph (no coordinates).
  GraphDelta delta;  ///< The delta as originally described.
};

/// Splices the grown graph from the previous snapshot and a record written
/// by encode_delta.  Throws gapart::Error on malformed/inconsistent bytes
/// (framing CRCs upstream make this unreachable for honest torn writes; the
/// validation here is the defense against logic-level corruption).
DecodedDelta decode_delta(const Graph& prev, std::string_view bytes);
/// As above, reading one record from `in` and leaving the bytes after it
/// (a WAL record's outcome section) unread.
DecodedDelta decode_delta(const Graph& prev, ByteReader& in);

/// The vertex count of the graph a record grows a `prev_n`-vertex
/// predecessor to (its header's new_n), without splicing: what replay will
/// reach, so recovery can size for it up front.  Throws gapart::Error on a
/// header decode_delta would reject.
VertexId delta_grown_vertices(VertexId prev_n, std::string_view record);

}  // namespace gapart

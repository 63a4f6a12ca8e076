// Index-Based Partitioning (paper appendix; Ou, Ranka & Fox 1993).
//
// Three phases: (1) indexing — every vertex's coordinates are quantized and
// converted to a one-dimensional index that preserves spatial proximity;
// (2) sorting — vertices are ordered by index; (3) coloring — the sorted
// list is cut into num_parts equal-weight sublists.  Fast and balanced;
// the paper uses it to seed the GA's initial population (§3.5, Table 1).
#pragma once

#include <string>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace gapart {

enum class IndexScheme {
  kRowMajor,          ///< quantized row-major scan
  kShuffledRowMajor,  ///< bit-interleaved (Morton) — the appendix's default
  kHilbert,           ///< Hilbert curve (locality-stronger extension)
};

const char* index_scheme_name(IndexScheme s);
IndexScheme parse_index_scheme(const std::string& name);

/// Coordinates are quantized to a 2^10 x 2^10 grid before indexing.
struct IbpOptions {
  IndexScheme scheme = IndexScheme::kShuffledRowMajor;
};

/// Partitions `g` (which must carry coordinates) into num_parts parts of
/// equal vertex weight (within one vertex for unit weights).
Assignment ibp_partition(const Graph& g, PartId num_parts,
                         const IbpOptions& options = {});

/// The 1-D indices phase alone (exposed for tests and Figure 1).
std::vector<std::uint64_t> ibp_indices(const Graph& g,
                                       const IbpOptions& options = {});

}  // namespace gapart

// Recursive Spectral Bisection (Pothen, Simon & Liou 1990; Simon 1991) —
// the strongest classical baseline the paper compares its GA against.
//
// Each recursion level sorts the (sub)graph's vertices by their Fiedler
// vector component and splits at the weighted median (proportionally for odd
// part counts).  Disconnected subgraphs — possible after earlier splits —
// are handled by packing whole components, using BFS order inside the
// component that straddles the split point.
#pragma once

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace gapart {

/// Partitions `g` into `num_parts` parts.  num_parts may be any value >= 1
/// (powers of two reproduce the paper's setting).  Fiedler vectors take
/// fiedler_vector's default options.
Assignment rsb_partition(const Graph& g, PartId num_parts, Rng& rng);

/// Single spectral bisection step exposed for tests: returns the side
/// (0/1) of each vertex, with ceil(weight/2) on side 0.
Assignment spectral_bisect(const Graph& g, Rng& rng);

}  // namespace gapart

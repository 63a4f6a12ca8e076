#include "spectral/rsb.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "graph/components.hpp"
#include "graph/recursive_split.hpp"
#include "spectral/fiedler.hpp"

namespace gapart {

namespace {

/// Spectral split order: Fiedler-value order when the subgraph is connected,
/// component-packed BFS order otherwise (the Fiedler vector is undefined for
/// disconnected graphs).
std::vector<VertexId> spectral_order(const Graph& g, Rng& rng) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  if (n <= 2) return order;

  if (!is_connected(g)) return component_packed_bfs_order(g);

  const auto f = fiedler_vector(g, rng);
  std::sort(order.begin(), order.end(), [&f](VertexId a, VertexId b) {
    const double fa = f[static_cast<std::size_t>(a)];
    const double fb = f[static_cast<std::size_t>(b)];
    return fa != fb ? fa < fb : a < b;
  });
  return order;
}

}  // namespace

Assignment rsb_partition(const Graph& g, PartId num_parts, Rng& rng) {
  return recursive_split_partition(g, num_parts, rng, spectral_order);
}

Assignment spectral_bisect(const Graph& g, Rng& rng) {
  return rsb_partition(g, 2, rng);
}

}  // namespace gapart

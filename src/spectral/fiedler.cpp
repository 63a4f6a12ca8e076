#include "spectral/fiedler.hpp"

#include "common/assert.hpp"
#include "graph/components.hpp"
#include "spectral/eigen.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/laplacian.hpp"

namespace gapart {

namespace {

EigenPair fiedler_pair(const Graph& g, Rng& rng,
                       const FiedlerOptions& options) {
  const VertexId n = g.num_vertices();
  GAPART_REQUIRE(n >= 2, "Fiedler vector needs at least two vertices");
  GAPART_REQUIRE(is_connected(g),
                 "Fiedler vector is only defined for connected graphs");

  if (n <= options.dense_threshold) {
    auto ed = jacobi_eigen(dense_laplacian(g), static_cast<int>(n));
    EigenPair pair;
    pair.value = ed.values[1];  // values[0] ~ 0 (kernel)
    pair.vector = ed.eigenvector(1);
    return pair;
  }
  return fiedler_pair_lanczos(g, rng).pair;
}

}  // namespace

std::vector<double> fiedler_vector(const Graph& g, Rng& rng,
                                   const FiedlerOptions& options) {
  return fiedler_pair(g, rng, options).vector;
}

double algebraic_connectivity(const Graph& g, Rng& rng,
                              const FiedlerOptions& options) {
  return fiedler_pair(g, rng, options).value;
}

}  // namespace gapart

// Fiedler vector computation with automatic method dispatch: exact dense
// Jacobi for small graphs, Lanczos for the rest.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace gapart {

struct FiedlerOptions {
  /// Graphs at or below this size use the dense exact path; larger ones run
  /// Lanczos with its default options.
  VertexId dense_threshold = 96;
};

/// Fiedler vector (eigenvector of the second smallest Laplacian eigenvalue)
/// of connected graph `g`.  Throws for |V| < 2 or disconnected graphs.
std::vector<double> fiedler_vector(const Graph& g, Rng& rng,
                                   const FiedlerOptions& options = {});

/// Second smallest Laplacian eigenvalue (algebraic connectivity).
double algebraic_connectivity(const Graph& g, Rng& rng,
                              const FiedlerOptions& options = {});

}  // namespace gapart

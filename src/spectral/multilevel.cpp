#include "spectral/multilevel.hpp"

#include <algorithm>

#include "baselines/kl.hpp"
#include "common/assert.hpp"
#include "graph/coarsen.hpp"
#include "graph/partition.hpp"
#include "spectral/rsb.hpp"

namespace gapart {

namespace {

/// KL passes after each prolongation (and on the coarsest level).
constexpr int kKlPassesPerLevel = 4;

}  // namespace

Assignment multilevel_partition(const Graph& g, PartId num_parts, Rng& rng,
                                const MultilevelOptions& options) {
  GAPART_REQUIRE(num_parts >= 1, "need at least one part");
  GAPART_REQUIRE(g.num_vertices() >= num_parts, "fewer vertices than parts");

  const VertexId target = std::max<VertexId>(
      num_parts * options.coarse_vertices_per_part, num_parts);
  const auto hierarchy = coarsen_to(g, target, rng);

  Assignment assignment = rsb_partition(hierarchy.coarsest(g), num_parts, rng);

  KlOptions kl;
  kl.fitness = options.fitness;
  kl.max_passes = kKlPassesPerLevel;

  // Refine the coarsest solution, then project up through the hierarchy,
  // refining after every prolongation (the shared uncoarsening driver).
  return uncoarsen_with_refinement(
      g, hierarchy, std::move(assignment), num_parts,
      [&kl](PartitionState& state, std::size_t) { kl_refine(state, kl); });
}

}  // namespace gapart

#include "core/contracted_ga.hpp"

#include <algorithm>
#include <utility>

#include "baselines/kl.hpp"
#include "common/assert.hpp"
#include "core/init.hpp"
#include "graph/coarsen.hpp"
#include "graph/partition.hpp"

namespace gapart {

namespace {

/// KL passes after each prolongation.
constexpr int kKlPassesPerLevel = 4;

}  // namespace

ContractedGaResult contracted_ga_partition(const Graph& g,
                                           const ContractedGaOptions& options,
                                           Rng& rng) {
  const PartId k = options.dpga.ga.num_parts;
  GAPART_REQUIRE(g.num_vertices() >= k, "fewer vertices than parts");

  const VertexId target = std::max<VertexId>(
      k * options.coarse_vertices_per_part, 2 * k);
  const auto hierarchy = coarsen_to(g, target, rng);
  const Graph& coarsest = hierarchy.coarsest(g);

  ContractedGaResult result;
  result.coarse_vertices = coarsest.num_vertices();
  result.levels = static_cast<int>(hierarchy.num_levels());

  auto initial = make_random_population(coarsest.num_vertices(), k,
                                        options.dpga.ga.population_size, rng);
  result.ga = run_dpga(coarsest, options.dpga, std::move(initial), rng.split());

  KlOptions kl;
  kl.fitness = options.dpga.ga.fitness;
  kl.max_passes = kKlPassesPerLevel;
  result.assignment = uncoarsen_with_refinement(
      g, hierarchy, result.ga.best, k,
      [&kl](PartitionState& state, std::size_t) { kl_refine(state, kl); },
      /*refine_coarsest=*/false);
  return result;
}

}  // namespace gapart

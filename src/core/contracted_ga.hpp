// GA partitioning behind a prior graph-contraction step — the scaling path
// the paper's conclusion prescribes for "graphs much larger than those
// explored in this paper".
//
// The graph is contracted by heavy-edge matching until it is small enough
// for the GA to search effectively; the (weighted) coarse graph is
// partitioned by the DPGA, and the solution is projected back up the
// hierarchy with KL refinement at every level.
#pragma once

#include "core/dpga.hpp"
#include "core/presets.hpp"
#include "graph/types.hpp"

namespace gapart {

struct ContractedGaOptions {
  /// Coarsening stops near num_parts * coarse_vertices_per_part vertices.
  VertexId coarse_vertices_per_part = 40;
  DpgaConfig dpga;

  ContractedGaOptions()
      : dpga(paper_dpga_config(2, Objective::kTotalComm)) {}
};

struct ContractedGaResult {
  Assignment assignment;
  VertexId coarse_vertices = 0;  ///< size of the graph the GA actually saw
  int levels = 0;
  DpgaResult ga;                 ///< the coarse-level GA run
};

ContractedGaResult contracted_ga_partition(const Graph& g,
                                           const ContractedGaOptions& options,
                                           Rng& rng);

}  // namespace gapart

// The deterministic incremental-assignment strawman named in the paper's
// conclusion: "a simple deterministic algorithm that assigns new nodes to
// the part to which most of its nearest neighbors belong".  The paper argues
// its GA beats this; the incremental benches measure exactly that claim.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace gapart {

/// Extends `previous` (an assignment of the first |previous| vertices of
/// `grown`) to all of `grown`: old vertices keep their part; new vertices
/// are processed most-constrained-first and take the majority part among
/// their already-assigned neighbours, ties (and isolated vertices) broken by
/// the lightest part, then lowest part id.
Assignment greedy_incremental_assign(const Graph& grown,
                                     const Assignment& previous,
                                     PartId num_parts);

/// The kernel behind greedy_incremental_assign and repair_step's extension
/// tier: the parts of the new vertices [|previous|, |grown|) only, given the
/// old vertices' parts and the current part weights (one entry per part;
/// the load the lightest-part tie-break starts from).
/// O(new * deg + new log new + k) — it never scans the old vertices, so a
/// live session's per-delta extension stays proportional to the growth.
/// `previous` is trusted: every entry must lie in [0, part_weight.size()).
std::vector<PartId> greedy_extend_parts(const Graph& grown,
                                        std::span<const PartId> previous,
                                        std::vector<double> part_weight);

}  // namespace gapart

#include "baselines/greedy_incremental.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <vector>

#include "common/assert.hpp"
#include "graph/connectivity_scratch.hpp"

namespace gapart {

Assignment greedy_incremental_assign(const Graph& grown,
                                     const Assignment& previous,
                                     PartId num_parts) {
  const auto n_old = static_cast<VertexId>(previous.size());
  GAPART_REQUIRE(n_old <= grown.num_vertices(),
                 "previous assignment larger than grown graph");
  GAPART_REQUIRE(num_parts >= 1, "need at least one part");
  for (PartId p : previous) {
    GAPART_REQUIRE(p >= 0 && p < num_parts, "previous assignment part ", p,
                   " out of range");
  }

  std::vector<double> part_weight(static_cast<std::size_t>(num_parts), 0.0);
  for (VertexId v = 0; v < n_old; ++v) {
    part_weight[static_cast<std::size_t>(
        previous[static_cast<std::size_t>(v)])] += grown.vertex_weight(v);
  }
  const std::vector<PartId> added =
      greedy_extend_parts(grown, previous, std::move(part_weight));
  Assignment out = previous;
  out.insert(out.end(), added.begin(), added.end());
  return out;
}

std::vector<PartId> greedy_extend_parts(const Graph& grown,
                                        std::span<const PartId> previous,
                                        std::vector<double> part_weight) {
  const VertexId n = grown.num_vertices();
  const auto n_old = static_cast<VertexId>(previous.size());
  GAPART_REQUIRE(n_old <= n, "previous assignment larger than grown graph");
  GAPART_REQUIRE(!part_weight.empty(), "need at least one part");
  const auto k = static_cast<PartId>(part_weight.size());

  const auto n_new = static_cast<std::size_t>(n - n_old);
  std::vector<PartId> parts(n_new, -1);
  const auto part_of = [&](VertexId u) -> PartId {
    return u < n_old ? previous[static_cast<std::size_t>(u)]
                     : parts[static_cast<std::size_t>(u - n_old)];
  };

  // Assigned-neighbour counts maintained incrementally: +1 to each pending
  // neighbour when a vertex gets its part, instead of rescanning every
  // pending adjacency list per pick.
  std::vector<std::int32_t> assigned_nbrs(n_new, 0);

  // Most-constrained-first ("most assigned neighbours, ties toward the
  // lowest vertex id") via a lazy bucket queue instead of an O(P) scan per
  // pick: buckets[c] is a min-heap (by id) of vertices pushed when their
  // count reached c.  Counts only grow, so every pending vertex keeps a
  // live entry in buckets[count(v)] and entries left in lower buckets are
  // stale — discarded at pop.  Total pushes are O(new + E), each pop
  // O(log), versus Theta(P^2) for the scan; the heap makes the pick the
  // lowest id in the highest bucket, bit-identical to the scan's tie-break.
  using MinIdHeap =
      std::priority_queue<VertexId, std::vector<VertexId>, std::greater<>>;
  std::vector<MinIdHeap> buckets;
  std::int32_t cur_max = 0;
  const auto push_bucket = [&](VertexId v, std::int32_t c) {
    if (static_cast<std::size_t>(c) >= buckets.size()) {
      buckets.resize(static_cast<std::size_t>(c) + 1);
    }
    buckets[static_cast<std::size_t>(c)].push(v);
    cur_max = std::max(cur_max, c);
  };
  for (VertexId v = n_old; v < n; ++v) {
    std::int32_t c = 0;
    for (VertexId u : grown.neighbors(v)) c += part_of(u) >= 0;
    assigned_nbrs[static_cast<std::size_t>(v - n_old)] = c;
    push_bucket(v, c);
  }

  // Edge-weighted majority votes accumulate in an epoch-stamped scratch:
  // no per-vertex allocation, no O(num_parts) clear.
  ConnectivityScratch votes(static_cast<std::size_t>(k));

  for (std::size_t remaining = n_new; remaining > 0; --remaining) {
    VertexId v = -1;
    while (v < 0) {
      auto& bucket = buckets[static_cast<std::size_t>(cur_max)];
      if (bucket.empty()) {
        --cur_max;
        continue;
      }
      const VertexId cand = bucket.top();
      bucket.pop();
      if (parts[static_cast<std::size_t>(cand - n_old)] < 0 &&
          assigned_nbrs[static_cast<std::size_t>(cand - n_old)] == cur_max) {
        v = cand;
      }
    }

    votes.begin();
    const auto nbrs = grown.neighbors(v);
    const auto wgts = grown.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const PartId p = part_of(nbrs[i]);
      if (p >= 0) votes.add(p, wgts[i]);
    }

    PartId choice = 0;
    for (PartId q = 1; q < k; ++q) {
      const auto uq = static_cast<std::size_t>(q);
      const auto uc = static_cast<std::size_t>(choice);
      if (votes[q] > votes[choice] ||
          (votes[q] == votes[choice] && part_weight[uq] < part_weight[uc])) {
        choice = q;
      }
    }
    parts[static_cast<std::size_t>(v - n_old)] = choice;
    part_weight[static_cast<std::size_t>(choice)] += grown.vertex_weight(v);
    for (const VertexId u : nbrs) {
      if (u >= n_old && parts[static_cast<std::size_t>(u - n_old)] < 0) {
        push_bucket(u, ++assigned_nbrs[static_cast<std::size_t>(u - n_old)]);
      }
    }
  }
  return parts;
}

}  // namespace gapart

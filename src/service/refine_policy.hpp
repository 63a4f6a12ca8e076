// When should a live partition session spend background cycles on deeper
// refinement?
//
// The synchronous per-delta repair tier keeps a session's partition *locally*
// sane at O(damage) cost, but quality leaks over a long delta stream: greedy
// extension piles load imbalance near growth hot-spots, and the un-verified
// seeded cascade leaves improving moves behind elsewhere on the boundary.
// The policy engine watches three signals and schedules asynchronous
// refinement (frontier hill-climb rounds, optionally a DPGA burst) when any
// of them fires:
//
//   quality watermark    the maintained fitness degraded more than a set
//                        fraction below the last refined baseline;
//   staleness            too many updates were absorbed since the last
//                        refinement, whatever the fitness says (the baseline
//                        itself goes stale as the graph drifts);
//   damage accumulation  the summed delta damage since the last refinement
//                        crossed a threshold — many small updates erode
//                        quality as surely as one big one.
//
// decide_refinement is a pure function of (config, signals) so the trigger
// logic is unit-testable without sessions, threads, or clocks.  The WAL
// compaction policy below has the same shape; the session consults both.
#pragma once

#include <cstdint>

#include "graph/types.hpp"

namespace gapart {

/// How much background work to schedule.
enum class RefineDepth {
  kNone,   ///< No trigger fired (or a refinement is already in flight).
  kLight,  ///< Verified frontier hill-climb rounds: cheap, usually enough.
  kDeep,   ///< Hill climb + DPGA burst seeded with the repaired solution —
           ///< the paper's §3.5 incremental GA as a background job.
};

const char* refine_depth_name(RefineDepth d);

struct RefinePolicyConfig {
  /// Quality watermark: trigger when fitness sits more than this fraction
  /// below the refined baseline (measured on the |baseline| scale).
  /// <= 0 disables the watermark trigger.
  double quality_watermark = 0.02;
  /// Staleness: trigger after this many updates without refinement.
  /// <= 0 disables the staleness trigger.
  int staleness_updates = 64;
  /// Damage accumulation: trigger once the damage absorbed since the last
  /// refinement reaches this many vertices.  <= 0 disables the trigger.
  VertexId damage_threshold = 256;

  /// Escalate to kDeep once the damage since the last DEEP refinement
  /// reaches this threshold (<= 0: never escalate on damage) ...
  VertexId deep_damage_threshold = 4096;
  /// ... or when the degradation exceeds the watermark by this factor.
  double deep_watermark_factor = 8.0;
  /// Master switch for kDeep (DPGA bursts are orders of magnitude more
  /// expensive than hill-climb rounds; latency-bound deployments disable
  /// them and rely on kLight only).
  bool allow_deep = true;

  /// Route the kDeep tier of a session at least this large to the multilevel
  /// V-cycle engine (core/vcycle_ga.hpp) instead of the flat DPGA burst: a
  /// flat GA's search degrades with |V| (the paper's conclusion), while the
  /// V-cycle evolves a coarse quotient and repairs upward at O(boundary)
  /// cost per level — and its partition-respecting coarsening guarantees the
  /// result is never worse than the session's current assignment.  Small
  /// sessions keep the flat burst (coarsening overhead outweighs it).
  /// <= 0 disables V-cycle routing entirely.
  VertexId vcycle_min_vertices = 1 << 15;
};

/// What the session reports into the policy.  Fitnesses are the maximized
/// (negative) composite objective values.
struct RefineSignals {
  double current_fitness = 0.0;
  /// Fitness right after the last applied refinement (or at session open).
  double baseline_fitness = 0.0;
  int updates_since_refine = 0;
  // Accumulators are 64-bit: a session with disabled triggers can absorb
  // per-delta damage indefinitely without overflowing into UB.
  std::int64_t damage_since_refine = 0;
  std::int64_t damage_since_deep = 0;
  /// A refinement job is already running for this session: never stack a
  /// second one (the first would be discarded as stale anyway).
  bool refine_in_flight = false;
};

/// Relative quality degradation of `current` below `baseline`, on the
/// |baseline| scale (>= 0; 0 when current is at or above the baseline).
double fitness_degradation(double current_fitness, double baseline_fitness);

/// The policy: pure, deterministic, no side effects.
RefineDepth decide_refinement(const RefinePolicyConfig& config,
                              const RefineSignals& signals);

/// Should a kDeep refinement of a `num_vertices`-vertex session run the
/// multilevel V-cycle engine instead of the flat DPGA burst?  Pure: true iff
/// routing is enabled and the session meets the size floor.
bool route_deep_vcycle(const RefinePolicyConfig& config,
                       VertexId num_vertices);

// ---------------------------------------------------------------------------
// WAL compaction policy.  Same shape as the refinement policy: the session
// accumulates damage/bytes into its delta log, and a pure decision function
// says when to fold the log into a fresh checkpoint snapshot and truncate.
// Compaction is the durability layer's O(V + E) step, so it is triggered by
// the same damage-accumulation signal that drives refinement — an unbounded
// log would make both recovery time and disk usage grow without bound.

struct CompactionPolicy {
  /// Compact once the damage recorded in the log since the last snapshot
  /// reaches this many vertices.  <= 0 disables the damage trigger.
  std::int64_t damage_threshold = 4096;
  /// ... or once the log itself exceeds this many bytes (0 disables).
  std::uint64_t bytes_threshold = 8ull << 20;
  /// Never compact a log with fewer records than this (a snapshot per delta
  /// would reintroduce the O(V + E)-per-update cost the WAL exists to avoid).
  std::uint64_t min_records = 4;
};

struct CompactionSignals {
  std::int64_t log_damage = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t log_records = 0;
};

/// Pure: should the session snapshot + truncate now?
bool decide_compaction(const CompactionPolicy& policy,
                       const CompactionSignals& signals);

}  // namespace gapart

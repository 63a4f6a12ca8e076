#include "service/refine_policy.hpp"

#include <algorithm>
#include <cmath>

namespace gapart {

const char* refine_depth_name(RefineDepth d) {
  switch (d) {
    case RefineDepth::kNone:
      return "none";
    case RefineDepth::kLight:
      return "light";
    case RefineDepth::kDeep:
      return "deep";
  }
  return "unknown";
}

double fitness_degradation(double current_fitness, double baseline_fitness) {
  if (current_fitness >= baseline_fitness) return 0.0;
  // Both fitnesses are <= 0 (negated cost); normalize on the baseline's
  // magnitude, guarding the perfect-partition baseline of 0.
  const double scale = std::max(1.0, std::fabs(baseline_fitness));
  return (baseline_fitness - current_fitness) / scale;
}

RefineDepth decide_refinement(const RefinePolicyConfig& config,
                              const RefineSignals& signals) {
  if (signals.refine_in_flight) return RefineDepth::kNone;

  const double degradation = fitness_degradation(signals.current_fitness,
                                                 signals.baseline_fitness);
  const bool watermark = config.quality_watermark > 0.0 &&
                         degradation > config.quality_watermark;
  const bool stale = config.staleness_updates > 0 &&
                     signals.updates_since_refine >= config.staleness_updates;
  const bool damaged = config.damage_threshold > 0 &&
                       signals.damage_since_refine >= config.damage_threshold;
  if (!watermark && !stale && !damaged) return RefineDepth::kNone;

  if (config.allow_deep) {
    const bool deep_damage =
        config.deep_damage_threshold > 0 &&
        signals.damage_since_deep >= config.deep_damage_threshold;
    const bool deep_watermark =
        config.quality_watermark > 0.0 && config.deep_watermark_factor > 0.0 &&
        degradation > config.quality_watermark * config.deep_watermark_factor;
    if (deep_damage || deep_watermark) return RefineDepth::kDeep;
  }
  return RefineDepth::kLight;
}

bool route_deep_vcycle(const RefinePolicyConfig& config,
                       VertexId num_vertices) {
  return config.vcycle_min_vertices > 0 &&
         num_vertices >= config.vcycle_min_vertices;
}

bool decide_compaction(const CompactionPolicy& policy,
                       const CompactionSignals& signals) {
  if (signals.log_records < policy.min_records) return false;
  const bool damaged = policy.damage_threshold > 0 &&
                       signals.log_damage >= policy.damage_threshold;
  const bool oversized = policy.bytes_threshold > 0 &&
                         signals.log_bytes >= policy.bytes_threshold;
  return damaged || oversized;
}

}  // namespace gapart

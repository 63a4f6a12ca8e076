// The benchmark's three closed-loop workloads (one client thread each).
// Every input and every amount of work is a pure function of the seed and
// the run length; only time varies between runs.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/executor.hpp"
#include "common/telemetry.hpp"
#include "harness.hpp"

namespace e2e {

/// A correctness check failed: the run exits non-zero and prints no metrics.
class CheckFailed : public std::runtime_error {
 public:
  explicit CheckFailed(const std::string& what) : std::runtime_error(what) {}
};

const std::vector<std::string>& workload_names();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the fixed amount of work (updates, drills) to take about this
  /// long on a 4-core reference host; no clock decides how much is done.
  double seconds = 10.0;
  /// Tiny inputs for the smoke test.
  bool tiny = false;
  /// This pass records spans (benchmark and library Tracer) and snapshots
  /// the telemetry registry at the end of the update phase.  Its recovery
  /// drills run after the last update instead of between updates, so the
  /// snapshot holds update-path spans only.
  bool traced = false;
  /// Scratch directory for WAL, image and drill directories.
  std::string work_dir;
};

struct RunResult {
  std::string summary;  ///< one line: sizes, sessions, update count
  std::vector<double> setup_s;
  std::vector<UpdateSample> updates;
  std::vector<double> batch_s;  ///< one per read batch
  int batch_size = 0;
  std::int64_t lookups = 0;
  std::vector<double> recovery_s;          ///< one per drill
  std::vector<double> recovery_session_s;  ///< RecoveryReport::seconds
  std::int64_t recovery_records = 0;       ///< replayed per drill
  double cut_final = 0.0;
  std::uint64_t wal_bytes = 0;   ///< leader sessions, whole run
  std::uint64_t wal_fsyncs = 0;  ///< leader sessions, whole run
  std::uint64_t resumes = 0;
  int refine_planned = 0;
  int refine_applied = 0;
  int refine_stale = 0;
  int refine_no_better = 0;
  /// HostPace::ratio over the pass: set-up, updates and drills alike.
  double pace = 1.0;
  std::size_t pace_samples = 0;
  std::uint64_t input_digest = 0;
  std::int64_t attempted = 0;
  /// Traced pass only: the registry at the end of the update phase.
  gapart::TelemetryRegistry::Snapshot registry;
  std::string registry_json;
};

/// Runs one workload pass.  Throws CheckFailed when a correctness check
/// fails; library errors propagate as thrown.
RunResult run_workload(const RunConfig& config, gapart::Executor& pool,
                       SpanLog& spans);

}  // namespace e2e

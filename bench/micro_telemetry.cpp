// Telemetry overhead microbench: the per-record cost of each instrumentation
// primitive, and the end-to-end cost of a fully instrumented session repair
// loop, emitted as JSON for the BENCH_telemetry.json trajectory.
//
// Two sections:
//
//   micro:      ns/op for counter add, gauge set, sharded-histogram record,
//               plain LogHistogram record, a scoped span with the tracer
//               disabled (two clock reads + histogram record) and enabled
//               (+ ring append), plus the raw steady_clock read for scale.
//
//   end_to_end: a PartitionSession repair loop on a growth trace (one
//               appended grid row per update) run twice — tracer off,
//               tracer on — reporting updates/sec for each.  The span/counter
//               macros are live in both runs when GAPART_TELEMETRY is
//               compiled in; re-running the same binary from a
//               -DGAPART_TELEMETRY=OFF build gives the compiled-out baseline
//               (the emitted JSON is keyed by "telemetry_compiled_in" so the
//               two builds' outputs can sit side by side in
//               BENCH_telemetry.json).
//
//   ./bench/micro_telemetry [--quick] > telemetry.json
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "core/graph_delta.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/session.hpp"

namespace {

using namespace gapart;

/// Keeps `v` observable so timed loops don't fold away.
inline void keep(double v) {
  static volatile double sink = 0.0;
  sink = sink + v;
}

/// ns/op of `body` run `iters` times.
template <typename F>
double time_ns_per_op(std::int64_t iters, F&& body) {
  WallTimer timer;
  for (std::int64_t i = 0; i < iters; ++i) body(i);
  return timer.seconds() * 1e9 / static_cast<double>(iters);
}

struct MicroRow {
  std::string name;
  double ns_per_op = 0.0;
};

std::vector<MicroRow> run_micro(std::int64_t iters) {
  std::vector<MicroRow> rows;
  auto& reg = TelemetryRegistry::instance();

  rows.push_back({"steady_clock_now", time_ns_per_op(iters, [](std::int64_t) {
                    keep(std::chrono::duration<double>(
                             std::chrono::steady_clock::now()
                                 .time_since_epoch())
                             .count());
                  })});

  rows.push_back({"counter_add", time_ns_per_op(iters, [](std::int64_t i) {
                    GAPART_COUNTER_ADD("bench.micro.counter", i & 1);
                  })});

  rows.push_back({"gauge_set", time_ns_per_op(iters, [](std::int64_t i) {
                    GAPART_GAUGE_SET("bench.micro.gauge", i);
                  })});

  rows.push_back(
      {"sharded_histogram_record", time_ns_per_op(iters, [](std::int64_t i) {
         GAPART_HISTOGRAM_RECORD("bench.micro.hist",
                                 1e-6 * static_cast<double>(1 + (i & 1023)));
       })});

  LogHistogram plain;
  rows.push_back(
      {"plain_histogram_record", time_ns_per_op(iters, [&](std::int64_t i) {
         plain.record(1e-6 * static_cast<double>(1 + (i & 1023)));
       })});
  keep(static_cast<double>(plain.count()));

  Tracer::instance().disable();
  rows.push_back({"span_tracer_disabled",
                  time_ns_per_op(iters, [](std::int64_t) {
                    GAPART_SPAN("bench.micro.span");
                  })});

  Tracer::instance().enable();
  rows.push_back({"span_tracer_enabled", time_ns_per_op(iters, [](std::int64_t) {
                    GAPART_SPAN("bench.micro.span");
                  })});
  Tracer::instance().disable();
  Tracer::instance().clear();
  reg.reset_for_tests();
  return rows;
}

struct EndToEndRow {
  std::string mode;  // "tracer_off" / "tracer_on"
  int updates = 0;
  double seconds = 0.0;
  double updates_per_sec = 0.0;
  double p50_repair_ms = 0.0;
};

/// A growth trace: n x n grid growing by one appended row per update,
/// column-band start, synchronous repair only.
EndToEndRow run_end_to_end(const std::string& mode, VertexId n, int updates) {
  EndToEndRow row;
  row.mode = mode;
  row.updates = updates;

  SessionConfig cfg;
  cfg.num_parts = 8;
  cfg.repair_budget_seconds = 0.0;

  auto prev = std::make_shared<const Graph>(make_grid(n, n));
  PartitionSession session(prev, bench::column_bands(n, n, 8), cfg);

  WallTimer timer;
  for (int u = 1; u <= updates; ++u) {
    auto next =
        std::make_shared<const Graph>(make_grid(n + static_cast<VertexId>(u),
                                                n));
    const GraphDelta delta = diff_graphs(*prev, *next);
    session.apply_update(next, delta);
    prev = std::move(next);
  }
  row.seconds = timer.seconds();
  row.updates_per_sec = updates / row.seconds;
  row.p50_repair_ms = session.stats().p50_repair_seconds * 1e3;
  return row;
}

void emit_json(const std::vector<MicroRow>& micro,
               const std::vector<EndToEndRow>& e2e) {
  std::printf("{\n");
  std::printf("  \"bench\": \"micro_telemetry\",\n");
  std::printf("  \"telemetry_compiled_in\": %s,\n",
              kTelemetryCompiledIn ? "true" : "false");
  std::printf("  \"micro_ns_per_op\": {\n");
  for (std::size_t i = 0; i < micro.size(); ++i) {
    std::printf("    \"%s\": %.2f%s\n", micro[i].name.c_str(),
                micro[i].ns_per_op, i + 1 < micro.size() ? "," : "");
  }
  std::printf("  },\n");
  std::printf("  \"end_to_end\": [\n");
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const EndToEndRow& r = e2e[i];
    std::printf(
        "    {\"mode\": \"%s\", \"updates\": %d, \"seconds\": %.4f, "
        "\"updates_per_sec\": %.1f, \"p50_repair_ms\": %.4f}%s\n",
        r.mode.c_str(), r.updates, r.seconds, r.updates_per_sec,
        r.p50_repair_ms, i + 1 < e2e.size() ? "," : "");
  }
  if (e2e.size() == 2) {
    std::printf("  ],\n");
    const double off = e2e[0].updates_per_sec;
    const double on = e2e[1].updates_per_sec;
    std::printf("  \"tracer_overhead_pct\": %.2f\n",
                off > 0.0 ? (off - on) / off * 100.0 : 0.0);
  } else {
    std::printf("  ]\n");
  }
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.flag("quick") || quick_mode_enabled();
  const std::int64_t iters = quick ? 200'000 : 2'000'000;
  const VertexId n = quick ? 64 : 128;
  const int updates = quick ? 20 : 60;

  // Warm up the per-thread shard/ring registrations so the micro loops time
  // the steady state, not first-touch setup.
  GAPART_COUNTER_ADD("bench.micro.counter", 0);
  GAPART_HISTOGRAM_RECORD("bench.micro.hist", 1.0);

  const std::vector<MicroRow> micro = run_micro(iters);

  std::vector<EndToEndRow> e2e;
  Tracer::instance().disable();
  run_end_to_end("warmup", n, updates);  // discarded: page-faults, alloc pools
  e2e.push_back(run_end_to_end("tracer_off", n, updates));
  Tracer::instance().enable();
  e2e.push_back(run_end_to_end("tracer_on", n, updates));
  Tracer::instance().disable();

  emit_json(micro, e2e);
  return 0;
}

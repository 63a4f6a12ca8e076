// e2e_update: the end-to-end update benchmark program.
//
//   e2e_update --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --work-dir <dir> --out-dir <dir> [--tiny]
//
// Untraced (--trace 0): one pass; prints the end-to-end metrics, with every
// timing divided by the pass's host pace (harness.hpp: HostPace).
// Traced (--trace 1): an untraced pass, then the same work again with the
// library Tracer on and the benchmark's own spans; prints the per-layer
// metrics (as measured) and writes library_trace.json, bench_spans.json and
// registry.json to --out-dir, from which run.py reconciles the layers.
// Either way the last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}; a failed check exits 1 with no
// metrics.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;
using gapart::median;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  RunConfig run;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2e_update: %s\nusage: e2e_update --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> --out-dir <dir> "
               "[--tiny]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.run.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.run.workload = value;
      } else if (flag == "--seed") {
        a.run.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.run.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--work-dir") {
        a.run.work_dir = value;
      } else if (flag == "--out-dir") {
        a.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.run.workload) == names.end()) {
    usage("unknown workload '" + a.run.workload + "'");
  }
  if (!(a.run.seconds > 0.0)) usage("--seconds must be positive");
  if (a.run.work_dir.empty() || a.out_dir.empty()) {
    usage("--work-dir and --out-dir are required");
  }
  return a;
}

template <class Get>
std::vector<double> column(const RunResult& r, Get get) {
  std::vector<double> v;
  v.reserve(r.updates.size());
  for (const UpdateSample& u : r.updates) v.push_back(get(u));
  return v;
}

double mean(const std::vector<double>& v) { return gapart::summarize(v).mean; }

double sum_of(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::vector<double> latencies(const RunResult& r) {
  return column(r, [](const UpdateSample& u) { return u.latency_s; });
}

double lookups_per_s(const RunResult& r) {
  return static_cast<double>(r.lookups) / sum_of(r.batch_s);
}

/// The end-to-end metrics with times scaled by `pace`: 1 gives them as
/// measured, the pass's HostPace ratio gives them at the reference host's
/// usual speed.
std::vector<Metric> end_to_end(const RunResult& r, double pace) {
  const std::vector<double> lat = latencies(r);
  return {
      {"setup_s", median(r.setup_s) / pace, "s"},
      {"update_p50_ms", median(lat) / pace * 1e3, "ms"},
      {"update_tail_ms", tail(lat).value / pace * 1e3, "ms"},
      {"updates_per_s",
       static_cast<double>(lat.size()) / sum_of(lat) * pace, "1/s"},
      {"lookups_per_s", lookups_per_s(r) * pace, "1/s"},
      {"recovery_s", median(r.recovery_s) / pace, "s"},
      {"cut_final", r.cut_final, "edges"},
  };
}

/// Work counts: exact functions of the seed and the run length.
std::vector<Metric> work_counts(const RunResult& r) {
  const double n = static_cast<double>(r.updates.size());
  const double compacted = sum_of(
      column(r, [](const UpdateSample& u) { return u.compacted ? 1.0 : 0.0; }));
  return {
      {"graph_delta.damage",
       mean(column(r, [](const UpdateSample& u) {
         return static_cast<double>(u.damage);
       })),
       "count"},
      {"session.examined",
       mean(column(r, [](const UpdateSample& u) {
         return static_cast<double>(u.examined);
       })),
       "count"},
      {"session.moves",
       mean(column(r, [](const UpdateSample& u) {
         return static_cast<double>(u.moves);
       })),
       "count"},
      {"session.verify_rounds",
       mean(column(r, [](const UpdateSample& u) {
         return static_cast<double>(u.verify_rounds);
       })),
       "count"},
      {"wal.bytes_per_update", static_cast<double>(r.wal_bytes) / n, "bytes"},
      {"wal.fsyncs", static_cast<double>(r.wal_fsyncs), "count"},
      {"wal.compaction_share", compacted / n, "ratio"},
      {"replication.pumps_per_ack",
       mean(column(r, [](const UpdateSample& u) {
         return static_cast<double>(u.pumps);
       })),
       "count"},
      {"replication.resumes", static_cast<double>(r.resumes), "count"},
      {"recovery.records", static_cast<double>(r.recovery_records), "count"},
      {"refine.planned", static_cast<double>(r.refine_planned), "count"},
      {"refine.applied", static_cast<double>(r.refine_applied), "count"},
      {"refine.stale", static_cast<double>(r.refine_stale), "count"},
      {"refine.no_better", static_cast<double>(r.refine_no_better), "count"},
      {"refine.useful_ratio",
       r.refine_planned > 0 ? static_cast<double>(r.refine_applied) /
                                  r.refine_planned
                            : 0.0,
       "ratio"},
  };
}

double registry_p50_ms(const RunResult& r, const std::string& name) {
  for (const auto& h : r.registry.histograms) {
    if (h.name == name) return h.hist.quantile(0.5) * 1e3;
  }
  return 0.0;
}

/// Span histograms the library records on the update path.
const std::vector<std::string>& library_spans() {
  static const std::vector<std::string> names = {
      "repair.apply", "repair.extend", "repair.rebind", "repair.cascade",
      "repair.verify", "wal.append",   "wal.fsync",     "wal.compact",
      "refine.climb", "refine.vcycle", "vcycle.level"};
  return names;
}

std::vector<Metric> per_layer(const RunResult& r, const RunResult& untraced) {
  const auto ms = [&](auto get) { return median(column(r, get)) * 1e3; };
  const std::vector<double> lat = latencies(r);
  const std::vector<double> submit =
      column(r, [](const UpdateSample& u) { return u.submit_s; });
  std::vector<double> plain, compacted;
  for (const UpdateSample& u : r.updates) {
    (u.compacted ? compacted : plain).push_back(u.latency_s);
  }
  std::vector<double> ns_per_lookup;
  for (const double s : r.batch_s) ns_per_lookup.push_back(s * 1e9 / r.batch_size);

  std::vector<Metric> m = {
      {"graph.build_ms", ms([](const UpdateSample& u) { return u.build_s; }),
       "ms"},
      {"graph_delta.diff_ms",
       ms([](const UpdateSample& u) { return u.diff_s; }), "ms"},
      {"service.submit_ms", median(submit) * 1e3, "ms"},
      {"service.submit_tail_ms", tail(submit).value * 1e3, "ms"},
      {"session.repair_ms", ms([](const UpdateSample& u) { return u.repair_s; }),
       "ms"},
      {"service.outside_repair_ms",
       ms([](const UpdateSample& u) { return u.submit_s - u.repair_s; }), "ms"},
      {"wal.compaction_ms",
       compacted.empty() ? 0.0 : (median(compacted) - median(plain)) * 1e3,
       "ms"},
      {"replication.ship_ms", ms([](const UpdateSample& u) { return u.ship_s; }),
       "ms"},
      {"replication.follower_ms",
       ms([](const UpdateSample& u) { return u.follower_s; }), "ms"},
      {"recovery.session_s", median(r.recovery_session_s), "s"},
      {"refine.wait_ms",
       ms([](const UpdateSample& u) { return u.refine_wait_s; }), "ms"},
      {"executor.queue_wait_ms",
       registry_p50_ms(r, "executor.queue_wait_seconds"), "ms"},
      {"executor.task_ms", registry_p50_ms(r, "executor.task_seconds"), "ms"},
      {"service.snapshot_ns", median(ns_per_lookup), "ns"},
  };
  for (const std::string& name : library_spans()) {
    m.push_back({"span." + name + "_ms", registry_p50_ms(r, "span." + name),
                 "ms"});
  }
  // Each pass at its own host pace, so a host phase change between the two
  // passes does not read as tracing cost.
  const double untraced_p50 = median(latencies(untraced)) / untraced.pace;
  m.push_back({"telemetry.trace_overhead_pct",
               (median(lat) / r.pace - untraced_p50) / untraced_p50 * 100.0,
               "%"});
  for (Metric& c : work_counts(r)) m.push_back(std::move(c));
  return m;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}";
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_work_line(const RunResult& r) {
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.input_digest));
  std::vector<Metric> counts = work_counts(r);
  counts.push_back({"cut_final", r.cut_final, "edges"});
  counts.push_back(
      {"updates", static_cast<double>(r.updates.size()), "count"});
  counts.push_back({"lookups", static_cast<double>(r.lookups), "count"});
  std::printf("work {\"input_digest\": \"%s\", \"counts\": %s}\n", digest,
              metrics_json(counts).c_str());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
  if (!os) throw std::runtime_error("cannot write " + path);
}

/// Traced-mode outputs: the library's Chrome trace, the benchmark's spans,
/// and the registry snapshot taken at the end of the update phase.
void write_trace_files(const std::string& dir, const SpanLog& spans,
                       const RunResult& traced) {
  std::filesystem::create_directories(dir);
  {
    std::ofstream os(dir + "/library_trace.json",
                     std::ios::binary | std::ios::trunc);
    gapart::Tracer::instance().export_chrome_trace(os);
    if (!os) throw std::runtime_error("cannot write library_trace.json");
  }
  {
    std::ofstream os(dir + "/bench_spans.json",
                     std::ios::binary | std::ios::trunc);
    os << "{\"traceEvents\":[\n";
    spans.write_events(os);
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
    if (!os) throw std::runtime_error("cannot write bench_spans.json");
  }
  write_file(dir + "/registry.json", traced.registry_json);
}

int run(const Args& args) {
  const int threads = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  gapart::Executor pool(threads);

  SpanLog untraced_spans;
  RunConfig rc = args.run;
  const RunResult plain = run_workload(rc, pool, untraced_spans);
  std::printf("%s\n", plain.summary.c_str());
  print_work_line(plain);

  std::vector<Metric> metrics;
  const RunResult* result = &plain;
  RunResult traced;
  if (!args.trace) {
    metrics = end_to_end(plain, plain.pace);
    const Tail t = tail(latencies(plain));
    std::printf("host pace %.4f (median of %zu reference-kernel samples over "
                "%.1f ms nominal); as measured:\n",
                plain.pace, plain.pace_samples,
                HostPace::kNominalSeconds * 1e3);
    print_table(end_to_end(plain, 1.0));
    std::printf("end-to-end, times divided by the host pace (update_tail_ms "
                "is p%.1f: %zu of %zu samples beyond; setup_s median of %zu, "
                "recovery_s median of %zu drills):\n",
                t.percentile, t.beyond, t.samples, plain.setup_s.size(),
                plain.recovery_s.size());
  } else {
    rc.traced = true;
    SpanLog spans;
    traced = run_workload(rc, pool, spans);
    gapart::Tracer::instance().disable();
    result = &traced;
    write_trace_files(args.out_dir, spans, traced);
    // Same seed, same work: every count must repeat exactly.
    const std::vector<Metric> a = work_counts(plain);
    const std::vector<Metric> b = work_counts(traced);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].value != b[i].value) {
        throw CheckFailed(a[i].name + " differs between two passes of one "
                          "seed: " + json_number(a[i].value) + " vs " +
                          json_number(b[i].value));
      }
    }
    if (plain.cut_final != traced.cut_final) {
      throw CheckFailed("cut_final differs between two passes of one seed");
    }
    metrics = per_layer(traced, plain);
    std::printf("per-layer (traced pass, as measured; %zu benchmark spans; "
                "host pace %.4f):\n",
                spans.size(), traced.pace);
  }
  print_table(metrics);
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": 0, "
              "\"metrics\": %s}\n",
              static_cast<long long>(result->attempted),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const CheckFailed& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2e_update: check failed: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2e_update: error: %s\n", e.what());
  }
  return 1;
}

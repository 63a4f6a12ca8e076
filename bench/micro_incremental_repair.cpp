// Incremental-repair microbench: damage size vs repair cost.
//
// Five question sets, emitted as JSON for the BENCH_incremental_repair.json
// trajectory:
//
//   repair:   on an n x n grid with a contiguous block partition and d
//             scrambled vertices (localized damage), how much work does each
//             repair strategy do?  Strategies: worklist-seeded frontier
//             climb (with and without the full-boundary verification
//             rounds), full-boundary frontier, and the paper-faithful
//             sweep.  "examined" (gain-kernel probes) is the work unit; the
//             seeded cascade should track d while sweep tracks |V| — and,
//             at >= 512^2 / k=2, the thin-front regime ROADMAP asks about,
//             frontier vs sweep is answered by the same rows.
//
//   pipeline: repair_step — the session's per-delta repair — on grids
//             grown by appended rows, from a live state of the old grid:
//             extension moves, repair moves, probes, verification rounds
//             and seconds, so the damage-proportionality of the whole step
//             — not just the climb — is on record.
//
//   replay:   what a follower or a recovery pays per record and per image:
//             decode_delta of one appended grid row onto the n x n grid,
//             and decode_session_image of the grown grid, with the bytes
//             and median seconds per call.
//
//   build:    what a client pays to build the grown graph, as e2ebench's
//             grow adapter does: GraphBuilder::build of the n x n grid's
//             edges plus one appended row (builder filled once), the same
//             with the add_edge loop timed too, make_grid of the n x n
//             grid, and diff_graphs of the grid against the grown graph,
//             with the edge count and median seconds per call.
//
//   image:    the whole-image passes of a compaction and a recovery on the
//             n x n grid (k = 8 column bands): snapshot_image (the content
//             digest), encode_session_image, read_file of the written
//             image, decode_session_image and the crc32 both encode and
//             decode run over the image, with the image's bytes and median
//             seconds per call.
//
//   ./bench/micro_incremental_repair [--seconds=0.2] [--quick] > repair.json
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/checksum.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/graph_delta.hpp"
#include "core/hill_climb.hpp"
#include "core/incremental.hpp"
#include "graph/delta_codec.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/session.hpp"
#include "service/wal.hpp"

namespace {

using namespace gapart;

struct RepairRow {
  std::string method;
  VertexId n = 0;  // grid side
  PartId k = 2;
  int damage = 0;
  int reps = 0;
  std::int64_t moves = 0;
  std::int64_t examined = 0;
  std::int64_t passes = 0;
  double seconds = 0.0;
  double final_fitness = 0.0;
};

RepairRow bench_repair(const Graph& g, VertexId n, PartId k, int damage,
                       const std::string& method, double budget) {
  RepairRow row;
  row.method = method;
  row.n = n;
  row.k = k;
  row.damage = damage;
  // Same generator as the seeded-repair fuzz tests (bench_common).
  const bench::DamagedGrid d = bench::damaged_block_grid(
      n, k, damage,
      0xDA11A6E ^ (static_cast<std::uint64_t>(n) * 17 +
                   static_cast<std::uint64_t>(k)));

  HillClimbOptions opt;
  opt.max_passes = 50;
  const bool seeded = method == "seeded" || method == "seeded_noverify";
  if (method == "seeded_noverify") opt.verify_fixed_point = false;
  if (method == "frontier") opt.mode = HillClimbMode::kFrontier;
  if (method == "sweep") opt.mode = HillClimbMode::kSweep;

  // The budget bounds the whole rep — the O(V+E) PartitionState rebuild
  // included — so total bench wall-clock stays ~rows x budget even for
  // methods whose climbs are far cheaper than the rebuild.  `seconds`
  // reports climb time only (the quantity under measurement).
  double climb_seconds = 0.0;
  double elapsed = 0.0;
  while (elapsed < budget || row.reps == 0) {
    WallTimer rep_timer;
    PartitionState state(g, d.start, k);
    WallTimer timer;
    const HillClimbResult res = seeded
                                    ? hill_climb_from(state, d.damaged, opt)
                                    : hill_climb(state, opt);
    climb_seconds += timer.seconds();
    row.moves += res.moves;
    row.examined += res.examined;
    row.passes += res.passes;
    row.final_fitness = state.fitness(opt.fitness);
    ++row.reps;
    elapsed += rep_timer.seconds();
  }
  row.seconds = climb_seconds;
  return row;
}

struct PipelineRow {
  VertexId n = 0;      // base grid side (square)
  VertexId grow_rows = 0;
  PartId k = 2;
  RepairReport rep;
};

PipelineRow bench_pipeline(VertexId n, VertexId grow_rows, PartId k) {
  PipelineRow row;
  row.n = n;
  row.grow_rows = grow_rows;
  row.k = k;

  const Graph old_g = make_grid(n, n);
  const Graph grown = make_grid(n + grow_rows, n);

  // Previous partition: repaired block partition of the old grid (the
  // shared generator with zero damage).
  Assignment prev = bench::damaged_block_grid(n, k, /*damage=*/0, 0).start;
  HillClimbOptions settle;
  settle.mode = HillClimbMode::kFrontier;
  settle.max_passes = 10;
  hill_climb(old_g, prev, k, settle);

  // Four verification rounds at most, whatever the clock: the counts are
  // deterministic.
  PartitionState state(old_g, std::move(prev), k);
  row.rep = repair_step(state, grown, diff_graphs(old_g, grown), {},
                        /*max_verify_rounds=*/4,
                        std::numeric_limits<double>::infinity());
  return row;
}

struct ReplayRow {
  const char* op = "";
  VertexId n = 0;  // grid side of the predecessor
  std::size_t bytes = 0;
  int calls = 0;
  double seconds_per_call = 0.0;  // median
};

/// Median seconds of `call()` over at least 5 calls and `budget` seconds,
/// after one untimed call; `calls` receives the number timed.
template <typename Call>
double median_seconds(Call call, double budget, int& calls) {
  call();
  std::vector<double> seconds;
  double elapsed = 0.0;
  while (elapsed < budget || seconds.size() < 5) {
    WallTimer timer;
    call();
    seconds.push_back(timer.seconds());
    elapsed += seconds.back();
  }
  calls = static_cast<int>(seconds.size());
  return quantile(seconds, 0.5);
}

/// Median seconds of `call(bytes)`, as median_seconds times it.
template <typename Call>
ReplayRow time_call(const char* op, VertexId n, const std::string& bytes,
                    Call call, double budget) {
  ReplayRow row;
  row.op = op;
  row.n = n;
  row.bytes = bytes.size();
  row.seconds_per_call =
      median_seconds([&] { call(bytes); }, budget, row.calls);
  return row;
}

std::vector<ReplayRow> bench_replay(VertexId n, double budget) {
  const Graph prev = make_grid(n, n);
  const auto grown = std::make_shared<const Graph>(make_grid(n + 1, n));
  const std::string record = encode_delta(*grown, diff_graphs(prev, *grown));

  SessionImage image;
  image.num_parts = 8;
  image.graph = grown;
  image.assignment = bench::column_bands(n + 1, n, image.num_parts);
  image.sums = compute_metrics(*grown, image.assignment, image.num_parts);

  return {time_call(
              "decode_delta", n, record,
              [&prev](const std::string& b) { decode_delta(prev, b); },
              budget),
          time_call("decode_session_image", n, encode_session_image(image),
                    [](const std::string& b) { decode_session_image(b); },
                    budget)};
}

struct BuildRow {
  const char* op = "";
  VertexId n = 0;  // grid side
  std::int64_t edges = 0;  // of the graph built
  int calls = 0;
  double seconds_per_call = 0.0;  // median
};

/// e2ebench's grow adapter, one update: every edge of the n x n grid from
/// its lower end, in row order, then an appended row of n vertices wired
/// along the row and to the row below.
void fill_grown_grid(GraphBuilder& b, const Graph& grid, VertexId n) {
  for (VertexId u = 0; u < grid.num_vertices(); ++u) {
    const auto nbrs = grid.neighbors(u);
    const auto wgts = grid.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > u) b.add_edge(u, nbrs[i], wgts[i]);
    }
  }
  const VertexId first = n * n;
  for (VertexId j = 0; j < n; ++j) {
    if (j + 1 < n) b.add_edge(first + j, first + j + 1);
    b.add_edge(first + j, first - n + j);
  }
}

std::vector<BuildRow> bench_build(VertexId n, double budget) {
  const Graph grid = make_grid(n, n);
  GraphBuilder filled(n * n + n);
  fill_grown_grid(filled, grid, n);
  const Graph grown = filled.build();
  const std::int64_t grown_edges = grown.num_edges();

  std::vector<BuildRow> rows(4);
  rows[0] = {"build", n, grown_edges, 0, 0.0};
  rows[0].seconds_per_call =
      median_seconds([&] { filled.build(); }, budget, rows[0].calls);
  rows[1] = {"fill_and_build", n, grown_edges, 0, 0.0};
  rows[1].seconds_per_call = median_seconds(
      [&] {
        GraphBuilder b(n * n + n);
        fill_grown_grid(b, grid, n);
        b.build();
      },
      budget, rows[1].calls);
  rows[2] = {"make_grid", n, grid.num_edges(), 0, 0.0};
  rows[2].seconds_per_call =
      median_seconds([&] { make_grid(n, n); }, budget, rows[2].calls);
  rows[3] = {"diff_graphs", n, grown_edges, 0, 0.0};
  rows[3].seconds_per_call = median_seconds(
      [&] { diff_graphs(grid, grown); }, budget, rows[3].calls);
  return rows;
}

std::vector<ReplayRow> bench_image(VertexId n, double budget) {
  SessionConfig config;
  config.num_parts = 8;
  SessionSnapshot snap;
  snap.graph = std::make_shared<const Graph>(make_grid(n, n));
  snap.assignment = bench::column_bands(n, n, config.num_parts);
  snap.sums = compute_metrics(*snap.graph, snap.assignment, config.num_parts);
  const SessionImage image = snapshot_image(config, snap);
  const std::string bytes = encode_session_image(image);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gapart_micro_image_" + std::to_string(n)))
          .string();
  write_file_atomic(path, bytes);

  std::vector<ReplayRow> rows = {
      time_call("snapshot_image", n, bytes,
                [&](const std::string&) { snapshot_image(config, snap); },
                budget),
      time_call("encode_session_image", n, bytes,
                [&](const std::string&) { encode_session_image(image); },
                budget),
      time_call("read_file", n, bytes,
                [&](const std::string&) { read_file(path); }, budget),
      time_call("decode_session_image", n, bytes,
                [](const std::string& b) { decode_session_image(b); },
                budget),
      time_call("crc32", n, bytes,
                [](const std::string& b) { crc32(b.data(), b.size()); },
                budget)};
  std::filesystem::remove(path);
  return rows;
}

void emit_rows(const char* section, const std::vector<ReplayRow>& rows,
               bool last) {
  std::printf("  \"%s\": [\n", section);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ReplayRow& r = rows[i];
    std::printf(
        "    {\"op\": \"%s\", \"n\": %d, \"bytes\": %zu, \"calls\": %d, "
        "\"seconds_per_call\": %.6f}%s\n",
        r.op, static_cast<int>(r.n), r.bytes, r.calls, r.seconds_per_call,
        i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]%s\n", last ? "" : ",");
}

void emit_build_rows(const std::vector<BuildRow>& rows) {
  std::printf("  \"build\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BuildRow& r = rows[i];
    std::printf(
        "    {\"op\": \"%s\", \"n\": %d, \"edges\": %lld, \"calls\": %d, "
        "\"seconds_per_call\": %.6f}%s\n",
        r.op, static_cast<int>(r.n), static_cast<long long>(r.edges), r.calls,
        r.seconds_per_call, i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n");
}

void emit_json(const std::vector<RepairRow>& repair,
               const std::vector<PipelineRow>& pipeline,
               const std::vector<ReplayRow>& replay,
               const std::vector<BuildRow>& build,
               const std::vector<ReplayRow>& image) {
  std::printf("{\n");
  std::printf("  \"bench\": \"micro_incremental_repair\",\n");
  std::printf("  \"repair\": [\n");
  for (std::size_t i = 0; i < repair.size(); ++i) {
    const RepairRow& r = repair[i];
    std::printf(
        "    {\"method\": \"%s\", \"n\": %d, \"k\": %d, \"damage\": %d, "
        "\"reps\": %d, \"moves\": %lld, \"examined\": %lld, "
        "\"passes\": %lld, \"seconds\": %.4f, \"examined_per_rep\": %.1f, "
        "\"final_fitness\": %.6f}%s\n",
        r.method.c_str(), static_cast<int>(r.n), static_cast<int>(r.k),
        r.damage, r.reps, static_cast<long long>(r.moves),
        static_cast<long long>(r.examined), static_cast<long long>(r.passes),
        r.seconds,
        r.reps > 0 ? static_cast<double>(r.examined) / r.reps : 0.0,
        r.final_fitness, i + 1 < repair.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"pipeline\": [\n");
  for (std::size_t i = 0; i < pipeline.size(); ++i) {
    const PipelineRow& p = pipeline[i];
    const RepairReport& r = p.rep;
    std::printf(
        "    {\"n\": %d, \"grow_rows\": %d, \"k\": %d, \"damage\": %d, "
        "\"extend_moves\": %d, \"repair_moves\": %d, \"examined\": %lld, "
        "\"verify_rounds\": %d, \"fitness_after\": %.6f, "
        "\"seconds\": %.4f}%s\n",
        static_cast<int>(p.n), static_cast<int>(p.grow_rows),
        static_cast<int>(p.k), static_cast<int>(r.damage), r.extend_moves,
        r.repair_moves, static_cast<long long>(r.examined), r.verify_rounds,
        r.fitness_after, r.seconds, i + 1 < pipeline.size() ? "," : "");
  }
  std::printf("  ],\n");
  emit_rows("replay", replay, /*last=*/false);
  emit_build_rows(build);
  emit_rows("image", image, /*last=*/true);
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.flag("quick") || quick_mode_enabled();
  const double budget = args.real("seconds", quick ? 0.02 : 0.2);

  std::vector<VertexId> sizes = quick ? std::vector<VertexId>{64, 128}
                                      : std::vector<VertexId>{128, 256, 512};
  std::vector<int> damages =
      quick ? std::vector<int>{8, 64} : std::vector<int>{8, 32, 128, 512};

  std::vector<RepairRow> repair;
  for (const VertexId n : sizes) {
    const Graph g = make_grid(n, n);
    for (const PartId k : {PartId{2}, PartId{16}}) {
      for (const int d : damages) {
        if (d > static_cast<int>(n)) continue;  // keep damage localized
        repair.push_back(bench_repair(g, n, k, d, "seeded", budget));
        repair.push_back(bench_repair(g, n, k, d, "seeded_noverify", budget));
      }
      // Repartition-style baselines at one representative damage, also the
      // >= 512^2 / k=2 thin-front frontier-vs-sweep datapoint ROADMAP asks
      // to re-measure.
      const int d_rep = quick ? 64 : 128;
      repair.push_back(bench_repair(g, n, k, d_rep, "frontier", budget));
      repair.push_back(bench_repair(g, n, k, d_rep, "sweep", budget));
    }
  }

  std::vector<PipelineRow> pipeline;
  const std::vector<VertexId> pipe_sizes =
      quick ? std::vector<VertexId>{64} : std::vector<VertexId>{64, 128, 256};
  for (const VertexId n : pipe_sizes) {
    for (const VertexId grow : {VertexId{1}, VertexId{4}, VertexId{16}}) {
      pipeline.push_back(bench_pipeline(n, grow, 8));
    }
  }

  std::vector<ReplayRow> replay;
  std::vector<BuildRow> build;
  std::vector<ReplayRow> image;
  for (const VertexId n : quick ? std::vector<VertexId>{256}
                                : std::vector<VertexId>{256, 1000}) {
    for (ReplayRow& row : bench_replay(n, budget)) replay.push_back(row);
    for (BuildRow& row : bench_build(n, budget)) build.push_back(row);
    for (ReplayRow& row : bench_image(n, budget)) image.push_back(row);
  }

  emit_json(repair, pipeline, replay, build, image);
  return 0;
}

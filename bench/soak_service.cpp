// Streaming-service soak: multi-client delta traces against a
// PartitionService, emitted as JSON for the BENCH_service.json trajectory.
//
// Three experiments:
//
//   soak      >= 32 concurrent sessions (default) driven by several client
//             threads over a mix of growth, churn, and adversarial hot-spot
//             traces, with background refinement enabled on the shared pool.
//             Reports service-wide throughput, p50/p99 per-delta repair
//             latency, and the refinement ledger (planned/applied/discarded).
//
//   latency   per-delta repair latency vs damage size: churn windows of
//             2/4/8/16 vertices on grids of several sizes, cascade-only
//             sessions (no verification, no refinement) so the number on
//             record is the synchronous repair plane alone.  The claim under
//             test: latency tracks the damage, not |V|.
//
//   recovery  quality: after a full churn trace with background refinement,
//             how does the session's maintained cut compare to a from-scratch
//             DPGA repartition of the final graph?  recovery_ratio =
//             dpga_cut / session_cut (>= 1 means the live session matches or
//             beats the batch repartitioner; the acceptance bar is >= 0.9).
//
//   durability  durable (WAL-backed) churn soak, run twice: fault-free for
//             the latency baseline, then with the deterministic fault
//             injector armed (--faults=<seed>, --fault-rate=<p>, default
//             10%).  Clients retry injected pre-mutation failures; the
//             service retries transient log I/O internally.  The process
//             then "dies" (no orderly close), recovers from snapshot + log
//             replay, and the JSON reports the robustness ledger: per-site
//             injected/checked fault counts, WAL retries/sheds/rejections,
//             recovery time, and lost_acked_deltas (must be 0).  Without
//             --faults the experiment still runs fault-free, so the JSON
//             schema is stable.
//
//   replication  leader + follower over an in-process loopback link: every
//             update is shipped, acked, and applied by a follower service in
//             continuous tail-replay; the leader is then killed mid-flight
//             and the follower promoted.  Reports per-update ack latency
//             (ship lag) p50/p99 in ms, resume/resync counts, failover time,
//             and whether every promoted session's content digest equals a
//             never-crashed reference replay (replicated_consistent).
//             --replicate additionally arms a 10% transport+I/O fault storm
//             for this experiment (drop/dup/reorder/truncate/send plus WAL
//             fsync faults), exercising the full failure matrix.
//
//   ./bench/soak_service [--sessions=32] [--updates=40] [--threads=0]
//                        [--faults=<seed>] [--fault-rate=0.1] [--replicate]
//                        [--telemetry] [--trace-out=soak_trace.json]
//                        [--metrics-out=soak_metrics.json]
//                        [--quick] > BENCH_service.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "core/graph_delta.hpp"
#include "core/presets.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
#include "service/transport.hpp"

namespace {

using namespace gapart;

// ---------------------------------------------------------------------------
// Delta traces.  Each trace is a deterministic function (kind, n, seed,
// phase) -> Graph, so clients can regenerate successive snapshots and diff
// them; building the next snapshot is the CLIENT's cost, never counted
// against the service's repair latency.

enum class TraceKind { kGrowth, kChurn, kHotspot };

const char* trace_name(TraceKind t) {
  switch (t) {
    case TraceKind::kGrowth:
      return "growth";
    case TraceKind::kChurn:
      return "churn";
    case TraceKind::kHotspot:
      return "hotspot";
  }
  return "?";
}

/// Churn/hotspot: n x n grid plus the diagonals of a w x w window whose
/// position depends on the phase (hotspot: fixed position, so the same
/// region is rewired over and over).  Growth: (n + phase) x n grid.
Graph trace_graph(TraceKind kind, VertexId n, VertexId window, int phase,
                  std::uint64_t seed) {
  if (kind == TraceKind::kGrowth) {
    return make_grid(n + static_cast<VertexId>(phase), n);
  }
  GraphBuilder b(n * n);
  const auto at = [n](VertexId r, VertexId c) { return r * n + c; };
  for (VertexId r = 0; r < n; ++r) {
    for (VertexId c = 0; c < n; ++c) {
      if (c + 1 < n) b.add_edge(at(r, c), at(r, c + 1));
      if (r + 1 < n) b.add_edge(at(r, c), at(r + 1, c));
    }
  }
  if (phase % 2 == 1) {
    // Window placement: fixed for hotspot, phase-dependent for churn.
    Rng rng(seed ^ (kind == TraceKind::kChurn
                        ? static_cast<std::uint64_t>(phase) * 0x9e37ULL
                        : 0ULL));
    const VertexId span = std::max<VertexId>(1, n - window - 1);
    const auto r0 = static_cast<VertexId>(rng.uniform_int(span));
    const auto c0 = static_cast<VertexId>(rng.uniform_int(span));
    for (VertexId r = r0; r < r0 + window && r + 1 < n; ++r) {
      for (VertexId c = c0; c < c0 + window && c + 1 < n; ++c) {
        b.add_edge(at(r, c), at(r + 1, c + 1));
      }
    }
  }
  return b.build();
}

using bench::column_bands;

/// Bands with `fraction` of the vertices scrambled: a realistic "inherited
/// from some earlier, imperfect state" start, leaving the repair and
/// refinement planes genuine work along the whole boundary.
Assignment scrambled_bands(VertexId rows, VertexId cols, PartId k,
                           double fraction, std::uint64_t seed) {
  Assignment a = column_bands(rows, cols, k);
  Rng rng(seed);
  const auto flips =
      static_cast<int>(fraction * static_cast<double>(a.size()));
  for (int i = 0; i < flips; ++i) {
    a[rng.uniform_u64(a.size())] = static_cast<PartId>(rng.uniform_int(k));
  }
  return a;
}

// ---------------------------------------------------------------------------
// Experiment 1: the soak.

struct SoakResult {
  int sessions = 0;
  int client_threads = 0;
  int updates_per_session = 0;
  double seconds = 0.0;
  ServiceStats stats;
  // Pool pressure during the burst: thread count plus the backlog gauge
  // (Executor::pending()) sampled by a monitor thread — how far behind the
  // refinement plane ran while the clients streamed at full throttle.
  int pool_threads = 0;
  int backlog_max = 0;
  double backlog_mean = 0.0;
  int backlog_samples = 0;
};

SoakResult run_soak(int num_sessions, int updates, VertexId n, PartId k,
                    int pool_threads, bool deep_refinement) {
  SoakResult out;
  out.sessions = num_sessions;
  out.updates_per_session = updates;

  ServiceConfig service_cfg;
  service_cfg.num_threads = pool_threads;
  service_cfg.background_refinement = true;
  PartitionService service(service_cfg);

  SessionConfig base_cfg;
  base_cfg.num_parts = k;
  base_cfg.policy.damage_threshold = 64;
  base_cfg.policy.staleness_updates = 16;
  base_cfg.policy.allow_deep = deep_refinement;
  base_cfg.policy.deep_damage_threshold = 512;

  struct Client {
    SessionId id;
    TraceKind kind;
    std::uint64_t seed;
    VertexId window;
  };
  std::vector<Client> clients;
  for (int s = 0; s < num_sessions; ++s) {
    const TraceKind kind = s % 3 == 0   ? TraceKind::kGrowth
                           : s % 3 == 1 ? TraceKind::kChurn
                                        : TraceKind::kHotspot;
    const auto seed = 0x50aaULL + static_cast<std::uint64_t>(s) * 131;
    const VertexId window = 4 + 2 * (s % 4);
    const Graph g0 = trace_graph(kind, n, window, 0, seed);
    auto graph = std::make_shared<const Graph>(g0);
    const VertexId rows = graph->num_vertices() / n;
    // Half the fleet is latency-strict (cascade only — refinement owns all
    // deeper quality), half budgets 2 ms of synchronous verification.
    SessionConfig cfg = base_cfg;
    cfg.repair_budget_seconds = s % 2 == 0 ? 0.0 : 0.002;
    const SessionId id = service.open_session(
        graph, scrambled_bands(rows, n, k, 0.03, seed ^ 0xf1e5), cfg);
    clients.push_back({id, kind, seed, window});
  }

  const int threads =
      std::max(1, std::min<int>(8, static_cast<int>(clients.size())));
  out.client_threads = threads;

  out.pool_threads = service.executor().num_threads();
  std::atomic<bool> soaking{true};
  std::int64_t backlog_sum = 0;
  // 10ms sampling: coarse enough that the monitor's wakeups don't perturb
  // the workload it is measuring (at 1ms a single-core host loses ~40%
  // updates/sec and two orders of magnitude of p99 to preemption), fine
  // enough for a couple hundred backlog samples per soak.
  std::thread monitor([&] {
    while (soaking.load(std::memory_order_relaxed)) {
      const int backlog = service.executor().pending();
      out.backlog_max = std::max(out.backlog_max, backlog);
      backlog_sum += backlog;
      ++out.backlog_samples;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  WallTimer timer;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t c = static_cast<std::size_t>(t); c < clients.size();
           c += static_cast<std::size_t>(threads)) {
        const Client& client = clients[c];
        auto prev = std::make_shared<const Graph>(
            trace_graph(client.kind, n, client.window, 0, client.seed));
        for (int u = 1; u <= updates; ++u) {
          auto next = std::make_shared<const Graph>(
              trace_graph(client.kind, n, client.window, u, client.seed));
          const GraphDelta delta = diff_graphs(*prev, *next);
          service.submit_update(client.id, next, delta);
          prev = std::move(next);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // End-of-burst catch-up tick: refinements that kept going stale under
  // full-throttle streaming get one clean pass per session.
  service.quiesce();
  service.poll();
  service.quiesce();
  out.seconds = timer.seconds();
  soaking.store(false, std::memory_order_relaxed);
  monitor.join();
  out.backlog_mean = out.backlog_samples > 0
                         ? static_cast<double>(backlog_sum) /
                               static_cast<double>(out.backlog_samples)
                         : 0.0;
  out.stats = service.stats();
  return out;
}

// ---------------------------------------------------------------------------
// Experiment 2: latency vs damage (cascade-only sessions).

struct LatencyRow {
  VertexId n = 0;
  PartId k = 2;
  VertexId window = 0;
  int updates = 0;
  double damage_mean = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  std::int64_t examined = 0;
};

LatencyRow run_latency(VertexId n, PartId k, VertexId window, int updates) {
  LatencyRow row;
  row.n = n;
  row.k = k;
  row.window = window;
  row.updates = updates;

  SessionConfig cfg;
  cfg.num_parts = k;
  cfg.repair_budget_seconds = 0.0;  // cascade only: the strict latency plane

  const std::uint64_t seed = 0x1a7eULL ^ (static_cast<std::uint64_t>(n) << 8) ^
                             static_cast<std::uint64_t>(window);
  auto prev = std::make_shared<const Graph>(
      trace_graph(TraceKind::kChurn, n, window, 0, seed));
  PartitionSession session(
      prev, scrambled_bands(n, n, k, 0.02, seed ^ 0x5c2a), cfg);

  std::vector<double> seconds;
  double damage = 0.0;
  for (int u = 1; u <= updates; ++u) {
    auto next = std::make_shared<const Graph>(
        trace_graph(TraceKind::kChurn, n, window, u, seed));
    const GraphDelta delta = diff_graphs(*prev, *next);
    const RepairReport rep = session.apply_update(next, delta);
    seconds.push_back(rep.seconds);
    damage += static_cast<double>(rep.damage);
    row.examined += rep.examined;
    prev = std::move(next);
  }
  row.damage_mean = damage / updates;
  row.p50_ms = quantile(seconds, 0.50) * 1e3;
  row.p99_ms = quantile(seconds, 0.99) * 1e3;
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  row.mean_ms = sum / static_cast<double>(seconds.size()) * 1e3;
  return row;
}

// ---------------------------------------------------------------------------
// Experiment 3: churn-trace quality recovery vs from-scratch DPGA.

struct RecoveryRow {
  VertexId n = 0;
  PartId k = 2;
  int updates = 0;
  double session_cut = 0.0;
  double dpga_cut = 0.0;
  double recovery_ratio = 0.0;  ///< dpga_cut / session_cut
  int refinements_applied = 0;
  double session_seconds = 0.0;
  double dpga_seconds = 0.0;
};

RecoveryRow run_recovery(VertexId n, PartId k, int updates, int pool_threads,
                         bool quick) {
  RecoveryRow row;
  row.n = n;
  row.k = k;
  row.updates = updates;

  ServiceConfig service_cfg;
  service_cfg.num_threads = pool_threads;
  PartitionService service(service_cfg);
  SessionConfig cfg;
  cfg.num_parts = k;
  cfg.repair_budget_seconds = 0.001;
  cfg.policy.damage_threshold = 32;   // refine eagerly
  cfg.policy.staleness_updates = 8;
  cfg.policy.deep_damage_threshold = 256;

  const std::uint64_t seed = 0x2ec0ULL ^ static_cast<std::uint64_t>(n);
  auto prev = std::make_shared<const Graph>(
      trace_graph(TraceKind::kChurn, n, 6, 0, seed));
  const SessionId id = service.open_session(
      prev, scrambled_bands(n, n, k, 0.05, seed ^ 0xadd), cfg);

  WallTimer session_timer;
  for (int u = 1; u <= updates; ++u) {
    auto next = std::make_shared<const Graph>(
        trace_graph(TraceKind::kChurn, n, 6, u, seed));
    service.submit_update(id, next, diff_graphs(*prev, *next));
    prev = std::move(next);
    // A short idle gap every few deltas (clients are rarely back-to-back):
    // drain racing refinements, take an idle tick, and let the re-planned
    // job land with its captured epoch intact.
    if (u % 4 == 0) {
      service.quiesce();
      service.poll();
      service.quiesce();
    }
  }
  // End-of-stream catch-up: tick until the policy goes quiet (each clean
  // completion either adopts an improvement or certifies the current state
  // and resets the accumulators).
  for (int i = 0; i < 3; ++i) {
    service.quiesce();
    service.poll();
  }
  service.quiesce();
  row.session_seconds = session_timer.seconds();
  const auto snap = service.snapshot(id);
  row.session_cut = snap->total_cut;
  row.refinements_applied = service.session_stats(id).refinements_applied;

  // From-scratch DPGA on the final graph — the batch repartitioner the
  // streaming session is measured against.
  DpgaConfig dpga = paper_dpga_config(k, Objective::kTotalComm);
  dpga.parallel = pool_threads > 1;
  dpga.ga.hill_climb_offspring = true;
  dpga.ga.max_generations = quick ? 20 : 150;
  dpga.ga.stall_generations = quick ? 8 : 40;
  Rng rng(0xd94a);
  auto init = bench::random_init(*prev, k, dpga.ga.population_size)(rng);
  WallTimer dpga_timer;
  const DpgaResult res =
      run_dpga(*prev, dpga, std::move(init), rng.split(), nullptr);
  row.dpga_seconds = dpga_timer.seconds();
  row.dpga_cut = res.best_metrics.total_cut();
  row.recovery_ratio =
      row.session_cut > 0.0 ? row.dpga_cut / row.session_cut : 1.0;
  return row;
}

// ---------------------------------------------------------------------------
// Experiment 4: durable soak under injected faults + kill/recover.

struct DurabilityResult {
  int sessions = 0;
  int updates = 0;
  std::uint64_t fault_seed = 0;
  double fault_rate = 0.0;
  bool faults_compiled = false;
  double faultfree_p99_ms = 0.0;
  double faulted_p99_ms = 0.0;
  double p99_ratio = 0.0;  ///< faulted / fault-free (acceptance bar: <= 5)
  std::int64_t client_retries = 0;  ///< resubmits after pre-mutation faults
  ServiceStats stats;               ///< the faulted run's ledger
  FaultInjector::SiteCounts sites[kNumFaultSites];
  double run_seconds = 0.0;
  double recovery_seconds = 0.0;
  int sessions_recovered = 0;
  std::size_t records_replayed = 0;
  /// Sum over sessions of (last acknowledged epoch - recovered epoch).
  /// The durability contract says this is ZERO: ack implies durable.
  std::int64_t lost_acked_deltas = 0;
  bool recovered_consistent = true;
};

struct DurablePass {
  double p99_ms = 0.0;
  double seconds = 0.0;
  std::int64_t client_retries = 0;
  ServiceStats stats;
  std::vector<std::pair<SessionId, std::uint64_t>> acked;  ///< id -> epoch
  /// Injector ledger, sampled while the pass's scope was still armed.
  FaultInjector::SiteCounts sites[kNumFaultSites];
};

/// One durable churn soak over `wal_dir`.  The service dies WITHOUT an
/// orderly close (the WAL's per-record fsync is what recovery leans on).
DurablePass run_durable_pass(const std::string& wal_dir, int num_sessions,
                             int updates, VertexId n, PartId k,
                             int pool_threads, std::uint64_t fault_seed,
                             double fault_rate) {
  namespace fs = std::filesystem;
  fs::remove_all(wal_dir);

  ServiceConfig sc;
  sc.num_threads = pool_threads;
  sc.durability.dir = wal_dir;
  sc.durability.compaction.damage_threshold = 256;
  // Fast retry schedule: the soak measures fault *absorption*, and a 10%
  // schedule injects often enough that production-scale sleeps would swamp
  // the p99 comparison with pure waiting.
  sc.durability.io_retry.max_attempts = 12;
  sc.durability.io_retry.initial_seconds = 1e-5;
  sc.durability.io_retry.max_seconds = 1e-3;
  // Ladder armed with headroom: it should fire on genuine pressure spikes,
  // not on every update.
  sc.overload.shed_verification_backlog = 16;
  sc.overload.defer_refinement_backlog = 32;

  DurablePass pass;
  {
    PartitionService service(sc);

    SessionConfig cfg;
    cfg.num_parts = k;
    cfg.repair_budget_seconds = 0.001;
    cfg.policy.damage_threshold = 64;
    cfg.policy.staleness_updates = 16;
    cfg.policy.allow_deep = false;

    struct Client {
      SessionId id;
      std::uint64_t seed;
      VertexId window;
      std::uint64_t acked_epoch = 0;
    };
    std::vector<Client> clients;
    for (int s = 0; s < num_sessions; ++s) {
      const auto seed = 0xd07aULL + static_cast<std::uint64_t>(s) * 257;
      const VertexId window = 4 + 2 * (s % 3);
      auto graph = std::make_shared<const Graph>(
          trace_graph(TraceKind::kChurn, n, window, 0, seed));
      const SessionId id = service.open_session(
          graph, scrambled_bands(n, n, k, 0.03, seed ^ 0x77), cfg);
      clients.push_back({id, seed, window, 0});
    }

    // Arm AFTER the sessions exist: session creation writes the epoch-0
    // checkpoints, and those writers are not under a client retry loop.
    std::unique_ptr<ScopedFaultInjection> scope;
    if (fault_rate > 0.0) {
      scope = std::make_unique<ScopedFaultInjection>(fault_seed, fault_rate);
    }

    std::atomic<std::int64_t> retries{0};
    const int threads =
        std::max(1, std::min<int>(4, static_cast<int>(clients.size())));
    WallTimer timer;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t c = static_cast<std::size_t>(t); c < clients.size();
             c += static_cast<std::size_t>(threads)) {
          Client& client = clients[c];
          auto prev = std::make_shared<const Graph>(trace_graph(
              TraceKind::kChurn, n, client.window, 0, client.seed));
          for (int u = 1; u <= updates; ++u) {
            auto next = std::make_shared<const Graph>(trace_graph(
                TraceKind::kChurn, n, client.window, u, client.seed));
            const GraphDelta delta = diff_graphs(*prev, *next);
            for (;;) {
              try {
                const RepairReport rep =
                    service.submit_update(client.id, next, delta);
                client.acked_epoch = rep.update_epoch;
                break;
              } catch (const std::bad_alloc&) {
                // Injected before any mutation: resubmit the same delta.
                retries.fetch_add(1, std::memory_order_relaxed);
              } catch (const OverloadError&) {
                retries.fetch_add(1, std::memory_order_relaxed);
                std::this_thread::sleep_for(std::chrono::microseconds(200));
              }
            }
            prev = std::move(next);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    service.quiesce();
    pass.seconds = timer.seconds();
    pass.client_retries = retries.load(std::memory_order_relaxed);
    pass.stats = service.stats();
    pass.p99_ms = pass.stats.p99_repair_seconds * 1e3;
    for (const Client& client : clients) {
      pass.acked.emplace_back(client.id, client.acked_epoch);
    }
    // Capture the schedule's ledger before the scope disarms + resets it.
    if (scope) {
      for (int s = 0; s < kNumFaultSites; ++s) {
        pass.sites[s] =
            FaultInjector::instance().counts(static_cast<FaultSite>(s));
      }
    }
  }  // scope disarms, then the service dies with no close — the "crash"
  return pass;
}

DurabilityResult run_durability(int num_sessions, int updates, VertexId n,
                                PartId k, int pool_threads,
                                std::uint64_t fault_seed, double fault_rate) {
  namespace fs = std::filesystem;
  DurabilityResult out;
  out.sessions = num_sessions;
  out.updates = updates;
  out.fault_seed = fault_seed;
  out.fault_rate = fault_rate;
#ifdef GAPART_FAULT_INJECTION
  out.faults_compiled = true;
#else
  out.fault_rate = 0.0;  // seam compiled out: report an honest zero
#endif

  const std::string base =
      (fs::temp_directory_path() / "gapart_soak_wal").string();

  // Baseline: same trace, same durable config, no injection.
  const DurablePass clean =
      run_durable_pass(base + "_clean", num_sessions, updates, n, k,
                       pool_threads, 0, 0.0);
  out.faultfree_p99_ms = clean.p99_ms;
  fs::remove_all(base + "_clean");

  // Faulted run (the pass arms its own scope after session creation — the
  // epoch-0 checkpoint writers are not under a client retry loop — and
  // samples the injector ledger before the scope disarms).
  const std::string dir = base + "_faulted";
  {
    const DurablePass faulted =
        run_durable_pass(dir, num_sessions, updates, n, k, pool_threads,
                         fault_seed, out.fault_rate);
    for (int s = 0; s < kNumFaultSites; ++s) out.sites[s] = faulted.sites[s];
    out.faulted_p99_ms = faulted.p99_ms;
    out.run_seconds = faulted.seconds;
    out.client_retries = faulted.client_retries;
    out.stats = faulted.stats;
    out.p99_ratio = out.faultfree_p99_ms > 0.0
                        ? out.faulted_p99_ms / out.faultfree_p99_ms
                        : 0.0;

    // Recover from the "crash" and audit the durability contract.
    ServiceConfig sc;
    sc.num_threads = pool_threads;
    sc.durability.dir = dir;
    PartitionService recovered(sc);
    SessionConfig cfg;
    cfg.num_parts = k;
    cfg.repair_budget_seconds = 0.001;
    WallTimer recover_timer;
    const auto reports = recovered.recover(cfg);
    out.recovery_seconds = recover_timer.seconds();
    out.sessions_recovered = static_cast<int>(reports.size());
    for (const auto& report : reports) {
      out.records_replayed += report.records_replayed;
      for (const auto& [id, acked] : faulted.acked) {
        if (id == report.session_id && acked > report.final_epoch) {
          out.lost_acked_deltas +=
              static_cast<std::int64_t>(acked - report.final_epoch);
        }
      }
      const auto snap = recovered.snapshot(report.session_id);
      if (!is_valid_assignment(*snap->graph, snap->assignment, k)) {
        out.recovered_consistent = false;
      }
    }
  }
  fs::remove_all(dir);
  return out;
}

// ---------------------------------------------------------------------------
// Experiment 5: replication over a loopback link + failover.

struct ReplicationResult {
  int sessions = 0;
  int updates = 0;
  double fault_rate = 0.0;
  double seconds = 0.0;
  double ack_ms_p50 = 0.0;  ///< submit -> follower-acked, per update
  double ack_ms_p99 = 0.0;
  std::int64_t client_retries = 0;
  ShipperStats ship;
  FollowerStats follower;
  double failover_ms = 0.0;
  std::uint64_t promoted_generation = 0;
  int promoted_sessions = 0;
  std::int64_t lost_acked_deltas = 0;
  bool replicated_consistent = true;
};

ReplicationResult run_replication(int num_sessions, int updates, VertexId n,
                                  PartId k, std::uint64_t fault_seed,
                                  double fault_rate) {
  namespace fs = std::filesystem;
  const std::string base =
      (fs::temp_directory_path() / "gapart_soak_rep").string();
  fs::remove_all(base + "_leader");
  fs::remove_all(base + "_follower");

  ReplicationResult out;
  out.sessions = num_sessions;
  out.updates = updates;
  out.fault_rate = fault_rate;

  SessionConfig cfg;
  cfg.num_parts = k;
  // A large budget makes the leader's admitted verification rounds a pure
  // function of the trace, so its state equals the in-process reference's;
  // the follower applies the leader's logged moves.
  cfg.repair_budget_seconds = 60.0;

  // Never-crashed reference: per session, the content digest at every epoch
  // of the same deterministic trace.
  std::vector<std::vector<std::uint64_t>> reference;
  for (int s = 0; s < num_sessions; ++s) {
    const auto seed = 0x4e9bULL + static_cast<std::uint64_t>(s) * 419;
    const VertexId window = 4 + 2 * (s % 3);
    auto prev = std::make_shared<const Graph>(
        trace_graph(TraceKind::kChurn, n, window, 0, seed));
    PartitionSession session(prev, column_bands(n, n, k), cfg);
    std::vector<std::uint64_t> digests{session.state_digest()};
    for (int u = 1; u <= updates; ++u) {
      auto next = std::make_shared<const Graph>(
          trace_graph(TraceKind::kChurn, n, window, u, seed));
      session.apply_update(next, diff_graphs(*prev, *next));
      prev = std::move(next);
      digests.push_back(session.state_digest());
    }
    reference.push_back(std::move(digests));
  }

  ServiceConfig lsc;
  lsc.num_threads = 2;
  lsc.background_refinement = false;  // determinism: the delta plane only
  lsc.durability.dir = base + "_leader";
  lsc.durability.ship_retain_bytes = 0;  // strict lockstep compaction
  lsc.durability.io_retry.max_attempts = 12;
  lsc.durability.io_retry.initial_seconds = 1e-5;
  lsc.durability.io_retry.max_seconds = 1e-3;
  ServiceConfig fsc = lsc;
  fsc.durability.dir = base + "_follower";
  fsc.durability.compaction.damage_threshold = 0;  // lockstep only
  fsc.durability.compaction.bytes_threshold = 0;

  auto link = LoopbackTransport::create_pair();
  auto leader = std::make_unique<PartitionService>(lsc);
  PartitionService follower_svc(fsc);
  ShipperConfig ship_cfg;
  ship_cfg.resume_after_stalled_pumps = 2;
  auto shipper =
      std::make_unique<ReplicationShipper>(*leader, *link.first, ship_cfg);
  FollowerConfig fcfg;
  fcfg.base = cfg;
  ReplicationFollower follower(follower_svc, *link.second, fcfg);
  follower.start_follower();

  std::vector<SessionId> ids;
  std::vector<std::shared_ptr<const Graph>> prevs;
  for (int s = 0; s < num_sessions; ++s) {
    const auto seed = 0x4e9bULL + static_cast<std::uint64_t>(s) * 419;
    const VertexId window = 4 + 2 * (s % 3);
    auto g0 = std::make_shared<const Graph>(
        trace_graph(TraceKind::kChurn, n, window, 0, seed));
    ids.push_back(leader->open_session(g0, column_bands(n, n, k), cfg));
    prevs.push_back(std::move(g0));
  }
  shipper->pump();  // attach every session at epoch 0
  follower.pump();

  // Arm AFTER the sessions exist (their epoch-0 checkpoints are not under a
  // retry loop), stream the trace, and track per-update ack latency.
  {
    std::unique_ptr<ScopedFaultInjection> scope;
    if (fault_rate > 0.0) {
      scope = std::make_unique<ScopedFaultInjection>(fault_seed, fault_rate);
    }
    WallTimer run_timer;
    std::vector<double> ack_seconds;
    for (int u = 1; u <= updates; ++u) {
      for (int s = 0; s < num_sessions; ++s) {
        const auto seed = 0x4e9bULL + static_cast<std::uint64_t>(s) * 419;
        const VertexId window = 4 + 2 * (s % 3);
        auto next = std::make_shared<const Graph>(
            trace_graph(TraceKind::kChurn, n, window, u, seed));
        const GraphDelta delta = diff_graphs(*prevs[s], *next);
        std::uint64_t epoch = 0;
        for (;;) {
          try {
            epoch = leader->submit_update(ids[s], next, delta).update_epoch;
            break;
          } catch (const std::bad_alloc&) {
            ++out.client_retries;  // injected pre-mutation: resubmit
          }
        }
        prevs[s] = std::move(next);
        WallTimer ack_timer;
        for (int pump = 0; pump < 400; ++pump) {
          shipper->pump();
          follower.pump();
          if (shipper->acked_epoch(ids[s]) >= epoch) break;
        }
        ack_seconds.push_back(ack_timer.seconds());
      }
    }
    out.seconds = run_timer.seconds();
    out.ack_ms_p50 = quantile(ack_seconds, 0.50) * 1e3;
    out.ack_ms_p99 = quantile(ack_seconds, 0.99) * 1e3;
  }  // the storm disarms; in-flight damage stays for failover to absorb

  // Record what the replicated system acknowledged, then kill the leader
  // WITHOUT an orderly close and promote the follower.
  std::vector<std::uint64_t> acked;
  for (const SessionId id : ids) acked.push_back(shipper->acked_epoch(id));
  out.ship = shipper->stats();
  shipper.reset();
  leader.reset();

  const PromotionReport report = follower.promote();
  out.follower = follower.stats();
  out.failover_ms = report.seconds * 1e3;
  out.promoted_generation = report.generation;
  out.promoted_sessions = static_cast<int>(report.sessions.size());
  for (const PromotedSession& promoted : report.sessions) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      if (ids[s] != promoted.id) continue;
      if (acked[s] > promoted.epoch) {
        out.lost_acked_deltas +=
            static_cast<std::int64_t>(acked[s] - promoted.epoch);
      }
      if (promoted.epoch >= reference[s].size() ||
          promoted.digest != reference[s][promoted.epoch]) {
        out.replicated_consistent = false;
      }
    }
  }
  if (report.sessions.size() != ids.size()) out.replicated_consistent = false;

  fs::remove_all(base + "_leader");
  fs::remove_all(base + "_follower");
  return out;
}

// ---------------------------------------------------------------------------

void emit_json(const SoakResult& soak, const std::vector<LatencyRow>& latency,
               const std::vector<RecoveryRow>& recovery,
               const DurabilityResult& durability,
               const ReplicationResult& replication) {
  std::printf("{\n");
  std::printf("  \"bench\": \"soak_service\",\n");
  std::printf(
      "  \"soak\": {\"sessions\": %d, \"client_threads\": %d, "
      "\"updates_per_session\": %d, \"seconds\": %.3f, "
      "\"updates_per_second\": %.1f, \"total_damage\": %llu, "
      "\"p50_repair_ms\": %.4f, \"p99_repair_ms\": %.4f, "
      "\"max_repair_ms\": %.4f, \"refinements_planned\": %d, "
      "\"refinements_applied\": %d, \"refinements_stale\": %d, "
      "\"refinements_no_better\": %d, "
      "\"full_evaluations\": %lld, \"delta_evaluations\": %lld, "
      "\"pool_threads\": %d, \"backlog_max\": %d, \"backlog_mean\": %.2f, "
      "\"backlog_samples\": %d},\n",
      soak.sessions, soak.client_threads, soak.updates_per_session,
      soak.seconds,
      soak.seconds > 0.0
          ? static_cast<double>(soak.stats.updates) / soak.seconds
          : 0.0,
      static_cast<unsigned long long>(soak.stats.total_damage),
      soak.stats.p50_repair_seconds * 1e3, soak.stats.p99_repair_seconds * 1e3,
      soak.stats.max_repair_seconds * 1e3, soak.stats.refinements_planned,
      soak.stats.refinements_applied, soak.stats.refinements_stale,
      soak.stats.refinements_no_better,
      static_cast<long long>(soak.stats.full_evaluations),
      static_cast<long long>(soak.stats.delta_evaluations),
      soak.pool_threads, soak.backlog_max, soak.backlog_mean,
      soak.backlog_samples);

  std::printf("  \"latency\": [\n");
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const LatencyRow& r = latency[i];
    std::printf(
        "    {\"n\": %d, \"k\": %d, \"window\": %d, \"updates\": %d, "
        "\"damage_mean\": %.1f, \"mean_ms\": %.4f, \"p50_ms\": %.4f, "
        "\"p99_ms\": %.4f, \"examined\": %lld}%s\n",
        static_cast<int>(r.n), static_cast<int>(r.k),
        static_cast<int>(r.window), r.updates, r.damage_mean, r.mean_ms,
        r.p50_ms, r.p99_ms, static_cast<long long>(r.examined),
        i + 1 < latency.size() ? "," : "");
  }
  std::printf("  ],\n");

  std::printf("  \"recovery\": [\n");
  for (std::size_t i = 0; i < recovery.size(); ++i) {
    const RecoveryRow& r = recovery[i];
    std::printf(
        "    {\"trace\": \"churn\", \"n\": %d, \"k\": %d, \"updates\": %d, "
        "\"session_cut\": %.1f, \"dpga_cut\": %.1f, "
        "\"recovery_ratio\": %.3f, \"refinements_applied\": %d, "
        "\"session_seconds\": %.3f, \"dpga_seconds\": %.3f}%s\n",
        static_cast<int>(r.n), static_cast<int>(r.k), r.updates, r.session_cut,
        r.dpga_cut, r.recovery_ratio, r.refinements_applied,
        r.session_seconds, r.dpga_seconds,
        i + 1 < recovery.size() ? "," : "");
  }
  std::printf("  ],\n");

  const DurabilityResult& d = durability;
  const ServiceStats& ds = d.stats;
  std::printf("  \"durability\": {\n");
  std::printf(
      "    \"sessions\": %d, \"updates_per_session\": %d, "
      "\"fault_seed\": %llu, \"fault_rate\": %.3f, "
      "\"faults_compiled\": %s,\n",
      d.sessions, d.updates, static_cast<unsigned long long>(d.fault_seed),
      d.fault_rate, d.faults_compiled ? "true" : "false");
  std::printf(
      "    \"faultfree_p99_ms\": %.4f, \"faulted_p99_ms\": %.4f, "
      "\"p99_ratio\": %.2f, \"run_seconds\": %.3f,\n",
      d.faultfree_p99_ms, d.faulted_p99_ms, d.p99_ratio, d.run_seconds);
  std::printf(
      "    \"wal\": {\"appends\": %llu, \"append_retries\": %llu, "
      "\"fsyncs\": %llu, \"bytes_appended\": %llu, \"compactions\": %llu, "
      "\"compaction_failures\": %llu},\n",
      static_cast<unsigned long long>(ds.wal_appends),
      static_cast<unsigned long long>(ds.wal_append_retries),
      static_cast<unsigned long long>(ds.wal_fsyncs),
      static_cast<unsigned long long>(ds.wal_bytes_appended),
      static_cast<unsigned long long>(ds.wal_compactions),
      static_cast<unsigned long long>(ds.wal_compaction_failures));
  std::printf(
      "    \"overload\": {\"client_retries\": %lld, "
      "\"updates_rejected\": %lld, \"verifications_shed\": %lld, "
      "\"refinements_deferred\": %lld, \"refine_start_failures\": %lld},\n",
      static_cast<long long>(d.client_retries),
      static_cast<long long>(ds.updates_rejected),
      static_cast<long long>(ds.verifications_shed),
      static_cast<long long>(ds.refinements_deferred),
      static_cast<long long>(ds.refine_start_failures));
  std::printf("    \"faults\": [");
  for (int s = 0; s < kNumFaultSites; ++s) {
    std::printf(
        "%s{\"site\": \"%s\", \"checked\": %llu, \"injected\": %llu}",
        s > 0 ? ", " : "", fault_site_name(static_cast<FaultSite>(s)),
        static_cast<unsigned long long>(d.sites[s].checked),
        static_cast<unsigned long long>(d.sites[s].injected));
  }
  std::printf("],\n");
  std::printf(
      "    \"recovery_seconds\": %.4f, \"sessions_recovered\": %d, "
      "\"records_replayed\": %zu, \"lost_acked_deltas\": %lld, "
      "\"recovered_consistent\": %s, \"failed_sessions\": %d\n",
      d.recovery_seconds, d.sessions_recovered, d.records_replayed,
      static_cast<long long>(d.lost_acked_deltas),
      d.recovered_consistent ? "true" : "false", ds.failed_sessions);
  std::printf("  },\n");

  const ReplicationResult& rep = replication;
  std::printf("  \"replication\": {\n");
  std::printf(
      "    \"sessions\": %d, \"updates_per_session\": %d, "
      "\"fault_rate\": %.3f, \"seconds\": %.3f, \"client_retries\": %lld,\n",
      rep.sessions, rep.updates, rep.fault_rate, rep.seconds,
      static_cast<long long>(rep.client_retries));
  std::printf(
      "    \"ack_ms_p50\": %.4f, \"ack_ms_p99\": %.4f, "
      "\"lag_epochs_p50\": %.2f, \"lag_epochs_p99\": %.2f,\n",
      rep.ack_ms_p50, rep.ack_ms_p99, rep.ship.lag_epochs_p50,
      rep.ship.lag_epochs_p99);
  std::printf(
      "    \"frames_sent\": %llu, \"acks_received\": %llu, "
      "\"send_failures\": %llu, \"resumes\": %llu, "
      "\"snapshot_resyncs\": %llu, \"backpressure_stalls\": %llu,\n",
      static_cast<unsigned long long>(rep.ship.frames_sent),
      static_cast<unsigned long long>(rep.ship.acks_received),
      static_cast<unsigned long long>(rep.ship.send_failures),
      static_cast<unsigned long long>(rep.ship.resumes),
      static_cast<unsigned long long>(rep.ship.snapshot_resyncs),
      static_cast<unsigned long long>(rep.ship.backpressure_stalls));
  std::printf(
      "    \"records_applied\": %llu, \"compacts_applied\": %llu, "
      "\"digests_verified\": %llu, \"duplicates_dropped\": %llu, "
      "\"gaps_dropped\": %llu, \"corrupt_rejected\": %llu, "
      "\"fenced_rejected\": %llu, \"apply_failures\": %llu,\n",
      static_cast<unsigned long long>(rep.follower.records_applied),
      static_cast<unsigned long long>(rep.follower.compacts_applied),
      static_cast<unsigned long long>(rep.follower.digests_verified),
      static_cast<unsigned long long>(rep.follower.duplicates_dropped),
      static_cast<unsigned long long>(rep.follower.gaps_dropped),
      static_cast<unsigned long long>(rep.follower.corrupt_rejected),
      static_cast<unsigned long long>(rep.follower.fenced_rejected),
      static_cast<unsigned long long>(rep.follower.apply_failures));
  std::printf(
      "    \"failover_ms\": %.3f, \"promoted_generation\": %llu, "
      "\"promoted_sessions\": %d, \"lost_acked_deltas\": %lld, "
      "\"diverged\": %s, \"replicated_consistent\": %s\n",
      rep.failover_ms,
      static_cast<unsigned long long>(rep.promoted_generation),
      rep.promoted_sessions, static_cast<long long>(rep.lost_acked_deltas),
      rep.follower.diverged ? "true" : "false",
      rep.replicated_consistent ? "true" : "false");
  std::printf("  }\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const bool quick = args.flag("quick") || quick_mode_enabled();

  // --telemetry traces the whole run: spans from every plane collect into
  // per-thread rings, exported at exit as Chrome trace_event JSON (open in
  // chrome://tracing or https://ui.perfetto.dev) alongside a metrics dump
  // of the registry.  Requires a GAPART_TELEMETRY build; without it the
  // files are still written but carry no span data.
  const bool telemetry = args.flag("telemetry");
  const std::string trace_out = args.str("trace-out", "soak_trace.json");
  const std::string metrics_out = args.str("metrics-out", "soak_metrics.json");
  if (telemetry) Tracer::instance().enable();
  const int sessions = args.integer("sessions", 32);
  const int updates = args.integer("updates", quick ? 10 : 40);
  const int pool_threads =
      args.integer("threads", 0) > 0 ? args.integer("threads", 0)
                                     : Executor::hardware_threads();

  const VertexId soak_n = quick ? 24 : 48;
  const SoakResult soak =
      run_soak(sessions, updates, soak_n, /*k=*/4, pool_threads,
               /*deep_refinement=*/!quick);

  std::vector<LatencyRow> latency;
  const std::vector<VertexId> sizes =
      quick ? std::vector<VertexId>{48, 96}
            : std::vector<VertexId>{64, 128, 256};
  const int lat_updates = quick ? 20 : 60;
  for (const VertexId n : sizes) {
    for (const VertexId w : {VertexId{2}, VertexId{4}, VertexId{8},
                             VertexId{16}}) {
      latency.push_back(run_latency(n, /*k=*/2, w, lat_updates));
    }
  }

  std::vector<RecoveryRow> recovery;
  recovery.push_back(run_recovery(quick ? 16 : 32, /*k=*/4,
                                  quick ? 12 : 40, pool_threads, quick));
  if (!quick) {
    recovery.push_back(run_recovery(24, /*k=*/2, 40, pool_threads, quick));
  }

  // --faults=<seed> arms the deterministic injector for the durability
  // experiment; --fault-rate tunes the per-site failure probability.
  const auto fault_seed =
      static_cast<std::uint64_t>(args.integer("faults", 0));
  const double fault_rate =
      fault_seed != 0 ? args.real("fault-rate", 0.10) : 0.0;
  const DurabilityResult durability = run_durability(
      quick ? 4 : 8, quick ? 12 : 24, quick ? 16 : 24, /*k=*/4, pool_threads,
      fault_seed, fault_rate);

  // The replication experiment always runs (fault-free it is the baseline
  // ship-lag measurement); --replicate arms a 10% transport + I/O fault
  // storm over the same trace, sharing the --faults seed when given.
  const bool replicate = args.flag("replicate");
  const std::uint64_t rep_seed =
      replicate ? (fault_seed != 0 ? fault_seed : 2026) : 0;
  const ReplicationResult replication = run_replication(
      quick ? 2 : 4, quick ? 8 : 16, quick ? 12 : 16, /*k=*/3, rep_seed,
      replicate ? args.real("fault-rate", 0.10) : 0.0);

  emit_json(soak, latency, recovery, durability, replication);

  if (telemetry) {
    Tracer::instance().disable();
    {
      std::ofstream os(trace_out);
      Tracer::instance().export_chrome_trace(os);
    }
    {
      std::ofstream os(metrics_out);
      TelemetryRegistry::instance().write_json(os);
    }
    std::fprintf(stderr,
                 "telemetry: wrote trace %s (%zu events buffered) and "
                 "metrics %s\n",
                 trace_out.c_str(), Tracer::instance().buffered_events(),
                 metrics_out.c_str());
  }
  return 0;
}

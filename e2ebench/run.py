#!/usr/bin/env python3
"""End-to-end update benchmark for gapart's PartitionService.

Builds e2e_update (and the library, from this checkout's sources) into
.bench_build/, runs one workload, and relays its report.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A failed correctness check exits non-zero without it.

  python3 e2ebench/run.py --workload churn_64k_replicated --seed 1 \\
      --seconds 15 --trace 0

--trace 1 prints the per-layer metrics instead and leaves trace.json (the
library's spans merged with the benchmark's) and registry.json under
.bench_build/trace/<workload>-seed<seed>/, after validating the trace with
scripts/check_trace.py and reconciling its layers with the update latency.
--tiny shrinks every input (used by smoke.py).
"""

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("grow_1m_durable", "churn_64k_replicated", "hotspot_64k_refine")
RUN_TIMEOUT_S = 175
# malloc asks for transparent huge pages for the heap and its large blocks
# (glibc 2.35+; other C libraries ignore the variable).  Four back-to-back
# runs of one grow_1m_durable seed on the 4-core reference host gave update
# p50s of 115-153 ms with 4 KB pages and 98-105 ms with huge pages.
ENV = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")
# The layers must account for all but this share of the summed update time.
RECONCILE_BAR = 0.10
# The ledger: an update's time counts as attributed wherever some layer's
# span is open.  The benchmark's own spans count for the calls it makes
# itself (the adapter's build and diff, the replication pumps).  Inside the
# calls into the service (submit, refine wait) only the library's spans
# count: those on the client thread, and the refinement plane's on any
# thread, since the update waits for that work on the pool.
WHOLE_LAYERS = ("graph.build", "graph_delta.diff", "replication.ship",
                "replication.follower")


def fail(msg: str) -> NoReturn:
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build() -> Path:
    """Configures once, then builds incrementally; all output to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no gapart sources next to {HERE.name}/ (expected {ROOT}/src)")
    cmake_dir = BUILD / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs,
                  "--target", "e2e_update"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return cmake_dir / "e2e_update"


def merge_trace(out_dir: Path) -> tuple:
    """Puts the benchmark's spans on the client thread's lane of the
    library trace and writes trace.json.  Returns its path, the library's
    spans, the benchmark's spans and the client lane."""
    lib = json.loads((out_dir / "library_trace.json").read_text())
    bench = json.loads((out_dir / "bench_spans.json").read_text())
    lanes = {ev["tid"] for ev in lib["traceEvents"]
             if ev.get("name") == "e2ebench.client"}
    if len(lanes) != 1:
        fail("library trace lacks the client-thread marker")
    client = lanes.pop()
    for ev in bench["traceEvents"]:
        ev["tid"] = client
    merged = {"traceEvents": lib["traceEvents"] + bench["traceEvents"],
              "displayTimeUnit": "ms"}
    path = out_dir / "trace.json"
    path.write_text(json.dumps(merged))
    spans = [ev for ev in lib["traceEvents"]
             if ev.get("ph") == "X" and ev["name"] != "e2ebench.client"]
    return path, spans, bench["traceEvents"], client


def covered(start: float, end: float, spans: list) -> float:
    """How much of [start, end] the union of `spans` covers."""
    total, reach = 0.0, start
    for ev in sorted(spans, key=lambda e: e["ts"]):
        lo, hi = max(ev["ts"], reach), min(ev["ts"] + ev["dur"], end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def reconcile(lib_spans: list, bench_spans: list, client: int) -> tuple:
    """Per update, the time no layer's span accounts for (see WHOLE_LAYERS).
    Returns (p50 of it in ms, its share of the summed update time)."""
    updates = sorted((ev for ev in bench_spans if ev["name"] == "update"),
                     key=lambda e: e["ts"])
    if not updates:
        fail("trace holds no update spans")
    layers = {u["args"]["seq"]: [] for u in updates}
    for ev in bench_spans:
        if ev["name"] in WHOLE_LAYERS:
            layers[ev["args"]["seq"]].append(ev)
    starts = [u["ts"] for u in updates]
    for ev in lib_spans:
        if ev["tid"] != client and not ev["name"].startswith("refine."):
            continue
        # The updates this span overlaps (they are disjoint and sorted).
        i = max(0, bisect.bisect_right(starts, ev["ts"]) - 1)
        while i < len(updates) and updates[i]["ts"] < ev["ts"] + ev["dur"]:
            if ev["ts"] < updates[i]["ts"] + updates[i]["dur"]:
                layers[updates[i]["args"]["seq"]].append(ev)
            i += 1
    missing = [u["dur"] - covered(u["ts"], u["ts"] + u["dur"],
                                  layers[u["args"]["seq"]])
               for u in updates]
    share = sum(missing) / sum(u["dur"] for u in updates)
    return statistics.median(missing) / 1e3, share


def check_result(line: str) -> dict:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail("run reported a failure")
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    binary = build()
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    work_dir = BUILD / "work" / f"{tag}-{os.getpid()}"
    out_dir = BUILD / "trace" / tag
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--out-dir", str(out_dir)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=ENV, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"e2e_update exited with code {proc.returncode}")
    result = check_result(lines[-1])

    if args.trace:
        trace, lib_spans, bench_spans, client = merge_trace(out_dir)
        check = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "check_trace.py"),
             str(trace), "--min-events=2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if check.returncode != 0:
            sys.stderr.write(check.stdout)
            fail("trace failed validation")
        p50_ms, share = reconcile(lib_spans, bench_spans, client)
        lines[-1:] = [
            check.stdout.strip(),
            f"trace: {trace.relative_to(ROOT)}  registry: "
            f"{(out_dir / 'registry.json').relative_to(ROOT)}",
            f"reconciled: layers leave {share:.2%} of the summed update time "
            f"unattributed (p50 {p50_ms:.4f} ms per update; bar "
            f"{RECONCILE_BAR:.0%})"]
        if share > RECONCILE_BAR:
            print("\n".join(lines))
            fail(f"layers leave {share:.2%} of update time unattributed")
        result["metrics"]["telemetry.unattributed_ms"] = {
            "value": p50_ms, "unit": "ms"}
        lines.append(json.dumps(result))
    print("\n".join(lines))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Smoke test of the end-to-end update benchmark at tiny sizes.

For every workload it checks that
  * two runs with one seed print identical work counts and input digests;
  * another seed changes the generated inputs;
  * the untraced run prints exactly BENCHMARK.json's end-to-end metrics and
    the traced run exactly its per-layer metrics, each with its unit, and
    the traced run's trace passes scripts/check_trace.py (run.py checks it).

  python3 e2ebench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"smoke: {workload} seed {seed} trace {trace} exited "
                 f"{proc.returncode}")
    return proc.stdout.splitlines()


def work_line(lines: list) -> dict:
    for line in lines:
        if line.startswith("work "):
            return json.loads(line[len("work "):])
    sys.exit("smoke: no work line in the output")


def check_metrics(lines: list, expected: list, what: str) -> None:
    metrics = json.loads(lines[-1])["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        sys.exit(f"smoke: {what} metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, "
                 f"extra {sorted(set(got) - set(want))}, "
                 f"units {[k for k in want if k in got and want[k] != got[k]]}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        first = run(name, 1, 0)
        again = run(name, 1, 0)
        other = run(name, 2, 0)
        if work_line(first) != work_line(again):
            sys.exit(f"smoke: {name}: one seed gave different work:\n"
                     f"{work_line(first)}\n{work_line(again)}")
        if work_line(first)["input_digest"] == work_line(other)["input_digest"]:
            sys.exit(f"smoke: {name}: seeds 1 and 2 gave the same inputs")
        check_metrics(first, spec["end_to_end"], f"{name} end-to-end")
        check_metrics(run(name, 1, 1), spec["per_layer"], f"{name} per-layer")
        print(f"smoke: {name}: OK")


if __name__ == "__main__":
    main()

"""Self-test of the benchmark: shortened traced runs of every workload, twice.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it runs ``run.py --trace 1 --rounds 1`` twice with one
seed and checks that the runs pass their output checks, that every count
metric repeats exactly, and that the spans of each traced operation lie
inside it and cover its wall time.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, STATE, WORKLOAD_NAMES

SEED = 7

#: Share of an operation's wall time its direct child spans must cover.
MIN_COVERAGE = 0.95


def fail(message: str) -> None:
    sys.exit(f"selftest: {message}")


def traced_run(workload: str) -> tuple[dict, list[dict]]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1", "--rounds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload}: run.py exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        fail(f"{workload}: {result['failed']} of {result['attempted']} operations failed")
    spans = json.loads((STATE / f"spans-{workload}-{SEED}.json").read_text())["spans"]
    return result["metrics"], spans


def check_coverage(workload: str, spans: list[dict]) -> int:
    """Children nest inside parents; each op's direct children cover its wall."""
    covered: dict[int, float] = {}
    for s in spans:
        parent = s["parent"]
        if parent < 0:
            continue
        p = spans[parent]
        if not (p["start"] <= s["start"] <= s["end"] <= p["end"]) or p["op"] != s["op"]:
            fail(f"{workload}: span {s['label']} escapes its parent {p['label']}")
        covered[parent] = covered.get(parent, 0.0) + s["end"] - s["start"]
    ops = [i for i, s in enumerate(spans) if s["label"] == "op"]
    if not ops:
        fail(f"{workload}: no traced operations")
    for i in ops:
        wall = spans[i]["end"] - spans[i]["start"]
        if covered.get(i, 0.0) < MIN_COVERAGE * wall:
            fail(f"{workload}: spans cover {covered.get(i, 0.0):.4f} s of op {spans[i]['op']} ({wall:.4f} s)")
    return len(ops)


def main() -> int:
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    counts = [name for name, unit in units.items() if unit in ("count", "B")]
    for workload in WORKLOAD_NAMES:
        first, spans = traced_run(workload)
        n_ops = check_coverage(workload, spans)
        second, spans = traced_run(workload)
        check_coverage(workload, spans)
        differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
        if differ:
            fail(f"{workload}: counts differ between two traced runs: {differ}")
        print(f"selftest: {workload} ok ({n_ops} traced operations, {len(counts)} counts repeat)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

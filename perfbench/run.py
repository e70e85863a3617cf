"""Benchmark of the gradmerge package: three workloads, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload blob-cli --seed 1 --seconds 25 --trace 0

``--trace 0`` starts a fresh worker interpreter three times, reports the
median set-up time over the three, and times operations in the last one
for ``--seconds`` seconds.  End-to-end timings are scaled to a reference
machine speed measured around each operation and after each set-up (see
``calibrate``); the unscaled values are printed on the line before the
result.  ``--trace 1`` runs one worker that traces its set-up and a fixed
number of rounds, each operation once untraced and once traced on the
same input, and reports the per-layer metrics, unscaled.  The metric
names, units and directions come from ``BENCHMARK.json``.  Every
operation's output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
WORKLOAD_NAMES = ("blob-cli", "mlp-report", "wide-sweep")

#: Fresh interpreters started per untraced run; setup_s is their median.
SETUPS = 3

#: Rounds of the traced run.  Fixed, so its counts repeat exactly.
TRACE_ROUNDS = {"blob-cli": 4, "mlp-report": 3, "wide-sweep": 4}

#: The worker's pinned environment: one BLAS thread (at most nproc on any
#: machine), no bytecode writes, fixed hash seed.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}

#: Wall-clock limit of one benchmark invocation, in seconds.
RUN_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=None, help="traced rounds (default: per workload)")
    p.add_argument("--worker", choices=("setup", "full", "trace"), help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------- worker side


def _snapshot(directory: Path) -> dict[str, bytes]:
    if not directory.exists():
        return {}
    return {str(p): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def _same_summary(a: Path, b: Path) -> bool:
    try:
        return (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    except OSError:
        return False


class Tally:
    """Attempted and failed operations, and the accuracies they reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.accuracies: list[float] = []

    def execute(self, op, tracer=None, op_id="") -> tuple[bool, float]:
        """Run and check one operation; returns (passed, wall time of the call)."""
        self.attempted += 1
        t = perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                with tracer.root("op", op_id):
                    result = op.call()
            wall = perf_counter() - t
            accuracy = op.check(result)
        except Exception:  # any exception fails this operation; the loop goes on
            self.fail(op, traceback.format_exc())
            return False, perf_counter() - t
        if accuracy is not None:
            self.accuracies.append(accuracy)
        return True, wall

    def fail(self, op, why: str) -> None:
        self.failed += 1
        print(f"perfbench: {op.kind} {op.key[1:]!r} failed: {why}", file=sys.stderr)


def calibrate() -> float:
    """Wall time of a fixed mix of interpreter, small-array and matvec work.

    On machines whose cores are shared with other tenants, speed drifts
    by tens of percent within a second.  Timings are scaled by
    ``REFERENCE_S / calibrate()`` taken right before and after each
    measurement (measured to halve the spread of repeated runs), which
    turns them into seconds at a fixed reference speed; the program's own
    speed still shows in full, because the kernel does not call it.
    """
    import numpy as np

    t = perf_counter()
    x = 0
    for i in range(100_000):
        x += i
    a = np.ones(16)
    for _ in range(2_000):
        a = np.sqrt(a * a + 1e-9)
    m, v = np.ones((2000, 64)), np.ones(64)
    for _ in range(150):
        m @ v
    return perf_counter() - t


#: Calibration time that defines the reference speed, in seconds.
REFERENCE_S = 0.01


def _blas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, if found."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libs / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                return int(fn())
    return None


def _env_record() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def worker(args) -> dict:
    t = perf_counter()
    import gradmerge  # noqa: F401  (timed: the import layer)

    import_s = perf_counter() - t
    from workloads import WORKLOADS

    work = Path(args.work)
    wl = WORKLOADS[args.workload](work, args.seed)
    tally = Tally()
    if args.worker == "trace":
        return trace_worker(args, wl, tally, import_s)
    wl.setup()
    tally.execute(wl.warmup())
    setup_raw = time.monotonic() - args.t0
    setup_s = setup_raw * REFERENCE_S / statistics.median(calibrate() for _ in range(5))
    if args.worker == "setup":
        return {"setup_s": setup_s, "setup_raw_s": setup_raw, "attempted": tally.attempted, "failed": tally.failed}

    tally.accuracies.clear()
    seen = set()
    unscaled = []  # wall time of each operation, inf when it failed
    calibrations = [calibrate()]  # one before the first operation and after each
    deadline = perf_counter() + args.seconds
    i = 0
    while True:
        for op in wl.round(i):
            if op.key in seen:
                raise RuntimeError(f"two operations share the input {op.key!r}")
            seen.add(op.key)
            passed, wall = tally.execute(op)
            unscaled.append(wall if passed else math.inf)
            calibrations.append(calibrate())
        i += 1
        if perf_counter() >= deadline:
            break
    accuracies = list(tally.accuracies)
    latencies = [
        wall * REFERENCE_S / (0.5 * (before + after))
        for wall, before, after in zip(unscaled, calibrations, calibrations[1:])
    ]
    completed = sum(wall != math.inf for wall in unscaled)

    first, repeat = wl.round(0)[0], wl.round(0, "-repeat")[0]
    passed, _ = tally.execute(repeat)
    if passed and not _same_summary(first.out, repeat.out):
        tally.fail(repeat, "rerun of the same input wrote a different summary.csv")
    if not accuracies or not completed:
        raise WorkerFailed("no operation passed its checks")
    return {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "unscaled": {
            "ops_per_s": completed / sum(x for x in unscaled if x != math.inf),
            "op_p50_s": statistics.median(unscaled),
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "ops": len(latencies),
        "ops_per_s": completed / sum(x for x in latencies if x != math.inf),
        "op_p50_s": statistics.median(latencies),
        "merge_acc_ours": statistics.fmean(accuracies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _env_record(),
    }


def trace_worker(args, wl, tally, import_s) -> dict:
    from spans import Tracer, per_layer_metrics

    tracer = Tracer()
    with tracer.root("setup", "setup"):
        wl.setup()
        tally.execute(wl.warmup())
    rounds = args.rounds or TRACE_ROUNDS[args.workload]
    plain_wall = traced_wall = 0.0
    pair = 0
    for i in range(rounds):
        for k, (plain, traced) in enumerate(zip(wl.round(i), wl.round(i, "-traced"))):
            # Alternate which copy runs first, so warm caches favour neither.
            pair += 1
            if pair % 2:
                plain_ok, plain_s = tally.execute(plain)
            before = _snapshot(traced.out)
            traced_ok, traced_s = tally.execute(traced, tracer, f"r{i}.{k}.{traced.kind}")
            written = {p: b for p, b in _snapshot(traced.out).items() if before.get(p) != b}
            tracer.counts["io.files_written"] += len(written)
            tracer.counts["io.bytes_written"] += sum(len(b) for b in written.values())
            if not pair % 2:
                plain_ok, plain_s = tally.execute(plain)
            plain_wall += plain_s
            traced_wall += traced_s
            has_summary = (plain.out / "summary.csv").exists()
            if plain_ok and traced_ok and has_summary and not _same_summary(plain.out, traced.out):
                tally.fail(traced, "rerun of the same input wrote a different summary.csv")
    STATE.mkdir(exist_ok=True)
    tracer.dump(STATE / f"spans-{args.workload}-{args.seed}.json")
    metrics = per_layer_metrics(tracer)
    metrics["import.s"] = import_s
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics, "env": _env_record()}


# ---------------------------------------------------------------- parent side


def _worker_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args, mode: str, work: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--work", str(work),
    ]
    if args.rounds is not None:
        cmd += ["--rounds", str(args.rounds)]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        env=_worker_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - t0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _import_times(deadline: float) -> dict[str, float]:
    """Cumulative import time of scipy.special and scipy.optimize under gradmerge."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gradmerge"],
        env=_worker_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise WorkerFailed("python -X importtime -c 'import gradmerge' failed")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e6
    return {
        "import.scipy_special_s": cumulative.get("scipy.special", 0.0),
        "import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
    }


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        sys.stdout.write(json.dumps(worker(args)) + "\n")
        return 0

    if not (ROOT / "src" / "gradmerge" / "__init__.py").is_file():
        print(f"perfbench: no gradmerge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = STATE / f"work-{os.getpid()}"
    try:
        if args.trace:
            traced = _spawn(args, "trace", work / "trace", deadline)
            values = dict(traced["metrics"], **_import_times(deadline))
            workers = [traced]
        else:
            workers = [
                _spawn(args, "setup" if k < SETUPS - 1 else "full", work / f"w{k}", deadline)
                for k in range(SETUPS)
            ]
            full = workers[-1]
            values = {name: full[name] for name in ("ops_per_s", "op_p50_s", "merge_acc_ours", "peak_rss_mb")}
            values["setup_s"] = statistics.median(w["setup_s"] for w in workers)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if not args.trace:
        values["success_rate"] = 1.0 - failed / attempted
    missing = [m["name"] for m in wanted if not math.isfinite(values.get(m["name"], math.nan))]
    if missing:
        print(f"perfbench: metrics without a finite value: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        note = f"  (median of {workers[-1]['ops']} operations)" if name == "op_p50_s" else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    env = dict(workers[-1]["env"], nproc=len(os.sched_getaffinity(0)), git_commit=_git_commit())
    info = {"env": env, "workload": args.workload, "seed": args.seed, "trace": args.trace}
    if not args.trace:
        setup_raw = statistics.median(w["setup_raw_s"] for w in workers)
        info["unscaled"] = dict(workers[-1]["unscaled"], setup_s=setup_raw)
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: their operations, inputs and output checks.

Each workload is a closed loop with one client: a round of operations
runs in order, each waiting for the previous one.  Every operation gets
its own seed or grid, derived from the workload seed, so no two
operations of a run share an input and a result cache cannot pass for a
speed-up.  Operations call the package in-process through its public
entry points, looked up on the module at call time so the traced run's
patches apply.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gradmerge import cli as cli_mod
from gradmerge import harness as harness_mod
from gradmerge.models import ModelSpec
from gradmerge.params import load_checkpoint

SUMMARY_HEADER = "method,alpha,task,metric,value"

#: Seeds of one run are ``SEED_STRIDE * seed + k``, ``k`` below the stride.
SEED_STRIDE = 10_000

#: The warm-up operation's input is the same in every run, so set-up time
#: does not vary with the workload seed.
WARMUP_SEED = 2**31 - 1


class CheckFailed(Exception):
    """An operation's output is missing, malformed or non-finite."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: ``call`` does the work, ``check`` validates its output.

    ``check`` receives the call's return value, raises on a bad output and
    returns the ``ours`` merge's accuracy in percent at alpha 1 when the
    operation produces one.
    """

    kind: str
    key: tuple
    out: Path
    call: Callable[[], object]
    check: Callable[[object], float | None]


def run_cli(argv: list[str]) -> int:
    """Invoke the CLI in-process; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_mod.cli(argv)


def _finite(text: str) -> float:
    value = float(text)
    require(math.isfinite(value), f"non-finite value {text!r}")
    return value


def read_summary(out: Path) -> dict[tuple[str, float, str, str], float]:
    """Rows of ``summary.csv`` keyed by (method, alpha, task, metric)."""
    lines = (out / "summary.csv").read_text().splitlines()
    require(lines and lines[0] == SUMMARY_HEADER, f"{out}/summary.csv has a bad header")
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        require(len(fields) == 5, f"{out}/summary.csv has a malformed row {line!r}")
        rows[(fields[0], float(fields[1]), fields[2], fields[3])] = _finite(fields[4])
    return rows


def _accuracy(rows, method: str, alpha: float) -> float:
    for task in ("avg", "true_avg"):
        key = (method, alpha, task, "accuracy")
        require(key in rows, f"summary.csv lacks the {task} row of {method} at alpha={alpha}")
        require(0.0 <= rows[key] <= 1.0, f"accuracy out of range for {method}")
    return rows[(method, alpha, "avg", "accuracy")]


def after_exit(check: Callable[[], float | None]) -> Callable[[int], float | None]:
    """A CLI operation passes only with exit code 0 and a good output."""

    def checked(rc: int) -> float | None:
        require(rc == 0, f"exit code {rc}")
        return check()

    return checked


def check_addition(out: Path, spec) -> float:
    """``report``: summary rows for every method and baseline, finite report.csv."""
    rows = read_summary(out)
    for method in spec.methods + ("all-data",):
        _accuracy(rows, method, 1.0)
    _accuracy(rows, "anchor", 0.0)
    lines = (out / "report.csv").read_text().splitlines()
    expected = len(spec.methods) * (spec.n_tasks - 1)
    require(len(lines) == expected + 1, f"report.csv has {len(lines) - 1} rows, expected {expected}")
    for line in lines[1:]:
        for field in line.split(",")[3:]:
            _finite(field)
    return 100.0 * rows[("ours", 1.0, "avg", "accuracy")]


def check_sweep(out: Path, spec) -> float:
    """``sweep``: avg and true_avg rows plus a .dat line per method and alpha."""
    rows = read_summary(out)
    require(len(rows) == 2 * len(spec.methods) * len(set(spec.alphas)), "summary.csv row count")
    for method in spec.methods:
        for alpha in spec.alphas:
            _accuracy(rows, method, alpha)
        dat = (out / f"sweep_{method}.dat").read_text().splitlines()
        require(len(dat) == len(spec.alphas), f"sweep_{method}.dat has {len(dat)} lines")
    return 100.0 * rows[("ours", 1.0, "avg", "accuracy")]


def check_removal(out: Path, spec) -> None:
    rows = read_summary(out)
    for label in spec.methods + ("retrain", "anchor"):
        alpha = 1.0 if label in spec.methods else 0.0
        _accuracy(rows, label, alpha)
        dist = (label, alpha, "all", "dist_retrain")
        require(dist in rows and rows[dist] >= 0.0, f"missing dist_retrain for {label}")


def check_oracles(out: Path, fixtures: int) -> None:
    lines = (out / "oracle_table.csv").read_text().splitlines()[1:]
    require(len(lines) >= fixtures, f"oracle table has only {len(lines)} rows")
    failed = [line.split(",")[0] for line in lines if line.split(",")[1] != "pass"]
    require(not failed, f"oracle checks failed: {failed[:5]}")


def check_checkpoints(out: Path, stems, curvature: bool) -> None:
    """Each checkpoint loads (lengths and finiteness are validated on load)."""
    for stem in stems:
        ck = load_checkpoint(out / stem)
        require((ck.curvature is not None) == curvature, f"{stem}: curvature presence")


class Workload:
    """Base class: ``setup`` prepares state, ``round`` yields operations."""

    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.base = SEED_STRIDE * seed

    def setup(self) -> None:
        pass

    def round(self, i: int, tag: str = "") -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> Op:
        raise NotImplementedError


class BlobCli(Workload):
    """The stock 2-D spec through all four CLI protocols and the staged path."""

    name = "blob-cli"
    fixtures = 50

    def setup(self) -> None:
        self.spec = harness_mod.default_spec()
        self.removal = harness_mod.default_removal_spec()

    def _op(self, kind: str, seed: int, out: Path, extra=()) -> Op:
        argv = [kind, "--seed", str(seed), "--out", str(out), *extra]
        checks = {
            "report": lambda: check_addition(out, self.spec),
            "sweep": lambda: check_sweep(out, self.spec),
            "remove": lambda: check_removal(out, self.removal),
            "oracle-check": lambda: check_oracles(out, self.fixtures),
            "train": lambda: check_checkpoints(out, self._stems(), False),
            "fisher": lambda: check_checkpoints(out, self._stems(), True),
            "merge": lambda: check_checkpoints(out, ["merged-ours"], False),
        }
        return Op(kind, (kind, seed), out, lambda: run_cli(argv), after_exit(checks[kind]))

    def _stems(self) -> list[str]:
        return ["anchor"] + [f"task{t}" for t in range(1, self.spec.n_tasks)]

    def round(self, i: int, tag: str = "") -> list[Op]:
        seed = self.base + 5 * i
        out = self.work / f"r{i}{tag}"
        staged = out / "staged"
        return [
            self._op("report", seed, out / "report"),
            self._op("sweep", seed + 1, out / "sweep"),
            self._op("remove", seed + 2, out / "remove"),
            self._op("oracle-check", seed + 3, out / "oracle", ["--fixtures", str(self.fixtures)]),
            self._op("train", seed + 4, staged),
            self._op("fisher", seed + 4, staged),
            self._op("merge", seed + 4, staged, ["--method", "ours"]),
        ]

    def warmup(self) -> Op:
        return self._op("report", WARMUP_SEED, self.work / "warmup")


#: One-hidden-layer tanh MLP over five 2-D tasks, all seven merge methods.
MLP_CONFIG = {
    "name": "mlp-report",
    "model": {"kind": "mlp", "n_features": 2, "hidden": 16, "activation": "tanh"},
    "loss": "logistic_nll",
    "n_tasks": 5,
    "per_task": {"n_train": 500, "n_test": 500},
    "curvature": "fisher",
}


class MlpReport(Workload):
    """``report`` on a nonconvex MLP config; one seed per operation."""

    name = "mlp-report"

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "mlp.json"
        self.config.write_text(json.dumps(MLP_CONFIG))
        self.spec = harness_mod.load_spec(self.config)

    def _op(self, seed: int, out: Path) -> Op:
        argv = ["report", "--config", str(self.config), "--seed", str(seed), "--out", str(out)]
        return Op(
            "report",
            ("report", seed),
            out,
            lambda: run_cli(argv),
            after_exit(lambda: check_addition(out, self.spec)),
        )

    def round(self, i: int, tag: str = "") -> list[Op]:
        return [self._op(self.base + i, self.work / f"r{i}{tag}")]

    def warmup(self) -> Op:
        return self._op(WARMUP_SEED, self.work / "warmup")


#: Logistic d=64, eight tasks, 5000 training rows each: about 24 MB of data.
WIDE_SPEC = dict(n_features=64, n_tasks=8, n_train=5000, n_test=1000)


class WideSweep(Workload):
    """The library path: one trained state, then a 101-point sweep per op."""

    name = "wide-sweep"

    def setup(self) -> None:
        self.spec = harness_mod.ExperimentSpec(
            name="wide",
            model=ModelSpec("logistic", WIDE_SPEC["n_features"]),
            n_tasks=WIDE_SPEC["n_tasks"],
            per_task=harness_mod.PerTaskConfig(
                n_train=WIDE_SPEC["n_train"], n_test=WIDE_SPEC["n_test"]
            ),
        )
        self.state = harness_mod.run_pipeline(self.spec, self.base)

    def grid(self, i: int) -> tuple[float, ...]:
        """101 distinct weights in [0, 1.5] that always include alpha=1."""
        rng = random.Random(f"{WARMUP_SEED if i < 0 else self.base}:{i}")
        alphas = {1.0}
        while len(alphas) < 101:
            alphas.add(round(rng.uniform(0.0, 1.5), 6))
        return tuple(sorted(alphas))

    def _op(self, i: int, out: Path) -> Op:
        spec = dataclasses.replace(self.spec, alphas=self.grid(i))
        return Op(
            "sweep",
            ("sweep", spec.alphas),
            out,
            lambda: harness_mod.sweep_alpha(spec, out, self.base, state=self.state),
            lambda result: check_sweep(out, spec),
        )

    def round(self, i: int, tag: str = "") -> list[Op]:
        return [self._op(i, self.work / f"r{i}{tag}")]

    def warmup(self) -> Op:
        return self._op(-1, self.work / "warmup")


WORKLOADS = {w.name: w for w in (BlobCli, MlpReport, WideSweep)}

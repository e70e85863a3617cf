"""The package runs without SciPy: no protocol, fit or oracle loads it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

def scipy_modules():
    return [m for m in sys.modules if m.startswith("scipy")]

import gradmerge
from gradmerge.harness import ExperimentSpec, PerTaskConfig, default_spec, run_pipeline
from gradmerge.models import ModelSpec
from gradmerge.oracles import run_oracle_suite

assert scipy_modules() == [], scipy_modules()[:5]
run_pipeline(default_spec(), seed=0)
run_pipeline(ExperimentSpec(model=ModelSpec("linear_regression", 2), loss="squared_error"), seed=0)
assert scipy_modules() == [], scipy_modules()[:5]

mlp = ExperimentSpec(
    model=ModelSpec("mlp", 2, hidden=4, activation="tanh"),
    n_tasks=2,
    per_task=PerTaskConfig(n_train=60, n_test=60),
)
run_pipeline(mlp, seed=0)
assert scipy_modules() == [], scipy_modules()[:5]

results = run_oracle_suite(seed=7, n_fixtures=3)
assert results and all(r.passed for r in results)
assert scipy_modules() == [], scipy_modules()[:5]
print("ok")
"""


def test_no_scipy_module_loads_for_fits_or_oracles():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"

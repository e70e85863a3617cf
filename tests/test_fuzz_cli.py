"""Every config the spec accepts ends in a full run or a clean refusal.

A hypothesis property at the CLI boundary.  Configs are drawn from the
schema: logistic, linear and tanh MLP models with at most 6 features and
40 rows per split, and ``noise``, ``separation`` and ``delta`` anywhere
from 1e-300 to 1e300.  Each runs in-process through ``report``, ``sweep``
or ``remove`` with NumPy's ``RuntimeWarning`` as an error.  The run either
exits 0 with its ``summary.csv``, or exits 1 or 2 with one
``error: <GradmergeError subclass>`` line on stderr and an empty ``--out``.
The budget is fixed and derandomized, so the examples are the same on
every run.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gradmerge import errors
from gradmerge.cli import cli
from gradmerge.harness import REMOVAL_METHODS
from gradmerge.merging import ADDITION_METHODS

#: 10**e for e in [-300, 300]: tiny, ordinary and huge magnitudes alike.
magnitudes = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
#: Task weights: ordinary ones, and up to 1e100.
weights = st.one_of(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.0, max_value=100.0).map(lambda e: 10.0**e))


@st.composite
def runs(draw):
    """A verb and a config the spec may accept or refuse, with its arguments."""
    kind = draw(st.sampled_from(["logistic", "linear_regression", "mlp"]))
    d = draw(st.integers(1, 6))
    model = {"kind": kind, "n_features": d}
    if kind == "mlp":
        model.update(hidden=draw(st.integers(1, 4)), activation="tanh")
    verb = draw(st.sampled_from(["report", "sweep", "remove"]))
    catalog = REMOVAL_METHODS if verb == "remove" else ADDITION_METHODS
    config = {
        "model": model,
        "loss": "squared_error" if kind == "linear_regression" else "logistic_nll",
        "n_tasks": draw(st.integers(2, 4)),
        "per_task": {
            "n_train": draw(st.integers(1, 40)),
            "n_test": draw(st.integers(1, 40)),
            "noise": draw(magnitudes),
            "separation": draw(magnitudes),
        },
        "anchor": {"delta": draw(magnitudes)},
        "curvature": "fisher" if kind == "mlp" else draw(st.sampled_from(["fisher", "exact"])),
        "methods": draw(st.lists(st.sampled_from(catalog), min_size=1, unique=True)),
        "alphas": draw(st.lists(weights, min_size=1, max_size=3)),
    }
    extra = ["--alpha", repr(draw(weights))] if verb == "report" else []
    return verb, config, extra + ["--seed", str(draw(st.integers(0, 3)))]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(runs())
def test_a_run_completes_or_refuses_cleanly(run):
    verb, config, extra = run
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "spec.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli([verb, "--config", str(path), "--out", str(out), *extra])
        if code == 0:
            assert (out / "summary.csv").is_file()
            return
        assert code in (1, 2)
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        name = lines[0].split(":")[1].strip()
        assert issubclass(getattr(errors, name), errors.GradmergeError)
        assert not out.exists() or not any(out.iterdir())

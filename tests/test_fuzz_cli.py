"""Every config the schema draws ends in a full run or a clean refusal.

A hypothesis property at the CLI boundary.  Configs are drawn from the
schema itself: each field of :class:`ExperimentSpec` and of its sections,
read with ``dataclasses.fields``, is left out, or takes a value inside the
bound its ``metadata`` declares, at that bound, or now and then outside it
(a wrong type, a ``bool``, a value below its minimum, a non-finite number
or an integer past the float range, a name that is not one of its choices,
a malformed list); three configs in four are redrawn until the spec
accepts them.  So a field added later is fuzzed with no edit here.  An
integer runs up to 8 above its minimum (these are the run's sizes: rows,
features, hidden units, tasks), except that in each config one integer
field, picked at random, runs up to 39 above it: one wide size
costs under a second, but an MLP with both 40 features and 40 hidden
units takes minutes.  A real runs over 10**-300 to 10**300 above its
minimum.  Each config runs in-process through ``report``, ``sweep`` or
``remove`` with NumPy's ``RuntimeWarning`` as an error.  The run either
exits 0 with its ``summary.csv``, or exits 1 or 2 with one ``error:
<GradmergeError subclass>`` line on stderr and an empty ``--out``.

The budget is fixed and derandomized, so the examples are the same on
every run: 60 under the ``tier1`` profile that ``conftest.py`` loads, and
more under ``pytest --hypothesis-profile=fuzz``.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gradmerge import errors
from gradmerge.cli import cli
from gradmerge.harness import _SECTIONS, REMOVAL_METHODS, ExperimentSpec, _from_json

#: 10**e for e in [-300, 300]: tiny, ordinary and huge magnitudes alike.
magnitudes = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


def int_fields(cls):
    """Every integer field of config class ``cls`` and of its sections."""
    for f in dataclasses.fields(cls):
        if f.type in _SECTIONS:
            yield from int_fields(_SECTIONS[f.type])
        elif f.type.split(" | ")[0] == "int":
            yield f


def inside(f, kind, wide):
    """Values of type ``kind`` that field ``f``'s bound admits; a ``wide`` integer reaches further."""
    choices, low = f.metadata.get("choices"), f.metadata.get("min")
    if choices is not None:
        return st.sampled_from(choices)
    if kind == "int":
        return st.integers(low or 0, (low or 0) + (39 if wide else 8))
    if kind == "float":  # with no minimum, ordinary values reach below 0
        ordinary = st.floats(-1.0, 2.0) if low is None else st.floats(low, low + 2.0)
        return ordinary | magnitudes.map(lambda m: (low or 0) + m)
    return st.text(min_size=low or 0, max_size=8)


def outside(f, kind):
    """Values field ``f`` refuses: a wrong type, a ``bool``, and each bound broken."""
    low = f.metadata.get("min")
    bad = [True, [1], {}, 7 if kind == "str" else "x"] + {"int": [1.5], "float": [10**400]}.get(kind, [])
    if "None" not in f.type:
        bad.append(None)
    if "choices" in f.metadata:
        bad.append("not-a-choice")
    if low is not None:
        bad.append("x" * (low - 1) if kind == "str" else low - 1)
    if f.metadata.get("finite"):
        bad += [float("nan"), float("inf"), -float("inf")]
    return bad


@st.composite
def scalar(draw, f, kind, broken, wide):
    """Inside the bound, at it, or None if the field may be None; if ``broken``, outside it 1 time in 16."""
    if broken and draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from(outside(f, kind)))
    low, pick = f.metadata.get("min"), draw(st.integers(0, 7))
    if pick == 0 and low is not None:
        return {"int": low, "float": float(low), "str": "x" * low}[kind]
    if pick < 5 and "None" in f.type:
        return None
    return draw(inside(f, kind, f is wide))


def accepts(cls, payload) -> bool:
    """Whether the config boundary builds ``cls`` from ``payload``."""
    try:
        _from_json(cls, payload, cls.__name__)
    except errors.ConfigError:
        return False
    return True


@st.composite
def section(draw, cls, broken, wide):
    """A JSON object for config class ``cls``: each field with a default left out
    at random, the rest drawn from the field's declaration (field ``wide``, if
    one of them, over its wide integer range).  Unless ``broken``,
    the draw is repeated (up to 10 times) until ``cls`` accepts it, so that the
    rules joining fields pass too."""
    for _ in range(10):
        payload = {}
        for f in dataclasses.fields(cls):
            required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            if not required and draw(st.integers(0, 3)) == 0:
                continue
            if f.type in _SECTIONS:
                payload[f.name] = draw(section(_SECTIONS[f.type], broken, wide))
            elif f.type.startswith("tuple["):
                items = st.lists(scalar(f, f.type[6:-6], broken, wide), min_size=1, max_size=3)
                malformed = st.sampled_from([[], "x", 0.5]) | items.map(lambda v: v + v[:1])
                payload[f.name] = draw(malformed if broken and draw(st.integers(0, 15)) == 0 else items)
            else:
                payload[f.name] = draw(scalar(f, f.type.split(" | ")[0], broken, wide))
        if broken or accepts(cls, payload):
            return payload
    return payload


@st.composite
def runs(draw):
    """A verb and a config the spec may accept or refuse, with its arguments.

    Three configs in four are redrawn until the spec accepts them; in the
    rest each field breaks its bound with probability 1/16.  Each config
    widens one integer field's range.  The verb is mostly one that takes
    the config's methods: ``remove`` for removal methods only, else ``report``
    or ``sweep``."""
    wide = draw(st.sampled_from(list(int_fields(ExperimentSpec))))
    config = draw(section(ExperimentSpec, draw(st.integers(0, 3)) == 0, wide))
    methods = config.get("methods")
    removal = isinstance(methods, list) and bool(methods) and all(m in REMOVAL_METHODS for m in methods)
    verbs = ["remove"] if removal else ["report", "sweep"]
    verb = draw(st.sampled_from(verbs if draw(st.integers(0, 3)) else ["report", "sweep", "remove"]))
    weights = st.floats(0.0, 2.0) | st.floats(0.0, 100.0).map(lambda e: 10.0**e)
    extra = ["--alpha", repr(draw(weights))] if verb == "report" else []
    return verb, config, extra + ["--seed", str(draw(st.integers(0, 3)))]


@settings(derandomize=True, deadline=None)
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

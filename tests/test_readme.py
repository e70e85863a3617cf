"""Each ```python block in README.md runs as written, and its config key list matches the schema.

The blocks import the public API from the package root, so a cut or
renamed export breaks them; running them here turns that into a test
failure.  Each runs in a temporary working directory because the
pipeline example writes its output under ``./out``.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from gradmerge.harness import _SECTIONS, ExperimentSpec

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})


def schema_keys(cls=ExperimentSpec, prefix=""):
    """Every config key, dotted below a section: ``name``, ``model.hidden``, ``per_task.seed``, ..."""
    for f in dataclasses.fields(cls):
        if f.type in _SECTIONS:
            yield from schema_keys(_SECTIONS[f.type], f"{f.name}.")
        else:
            yield prefix + f.name


def test_config_key_list_names_exactly_the_schema_fields():
    # Each bullet of the list opens with the keys it covers, then a colon.
    bullets = README.read_text().split("Config keys", 1)[1].split("\n\n")[1]
    heads = re.findall(r"^- (.*?): ", bullets, flags=re.M)
    named = [key for head in heads for key in re.findall(r"`([^`]+)`", head)]
    assert sorted(named) == sorted(schema_keys())

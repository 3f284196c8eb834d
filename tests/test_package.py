"""Package metadata."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import lambspec
import lambspec.cli


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"', text, re.MULTILINE).group(1)
    assert lambspec.__version__ == declared


def test_cli_exposes_traced_names():
    # the benchmark's tracer wraps these names on lambspec.cli, so each must
    # stay importable there from the layer it is traced under
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = [(layer, name) for layer, names in spans.TRACED.items() for name in names]
    assert traced
    for layer, name in traced:
        assert getattr(lambspec.cli, name).__module__ == f"lambspec.{layer}"

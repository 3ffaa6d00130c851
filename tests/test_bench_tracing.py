"""The bench tracer's call sites must name functions that still exist.

``bench/tracing.py`` wraps functions by the names their callers look up;
a refactor that renames or moves one would break ``bench/run.py --trace 1``.
"""

import importlib
from pathlib import Path

import credal.lp
from credal.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_every_call_site_resolves(monkeypatch, capsys):
    # bench/run.py puts its own directory first on sys.path, then imports
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    original = credal.lp.solve_lp
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["intervals", str(ROOT / "problems" / "shape_color.json")]) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    assert credal.lp.solve_lp is original
    names = {span[0] for span in tracer.spans}
    assert {"credal.criteria.solve", "credal.lp.solve_lp"} <= names

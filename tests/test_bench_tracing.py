"""The bench tracer's call sites must name functions that still exist.

``bench/tracing.py`` wraps functions by the names their callers look up;
a refactor that renames or moves one would break ``bench/run.py --trace 1``.
"""

import importlib
from pathlib import Path

import credal.lp
from credal.cli import main

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def traced_span_names(monkeypatch, capsys, *argvs):
    """Run each CLI argv under the installed tracer; the names of its spans."""
    # bench/run.py puts its own directory first on sys.path, then imports
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    original = credal.lp.solve_lp
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in argvs:
            assert main(argv) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    assert credal.lp.solve_lp is original
    return {span[0] for span in tracer.spans}


def test_every_call_site_resolves(monkeypatch, capsys):
    names = traced_span_names(
        monkeypatch, capsys, ["intervals", str(PROBLEMS / "shape_color.json")])
    assert {"credal.criteria.solve", "credal.lp.solve_lp"} <= names


def test_check_and_projected_intervals_reach_the_lp(monkeypatch, capsys):
    names = traced_span_names(
        monkeypatch, capsys,
        ["check", str(PROBLEMS / "coin.json")],
        ["reduce", str(PROBLEMS / "three_table.json"), "--intervals"],
    )
    assert {"credal.sets.feasible", "credal.reduction.solve",
            "credal.reduction.reduce_model", "credal.lp.solve_lp"} <= names

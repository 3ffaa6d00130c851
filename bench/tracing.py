"""Traced mode: spans around credal's public functions, from outside ``src/``.

Each function is wrapped in the namespace where its caller looks it up at
call time (a module attribute or a class attribute), so the program runs
unchanged apart from the wrapper call.  A span records name, layer, start,
end, parent span and request id; spans stay in memory and are written out
when the run ends.  Counts are read from arguments and results after the
span's clock has stopped, and anything costly (bit lengths) is computed only
at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter


def _lp_note(num_vars, objective, sense, eq=(), ub=(), *, result):
    return (num_vars, len(eq), len(ub), result)


def _maxent_note(*args, result, **kwargs):
    return (result.iterations, result.exact)


def _reduce_note(model, *args, result, **kwargs):
    return (len(model.blocks), len(result.reduced.blocks))


def _ambient_note(space, *args, result, **kwargs):
    return space.n_states


# (owner, attribute, layer, note).  The comment names the callers that look
# the attribute up there; together these are every call site the four
# workloads reach between the harness and the exact LP.
CALL_SITES = [
    ("credal.cli", "main", "cli", None),  # harness, CLI workloads
    ("credal.cli", "load_problem", "problemfile", None),  # cli.main
    ("credal.sets", "from_marginals", "sets.build", None),  # problemfile.parse_problem
    ("credal.sets", "from_intervals", "sets.build", None),  # problemfile.parse_problem
    ("credal.sets", "from_ordering", "sets.build", None),  # problemfile.parse_problem
    ("credal.sets", "from_raw", "sets.build", None),  # problemfile.parse_problem
    ("credal.sets", "full_simplex", "sets.build", None),  # problemfile.parse_problem
    ("credal.sets", "intersect", "sets.build", None),  # problemfile.parse_problem
    ("credal.maxent", "from_marginals", "sets.build", None),  # maxent.maxent_extend
    ("credal.reduction", "from_marginals", "sets.build", _ambient_note),  # projected_utility_intervals
    ("credal.sets.CredalSet", "lp_rows", "sets.lp_rows", None),  # solver.solve, sets.feasible, criteria._admissibility_margin
    ("credal.sets", "feasible", "lp.entry", None),  # cli.cmd_check, sets.is_consistent
    ("credal.criteria", "feasible", "lp.entry", None),  # criteria._check_consistent, _admissibility_margin
    ("credal.maxent", "is_consistent", "lp.entry", None),  # maxent.maxent_extend pre-check
    ("credal.criteria", "solve", "lp.entry", None),  # criteria.utility_intervals
    ("credal.reduction", "solve", "lp.entry", None),  # reduction.projected_utility_intervals
    ("credal.lp", "solve_lp", "lp", _lp_note),  # solver.solve, sets.feasible, criteria._admissibility_margin
    ("credal.criteria", "utility_intervals", "criteria", None),  # cli.cmd_intervals
    ("credal.criteria", "e_admissible_witnesses", "criteria", None),  # cli.cmd_admissible
    ("credal.maxent", "maxent_extend", "maxent", _maxent_note),  # cli.cmd_maxent
    ("credal.reduction", "projected_utility_intervals", "reduction", None),  # harness, projected_reduce
    ("credal.reduction", "reduce_model", "reduction", _reduce_note),  # projected_utility_intervals
]

# layers whose self times partition a traced request, besides the harness root
LAYERS = ["cli", "problemfile", "sets.build", "sets.lp_rows", "lp.entry", "lp",
          "criteria", "maxent", "reduction"]


def _owner(path: str):
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ImportError:
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Span recorder.  ``install`` wraps every call site; ``remove`` undoes it."""

    ROOT = "bench.request"

    def __init__(self):
        # [name, layer, start, end, parent index, request id, note]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.request = None

    def install(self) -> None:
        for path, attr, layer, note in CALL_SITES:
            owner = _owner(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, f"{path}.{attr}", layer, note))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, layer, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if note is not None:
                rec[6] = note(*args, result=result, **kwargs)
            return result

        return traced

    def root(self, request_id, call, *args):
        """Run one request under a root span of the harness's own."""
        self.request = request_id
        return self._wrap(call, self.ROOT, "harness", None)(*args)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, req, note in self.spans:
                rec = {"name": name, "layer": layer, "start": start, "end": end,
                       "parent": parent, "request": req}
                if name == "credal.lp.solve_lp":
                    rec["lp"] = _lp_stats(note)
                fh.write(json.dumps(rec) + "\n")


def _lp_stats(note):
    num_vars, n_eq, n_ub, result = note
    rows = n_eq + n_ub
    bits = 0
    if result.status == "optimal":
        for v in (result.value, *result.x):
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    # variables + slacks + one artificial per row, as solve_lp builds them
    return {"rows": rows, "cols": num_vars + n_ub + rows, "bits": bits,
            "infeasible": result.status != "optimal"}


def layer_metrics(spans, n_requests: int, scale: dict) -> dict:
    """Per-request self times per layer, and the layer counts.

    ``scale`` maps a request id to the host-speed scale its times get, as for
    the end-to-end times.
    """
    child_time = defaultdict(float)
    for name, layer, start, end, parent, req, note in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, layer, start, end, parent, req, note) in enumerate(spans):
        self_s[layer] += (end - start - child_time[i]) * scale[req]
        incl_s[name] += (end - start) * scale[req]
        calls[name] += 1
    lp = [_lp_stats(s[6]) for s in spans if s[0] == "credal.lp.solve_lp"]
    fits = [s[6] for s in spans if s[0] == "credal.maxent.maxent_extend"]
    reds = [s[6] for s in spans if s[0] == "credal.reduction.reduce_model"]
    ambient = [s[6] for s in spans if s[0] == "credal.reduction.from_marginals"]
    request_s = incl_s[Tracer.ROOT]

    def per(x):
        return x / n_requests

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    return {
        "cli.self_s": per(self_s["cli"]),
        "problemfile.load_s": per(self_s["problemfile"]),
        "sets.build_s": per(self_s["sets.build"]),
        "sets.lp_rows_s": per(self_s["sets.lp_rows"]),
        "sets.lp_rows_calls": per(calls["credal.sets.CredalSet.lp_rows"]),
        "lp.entry_self_s": per(self_s["lp.entry"]),
        "lp.solve_s": per(self_s["lp"]),
        "lp.calls_per_problem": per(len(lp)),
        "lp.rows_mean": mean([s["rows"] for s in lp]),
        "lp.cols_mean": mean([s["cols"] for s in lp]),
        "lp.result_bits_max": max((s["bits"] for s in lp), default=0),
        "lp.infeasible_calls": sum(s["infeasible"] for s in lp),
        "criteria.self_s": per(self_s["criteria"]),
        "maxent.self_s": per(self_s["maxent"]),
        "maxent.check_s": per(incl_s["credal.maxent.is_consistent"]),
        "maxent.sweeps_mean": mean([f[0] for f in fits]),
        "maxent.exact_frac": mean([1.0 if f[1] else 0.0 for f in fits]),
        "reduction.reduce_s": per(incl_s["credal.reduction.reduce_model"]),
        "reduction.self_s": per(self_s["reduction"]),
        "reduction.blocks_in_mean": mean([r[0] for r in reds]),
        "reduction.blocks_out_mean": mean([r[1] for r in reds]),
        "reduction.ambient_states_mean": mean(ambient),
        "trace.request_s": per(request_s),
        "trace.layer_sum_frac": sum(self_s[layer] for layer in LAYERS) / request_s,
    }

"""Command-line front end.

    credal check|intervals|decide|maxent|reduce|admissible <file>
           [--criterion C] [--alpha RAT] [--format text|json] [--intervals]

Exit codes: 0 success, 1 usage error, 2 inconsistent constraints,
3 internal solver error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import criteria, maxent, reduction, sets
from .domain import DomainError, to_fraction
from .lp import SolverError
from .maxent import MaxEntError
from .problemfile import ProblemFile, ProblemFileError, load_problem
from .sets import EmptyCredalSetError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_SOLVER = 3


class UsageError(ValueError):
    pass


def fmt_rat(value: Fraction) -> str:
    """A fraction in lowest terms with a 6-place decimal approximation."""
    return f"{value} ({float(value):.6f})"


def _rat_str(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def _state_key(state) -> str:
    return ",".join(state)


def _dist_doc(d):
    return {_state_key(s): _rat_str(m) for s, m in d.as_dict().items()}


def _block_str(block) -> str:
    return "{" + ",".join(sorted(block)) + "}"


def _interval_doc(intervals):
    return [
        {
            "action": iv.action,
            "lo": _rat_str(iv.lo),
            "hi": _rat_str(iv.hi),
            "lo_witness": _dist_doc(iv.lo_witness),
            "hi_witness": _dist_doc(iv.hi_witness),
        }
        for iv in intervals
    ]


def _ranking_doc(result):
    return {
        "criterion": result.criterion,
        "chosen": result.chosen,
        "parameters": {k: _rat_str(v) for k, v in result.parameters.items()},
        "ranking": [
            {"action": a, "score": _rat_str(s)} for a, s in result.ranking
        ],
    }


def _emit(doc: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _marginals(pf: ProblemFile, what: str):
    """The model and tables of a credal set given only by marginal tables."""
    k = pf.credal
    if k.marginal_model is None:
        raise UsageError(f"{what} needs constraints given only as marginal tables")
    return k.marginal_model, dict(k.marginal_tables)


def _unprojected(pf: ProblemFile, what: str):
    """K itself, for the commands that have no projected form."""
    if pf.has_target:
        raise UsageError(f"{what} does not support target_variables projection")
    return pf.credal


def _intervals_for(pf: ProblemFile):
    if pf.has_target:
        model, tables = _marginals(pf, "target_variables")
        return reduction.projected_utility_intervals(pf.problem, model, tables, pf.target)
    return criteria.utility_intervals(pf.problem, pf.credal)


def cmd_check(pf: ProblemFile, args) -> int:
    ok, witness = sets.feasible(pf.credal)
    if not ok:
        _emit({"consistent": False}, ["inconsistent: the credal set is empty"], args.format)
        return EXIT_INCONSISTENT
    doc = {"consistent": True, "witness": _dist_doc(witness)}
    lines = ["consistent"] + [
        f"  p({_state_key(s)}) = {fmt_rat(m)}" for s, m in witness.as_dict().items()
    ]
    _emit(doc, lines, args.format)
    return EXIT_OK


def cmd_intervals(pf: ProblemFile, args) -> int:
    intervals = _intervals_for(pf)
    doc = {"intervals": _interval_doc(intervals)}
    lines = [
        f"U({iv.action}) = [{fmt_rat(iv.lo)}, {fmt_rat(iv.hi)}]" for iv in intervals
    ]
    _emit(doc, lines, args.format)
    return EXIT_OK


# criterion -> (whether it needs --alpha, rule(pf, alpha))
CRITERIA = {
    "gm": (False, lambda pf, alpha: criteria.choose_from_intervals(_intervals_for(pf), "gm")),
    "gh": (True, lambda pf, alpha: criteria.choose_from_intervals(_intervals_for(pf), "gh", alpha)),
    "levi": (False, lambda pf, alpha: criteria.levi_choose(pf.problem, _unprojected(pf, "levi"))),
    "pme": (False, lambda pf, alpha: criteria.pme_choose(pf.problem, _unprojected(pf, "pme"))),
    "maximin": (False, lambda pf, alpha: criteria.maximin_choose(pf.problem)),
    "hurwicz": (True, lambda pf, alpha: criteria.hurwicz_choose(pf.problem, alpha)),
    "regret": (False, lambda pf, alpha: criteria.minimax_regret_choose(pf.problem)),
}


def cmd_decide(pf: ProblemFile, args) -> int:
    name = args.criterion
    if name is None:
        raise UsageError("decide requires --criterion")
    needs_alpha, rule = CRITERIA[name]
    if needs_alpha and args.alpha is None:
        raise UsageError(f"criterion {name!r} requires --alpha")
    result = rule(pf, to_fraction(args.alpha) if needs_alpha else None)

    doc = _ranking_doc(result)
    lines = [f"chosen: {result.chosen}  [{result.criterion}]"] + [
        f"  {a}: {fmt_rat(s)}" for a, s in result.ranking
    ]
    _emit(doc, lines, args.format)
    return EXIT_OK


def cmd_maxent(pf: ProblemFile, args) -> int:
    result = maxent.maxent_extend(pf.space, *_marginals(pf, "maxent"))
    doc = {
        "distribution": {
            _state_key(s): _rat_str(m)
            for s, m in zip(pf.space.states, result.distribution)
        },
        "entropy": result.entropy,
        "iterations": result.iterations,
        "residual": result.residual,
        "exact": result.exact,
    }
    lines = [
        f"p*({_state_key(s)}) = " + (fmt_rat(m) if result.exact else repr(float(m)))
        for s, m in zip(pf.space.states, result.distribution)
    ]
    lines.append(f"entropy = {result.entropy!r} nats")
    lines.append(f"iterations = {result.iterations}, residual = {result.residual!r}")
    _emit(doc, lines, args.format)
    return EXIT_OK


def cmd_reduce(pf: ProblemFile, args) -> int:
    model, tables = _marginals(pf, "reduce")
    if pf.target is None:
        raise UsageError("reduce requires target_variables")
    outcome = reduction.reduce_model(model, pf.target)
    doc = {
        "reduced": [sorted(b) for b in outcome.reduced.blocks],
        "dropped_blocks": [sorted(b) for b in outcome.dropped_blocks],
        "dropped_variables": list(outcome.dropped_variables),
    }
    lines = ["W = {" + ", ".join(map(_block_str, outcome.reduced.blocks)) + "}"]
    if outcome.dropped_blocks:
        lines.append("dropped blocks: " + ", ".join(map(_block_str, outcome.dropped_blocks)))
    if outcome.dropped_variables:
        lines.append("dropped variables: " + ", ".join(outcome.dropped_variables))
    if args.intervals:
        intervals = reduction.projected_utility_intervals(pf.problem, model, tables, pf.target)
        doc["intervals"] = _interval_doc(intervals)
        lines += [
            f"U'({iv.action}) = [{fmt_rat(iv.lo)}, {fmt_rat(iv.hi)}]"
            for iv in intervals
        ]
    _emit(doc, lines, args.format)
    return EXIT_OK


def cmd_admissible(pf: ProblemFile, args) -> int:
    pairs = criteria.e_admissible_witnesses(pf.problem, _unprojected(pf, "admissible"))
    doc = {
        "e_admissible": [{"action": a, "witness": _dist_doc(w)} for a, w in pairs]
    }
    lines = []
    for a, w in pairs:
        lines.append(f"{a}: E-admissible at")
        lines += [f"  p({_state_key(s)}) = {fmt_rat(m)}" for s, m in w.as_dict().items()]
    _emit(doc, lines, args.format)
    return EXIT_OK


COMMANDS = {
    "check": cmd_check,
    "intervals": cmd_intervals,
    "decide": cmd_decide,
    "maxent": cmd_maxent,
    "reduce": cmd_reduce,
    "admissible": cmd_admissible,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="credal", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("file", help="JSON problem file")
    parser.add_argument("--criterion", choices=list(CRITERIA))
    parser.add_argument("--alpha", help="pessimism index in [0, 1], exact rational")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--intervals", action="store_true", help="with reduce: also print sharpened intervals")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        pf = load_problem(args.file)
        return COMMANDS[args.command](pf, args)
    except (UsageError, ProblemFileError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EmptyCredalSetError, MaxEntError) as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

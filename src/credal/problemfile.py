"""JSON problem files: variables, actions, utilities, and constraint sections.

Decimals are carried as strings ("0.7") or integers and parsed to exact
rationals; binary floating literals are rejected so golden results stay
bit-exact.  State tuples are keyed by value names joined with "," in the
declared variable order (e.g. "B,S").
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .domain import (
    DecisionProblem,
    Distribution,
    DomainError,
    Model,
    VariableSpace,
    to_fraction,
)
from . import sets
from .sets import CredalSet, LinearConstraint


class ProblemFileError(ValueError):
    """Malformed problem file."""


@dataclass(frozen=True)
class ProblemFile:
    space: VariableSpace
    problem: DecisionProblem
    credal: CredalSet  # carries the marginal tables iff they are its only constraints
    target: tuple[str, ...] | None

    @property
    def has_target(self) -> bool:
        return self.target is not None and set(self.target) != set(self.space.names)


def _reject_float(text: str):
    raise ProblemFileError(
        f"floating literal {text!r}: write decimals as strings to keep them exact"
    )


def load_problem(path: str) -> ProblemFile:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_float=_reject_float)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(f"invalid JSON: {exc}") from exc
    return parse_problem(raw)


def _state_key(space: VariableSpace, key: str) -> tuple[str, ...]:
    parts = tuple(key.split(",")) if key else ()
    if len(parts) != len(space.names):
        raise ProblemFileError(
            f"state key {key!r} has {len(parts)} parts, expected {len(space.names)}"
        )
    return parts


def _expect(value, kind: type, what: str):
    """The value, if the JSON gave it the kind (dict or list) the format needs."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise ProblemFileError(f"{what} must be a JSON {name}, not {type(value).__name__}")
    return value


def parse_problem(raw) -> ProblemFile:
    """The problem in a decoded JSON document."""
    _expect(raw, dict, "a problem file")
    try:
        variables = _expect(raw["variables"], dict, "'variables'")
        space = VariableSpace(
            (name, _expect(values, list, f"the values of {name!r}"))
            for name, values in variables.items()
        )
    except KeyError:
        raise ProblemFileError("missing 'variables' section")
    except DomainError as exc:
        raise ProblemFileError(str(exc)) from exc

    target = raw.get("target_variables")
    if target is not None:
        target = tuple(_expect(target, list, "'target_variables'"))
        unknown = set(target) - set(space.names)
        if unknown:
            raise ProblemFileError(f"unknown target variables {sorted(unknown)}")
        dp_space = space.subspace(target)
    else:
        dp_space = space

    try:
        actions = _expect(raw["actions"], list, "'actions'")
        utilities = {
            action: {
                _state_key(dp_space, key): to_fraction(v)
                for key, v in _expect(row, dict, f"the utilities of {action!r}").items()
            }
            for action, row in _expect(raw["utilities"], dict, "'utilities'").items()
        }
        problem = DecisionProblem(dp_space, actions, utilities)
    except KeyError as exc:
        raise ProblemFileError(f"missing section: {exc}")
    except DomainError as exc:
        raise ProblemFileError(str(exc)) from exc

    constraints = _expect(raw.get("constraints", {}), dict, "'constraints'")
    unknown = set(constraints) - {"marginals", "intervals", "ordering", "linear"}
    if unknown:
        raise ProblemFileError(f"unknown constraint sections {sorted(unknown)}")
    parts: list[CredalSet] = []
    try:
        if "marginals" in constraints:
            blocks = [frozenset(entry["block"]) for entry in constraints["marginals"]]
            model = Model(space, blocks)
            tables = {}
            for entry in constraints["marginals"]:
                block = frozenset(entry["block"])
                sub = space.subspace(block)
                tables[block] = Distribution(
                    sub,
                    {_state_key(sub, key): v for key, v in entry["table"].items()},
                )
            parts.append(sets.from_marginals(space, model, tables))
        if "intervals" in constraints:
            bounds = {
                _state_key(space, key): (lo, hi)
                for key, (lo, hi) in constraints["intervals"].items()
            }
            parts.append(sets.from_intervals(space, bounds))
        if "ordering" in constraints:
            ordering = _expect(constraints["ordering"], list, "'ordering'")
            chain = [_state_key(space, key) for key in ordering]
            parts.append(sets.from_ordering(space, chain))
        if "linear" in constraints:
            raws = []
            for entry in constraints["linear"]:
                coeffs = [to_fraction(0)] * space.n_states
                for key, c in entry["coefficients"].items():
                    coeffs[space.state_index(_state_key(space, key))] = to_fraction(c)
                raws.append(
                    LinearConstraint(coeffs, entry["relation"], entry["rhs"])
                )
            parts.append(sets.from_raw(space, raws))
    except (ValueError, KeyError, TypeError) as exc:  # DomainError is a ValueError
        raise ProblemFileError(f"bad constraints section: {exc}") from exc

    # a single section keeps its marginal provenance; intersect drops it
    credal = functools.reduce(sets.intersect, parts) if parts else sets.full_simplex(space)

    return ProblemFile(
        space=space,
        problem=problem,
        credal=credal,
        target=target,
    )

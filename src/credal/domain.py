"""Core vocabulary: variable spaces, distributions, models, decision problems."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


class DomainError(ValueError):
    """Invalid domain object or operation argument."""


def to_fraction(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or decimal/fraction string.

    Floats are rejected: binary floating literals cannot represent the decimal
    quantities these problems are stated in.
    """
    if isinstance(value, bool):
        raise DomainError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational from {value!r}") from exc
    raise DomainError(f"not an exact rational: {value!r} (floats are rejected)")


@dataclass(frozen=True)
class VariableSpace:
    """Named variables with finite ordered value sets.

    The state set is the Cartesian product of the value sets, enumerated
    lexicographically: variables in declaration order, values in declared
    order within each variable.  An empty space has the single empty state.
    """

    variables: tuple[tuple[str, tuple[str, ...]], ...]

    def __init__(self, variables: Iterable[tuple[str, Sequence[str]]]):
        vs = tuple((name, tuple(values)) for name, values in variables)
        names = [name for name, _ in vs]
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate variable names in {names}")
        for name, values in vs:
            if not values:
                raise DomainError(f"variable {name!r} has no values")
            if len(set(values)) != len(values):
                raise DomainError(f"duplicate values for variable {name!r}")
        object.__setattr__(self, "variables", vs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    def values(self, name: str) -> tuple[str, ...]:
        for var, vals in self.variables:
            if var == name:
                return vals
        raise DomainError(f"unknown variable {name!r}")

    @functools.cached_property
    def states(self) -> tuple[tuple[str, ...], ...]:
        return tuple(itertools.product(*(vals for _, vals in self.variables)))

    @property
    def n_states(self) -> int:
        n = 1
        for _, vals in self.variables:
            n *= len(vals)
        return n

    def state_index(self, state: Sequence[str]) -> int:
        state = tuple(state)
        idx = 0
        for (name, vals), value in zip(self.variables, state, strict=True):
            try:
                pos = vals.index(value)
            except ValueError:
                raise DomainError(f"unknown value {value!r} for variable {name!r}")
            idx = idx * len(vals) + pos
        return idx

    def subspace(self, subset: Iterable[str]) -> "VariableSpace":
        """The space of a variable subset, in ambient variable order."""
        wanted = set(subset)
        unknown = wanted - set(self.names)
        if unknown:
            raise DomainError(f"unknown variables {sorted(unknown)}")
        return VariableSpace([(n, v) for n, v in self.variables if n in wanted])

    def projection(self, subset: Iterable[str]) -> tuple["VariableSpace", tuple[int, ...]]:
        """The subset's space, and for each state j the index of its projection
        among the subspace's states."""
        sub = self.subspace(subset)
        positions = [self.names.index(n) for n in sub.names]
        index = {s: i for i, s in enumerate(sub.states)}
        return sub, tuple(index[tuple(s[i] for i in positions)] for s in self.states)


@dataclass(frozen=True)
class Distribution:
    """An exact probability distribution over the states of a space."""

    space: VariableSpace
    mass: tuple[Fraction, ...]

    def __init__(self, space: VariableSpace, mass):
        if isinstance(mass, Mapping):
            vec = [Fraction(0)] * space.n_states
            for state, m in mass.items():
                vec[space.state_index(state)] = to_fraction(m)
        else:
            vec = [to_fraction(m) for m in mass]
        if len(vec) != space.n_states:
            raise DomainError(
                f"mass vector length {len(vec)} != state count {space.n_states}"
            )
        if any(m < 0 for m in vec):
            raise DomainError("negative probability mass")
        if sum(vec) != 1:
            raise DomainError(f"masses sum to {sum(vec)}, not 1")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mass", tuple(vec))

    def __getitem__(self, state: Sequence[str]) -> Fraction:
        return self.mass[self.space.state_index(state)]

    def as_dict(self) -> dict[tuple[str, ...], Fraction]:
        return dict(zip(self.space.states, self.mass))


@dataclass(frozen=True)
class Model:
    """An antichain of variable subsets of an ambient space.

    Marginal tables are given per block.  Blocks keep declaration order,
    which downstream iteration (marginal fitting, constraint layout) relies
    on, but equality and refinement treat them as a set.
    """

    space: VariableSpace
    blocks: tuple[frozenset[str], ...]

    def __init__(self, space: VariableSpace, blocks: Iterable[Iterable[str]]):
        bs = tuple(frozenset(b) for b in blocks)
        known = set(space.names)
        for b in bs:
            unknown = b - known
            if unknown:
                raise DomainError(f"block uses unknown variables {sorted(unknown)}")
        if len(set(bs)) != len(bs):
            raise DomainError("duplicate blocks in model")
        for a, b in itertools.combinations(bs, 2):
            if a <= b or b <= a:
                raise DomainError(
                    f"model is not an antichain: {sorted(a)} vs {sorted(b)}"
                )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "blocks", bs)

    @property
    def block_set(self) -> frozenset[frozenset[str]]:
        return frozenset(self.blocks)

    @property
    def covered(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for b in self.blocks:
            out |= b
        return out


@dataclass(frozen=True)
class DecisionProblem:
    """States, actions, and an exact utility matrix (utils)."""

    space: VariableSpace
    actions: tuple[str, ...]
    utilities: tuple[tuple[Fraction, ...], ...]  # [action][state]

    def __init__(self, space: VariableSpace, actions: Sequence[str], utilities):
        actions = tuple(actions)
        if len(set(actions)) != len(actions):
            raise DomainError("duplicate action names")
        if not actions:
            raise DomainError("at least one action is required")
        if isinstance(utilities, Mapping):
            extra = set(utilities) - set(actions)
            if extra:
                raise DomainError(f"utility rows for undeclared actions {sorted(extra)}")
            rows = []
            for a in actions:
                if a not in utilities:
                    raise DomainError(f"missing utility row for action {a!r}")
                row_map = utilities[a]
                row = [None] * space.n_states
                for state, u in row_map.items():
                    row[space.state_index(state)] = to_fraction(u)
                if any(u is None for u in row):
                    raise DomainError(f"incomplete utility row for action {a!r}")
                rows.append(tuple(row))
        else:
            rows = [tuple(to_fraction(u) for u in row) for row in utilities]
            if len(rows) != len(actions):
                raise DomainError("utility matrix row count != action count")
            for row in rows:
                if len(row) != space.n_states:
                    raise DomainError("utility matrix column count != state count")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "utilities", tuple(rows))

    def action_index(self, action: str) -> int:
        try:
            return self.actions.index(action)
        except ValueError:
            raise DomainError(f"unknown action {action!r}")

    def utility_row(self, action: str) -> tuple[Fraction, ...]:
        return self.utilities[self.action_index(action)]


def project(p: Distribution, subset: Iterable[str]) -> Distribution:
    """Marginalize p onto a variable subset (the subset may be empty)."""
    sub, cell = p.space.projection(subset)
    acc = [Fraction(0)] * sub.n_states
    for c, m in zip(cell, p.mass):
        acc[c] += m
    return Distribution(sub, acc)


def project_model(p: Distribution, model: Model) -> dict[frozenset[str], Distribution]:
    """One marginal of p per model block."""
    missing = model.covered - set(p.space.names)
    if missing:
        raise DomainError(f"model blocks use variables {sorted(missing)} not in p")
    return {b: project(p, b) for b in model.blocks}


def is_refinement(x: Model, y: Model) -> bool:
    """True iff every block of x is contained in some block of y."""
    if x.space != y.space:
        raise DomainError("models are over different variable spaces")
    return all(any(bx <= by for by in y.blocks) for bx in x.blocks)


def expected_utility(p: Distribution, dp: DecisionProblem, action: str) -> Fraction:
    """Exact dot product of p with the action's utility row."""
    if p.space != dp.space:
        raise DomainError("distribution and decision problem have different spaces")
    row = dp.utility_row(action)
    return sum((m * u for m, u in zip(p.mass, row)), Fraction(0))

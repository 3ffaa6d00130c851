"""Credal sets: convex sets of distributions given by linear constraints."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .domain import (
    DomainError,
    Distribution,
    Model,
    VariableSpace,
    to_fraction,
)


class EmptyCredalSetError(ValueError):
    """Raised when a criterion is applied to an empty credal set."""


@dataclass(frozen=True)
class LinearConstraint:
    """A single linear constraint sum_j c_j p(s_j) REL rhs over the states."""

    coefficients: tuple[Fraction, ...]
    relation: str  # "=", "<=", ">="
    rhs: Fraction

    def __init__(self, coefficients, relation: str, rhs):
        coeffs = tuple(to_fraction(c) for c in coefficients)
        if relation not in ("=", "<=", ">="):
            raise DomainError(f"unknown relation {relation!r}")
        if all(c == 0 for c in coeffs):
            raise DomainError("constraint has no nonzero coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", to_fraction(rhs))

    def satisfied_by(self, mass: Sequence[Fraction]) -> bool:
        lhs = sum((c * m for c, m in zip(self.coefficients, mass)), Fraction(0))
        if self.relation == "=":
            return lhs == self.rhs
        if self.relation == "<=":
            return lhs <= self.rhs
        return lhs >= self.rhs


@dataclass(frozen=True)
class CredalSet:
    """K = P^n intersected with the solutions of a linear constraint list.

    Nonnegativity and total mass 1 are implicit and injected at solve time,
    so the stored constraints match how problems are usually stated.
    """

    space: VariableSpace
    constraints: tuple[LinearConstraint, ...]
    # provenance when built purely from marginal tables over a model;
    # the maximum-entropy decision rule requires it
    marginal_model: Model | None = None
    marginal_tables: tuple[tuple[frozenset[str], Distribution], ...] | None = None

    def __init__(self, space, constraints, marginal_model=None, marginal_tables=None):
        cs = tuple(constraints)
        for c in cs:
            if len(c.coefficients) != space.n_states:
                raise DomainError("constraint length != state count")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "constraints", cs)
        object.__setattr__(self, "marginal_model", marginal_model)
        object.__setattr__(
            self,
            "marginal_tables",
            tuple(marginal_tables.items()) if isinstance(marginal_tables, Mapping)
            else marginal_tables,
        )

    def contains(self, p: Distribution) -> bool:
        if p.space != self.space:
            raise DomainError("distribution is over a different space")
        return all(c.satisfied_by(p.mass) for c in self.constraints)

    def lp_rows(self):
        """Constraint rows for the solver: (eq, ub) with >= rows negated."""
        n = self.space.n_states
        eq = [([Fraction(1)] * n, Fraction(1))]
        ub = []
        for c in self.constraints:
            if c.relation == "=":
                eq.append((list(c.coefficients), c.rhs))
            elif c.relation == "<=":
                ub.append((list(c.coefficients), c.rhs))
            else:
                ub.append(([-v for v in c.coefficients], -c.rhs))
        return eq, ub


def from_marginals(
    space: VariableSpace,
    model: Model,
    tables: Mapping[frozenset[str], Distribution],
) -> CredalSet:
    """The extension polytope of the given marginal tables over the model.

    One equality per cell of each table: the joint mass of all states agreeing
    with the cell equals the cell's mass.
    """
    if model.space != space:
        raise DomainError("model is over a different space")
    tables = {frozenset(b): t for b, t in tables.items()}
    if set(tables) != set(model.blocks):
        raise DomainError("tables do not match model blocks")
    constraints = []
    for block in model.blocks:
        table = tables[block]
        want, cell = space.projection(block)
        if table.space != want:
            raise DomainError(
                f"table for block {sorted(block)} is over the wrong variables"
            )
        if not block:
            # empty block: its only cell restates total mass, already implicit
            continue
        for c, mass in enumerate(table.mass):
            coeffs = [Fraction(int(k == c)) for k in cell]
            constraints.append(LinearConstraint(coeffs, "=", mass))
    return CredalSet(
        space, constraints, marginal_model=model, marginal_tables=tables
    )


def from_intervals(
    space: VariableSpace,
    bounds: Mapping[Sequence[str], tuple],
) -> CredalSet:
    """K from per-state probability intervals [l_j, u_j]."""
    n = space.n_states
    lo = [Fraction(0)] * n
    hi = [Fraction(1)] * n
    for state, (l, u) in bounds.items():
        j = space.state_index(state)
        lo[j] = to_fraction(l)
        hi[j] = to_fraction(u)
    constraints = []
    for j in range(n):
        if not 0 <= lo[j] <= hi[j] <= 1:
            raise DomainError(
                f"invalid interval [{lo[j]}, {hi[j]}] for state {space.states[j]}"
            )
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        constraints.append(LinearConstraint(unit, ">=", lo[j]))
        constraints.append(LinearConstraint(unit, "<=", hi[j]))
    return CredalSet(space, constraints)


def from_ordering(space: VariableSpace, chain: Sequence[Sequence[str]]) -> CredalSet:
    """K from a probability ordering p(s_(1)) >= p(s_(2)) >= ..."""
    indices = [space.state_index(s) for s in chain]
    if len(set(indices)) != len(indices):
        raise DomainError("duplicate state in ordering chain")
    n = space.n_states
    constraints = []
    for a, b in itertools.pairwise(indices):
        coeffs = [Fraction(0)] * n
        coeffs[a] = Fraction(1)
        coeffs[b] = Fraction(-1)
        constraints.append(LinearConstraint(coeffs, ">=", Fraction(0)))
    return CredalSet(space, constraints)


def from_raw(space: VariableSpace, constraints: Iterable[LinearConstraint]) -> CredalSet:
    return CredalSet(space, tuple(constraints))


def full_simplex(space: VariableSpace) -> CredalSet:
    """K = P^n: no constraints beyond nonnegativity and total mass."""
    return CredalSet(space, ())


def intersect(a: CredalSet, b: CredalSet) -> CredalSet:
    if a.space != b.space:
        raise DomainError("credal sets are over different spaces")
    return CredalSet(a.space, a.constraints + b.constraints)


def feasible(k: CredalSet) -> tuple[bool, Distribution | None]:
    """Phase-one feasibility: a witness distribution in K, if any."""
    from .solver import LpProblem, solve  # local import: solver depends on sets

    outcome = solve(LpProblem([0] * k.space.n_states, "min", k))
    return outcome.status == "optimal", outcome.witness


def is_consistent(k: CredalSet) -> bool:
    return feasible(k)[0]

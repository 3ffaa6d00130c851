"""Decision criteria over credal sets and their classical baselines."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domain import DecisionProblem, Distribution, DomainError, to_fraction
from .sets import (
    CredalSet,
    EmptyCredalSetError,
    LinearConstraint,
    feasible,
    from_raw,
    intersect,
    solve,
)


@dataclass(frozen=True)
class UtilityInterval:
    """Exact range of expected utility of one action as p varies over K."""

    action: str
    lo: Fraction
    hi: Fraction
    lo_witness: Distribution
    hi_witness: Distribution


@dataclass(frozen=True)
class CriterionResult:
    chosen: str
    ranking: tuple[tuple[str, Fraction], ...]  # (action, score), action order
    criterion: str
    parameters: dict


def _check_space(dp: DecisionProblem, k: CredalSet) -> None:
    if dp.space != k.space:
        raise DomainError("decision problem and credal set have different spaces")


def _check_consistent(dp: DecisionProblem, k: CredalSet) -> None:
    _check_space(dp, k)
    if not feasible(k)[0]:
        raise EmptyCredalSetError("the credal set is empty")


def _alpha(alpha) -> Fraction:
    """The pessimism index of the Hurwicz rules, an exact rational in [0, 1]."""
    alpha = to_fraction(alpha)
    if not 0 <= alpha <= 1:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def _pick(scores: list[tuple[str, Fraction]], criterion: str, **params) -> CriterionResult:
    # max keeps the first maximal score: ties go to the first declared action
    chosen = max(scores, key=lambda it: it[1])
    return CriterionResult(
        chosen=chosen[0], ranking=tuple(scores), criterion=criterion, parameters=params
    )


def utility_intervals(dp: DecisionProblem, k: CredalSet) -> list[UtilityInterval]:
    """Per action, [min, max] expected utility over K via two LP solves."""
    _check_consistent(dp, k)
    out = []
    for action in dp.actions:
        row = dp.utility_row(action)
        lo = solve(k, row, "min")
        hi = solve(k, row, "max")
        out.append(
            UtilityInterval(
                action=action,
                lo=lo.value, hi=hi.value,
                lo_witness=lo.witness, hi_witness=hi.witness,
            )
        )
    return out


def choose_from_intervals(
    intervals: list[UtilityInterval], criterion: str = "gm", alpha=None
) -> CriterionResult:
    """Apply GM (alpha omitted) or GH (alpha given) to precomputed intervals."""
    if alpha is None:
        scores = [(iv.action, iv.lo) for iv in intervals]
        return _pick(scores, criterion)
    alpha = _alpha(alpha)
    scores = [(iv.action, alpha * iv.lo + (1 - alpha) * iv.hi) for iv in intervals]
    return _pick(scores, criterion, alpha=alpha)


def gm_choose(dp: DecisionProblem, k: CredalSet) -> CriterionResult:
    """Generalized maximin: maximize the minimum expected utility over K."""
    return choose_from_intervals(utility_intervals(dp, k), "gm")


def gh_choose(dp: DecisionProblem, k: CredalSet, alpha) -> CriterionResult:
    """Generalized Hurwicz: maximize alpha*lo + (1-alpha)*hi of the interval."""
    alpha = _alpha(alpha)  # before any LP is solved
    return choose_from_intervals(utility_intervals(dp, k), "gh", alpha)


def e_admissible_witnesses(
    dp: DecisionProblem, k: CredalSet
) -> list[tuple[str, Distribution]]:
    """The E-admissible actions, each with a witness p in K.

    An action is E-admissible iff the part of K where it is EU-maximal is
    non-empty.  Its witness is the point of that part at which the action's
    own expected utility is highest.  Some action is EU-maximal at any point
    of a nonempty K, so K is empty iff no action is admitted.
    """
    _check_space(dp, k)
    out = []
    for action in dp.actions:
        row = dp.utility_row(action)
        # EU(action) >= EU(other); an identical row gives no constraint
        dominance = [
            LinearConstraint([u - v for u, v in zip(row, other)], ">=", 0)
            for other in dp.utilities
            if other != row
        ]
        region = intersect(k, from_raw(k.space, dominance))
        outcome = solve(region, row, "max")
        if outcome.status == "optimal":
            out.append((action, outcome.witness))
    if not out:
        raise EmptyCredalSetError("the credal set is empty")
    return out


def e_admissible(dp: DecisionProblem, k: CredalSet) -> list[str]:
    """Actions that maximize expected utility for at least one p in K."""
    return [action for action, _ in e_admissible_witnesses(dp, k)]


def levi_choose(dp: DecisionProblem, k: CredalSet) -> CriterionResult:
    """A unique E-admissible action if there is one; otherwise maximin over
    raw utilities restricted to the E-admissible actions."""
    admissible = set(e_admissible(dp, k))
    scores = [(a, min(dp.utility_row(a))) for a in dp.actions if a in admissible]
    return _pick(scores, "levi")


def pme_choose(dp: DecisionProblem, k: CredalSet) -> CriterionResult:
    """Maximize expected utility at the maximum-entropy element of K.

    K must carry its marginal-table provenance (built by from_marginals);
    maximum entropy under general linear constraints is not supported.
    """
    from .maxent import maxent_extend  # local import: maxent depends on sets

    if k.marginal_model is None or k.marginal_tables is None:
        raise DomainError(
            "the maximum-entropy rule requires a credal set built from "
            "marginal tables over a model"
        )
    _check_space(dp, k)
    result = maxent_extend(k.space, k.marginal_model, dict(k.marginal_tables))
    scores = []
    for action in dp.actions:
        row = dp.utility_row(action)
        scores.append((action, sum(m * u for m, u in zip(result.distribution, row))))
    return _pick(scores, "pme")


def maximin_choose(dp: DecisionProblem) -> CriterionResult:
    """Classical maximin on raw utilities; K is ignored (pure uncertainty)."""
    scores = [(a, min(dp.utility_row(a))) for a in dp.actions]
    return _pick(scores, "maximin")


def hurwicz_choose(dp: DecisionProblem, alpha) -> CriterionResult:
    """Classical Hurwicz pessimism-optimism index on raw utility rows."""
    alpha = _alpha(alpha)
    scores = [
        (a, alpha * min(dp.utility_row(a)) + (1 - alpha) * max(dp.utility_row(a)))
        for a in dp.actions
    ]
    return _pick(scores, "hurwicz", alpha=alpha)


def minimax_regret_choose(dp: DecisionProblem) -> CriterionResult:
    """Savage's minimax regret; scores are negated maximum regrets."""
    n = dp.space.n_states
    col_max = [max(dp.utilities[i][j] for i in range(len(dp.actions))) for j in range(n)]
    scores = []
    for a in dp.actions:
        row = dp.utility_row(a)
        scores.append((a, -max(cm - u for cm, u in zip(col_max, row))))
    return _pick(scores, "regret")

"""Decision making with convex sets of probability distributions."""

from .domain import (
    DecisionProblem,
    Distribution,
    DomainError,
    Model,
    VariableSpace,
    expected_utility,
    is_refinement,
    project,
    project_model,
    to_fraction,
)
from .sets import (
    CredalSet,
    EmptyCredalSetError,
    LinearConstraint,
    LpOutcome,
    feasible,
    from_intervals,
    from_marginals,
    from_ordering,
    from_raw,
    full_simplex,
    intersect,
    is_consistent,
    solve,
)
from .criteria import (
    CriterionResult,
    UtilityInterval,
    choose_from_intervals,
    e_admissible,
    e_admissible_witnesses,
    gh_choose,
    gm_choose,
    hurwicz_choose,
    levi_choose,
    maximin_choose,
    minimax_regret_choose,
    pme_choose,
    utility_intervals,
)
from .maxent import MaxEntError, MaxEntResult, entropy, maxent_extend
from .reduction import ReductionOutcome, projected_utility_intervals, reduce_model

__version__ = "0.1.0"

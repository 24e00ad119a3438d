"""Exact Frobenius vectors, conductors and membership certificates for
affine subsemigroups of N^e, plus the semigroups of plane-branch and
quasi-ordinary singularities derived from characteristic exponents."""

from .errors import (
    ConditionsUnmetError,
    DimensionError,
    InvalidExponentsError,
    InvalidGeneratorsError,
    NotFullLatticeError,
    RankDeficientError,
    SearchBudgetExceededError,
)
from .exactlinalg import (
    IntMatrix,
    adjugate,
    cramer_numerators,
    determinant,
    gcd_maximal_minors,
    lattice_basis,
)
from .frobenius import (
    CONDITIONS_UNMET,
    LATTICE_INFEASIBLE,
    NO_SOLUTION,
    SOLVABLE_BY_CONE,
    SOLVABLE_WITH_WITNESS,
    DiophantineAnswer,
    FrobeniusReport,
    beyond_frobenius,
    conductor_set,
    diophantine_solve,
    frobenius_subset,
    frobenius_vector,
    gaps,
    minimal_cone_points,
)
from .lattice import (
    GeneratorSystem,
    LatticeChain,
    StandardRepresentation,
    build_chain,
    standard_representation,
)
from .semigroup import (
    ConditionReport,
    MembershipResult,
    ScaledMembershipCheck,
    decide_conditions,
    membership_bruteforce,
    membership_fast,
    validate_conditions,
)
from .singularities import (
    CurveExponents,
    CurveSemigroupData,
    QOExponents,
    QOSemigroupData,
    curve_semigroup,
    qo_semigroup,
    zariski_validate,
)

__version__ = "0.1.0"


def __getattr__(name):
    # The oracle loads numpy, so its names are imported on first access.
    if name in (
        "TheoremCheck",
        "fast_membership_grid",
        "frobenius_number_dp",
        "numerical_gaps_dp",
        "random_conditioned_system",
        "reachable_grid",
        "verify_conductor",
        "verify_theorem1",
    ):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CONDITIONS_UNMET",
    "ConditionReport",
    "ConditionsUnmetError",
    "CurveExponents",
    "CurveSemigroupData",
    "DimensionError",
    "DiophantineAnswer",
    "FrobeniusReport",
    "GeneratorSystem",
    "IntMatrix",
    "InvalidExponentsError",
    "InvalidGeneratorsError",
    "LATTICE_INFEASIBLE",
    "LatticeChain",
    "MembershipResult",
    "NO_SOLUTION",
    "NotFullLatticeError",
    "QOExponents",
    "QOSemigroupData",
    "RankDeficientError",
    "SOLVABLE_BY_CONE",
    "SOLVABLE_WITH_WITNESS",
    "ScaledMembershipCheck",
    "SearchBudgetExceededError",
    "StandardRepresentation",
    "TheoremCheck",
    "adjugate",
    "beyond_frobenius",
    "build_chain",
    "conductor_set",
    "cramer_numerators",
    "curve_semigroup",
    "decide_conditions",
    "determinant",
    "diophantine_solve",
    "fast_membership_grid",
    "frobenius_number_dp",
    "frobenius_subset",
    "frobenius_vector",
    "gaps",
    "gcd_maximal_minors",
    "lattice_basis",
    "membership_bruteforce",
    "membership_fast",
    "minimal_cone_points",
    "numerical_gaps_dp",
    "qo_semigroup",
    "random_conditioned_system",
    "reachable_grid",
    "standard_representation",
    "validate_conditions",
    "verify_conductor",
    "verify_theorem1",
    "zariski_validate",
]

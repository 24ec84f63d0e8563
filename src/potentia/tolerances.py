"""Every threshold potentia decides by: the ``--tol`` defaults, the fixed tolerances and floors
(each importable from the module that applies it, too) and the size caps; and both gates,
``require_within``, the one refusal of a size above its cap, and ``require_at_most``, the one
refusal of a value beyond its tolerance; and ``_gamma``, the unit of every rounding bound.

A leaf module: it imports no numpy and no other potentia module but ``errors``.
"""

from __future__ import annotations

import json
import math
import sys

from .errors import CapacityError, DomainError, ParseError

#: Absolute tolerance on the max entry of M - M† for "Hermitian".
HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
PURITY_TOL = 1e-9
VERDICT_TOL = 1e-9
EQUIVALENCE_TOL = 1e-10
AXIOM_TOL = 1e-8
#: Potentia at or below this count as zero for actualization.
ZERO_THRESHOLD = 1e-10

NORM_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-7
#: Mixture components below this weight are dropped, and weights below -WEIGHT_FLOOR rejected.
WEIGHT_FLOOR = 1e-12
#: Vectors shorter than this count as zero and cannot be normalized.
ZERO_NORM = 1e-12
#: A conditioning event at or below this probability yields no state.
PROBABILITY_FLOOR = 1e-12
#: Absolute tolerance on the max entry of V†V - I for "orthonormal columns".
ISOMETRY_TOL = 1e-9
#: Absolute tolerance on the max entry of P² - P, of PQ - QP and of a powers graph's matches.
PROJECTOR_TOL = 1e-8
#: Potentia may stray this far outside [0, 1] before a valuation rejects them.
POTENTIA_SLACK = 1e-12
RESIDUAL_TOL = 1e-7
#: Singular values of the reconstruction design below this do not count to its rank.
RANK_TOL = 1e-10
COMPLETENESS_TOL = 1e-8
ENTROPY_TOL = 1e-9
#: Schmidt coefficients below this count as zero when ranking.
SCHMIDT_FLOOR = 1e-9
CHSH_TOL = 1e-9
#: Components below this magnitude are skipped when fixing a singular-vector sign.
SIGN_FLOOR = 1e-12
CHAIN_TOL = 1e-9
BISECT_TOL = 1e-9

#: Total matrix dimension cap (rows): twelve qubit screens, 2**12.
DIM_CAP = 4096
#: Most grid points one ``werner --scan`` evaluates.
SCAN_STEPS_CAP = 100_000
#: Product states one witness check samples by default, and at most.
WITNESS_SAMPLES = 10_000
WITNESS_SAMPLES_CAP = 1_000_000
#: Most Kraus operators in one CP map, a one-way product's included.
KRAUS_RANK_CAP = 16
#: Clique enumeration refuses larger graphs (worst case 3^(n/3) cliques).
CONTEXT_NODE_CAP = 24
#: Exhaustive binary-valuation search refuses larger graphs.
BINARY_SEARCH_NODE_CAP = 30
#: Orthogonal families are enumerated up to this size.
FAMILY_SIZE_CAP = 6


def _gamma(n: int) -> float:
    """Higham's gamma_n = nu / (1 - nu), u the unit roundoff: the relative error of n roundings."""
    return n * 2.0**-53 / (1 - n * 2.0**-53)


def require_within(what: str, size: int, cap: int) -> None:
    """Raise ``CapacityError`` (CLI exit 4) if ``size`` exceeds ``cap``; callers check
    before anything is formed or solved."""
    if size > cap:
        raise CapacityError(f"{what} {size} exceeds the cap of {cap}")


def require_at_most(what: str, value: float, bound: float) -> None:
    """Raise ``DomainError`` (CLI exit 3) unless ``-inf < value <= bound``: NaN and both infinities
    fail.  Both numbers print as the shortest float that reads back exactly, so a refused value
    never reads as its bound."""
    if not -math.inf < value <= bound:
        raise DomainError(f"{what} {float(value)!r} exceeds {float(bound)!r}")


class Tolerances:
    """Load- and analysis-time tolerances: each annotated name, read from the class until it is
    overridden, with a finite number >= 0, via the CLI ``--tol name=value`` flag or a config file."""

    hermiticity: float = HERMITICITY_TOL
    trace: float = TRACE_TOL
    purity: float = PURITY_TOL
    verdict: float = VERDICT_TOL
    equivalence: float = EQUIVALENCE_TOL
    axioms: float = AXIOM_TOL
    zero: float = ZERO_THRESHOLD

    def override(self, name: str, value: float) -> None:
        if name not in Tolerances.__annotations__:
            known = ", ".join(Tolerances.__annotations__)
            raise ParseError(f"unknown tolerance {name!r}; known: {known}")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and 0 <= value <= sys.float_info.max):  # NaN fails both comparisons
            raise ParseError(f"tolerance {name!r}: {json.dumps(value)} is not a finite number >= 0")
        setattr(self, name, float(value))

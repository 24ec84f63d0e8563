"""Default tolerances, one source for the modules that apply them and the CLI's ``--tol``;
and the size caps, with ``require_within``, the one refusal of a size above its cap.

A leaf module: it imports no numpy and no other potentia module but ``errors``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass

from .errors import CapacityError, ParseError

#: Absolute tolerance on the max entry of M - M† for "Hermitian".
HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
PURITY_TOL = 1e-9
VERDICT_TOL = 1e-9
EQUIVALENCE_TOL = 1e-10
AXIOM_TOL = 1e-8
#: Potentia at or below this count as zero for actualization.
ZERO_THRESHOLD = 1e-10

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


def require_within(what: str, size: int, cap: int) -> None:
    """Raise ``CapacityError`` (CLI exit 4) if ``size`` exceeds ``cap``; callers check
    before anything is formed or solved."""
    if size > cap:
        raise CapacityError(f"{what} {size} exceeds the cap of {cap}")


@dataclass
class Tolerances:
    """Load- and analysis-time tolerances; every field can be overridden, with a
    finite number >= 0, via the CLI ``--tol name=value`` flag or a config file."""

    hermiticity: float = HERMITICITY_TOL
    trace: float = TRACE_TOL
    purity: float = PURITY_TOL
    verdict: float = VERDICT_TOL
    equivalence: float = EQUIVALENCE_TOL
    axioms: float = AXIOM_TOL
    zero: float = ZERO_THRESHOLD

    def override(self, name: str, value: float) -> None:
        if not any(field.name == name for field in dataclasses.fields(self)):
            known = ", ".join(field.name for field in dataclasses.fields(self))
            raise ParseError(f"unknown tolerance {name!r}; known: {known}")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and 0 <= value <= sys.float_info.max):  # NaN fails both comparisons
            raise ParseError(f"tolerance {name!r}: {json.dumps(value)} is not a finite number >= 0")
        setattr(self, name, float(value))

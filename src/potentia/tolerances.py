"""Default tolerances, one source for the modules that apply them and the CLI's ``--tol``.

A leaf module: it imports no numpy and no other potentia module but ``errors``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass

from .errors import ParseError

#: Absolute tolerance on the max entry of M - M† for "Hermitian".
HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
PURITY_TOL = 1e-9
VERDICT_TOL = 1e-9
EQUIVALENCE_TOL = 1e-10
AXIOM_TOL = 1e-8
#: Potentia at or below this count as zero for actualization.
ZERO_THRESHOLD = 1e-10


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

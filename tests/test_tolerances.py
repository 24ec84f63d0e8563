"""The one table of thresholds, ``potentia.tolerances``, and its value gate ``require_at_most``."""

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potentia import tolerances
from potentia.errors import DomainError
from potentia.tolerances import require_at_most

ROOT = Path(__file__).resolve().parents[1]

#: Each fixed threshold and the module that applies it, from which it still resolves.
FIXED = {
    "CHAIN_TOL": "arrangements",
    "CHSH_TOL": "bell",
    "SIGN_FLOOR": "bell",
    "BISECT_TOL": "cli",
    "ENTROPY_TOL": "entanglement",
    "SCHMIDT_FLOOR": "entanglement",
    "COMPLETENESS_TOL": "locc",
    "PROJECTOR_TOL": "powers",
    "POTENTIA_SLACK": "powers",
    "RESIDUAL_TOL": "powers",
    "RANK_TOL": "powers",
    "ISOMETRY_TOL": "qlin",
    "NORM_TOL": "states",
    "EIGENVALUE_FLOOR": "states",
    "WEIGHT_FLOOR": "states",
    "ZERO_NORM": "states",
    "PROBABILITY_FLOOR": "states",
}

#: The ``--tol`` names and the constants that hold their defaults.
DEFAULTS = {
    "hermiticity": "HERMITICITY_TOL",
    "trace": "TRACE_TOL",
    "purity": "PURITY_TOL",
    "verdict": "VERDICT_TOL",
    "equivalence": "EQUIVALENCE_TOL",
    "axioms": "AXIOM_TOL",
    "zero": "ZERO_THRESHOLD",
}


def refusal(what: str, value: float, bound: float) -> str:
    return f"^{re.escape(what)} {re.escape(repr(value))} exceeds {re.escape(repr(bound))}$"


class TestRequireAtMost:
    @pytest.mark.parametrize("bound", [0.0, 1e-12, 1e-9, 1.0, 1 + 1e-12, 1e308])
    def test_the_bound_passes_and_the_next_float_fails(self, bound):
        require_at_most("gap", bound, bound)
        above = math.nextafter(bound, math.inf)
        with pytest.raises(DomainError, match=refusal("gap", above, bound)):
            require_at_most("gap", above, bound)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_fail(self, value):
        with pytest.raises(DomainError, match=refusal("Bloch point norm", value, 1e-09)):
            require_at_most("Bloch point norm", value, 1e-9)

    def test_message_names_what_the_value_and_the_bound(self):
        """numpy scalars print as the floats they hold, each as the shortest that reads back,
        so a refused value never prints as its bound."""
        with pytest.raises(DomainError) as excinfo:
            require_at_most("Kraus operator 3 |entry|", np.float64(0.1 + 0.2), 0.3)
        assert str(excinfo.value) == "Kraus operator 3 |entry| 0.30000000000000004 exceeds 0.3"

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False), st.floats(allow_nan=False, allow_infinity=False))
    def test_refuses_exactly_what_fails_value_at_most_bound(self, value, bound):
        try:
            require_at_most("value", value, bound)
            refused = False
        except DomainError:
            refused = True
        assert refused == (not value <= bound or value == -math.inf)


def test_each_fixed_threshold_resolves_from_its_old_module():
    for name, module in FIXED.items():
        value = getattr(importlib.import_module(f"potentia.{module}"), name)
        assert isinstance(value, float) and value == getattr(tolerances, name), name


def test_the_table_is_the_defaults_and_the_fixed_thresholds():
    """Every float in ``tolerances`` is a ``--tol`` default or one of the fixed thresholds."""
    floats = {name for name, value in vars(tolerances).items() if isinstance(value, float)}
    assert floats == set(FIXED) | set(DEFAULTS.values())
    fields = {name: getattr(tolerances.Tolerances, name) for name in tolerances.Tolerances.__annotations__}
    assert fields == {name: getattr(tolerances, constant) for name, constant in DEFAULTS.items()}


def test_readme_lists_every_fixed_threshold_with_its_value_and_module():
    """README's tolerance table lists the fixed thresholds name for name and value for value,
    each with the module it also resolves from; the ``--tol`` rows are checked in
    ``test_acceptance``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(
        r"^\| `tolerances\.(\w+)` \| ([0-9.e+-]+) \| `(\w+)` \|", section, flags=re.MULTILINE
    )
    assert {name: float(value) for name, value, _ in rows} == {
        name: getattr(tolerances, name) for name in FIXED
    }
    assert {name: module for name, _, module in rows} == FIXED
    assert len(rows) == len(FIXED)

"""CHSH correlation analysis for two-qubit states.

Correlations live in the 3x3 matrix t[i, j] = Tr(rho s_i (x) s_j); the
best CHSH score over all measurement directions is 2*sqrt(m1 + m2) with
m1, m2 the two largest eigenvalues of t^T t.  ``region`` reads a state's
region from its PPT verdict and that maximum.
"""

from __future__ import annotations

import numpy as np

from . import qlin
from .errors import ShapeError
from .states import PAULI_X, PAULI_Y, PAULI_Z, DensityOperator
from .entanglement import SeparabilityVerdict, Verdict, WernerRegion
from .tolerances import CHSH_TOL, EIGENVALUE_FLOOR, NORM_TOL, SIGN_FLOOR, TRACE_TOL, require_at_most

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * np.sqrt(2.0)

_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
#: s_i (x) s_j for every Pauli pair, built once rather than per call.
_PAULI_PAIRS = np.array([[np.kron(si, sj) for sj in _PAULIS] for si in _PAULIS])


class CorrelationMatrix(qlin._Value):
    """t[i, j] = Tr(rho s_i (x) s_j), and ``svd``, its ``(left, singulars, right_t)``, solved once.
    Entries and singular values may exceed 1 by as much as those of an accepted two-qubit state can."""

    t: np.ndarray

    def __post_init__(self):
        mat = qlin._numbers(self.t, "correlation matrix", real=True)
        if mat.shape != (3, 3):
            raise ShapeError(f"correlation matrix must be 3x3, got {mat.shape}")
        # Each is a Tr(rho O), ||O|| = 1: at most ||rho||_1, and at most 3 eigenvalues are < 0.
        bound = 1 + TRACE_TOL - 6 * EIGENVALUE_FLOOR
        require_at_most("correlation max |entry|", np.max(np.abs(mat)), bound)
        svd = tuple(map(qlin.frozen, np.linalg.svd(mat)))
        require_at_most("correlation top singular value", svd[1][0], bound)
        vars(self).update(t=qlin.frozen(mat, self.t), svd=svd)


def _unit(vector) -> np.ndarray:
    v = qlin._numbers(vector, "Bloch direction", real=True).reshape(-1)
    if v.shape != (3,):
        raise ShapeError(f"Bloch direction must be a 3-vector, got shape {v.shape}")
    require_at_most("Bloch direction |norm - 1|", abs(float(np.linalg.norm(v)) - 1.0), NORM_TOL)
    return v


class MeasurementSetting(qlin._Value):
    """Bloch directions a, a' for one side and b, b' for the other."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        for name in self._fields:
            vars(self)[name] = qlin.frozen(_unit(given := getattr(self, name)), given)


def correlation_matrix(rho: DensityOperator) -> CorrelationMatrix:
    if rho.dim != 4:
        raise ShapeError(f"CHSH analysis needs a two-qubit state, got dim {rho.dim}")
    return CorrelationMatrix(_correlations(rho.matrix))


def _correlations(matrix: np.ndarray) -> np.ndarray:
    """Tr(rho P) = sum_ab rho_ab P_ba for each Pauli pair P: one state's, summed in its own order."""
    return np.real(np.einsum("ab,ijba->ij", matrix, _PAULI_PAIRS))


def chsh_value(rho: DensityOperator, setting: MeasurementSetting) -> float:
    """E(a,b) + E(a,b') + E(a',b) - E(a',b') with E(u,v) = u^T t v."""
    t = correlation_matrix(rho).t

    def correlate(u: np.ndarray, v: np.ndarray) -> float:
        return float(u @ t @ v)

    return (
        correlate(setting.a, setting.b)
        + correlate(setting.a, setting.b_prime)
        + correlate(setting.a_prime, setting.b)
        - correlate(setting.a_prime, setting.b_prime)
    )


class ChshMax(qlin._Value, eq=True):
    value: float
    setting: MeasurementSetting


def _sign_fix(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Lexicographic convention: first nonzero component of u is positive;
    # flipping u and v together leaves the correlation term unchanged.
    for entry in u:
        if abs(entry) > SIGN_FLOOR:
            if entry < 0:
                return -u, -v
            break
    return u, v


def chsh_max(rho: DensityOperator) -> ChshMax:
    """Closed-form maximum 2*sqrt(m1 + m2), with an achieving setting.

    The setting is built from the two leading singular directions of the
    correlation matrix; ``chsh_value`` at that setting reproduces the
    maximum.
    """
    left, singulars, right_t = correlation_matrix(rho).svd
    u1, v1 = _sign_fix(left[:, 0], right_t[0])
    u2, v2 = _sign_fix(left[:, 1], right_t[1])
    value = _chsh_bound(singulars)
    angle = np.arctan2(singulars[1], singulars[0])
    b = np.cos(angle) * v1 + np.sin(angle) * v2
    b_prime = np.cos(angle) * v1 - np.sin(angle) * v2
    setting = MeasurementSetting(u1, u2, b, b_prime)
    return ChshMax(float(value), setting)


def _chsh_bound(s: np.ndarray) -> np.ndarray:
    """2*sqrt(m1 + m2) from the singular values of a correlation matrix, or of each of a stack, as
    an SVD with vectors gives them: without, they may differ in the last bit."""
    return 2.0 * np.sqrt(s[..., 0] * s[..., 0] + s[..., 1] * s[..., 1])


def region(ppt: SeparabilityVerdict, chsh: float) -> WernerRegion:
    """The region rule of a two-qubit state, from its PPT verdict and its CHSH maximum: PPT-separable,
    entangled but CHSH-local, or nonlocal."""
    if ppt.verdict is Verdict.SEPARABLE:
        return WernerRegion.SEPARABLE
    if chsh > CLASSICAL_BOUND + CHSH_TOL:
        return WernerRegion.NONLOCAL
    return WernerRegion.ENTANGLED_LOCAL

"""State representations: pure vectors, density operators, Bloch geometry,
the two rival purity predicates, shadows, and mixture decompositions."""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import qlin
from .errors import DegenerateConditioningError, DomainError, ShapeError
from .qlin import frozen
from .tolerances import (
    EIGENVALUE_FLOOR, NORM_TOL, PROBABILITY_FLOOR, PURITY_TOL, TRACE_TOL, WEIGHT_FLOOR, ZERO_NORM,
    _gamma, require_at_most,
)

if TYPE_CHECKING:
    from .arrangements import ExperimentalArrangement

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


class PureVector(qlin._Value):
    """Normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = qlin._numbers(self.amplitudes, "amplitudes").reshape(-1)
        require_at_most("vector |norm - 1|", abs(_norm(amps) - 1.0), NORM_TOL)
        vars(self)["amplitudes"] = frozen(amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "PureVector":
        index = qlin._index(index, *qlin._screen_dims((dim,)), "basis index")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return qlin._made(cls, amplitudes=amps)

    @classmethod
    def normalized(cls, amplitudes: Sequence) -> "PureVector":
        """Normalize and wrap; rejects a norm below ``ZERO_NORM`` or not finite.  A finite vector
        whose norm overflows (an entry above about 1.3e154) is first divided by its largest part."""
        amps = qlin._numbers(amplitudes, "amplitudes").reshape(-1)
        norm = _norm(amps)
        if norm == np.inf and np.isfinite(amps).all():
            amps = amps / max(np.abs(amps.real).max(), np.abs(amps.imag).max())
            norm = _norm(amps)
        if not ZERO_NORM <= norm < np.inf:  # NaN fails both
            raise DomainError(f"cannot normalize a vector of norm {norm!r}")
        return qlin._made(cls, amplitudes=amps / norm)


def _norm(amps: np.ndarray) -> float:
    """The 2-norm of ``amps``: inf where it overflows and NaN for a NaN entry, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(amps))


class DensityOperator(qlin._Value):
    """Trace-one positive-semidefinite Hermitian matrix, admitted by ``_admit``.  ``eigenvalues``
    is the spectrum, ascending and read-only, computed once, on first read; every spectral quantity
    of the state reads it."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = qlin.as_complex(self.matrix)
        qlin.require_hermitian(mat, what="density operator")
        require_at_most("density operator |trace - 1|", abs(complex(np.trace(mat)) - 1.0), TRACE_TOL)
        self._admit(np.array(mat))  # the one copy: shifted by the Cholesky check, then frozen

    def _admit(self, mat: np.ndarray, slack: float = 0.0) -> "DensityOperator":
        """The one positivity rule, on ``mat``, a finite Hermitian trace-one array no one else holds,
        kept in place as the read-only matrix.  Cholesky factors it with ``-EIGENVALUE_FLOOR / 2``
        added to its diagonal, reading the lower triangle as ``eigvalsh`` does; its backward error,
        about (N+1)·u·Tr(mat) (Higham, Thm 10.3), is far below that shift, so success proves the least
        eigenvalue lies above the floor.  The shift is undone bit for bit; ``np.linalg.cholesky``
        factors a copy.  Else the spectrum is solved and kept, and decides: ``mat`` is refused, naming
        its least eigenvalue, below the floor by more than ``slack``, the rounding of its making."""
        diagonal = mat.diagonal().copy()
        mat.flat[:: len(mat) + 1] -= EIGENVALUE_FLOOR / 2
        try:
            np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            mat.flat[:: len(mat) + 1] = diagonal
            eigenvalues = np.linalg.eigvalsh(mat)
            if not -eigenvalues[0] <= slack - EIGENVALUE_FLOOR:  # NaN is refused too
                require_at_most("density operator negated least eigenvalue", -eigenvalues[0],
                                -EIGENVALUE_FLOOR)
            vars(self)["eigenvalues"] = frozen(eigenvalues)
        else:
            mat.flat[:: len(mat) + 1] = diagonal
        vars(self)["matrix"] = qlin._frozen_in_place(mat)
        return self

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        return frozen(np.linalg.eigvalsh(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return qlin._made(cls, matrix=np.eye(*qlin._screen_dims((dim,)), dtype=np.complex128) / dim)

    def purity(self) -> float:
        """Tr(rho^2), the sum of |rho_ij|^2 for Hermitian rho."""
        return float(np.vdot(self.matrix, self.matrix).real)


def _conditioned(
    unnormalized: np.ndarray, parent: int | None = None, drift: float = 0.0
) -> tuple[float, DensityOperator | None]:
    """An event's probability, the trace of ``unnormalized`` (a new array, divided in place), and
    its conditioned state in that array, None at or below ``PROBABILITY_FLOOR``.  With no ``parent``
    it is a Gram product, a state by construction, and is not solved.  Else it is a block or Kraus
    branch of an admitted ``parent``-dim state, whose arrangement has moved it by ``drift``, and is
    admitted again: the division scales floor-sized negativity, and the rounding of its making."""
    probability = float(np.real(np.trace(unnormalized)))
    if probability <= PROBABILITY_FLOOR:
        return probability, None
    unnormalized /= probability
    if parent is None:
        return probability, qlin._made(DensityOperator, matrix=unnormalized)
    # The eigensolve errors of the parent and the child, m gamma_{m+2} of a norm at most 1 + TRACE_TOL
    # + parent |floor| for an m x m solve, and the drift; doubled for forming the branch, and for the
    # squared norm (at most 2) of a Kraus operator or an arrangement's inverse basis.
    n, norm = len(unnormalized), 1 + TRACE_TOL + parent * abs(EIGENVALUE_FLOOR)
    slack = 2 * ((parent * _gamma(parent + 2) + n * _gamma(n + 2)) * norm + drift) / probability
    try:
        return probability, qlin._made(DensityOperator)._admit(unnormalized, slack)
    except DomainError as exc:
        raise DegenerateConditioningError(f"probability {probability:.3e}; conditioned, {exc}") from None


class BlochPoint(qlin._Value, eq=True):
    """Point of the qubit Bloch ball in Cartesian coordinates.  The norm may
    exceed 1 by as much as the Bloch vector of an accepted state can."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        # rho = (Tr(rho) I + r.sigma) / 2 has least eigenvalue (Tr(rho) - |r|) / 2.
        require_at_most("Bloch point norm", self.norm, 1.0 + TRACE_TOL - 2 * EIGENVALUE_FLOOR)

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "BlochPoint":
        """Surface point for polar angle theta, azimuth phi."""
        return cls(
            float(np.sin(theta) * np.cos(phi)),
            float(np.sin(theta) * np.sin(phi)),
            float(np.cos(theta)),
        )

    def angles(self) -> tuple[float, float]:
        """(theta, phi) with theta in [0, pi], phi in [0, 2*pi); the centre gives (pi/2, 0)."""
        theta = float(np.arctan2(np.hypot(self.x, self.y), self.z)) if self.norm else np.pi / 2
        phi = float(np.arctan2(self.y, self.x)) % (2 * np.pi)
        return theta, phi


class MixtureDecomposition(qlin._Value):
    """Convex mixture of pure states reproducing a density operator."""

    weights: np.ndarray
    components: tuple[PureVector, ...]

    def __repr__(self) -> str:  # without the components, each of which is a state's worth of entries
        return f"MixtureDecomposition(weights={self.weights!r})"

    def __post_init__(self):
        weights = qlin._numbers(self.weights, "mixture weights", real=True).reshape(-1)
        if len(weights) != len(components := qlin._sequence(self.components, "mixture components")):
            raise ShapeError("weights and components differ in length")
        if len(dims := sorted({c.dim for c in components})) > 1:
            raise ShapeError(f"mixture components differ in dimension: {dims}")
        require_at_most("mixture negated least weight", -np.min(weights, initial=0.0), WEIGHT_FLOOR)
        require_at_most("mixture |weight sum - 1|", abs(float(weights.sum()) - 1.0), NORM_TOL)
        vars(self).update(weights=frozen(weights), components=components)

    @property
    def _rows(self) -> np.ndarray:
        """The k x dim rows sqrt(w_i) v_i; a weight in [-WEIGHT_FLOOR, 0) is read as 0."""
        amplitudes = np.stack([comp.amplitudes for comp in self.components])
        return np.sqrt(np.maximum(self.weights, 0.0))[:, None] * amplitudes

    def reconstruct(self) -> DensityOperator:
        rows = self._rows  # weights and norms are 1 within NORM_TOL only: divide by the trace
        return _conditioned(rows.T @ rows.conj())[1]


def density_from_vector(vector: PureVector) -> DensityOperator:
    """Rank-one projector |v><v| over its trace, ``<v|v>``, which misses 1 by up to ``2 NORM_TOL``."""
    return _conditioned(np.outer(vector.amplitudes, vector.amplitudes.conj()))[1]


def abstract_purity(rho: DensityOperator, tol: float = PURITY_TOL) -> bool:
    """Basis-independent purity: Tr(rho^2) >= 1 - tol."""
    return rho.purity() >= 1.0 - tol


def operational_purity(ea: ExperimentalArrangement, tol: float = PURITY_TOL) -> bool:
    """Basis-dependent purity: some detector of the arrangement fires with certainty.

    True iff its largest intensity <b|rho|b>, b a detector vector, is >= 1 - tol;
    for a trace-one PSD operator that pins rho to that projector within tol.
    """
    return bool(ea.intensities().max() >= 1.0 - tol)


def operational_purity_exists(rho: DensityOperator, tol: float = PURITY_TOL) -> bool:
    """Existential reading: is there *any* basis with a certain detector?

    The best basis is the eigenbasis, so this is a max-eigenvalue test.
    """
    return float(rho.eigenvalues[-1]) >= 1.0 - tol


def density_from_bloch(point: BlochPoint) -> DensityOperator:
    """rho = (I + x*sx + y*sy + z*sz) / 2 on the qubit, admitted with a slack of ``TRACE_TOL`` / 2, as far
    below the floor as a ``BlochPoint`` puts it, and a 2 x 2 solve's rounding (2 gamma_4, norm < 2)."""
    mat = (
        np.eye(2, dtype=np.complex128)
        + point.x * PAULI_X
        + point.y * PAULI_Y
        + point.z * PAULI_Z
    ) / 2.0
    return qlin._made(DensityOperator)._admit(mat, TRACE_TOL / 2 + 4 * _gamma(4))


def bloch_from_density(rho: DensityOperator) -> BlochPoint:
    if rho.dim != 2:
        raise ShapeError(f"Bloch coordinates are defined for qubits only, got dim {rho.dim}")
    return BlochPoint(
        float(np.real(np.trace(rho.matrix @ PAULI_X))),
        float(np.real(np.trace(rho.matrix @ PAULI_Y))),
        float(np.real(np.trace(rho.matrix @ PAULI_Z))),
    )


def shadow(vector: PureVector, axis: PureVector) -> tuple[complex, np.ndarray]:
    """Projection of ``vector`` onto the ray spanned by ``axis``.

    Returns (<axis|vector>, <axis|vector> * |axis>); the squared magnitude of
    the coefficient is the intensity on that axis.
    """
    if vector.dim != axis.dim:
        raise ShapeError(f"dimension mismatch {vector.dim} vs {axis.dim}")
    coefficient = complex(np.vdot(axis.amplitudes, vector.amplitudes))
    return coefficient, coefficient * axis.amplitudes


def projective_distance(p: DensityOperator, q: DensityOperator) -> float:
    """Hilbert-Schmidt distance sqrt(Tr((P-Q)^2)) between rank-one projectors.

    Equals sqrt(2) exactly on orthogonal pairs.
    """
    if not abstract_purity(p) or not abstract_purity(q):
        raise DomainError("projective distance is defined for rank-one projectors")
    if p.dim != q.dim:
        raise ShapeError(f"dimension mismatch {p.dim} vs {q.dim}")
    diff = p.matrix - q.matrix
    return float(np.sqrt(np.vdot(diff, diff).real))


def spectral_decomposition(rho: DensityOperator) -> MixtureDecomposition:
    """Eigenvalue mixture, weights descending; zero-weight components dropped."""
    eigenvalues, eigenvectors = np.linalg.eigh(rho.matrix)
    scales = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    return _mixture(scales[:, None] * eigenvectors[:, ::-1].T)


def alternative_decomposition(
    decomposition: MixtureDecomposition, mixer: np.ndarray
) -> MixtureDecomposition:
    """Re-express a mixture through an isometric mixing matrix.

    ``mixer`` is m x k with orthonormal columns, k the current component
    count.  New unnormalized components are sqrt(w'_i)|v'_i> =
    sum_j mixer[i, j] sqrt(w_j)|v_j>; the mixture reproduces the same
    density operator.
    """
    mixer = qlin.as_complex(mixer)
    k = len(decomposition.components)
    if mixer.shape[1] != k:
        raise ShapeError(f"mixer must have {k} columns, got shape {mixer.shape}")
    # With fewer than k rows, V^dag V has an eigenvalue 0, so its Gram error is at least 1/k.
    qlin.require_isometry(mixer, what="mixer")
    return _mixture(mixer @ decomposition._rows)


def _mixture(rows: np.ndarray) -> MixtureDecomposition:
    """The mixture whose rows sqrt(w_i) v_i are ``rows``: each weight is its row's norm squared,
    rows below ``WEIGHT_FLOOR`` are dropped, and the kept weights are divided by their sum."""
    weights = np.einsum("ij,ij->i", rows.conj(), rows).real
    kept = weights >= WEIGHT_FLOOR
    components = tuple(PureVector.normalized(row) for row in rows[kept])
    weights = weights[kept] / weights[kept].sum()
    return qlin._made(MixtureDecomposition, weights=weights, components=components)

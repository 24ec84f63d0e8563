"""State representations: pure vectors, density operators, Bloch geometry,
the two rival purity predicates, shadows, and mixture decompositions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import qlin
from .errors import DomainError, ShapeError
from .qlin import frozen, herm_eig

NORM_TOL = 1e-9
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-7
PURITY_TOL = 1e-9
#: Mixture components below this weight are dropped, and weights below
#: -WEIGHT_FLOOR are rejected as negative.
WEIGHT_FLOOR = 1e-12
#: Vectors shorter than this count as zero and cannot be normalized.
ZERO_NORM = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class PureVector:
    """Normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise DomainError(f"vector norm is {norm:.12f}, expected 1 within {NORM_TOL:g}")
        object.__setattr__(self, "amplitudes", frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "PureVector":
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def normalized(cls, amplitudes: Sequence) -> "PureVector":
        """Normalize and wrap; rejects the zero vector."""
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        norm = float(np.linalg.norm(amps))
        if norm < ZERO_NORM:
            raise DomainError("cannot normalize the zero vector")
        return cls(amps / norm)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Trace-one positive-semidefinite Hermitian matrix.

    ``eigenvalues`` is the spectrum the positivity check computes, ascending
    and read-only; every spectral quantity of the state reads it.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = qlin.as_complex(self.matrix)
        qlin.require_hermitian(mat, what="density operator")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_TOL:
            raise DomainError(f"trace is {trace:.12g}, expected 1 within {TRACE_TOL:g}")
        eigenvalues = np.linalg.eigvalsh(mat)
        min_eig = float(eigenvalues[0])
        if min_eig < EIGENVALUE_FLOOR:
            raise DomainError(f"negative eigenvalue {min_eig:.3e} below floor {EIGENVALUE_FLOOR:g}")
        object.__setattr__(self, "matrix", frozen(mat))
        object.__setattr__(self, "eigenvalues", frozen(eigenvalues))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=np.complex128) / dim)

    def purity(self) -> float:
        """Tr(rho^2), the sum of |rho_ij|^2 for Hermitian rho."""
        return float(np.vdot(self.matrix, self.matrix).real)


@dataclass(frozen=True)
class BlochPoint:
    """Point of the qubit Bloch ball in Cartesian coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not self.norm <= 1.0 + NORM_TOL:
            raise DomainError(f"Bloch point norm {self.norm:.12f} exceeds 1")

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


@dataclass(frozen=True, eq=False)
class MixtureDecomposition:
    """Convex mixture of pure states reproducing a density operator."""

    weights: np.ndarray
    components: tuple[PureVector, ...] = field(repr=False)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if len(weights) != len(self.components):
            raise ShapeError("weights and components differ in length")
        if not np.all(weights >= -WEIGHT_FLOOR):
            raise DomainError("mixture weights must be nonnegative")
        if not abs(float(weights.sum()) - 1.0) <= NORM_TOL:
            raise DomainError(f"mixture weights sum to {weights.sum():.12f}, expected 1")
        object.__setattr__(self, "weights", frozen(weights))
        object.__setattr__(self, "components", tuple(self.components))

    def reconstruct(self) -> DensityOperator:
        dim = self.components[0].dim
        mat = np.zeros((dim, dim), dtype=np.complex128)
        for weight, comp in zip(self.weights, self.components):
            mat += weight * np.outer(comp.amplitudes, comp.amplitudes.conj())
        return DensityOperator(mat)


def density_from_vector(vector: PureVector) -> DensityOperator:
    """Rank-one projector |v><v|."""
    amps = vector.amplitudes
    return DensityOperator(np.outer(amps, amps.conj()))


def abstract_purity(rho: DensityOperator, tol: float = PURITY_TOL) -> bool:
    """Basis-independent purity: Tr(rho^2) >= 1 - tol."""
    return rho.purity() >= 1.0 - tol


def operational_purity(rho: DensityOperator, basis: np.ndarray, tol: float = PURITY_TOL) -> bool:
    """Basis-dependent purity: some detector fires with certainty.

    ``basis`` holds the detector vectors as orthonormal columns.  True iff
    some column b has <b|rho|b> >= 1 - tol; for a trace-one PSD operator that
    pins rho to that projector within tol.
    """
    basis = qlin.as_complex(basis)
    if basis.shape != (rho.dim, rho.dim):
        raise ShapeError(f"basis is {basis.shape}, state needs {rho.dim}x{rho.dim}")
    qlin.require_isometry(basis)
    diagonal = np.real(np.sum(basis.conj() * (rho.matrix @ basis), axis=0))
    return bool(np.max(diagonal) >= 1.0 - tol)


def operational_purity_exists(rho: DensityOperator, tol: float = PURITY_TOL) -> bool:
    """Existential reading: is there *any* basis with a certain detector?

    The best basis is the eigenbasis, so this is a max-eigenvalue test.
    """
    return float(rho.eigenvalues[-1]) >= 1.0 - tol


@dataclass(frozen=True)
class PurityReport:
    abstract: bool
    operational: bool


def purity_agreement_report(
    rho: DensityOperator, basis: np.ndarray, tol: float = PURITY_TOL
) -> PurityReport:
    """Both purity predicates side by side; they are not equivalent."""
    return PurityReport(
        abstract=abstract_purity(rho, tol),
        operational=operational_purity(rho, basis, tol),
    )


def density_from_bloch(point: BlochPoint) -> DensityOperator:
    """rho = (I + x*sx + y*sy + z*sz) / 2 on the qubit."""
    mat = (
        np.eye(2, dtype=np.complex128)
        + point.x * PAULI_X
        + point.y * PAULI_Y
        + point.z * PAULI_Z
    ) / 2.0
    return DensityOperator(mat)


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
    """Eigenvalue mixture; zero-weight components dropped."""
    spectrum = herm_eig(rho.matrix)
    weights = []
    components = []
    for value, column in zip(spectrum.eigenvalues, spectrum.eigenvectors.T):
        if value < WEIGHT_FLOOR:
            continue
        weights.append(float(value))
        components.append(PureVector.normalized(column))
    total = sum(weights)
    weights = [w / total for w in weights]
    return MixtureDecomposition(np.array(weights), tuple(components))


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
    if mixer.ndim != 2 or mixer.shape[1] != k:
        raise ShapeError(f"mixer must have {k} columns, got shape {mixer.shape}")
    if mixer.shape[0] < k:
        raise DomainError("mixer must have at least as many rows as columns")
    qlin.require_isometry(mixer, what="mixer")

    dim = decomposition.components[0].dim
    scaled = np.stack(
        [
            np.sqrt(w) * comp.amplitudes
            for w, comp in zip(decomposition.weights, decomposition.components)
        ]
    )  # k x dim
    mixed = mixer @ scaled  # m x dim
    weights = []
    components = []
    for row in mixed:
        weight = float(np.real(np.vdot(row, row)))
        if weight < WEIGHT_FLOOR:
            continue
        weights.append(weight)
        components.append(PureVector.normalized(row))
    return MixtureDecomposition(np.array(weights), tuple(components))

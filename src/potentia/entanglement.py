"""Separability and entanglement machinery.

Verdicts are three-valued: criteria that are merely necessary for
separability answer Inconclusive when they fail to detect anything, and a
Separable verdict is only ever issued where positivity of the partial
transpose is sufficient (2x2 and 2x3).
"""

from __future__ import annotations

import enum
from typing import Sequence

import numpy as np

from . import qlin
from .errors import DomainError, NoWitnessError, ShapeError
from .qlin import _bipartite, _count, frozen, partial_trace, partial_transpose
from .states import DensityOperator, PureVector
from .tolerances import (
    ENTROPY_TOL, SCHMIDT_FLOOR, VERDICT_TOL, WITNESS_SAMPLES, WITNESS_SAMPLES_CAP, require_within,
)

#: Complex entries per batch of sampled product states in a witness check;
#: small, so a check's temporaries stay near the per-sample loop's footprint.
PRODUCT_BATCH_ENTRIES = 1 << 12

#: Bipartite shapes where PPT is sufficient for separability.
PPT_SUFFICIENT = {(2, 2), (2, 3), (3, 2)}


class Verdict(enum.Enum):
    SEPARABLE = "Separable"
    ENTANGLED = "Entangled"
    INCONCLUSIVE = "Inconclusive"


class WernerRegion(enum.Enum):
    SEPARABLE = "Separable"
    ENTANGLED_LOCAL = "EntangledLocal"
    NONLOCAL = "Nonlocal"


class SeparabilityVerdict(qlin._Value, eq=True):
    verdict: Verdict
    criterion: str
    evidence: float

    def __post_init__(self):
        if self.verdict is Verdict.ENTANGLED and not self.evidence < 0:
            raise DomainError(
                "an Entangled verdict must carry strictly negative evidence "
                f"(violation margin), got {self.evidence!r}"
            )


def schmidt(vector: PureVector, dims: Sequence[int]) -> np.ndarray:
    """Schmidt coefficients (descending); exactly one above threshold means product."""
    dims = _bipartite(dims, *vector.amplitudes.shape)
    return np.linalg.svd(vector.amplitudes.reshape(dims), compute_uv=False)


def schmidt_rank(vector: PureVector, dims: Sequence[int]) -> int:
    return int(np.sum(schmidt(vector, dims) > SCHMIDT_FLOOR))


def _entropy_bits(spectra: np.ndarray) -> np.ndarray:
    """-sum(p log2 p) over the last axis, each spectrum clipped to [0, 1], in bits: never negative.
    The positive entries of an ascending spectrum are one run, summed from zero as if alone."""
    clipped = np.clip(spectra, 0.0, 1.0)
    positive = clipped > 0
    terms = clipped * np.log2(np.where(positive, clipped, 1.0))
    return -np.sum(terms, axis=-1, where=positive) + 0.0


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum(p log2 p) over the spectrum, in bits; zero iff abstractly pure."""
    return float(_entropy_bits(rho.eigenvalues))


def marginal_verdicts(
    rho: DensityOperator, dims: Sequence[int], tol: float = VERDICT_TOL
) -> tuple[SeparabilityVerdict, SeparabilityVerdict]:
    """The majorization and entropy verdicts, from one spectrum of each reduced state.  Both
    criteria are necessary for separability: the global spectrum of a separable state is
    majorized by each reduced spectrum (zero-padded partial sums), and a separable state is
    at least as entropic as its parts.  The partial traces of a checked state are states, so
    they are not checked again."""
    dims = _bipartite(dims, *rho.matrix.shape)
    spectra = [np.linalg.eigvalsh(partial_trace(rho.matrix, dims, (k,))) for k in (0, 1)]
    joint = von_neumann_entropy(rho)
    margins = {
        "majorization": min(_majorization_margin(rho.eigenvalues[::-1], s[::-1]) for s in spectra),
        "entropy": min(joint - float(_entropy_bits(s)) for s in spectra),
    }
    return tuple(
        SeparabilityVerdict(Verdict.ENTANGLED if m < -tol else Verdict.INCONCLUSIVE, name, m)
        for name, m in margins.items()
    )


def entropy_additivity_check(a: DensityOperator, b: DensityOperator) -> bool:
    """|S(a (x) b) - S(a) - S(b)| <= ENTROPY_TOL, spectra over their sums: traces multiply."""
    spectra = (np.linalg.eigvalsh(qlin.kron(a.matrix, b.matrix)), a.eigenvalues, b.eigenvalues)
    joint, s_a, s_b = (float(_entropy_bits(s / s.sum())) for s in spectra)
    return abs(joint - s_a - s_b) <= ENTROPY_TOL


def _majorization_margin(global_spec: np.ndarray, reduced_spec: np.ndarray) -> float:
    """Most negative slack of the reduced partial sums over the global ones."""
    padded = np.zeros_like(global_spec)
    padded[: len(reduced_spec)] = reduced_spec
    return float(np.min(np.cumsum(padded) - np.cumsum(global_spec)))


def min_pt_eigenvalue(rho: DensityOperator, dims: Sequence[int]) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(rho.matrix, dims, "B"))[0])


def ppt_criterion(
    rho: DensityOperator, dims: Sequence[int], tol: float = VERDICT_TOL
) -> SeparabilityVerdict:
    """Partial-transpose test; an exact oracle at 2x2 and 2x3."""
    dims = _bipartite(dims, *rho.matrix.shape)
    return _ppt_verdict(min_pt_eigenvalue(rho, dims), dims, tol)


def _ppt_verdict(minimum: float, dims: tuple[int, int], tol: float) -> SeparabilityVerdict:
    """The PPT verdict on ``minimum``, the least partial-transpose eigenvalue of a ``dims`` state."""
    sufficient = Verdict.SEPARABLE if dims in PPT_SUFFICIENT else Verdict.INCONCLUSIVE
    return SeparabilityVerdict(Verdict.ENTANGLED if minimum < -tol else sufficient, "ppt", minimum)


class WitnessOperator(qlin._Value):
    """Hermitian observable separating one entangled state from all product states;
    ``min_pt_eigenvalue`` is the partial-transpose eigenvalue it was built from, if any."""

    matrix: np.ndarray
    reference_state: DensityOperator
    min_pt_eigenvalue: float | None = None

    def __post_init__(self):
        mat = qlin.as_complex(self.matrix)
        qlin.require_hermitian(mat, what="witness")
        if (dim := self.reference_state.dim) != len(mat):
            raise ShapeError(f"witness is {len(mat)}-dimensional, its reference state {dim}-dimensional")
        vars(self)["matrix"] = frozen(mat, self.matrix)

    def expectation(self, rho: DensityOperator) -> float:
        """Tr(W rho), summed entrywise: rho is Hermitian, so no product is formed."""
        if rho.dim != len(self.matrix):
            raise ShapeError(f"witness is {len(self.matrix)}-dimensional, the state {rho.dim}-dimensional")
        return float(np.vdot(rho.matrix, self.matrix).real)


def witness_from_entangled(
    rho: DensityOperator, dims: Sequence[int], tol: float = VERDICT_TOL
) -> WitnessOperator:
    """Witness from the negative eigenvector of the partial transpose.

    W = (|eta><eta|)^T_B with eta the most negative eigenvector of
    rho^T_B; then Tr(W rho) equals that negative eigenvalue while every
    product state scores >= 0.  A state whose eigenvalue is not below -tol has none.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(partial_transpose(rho.matrix, dims, "B"))
    minimum = float(eigenvalues[0])
    if minimum >= -tol:
        raise NoWitnessError(
            f"state is PPT (min partial-transpose eigenvalue {minimum:.3e}); "
            "the eigenvector construction yields no witness"
        )
    eta = eigenvectors[:, 0]  # the partial transpose of |eta><eta| is Hermitian exactly: no gate
    witness = qlin._partial_transpose(np.outer(eta, eta.conj()), dims, "B")
    return qlin._made(WitnessOperator, matrix=witness, reference_state=rho, min_pt_eigenvalue=minimum)


def _require_samples(samples: int, seed: int) -> None:
    _count(seed, 0, "the product-sample seed")
    require_within("sample count", _count(samples, 1, "the product-sample count"), WITNESS_SAMPLES_CAP)


def check_witness_on_products(
    witness: WitnessOperator,
    dims: Sequence[int],
    samples: int = WITNESS_SAMPLES,
    seed: int = 0,
) -> float:
    """Minimum witness expectation over sampled pure product states.

    Each row of draws is re/im of the left factor, then re/im of the right:
    the draw order of a per-sample ``random_pure(d_a)``, ``random_pure(d_b)``
    loop, so a seed picks the same samples.  Batching bounds the temporaries.
    """
    _require_samples(samples, seed)
    d_a, d_b = _bipartite(dims, *witness.matrix.shape)
    rng = np.random.default_rng(seed)
    batch = max(1, PRODUCT_BATCH_ENTRIES // (d_a * d_b))
    worst = np.inf
    for start in range(0, samples, batch):
        draws = rng.standard_normal((min(batch, samples - start), 2 * (d_a + d_b)))
        left = draws[:, :d_a] + 1j * draws[:, d_a : 2 * d_a]
        right = draws[:, 2 * d_a : 2 * d_a + d_b] + 1j * draws[:, 2 * d_a + d_b :]
        left /= np.linalg.norm(left, axis=1, keepdims=True)
        right /= np.linalg.norm(right, axis=1, keepdims=True)
        products = np.einsum("si,sj->sij", left, right).reshape(len(draws), d_a * d_b)
        values = np.real(np.sum(products.conj() * (products @ witness.matrix.T), axis=1))
        worst = min(worst, float(values.min()))
    return worst


def _werner_matrices(p: np.ndarray) -> np.ndarray:
    """``werner``'s matrix for each entry of ``p``, each checked to lie in [0, 1], stacked."""
    if (outside := p[~((p >= 0.0) & (p <= 1.0))]).size:
        raise DomainError(f"Werner parameter must lie in [0, 1], got {outside[0]}")
    phi, p = np.array([1, 0, 0, 1]) / np.sqrt(2.0) + 0j, p[..., None, None]
    return p * np.outer(phi, phi) + (1.0 - p) * np.eye(4) / 4.0


def werner(p: float) -> DensityOperator:
    """p |phi+><phi+| + (1 - p) I/4 on two qubits, for one real p: a state by construction, so not solved."""
    if (grid := qlin._numbers([p], "Werner parameter", real=True)).shape != (1,):
        raise ShapeError(f"Werner parameter must be one real number, got {p!r}")
    return qlin._made(DensityOperator, matrix=_werner_matrices(grid)[0])

"""Seeded random generators for states, unitaries, and projector families.

Every function takes an explicit ``numpy.random.Generator`` so sampling is
reproducible end to end.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .qlin import _screen_dims
from .states import DensityOperator, PureVector


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure(dim: int, rng: np.random.Generator) -> PureVector:
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureVector.normalized(amps)


def random_density(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> DensityOperator:
    """Wishart-style mixed state of the requested rank (full rank by default)."""
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise DomainError(f"rank must lie in 1..{dim}, got {rank}")
    ginibre = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = ginibre @ ginibre.conj().T
    return DensityOperator(mat / np.real(np.trace(mat)))


def random_product_pure(dims: tuple[int, ...], rng: np.random.Generator) -> PureVector:
    amps = np.array([1.0], dtype=np.complex128)
    for dim in _screen_dims(dims):
        amps = np.kron(amps, random_pure(dim, rng).amplitudes)
    return PureVector(amps)


def random_separable(
    dims: tuple[int, ...], rng: np.random.Generator, terms: int = 4
) -> DensityOperator:
    """Random convex mixture of pure product states."""
    dims = _screen_dims(dims)
    weights = rng.dirichlet(np.ones(terms))
    total = np.zeros((np.prod(dims),) * 2, dtype=np.complex128)
    for weight in weights:
        amps = random_product_pure(dims, rng).amplitudes
        total += weight * np.outer(amps, amps.conj())
    return DensityOperator(total)


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Projector onto a Haar-random subspace of the given rank."""
    if not 1 <= rank <= dim:
        raise DomainError(f"rank must lie in 1..{dim}, got {rank}")
    columns = random_unitary(dim, rng)[:, :rank]
    return columns @ columns.conj().T

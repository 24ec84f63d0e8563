"""Seeded random generators for states, unitaries, and projector families.

Every function takes an explicit ``numpy.random.Generator`` so sampling is
reproducible end to end, and judges its sizes before it draws anything.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .qlin import _is_integer, _screen_dims
from .states import DensityOperator, MixtureDecomposition, PureVector, _conditioned


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    _screen_dims((dim,))
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure(dim: int, rng: np.random.Generator) -> PureVector:
    _screen_dims((dim,))
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureVector.normalized(amps)


def random_density(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> DensityOperator:
    """Wishart-style mixed state of the requested rank (full rank by default)."""
    _screen_dims((dim,))
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise DomainError(f"rank must lie in 1..{dim}, got {rank}")
    ginibre = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return _conditioned(ginibre @ ginibre.conj().T)[1]


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
    if not (_is_integer(terms) and terms >= 1):
        raise DomainError(f"terms must be a positive integer, got {terms!r}")
    weights = rng.dirichlet(np.ones(terms))
    products = tuple(random_product_pure(dims, rng) for _ in range(terms))
    return MixtureDecomposition(weights, products).reconstruct()


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Projector onto a Haar-random subspace of the given rank."""
    _screen_dims((dim,))
    if not 1 <= rank <= dim:
        raise DomainError(f"rank must lie in 1..{dim}, got {rank}")
    columns = random_unitary(dim, rng)[:, :rank]
    return columns @ columns.conj().T

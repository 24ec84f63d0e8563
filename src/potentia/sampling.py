"""Seeded random generators for states, unitaries, and projector families.

Every function takes an explicit ``numpy.random.Generator`` so sampling is
reproducible end to end, and judges its sizes before it draws anything.
"""

from __future__ import annotations

import numpy as np

from .qlin import _count, _made, _screen_dims
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
    (dim,) = _screen_dims((dim,))
    rank = dim if rank is None else _count(rank, 1, "rank", dim)
    ginibre = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return _conditioned(ginibre @ ginibre.conj().T)[1]


def random_product_pure(dims: tuple[int, ...], rng: np.random.Generator) -> PureVector:
    amps = np.array([1.0], dtype=np.complex128)
    for dim in _screen_dims(dims):
        amps = np.kron(amps, random_pure(dim, rng).amplitudes)
    return _made(PureVector, amplitudes=amps)


def random_separable(
    dims: tuple[int, ...], rng: np.random.Generator, terms: int = 4
) -> DensityOperator:
    """Random convex mixture of pure product states."""
    dims = _screen_dims(dims)
    terms = _count(terms, 1, "terms")
    weights = rng.dirichlet(np.ones(terms))
    products = tuple(random_product_pure(dims, rng) for _ in range(terms))
    return _made(MixtureDecomposition, weights=weights, components=products).reconstruct()


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Projector onto a Haar-random subspace of the given rank."""
    rank = _count(rank, 1, "rank", *_screen_dims((dim,)))
    columns = random_unitary(dim, rng)[:, :rank]
    return columns @ columns.conj().T

"""Dense complex linear-algebra substrate.

Everything here works on plain ``numpy`` arrays (complex128, row-major).
Matrices are immutable by convention: operations return fresh arrays and
never mutate their inputs, so concurrent use is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import CapacityError, DomainError, ShapeError

#: Total matrix dimension cap (rows); six qubits or mixed factors fit well below.
DIM_CAP = 4096

#: Absolute tolerance on the max entry of M - M† for "Hermitian".
HERMITICITY_TOL = 1e-9

#: Absolute tolerance on the max entry of V†V - I for "orthonormal columns".
ISOMETRY_TOL = 1e-9

#: Default tolerance for commutator tests.
COMMUTE_TOL = 1e-8


def as_complex(matrix: np.ndarray | Sequence) -> np.ndarray:
    """Return ``matrix`` as a C-contiguous complex128 2-D array.  This is the one gate every
    matrix passes, so it checks the dimension cap first."""
    arr = np.ascontiguousarray(matrix, dtype=np.complex128)
    if max(arr.shape, default=0) > DIM_CAP:
        raise CapacityError(f"matrix shape {arr.shape} exceeds the dimension cap of {DIM_CAP}")
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    floats = arr.view(np.float64)
    with np.errstate(invalid="ignore"):  # min and max propagate NaN, and make no N x N temporary
        if not (np.isfinite(floats.min(initial=0.0)) and np.isfinite(floats.max(initial=0.0))):
            raise DomainError("matrix has non-finite entries")
    return arr


def dagger(matrix: np.ndarray) -> np.ndarray:
    return matrix.conj().T


def max_abs(matrix: np.ndarray) -> float:
    """Max-entry magnitude; 0.0 for empty input."""
    return float(np.max(np.abs(matrix))) if matrix.size else 0.0


def frozen(arr: np.ndarray | Sequence) -> np.ndarray:
    """Read-only C-contiguous copy of ``arr``, same dtype; the caller's array is untouched."""
    out = np.array(arr, order="C")
    out.flags.writeable = False
    return out


def _frozen_in_place(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, copied only to make it C-contiguous.  Only for an array the
    caller just built and no one else holds: unlike ``frozen``, it may return ``arr`` itself."""
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


#: Rows per tile of ``require_hermitian``'s upper-triangle read.
_HERMITICITY_TILE = 64


def require_hermitian(mat: np.ndarray, tol: float = HERMITICITY_TOL, what: str = "matrix") -> None:
    """Raise unless ``mat`` is square and within ``tol`` of its adjoint.  The upper triangle
    is read in row tiles; as |m_ij - conj(m_ji)| = |m_ji - conj(m_ij)| exactly, the max is
    that of the dense ``mat - mat^dag``.  Overflow gives ``inf``, which is rejected."""
    if mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"{what} must be square, got {mat.shape}")
    t = _HERMITICITY_TILE
    with np.errstate(over="ignore"):
        asymmetry = max(
            (max_abs(mat[i : i + t, i:] - dagger(mat[i:, i : i + t])) for i in range(0, len(mat), t)),
            default=0.0,
        )
    if asymmetry > tol:
        raise DomainError(f"{what} violates Hermiticity (max asymmetry {asymmetry:.3e} > {tol:g})")


def require_isometry(mat: np.ndarray, what: str = "basis") -> None:
    """Raise unless the columns of ``mat`` are orthonormal within ``ISOMETRY_TOL`` (overflow fails)."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram_error = max_abs(dagger(mat) @ mat - np.eye(mat.shape[1]))
    if not gram_error <= ISOMETRY_TOL:
        raise DomainError(
            f"{what} columns are not orthonormal within {ISOMETRY_TOL:g} "
            f"(max Gram error {gram_error:.3e})"
        )


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a capacity cap (``DIM_CAP``) on the output dimension."""
    a = as_complex(a)
    b = as_complex(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > DIM_CAP:
        raise CapacityError(
            f"kron output {rows}x{cols} exceeds the configured cap of {DIM_CAP}"
        )
    return np.kron(a, b)


def _kron_left(m: np.ndarray, dims: Sequence[int], factors: dict[int, np.ndarray]) -> np.ndarray:
    """``R @ m`` for ``R = F_0 x ... x F_n-1``, ``F_k = factors[k]`` or the identity: one
    batched matmul per factor on the rows of ``m`` viewed as (d_0..d_k-1, d_k, rest).  A
    factor may be rectangular: the axis it acts on takes its row count."""
    dims = list(dims)
    for axis, w in factors.items():
        m = np.matmul(w, m.reshape(math.prod(dims[:axis]), dims[axis], -1)).reshape(-1, m.shape[1])
        dims[axis] = len(w)
    return m


#: Consecutive screens whose dims multiply to at most this go as one Kronecker product in
#: ``_kron_right``: on the benchmark's layouts 16 and 32 ran slower, and 128 no faster.
_KRON_BLOCK = 64


def _kron_right(m: np.ndarray, dims: Sequence[int], factors: dict[int, np.ndarray]) -> np.ndarray:
    """``m @ R`` for ``R`` as in ``_kron_left``, on the columns of ``m`` viewed as (d_0..d_n-1).

    The screens are cut, from the last, into groups of consecutive screens whose dims
    multiply to at most ``_KRON_BLOCK``; a wider screen is a group alone.  A group's factors
    go as one Kronecker product of size D, with the identity for a screen without one, from
    its first factor to its last, and in the trailing group on to the last screen.  A
    product that ends on the last screen is one matmul per N runs of D columns; any other is
    one batched matmul over (rows, D, post), post the product of the later dims: batches
    of tiny products cost more in calls than a larger product costs in arithmetic."""
    n, end = len(m), len(dims)
    while end:
        start = end - 1
        while start and math.prod(dims[start - 1 : end]) <= _KRON_BLOCK:
            start -= 1
        group = [k for k in factors if start <= k < end]
        if group:
            last = len(dims) if end == len(dims) else max(group) + 1
            block = functools.reduce(
                np.kron, [factors.get(k, np.eye(dims[k])) for k in range(min(group), last)]
            )
            post = m.shape[1] // math.prod(dims[:last])  # later screens may have new sizes
            if post == 1:
                m = np.matmul(m.reshape(-1, n, len(block)), block)
            else:
                m = np.matmul(block.T, m.reshape(-1, len(block), post))
            m = m.reshape(n, -1)
        end = start
    return m


def _conjugated(m: np.ndarray, dims: Sequence[int], factors: dict[int, np.ndarray]) -> np.ndarray:
    """``R^dag @ m @ R`` without forming ``R``: ``R^dag`` applied to the rows of ``m``, then
    ``R`` to the columns of the product.  No other code applies a product of factors."""
    left = _kron_left(m, dims, {k: dagger(w) for k, w in factors.items()})
    return _kron_right(left, dims, factors)


def partial_trace(
    rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``dims`` are the factor dimensions in tensor order (factor 0 most
    significant); ``keep`` holds 0-based factor indices.  Tracing all
    factors returns the 1x1 matrix ``[[Tr rho]]``.
    """
    rho = as_complex(rho)
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise ShapeError(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ShapeError(
            f"matrix is {rho.shape[0]}x{rho.shape[1]} but dims {dims} multiply to {total}"
        )
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ShapeError(f"keep indices {keep} out of range for {n} factors")

    if not keep:
        return np.array([[np.trace(rho)]], dtype=np.complex128)

    tensor = rho.reshape(dims + dims)
    # Trace the discarded factors innermost-first so earlier axis numbers stay valid.
    traced = 0
    for factor in range(n - 1, -1, -1):
        if factor in keep:
            continue
        remaining = n - traced
        tensor = np.trace(tensor, axis1=factor, axis2=factor + remaining)
        traced += 1
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return np.ascontiguousarray(tensor.reshape(kept_dim, kept_dim))


def partial_transpose(
    rho: np.ndarray, dims: Sequence[int], party: Literal["A", "B"] = "B"
) -> np.ndarray:
    """Transpose one factor of a bipartite operator."""
    rho = as_complex(rho)
    dims = [int(d) for d in dims]
    if len(dims) != 2:
        raise ShapeError(f"partial transpose expects two factors, got dims {dims}")
    d_a, d_b = dims
    if rho.shape != (d_a * d_b, d_a * d_b):
        raise ShapeError(
            f"matrix is {rho.shape[0]}x{rho.shape[1]} but dims {dims} multiply to {d_a * d_b}"
        )
    if party not in ("A", "B"):
        raise DomainError(f"party must be 'A' or 'B', got {party!r}")
    tensor = rho.reshape(d_a, d_b, d_a, d_b)
    if party == "B":
        tensor = tensor.transpose(0, 3, 2, 1)
    else:
        tensor = tensor.transpose(2, 1, 0, 3)
    return np.ascontiguousarray(tensor.reshape(d_a * d_b, d_a * d_b))


@dataclass(frozen=True, eq=False)
class HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.  For degenerate eigenvalues
    the basis of the eigenspace is solver-dependent; callers must not rely on
    a particular choice.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ dagger(self.eigenvectors)


def herm_eig(matrix: np.ndarray) -> HermitianSpectrum:
    """Descending-order eigendecomposition; rejects non-Hermitian input."""
    matrix = as_complex(matrix)
    require_hermitian(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    order = np.argsort(eigenvalues)[::-1]
    return HermitianSpectrum(frozen(eigenvalues[order]), frozen(eigenvectors[:, order]))


def commutes(p: np.ndarray, q: np.ndarray, tol: float = COMMUTE_TOL) -> bool:
    """True iff the max-entry magnitude of PQ - QP is at most ``tol``."""
    p = as_complex(p)
    q = as_complex(q)
    if p.shape != q.shape or p.shape[0] != p.shape[1]:
        raise ShapeError(f"commutator needs equal square shapes, got {p.shape} vs {q.shape}")
    return max_abs(p @ q - q @ p) <= tol

"""Dense complex linear-algebra substrate, on plain C-contiguous complex128 ``numpy`` arrays
that no operation mutates, so concurrent use is safe.  Its gates judge what callers pass:
``as_complex`` every matrix, ``_numbers`` every vector, ``_screen_dims`` every screen layout or
single size, ``_index`` and ``_count`` every index and count, and ``_sequence`` every list of them,
each before anything is formed.  Every value class derives from ``_Value``, whose constructor runs
the class's gate; a value built from admitted inputs, which no gate could refuse, is made by
``_made``.  ``Factorization`` (a screen layout) and ``DetectorBasis`` (a basis per screen) are the
values the gates here admit.  One local-factor kernel, ``_mode_product``, applies per-screen
factors to the rows or the columns of a matrix alike; ``_conjugated`` forms R^dag M R with it."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import FrozenInstanceError
from typing import Literal, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .tolerances import (
    DIM_CAP, HERMITICITY_TOL, ISOMETRY_TOL, PROJECTOR_TOL, require_at_most, require_within,
)


def as_complex(matrix: np.ndarray | Sequence) -> np.ndarray:
    """Return ``matrix`` as a C-contiguous complex128 2-D array.  This is the one gate every
    matrix passes, so it checks the entries' kind, then the dimension cap, before anything else."""
    arr = _numbers(matrix, "matrix")
    require_within("matrix dimension", max(arr.shape, default=0), DIM_CAP)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    floats = arr.view(np.float64)
    with np.errstate(invalid="ignore"):  # min and max propagate NaN, and make no N x N temporary
        if not (np.isfinite(floats.min(initial=0.0)) and np.isfinite(floats.max(initial=0.0))):
            raise DomainError("matrix has non-finite entries")
    return arr


def _is_integer(value) -> bool:
    """A Python or numpy integer; ``bool`` subclasses ``int`` but ``True`` is not a dim or index."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _count(value, least: int, what: str, most: float = math.inf) -> int:
    """``value`` as a Python int, if it is an integer in ``least..most`` (else ``DomainError``)."""
    if not (_is_integer(value) and least <= value <= most):
        bound = f">= {least}" if most == math.inf else f"in {least}..{most}"
        raise DomainError(f"{what} must be an integer {bound}, got {value!r}")
    return int(value)


def _index(value, size: int, what: str) -> int:
    """``value`` as a Python int, if it is an integer in ``0..size - 1`` (else ``IndexError``)."""
    try:
        return _count(value, 0, what, size - 1)
    except DomainError as exc:
        raise IndexError(str(exc)) from None


def _sequence(value, what: str) -> tuple:
    """``value``'s entries, if it is sized and iterable, as a list is (else ``ShapeError``)."""
    try:
        len(value)  # a generator is refused too: callers read a multi-index twice
        return tuple(value)
    except TypeError:
        raise ShapeError(f"{what} must be a sequence, got {value!r}") from None


def _numbers(value, what: str, real: bool = False) -> np.ndarray:
    """``value`` as a C-contiguous complex128, or ``real`` float64, array, not copied if it is one.  No
    length or ragged nesting raises ``ShapeError``; an entry of no number kind, ``DomainError``."""
    try:
        len(value)  # a lone number is refused too, as every collection argument refuses one
        arr = np.asarray(value)
    except (TypeError, ValueError):  # no length, or ragged nesting
        raise ShapeError(f"{what} must be an array or a regular sequence, got {value!r}") from None
    if arr.dtype.kind not in ("biuf" if real else "biufc"):
        raise DomainError(f"{what} entries must be {'real ' * real}numbers, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.float64 if real else np.complex128)


def _is_identity(m: np.ndarray) -> bool:
    """``np.array_equal(m, np.eye(len(m)))`` (-0.0 is 0), with no identity formed."""
    return m.shape == (len(m),) * 2 and bool((m.diagonal() == 1).all()) and np.count_nonzero(m) == len(m)


def _screen_dims(dims: Sequence[int], *sides: int) -> tuple[int, ...]:
    """``dims`` as Python ints, if it is nonempty and each entry is a positive integer (else
    ``DomainError``), their product is within ``DIM_CAP`` (``CapacityError``) and equals each of
    ``sides``, the operand's sizes (``ShapeError``)."""
    dims = _sequence(dims, "screen dims")
    if not (dims and all(_is_integer(d) and d > 0 for d in dims)):
        raise DomainError(f"screen dims must be a nonempty list of positive integers, got {dims}")
    dims = tuple(int(d) for d in dims)
    require_within("screen layout degree", total := math.prod(dims), DIM_CAP)
    if any(side != total for side in sides):
        raise ShapeError(f"screen dims {dims} multiply to {total}, but the operand's shape is {sides}")
    return dims


def _bipartite(dims: Sequence[int], *sides: int) -> tuple[int, int]:
    """``_screen_dims`` for a layout of exactly two screens (``ShapeError`` otherwise)."""
    if len(dims := _screen_dims(dims, *sides)) != 2:
        raise ShapeError(f"a bipartite layout needs two screens, got dims {dims}")
    return dims


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


class _Value:
    """A frozen value whose fields are its class's annotations, after its bases'; a class attribute of
    a field's name is its default.  ``__init__`` binds its arguments as a call does, then runs the class's
    gate, ``__post_init__``, which writes what it admits, and any computed field, through ``vars(self)``.
    It compares and hashes by identity or, declared ``eq=True``, by its fields in order."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = False):
        cls._fields = (*cls._fields, *vars(cls).get("__annotations__", ()))
        if eq:
            cls.__eq__, cls.__hash__ = _Value._equal, lambda self: hash(self._values())

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        if kwargs or len(args) != len(fields):  # bound as a call binds; all by position needs no binding
            rest = fields[len(args):]
            named = {f: getattr(cls, f) for f in rest if hasattr(cls, f)} | kwargs
            if len(args) > len(fields) or named.keys() != {*rest}:
                raise TypeError(f"{cls.__name__} takes {fields}, got {len(args)} positional and {[*kwargs]}")
            args += tuple(named[f] for f in rest)
        vars(self).update(zip(fields, args))
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def _equal(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, *value):  # with no value, as __delattr__
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


def _made(cls, **fields):
    """A ``cls`` holding ``fields``, with no ``__post_init__`` run: for a value its gate could not
    refuse.  Each array field is made read-only in place: one no one else holds, or read-only already."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            fields[name] = _frozen_in_place(value)
    vars(made := object.__new__(cls)).update(fields)
    return made


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
    require_at_most(f"{what} max asymmetry", asymmetry, tol)


def require_isometry(mat: np.ndarray, what: str = "basis") -> float:
    """Raise unless the columns of ``mat`` are orthonormal within ``ISOMETRY_TOL`` (overflow fails);
    return the max Gram error, the max entry of the computed ``V^dag V - I``."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram_error = max_abs(dagger(mat) @ mat - np.eye(mat.shape[1]))
    require_at_most(f"{what} max Gram error", gram_error, ISOMETRY_TOL)
    return gram_error


class Factorization(_Value, eq=True):
    """Screen layout: screen k offers screen_dims[k] detector slots."""

    screen_dims: tuple[int, ...]

    def __post_init__(self):
        vars(self)["screen_dims"] = _screen_dims(self.screen_dims)

    @property
    def degree(self) -> int:
        return math.prod(self.screen_dims)

    @property
    def screens(self) -> int:
        return len(self.screen_dims)

    def flat_index(self, multi_index: Sequence[int]) -> int:
        if len(multi_index := _sequence(multi_index, "multi-index")) != self.screens:
            raise ShapeError(f"multi-index has {len(multi_index)} entries for {self.screens} screens")
        multi_index = tuple(_index(k, dim, f"screen {s} detector index")
                            for s, (k, dim) in enumerate(zip(multi_index, self.screen_dims)))
        return int(np.ravel_multi_index(multi_index, self.screen_dims))

    def multi_index(self, flat: int) -> tuple[int, ...]:
        flat = _index(flat, self.degree, "flat index")
        return tuple(int(k) for k in np.unravel_index(flat, self.screen_dims))


class DetectorBasis(_Value):
    """One orthonormal basis per screen; columns are detector vectors.  Its gate keeps each basis's
    max Gram error in ``gram_errors``."""

    screens: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats, errors = [], []
        for k, raw in enumerate(_sequence(self.screens, "screen bases")):
            mat = as_complex(raw)
            if mat.shape[0] != mat.shape[1]:
                raise ShapeError(f"screen {k} basis is not square: {mat.shape}")
            errors.append(require_isometry(mat, what=f"screen {k} basis"))
            mats.append(frozen(mat))
        vars(self).update(screens=tuple(mats), gram_errors=tuple(errors))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a capacity cap (``DIM_CAP``) on the output dimension."""
    a = as_complex(a)
    b = as_complex(b)
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    require_within("kron output dimension", max(rows, cols), DIM_CAP)
    return np.kron(a, b)


#: Consecutive screens whose dims multiply to at most this go as one Kronecker product in each
#: pass of ``_mode_product``: on the benchmark's layouts 16 and 32 ran slower, and 128 no faster.
_KRON_BLOCK = 64

#: Bytes per chunk of a pass made in place; a 1 MB chunk of a 4096 x 4096 matrix is 16 rows.
_CHUNK_BYTES = 1 << 20


def _kron_groups(dims: Sequence[int], factors: dict[int, np.ndarray], to_end: bool):
    """Per group (cut from the last screen) with a factor, from the last: its first factor's
    screen and the Kronecker product of its factors, with the identity for a screen without
    one, from that screen to its last factor, or, ``to_end`` in the trailing group, to the end."""
    end = len(dims)
    while end:
        start = end - 1
        while start and math.prod(dims[start - 1 : end]) <= _KRON_BLOCK:
            start -= 1
        if group := [k for k in factors if start <= k < end]:
            last = len(dims) if to_end and end == len(dims) else max(group) + 1
            blocks = [factors.get(k, np.eye(dims[k])) for k in range(min(group), last)]
            yield min(group), functools.reduce(np.kron, blocks)
        end = start


def _applied(v: np.ndarray, block: np.ndarray, axis: int, owned: bool) -> np.ndarray:
    """``v @ block`` for ``axis`` 1, else ``block @ v``.  The product is a new array unless ``v``
    is ``owned``, larger than one chunk and ``block`` square: then ``v`` is overwritten chunk by
    chunk, each chunk's product formed in one reused buffer (freed chunks would stay resident)
    and copied back.  A chunk is a run of v's first axis of at most ``_CHUNK_BYTES`` or, where
    one entry of that axis is larger, a run of ``axis`` within one entry."""
    def product(x, out=None):
        return np.matmul(x, block, out=out) if axis == 1 else np.matmul(block, x, out=out)
    if not owned or v.nbytes <= _CHUNK_BYTES or block.shape[0] != block.shape[1]:
        return product(v)
    per, width = v[0].nbytes, v.shape[axis]
    rows, step = max(1, _CHUNK_BYTES // per), min(width, max(1, _CHUNK_BYTES * width // per))
    buffer = np.empty(rows * step * (v[0].size // width), v.dtype)
    for i, j in itertools.product(range(0, len(v), rows), range(0, width, step)):
        x = v[(slice(i, i + rows), *[slice(None)] * (axis - 1), slice(j, j + step))]
        x[...] = product(x, out=buffer[: x.size].reshape(x.shape))
    return v


def _mode_product(m: np.ndarray, dims: Sequence[int], factors: dict[int, np.ndarray],
                  lead: int = 1, owned: bool = False) -> np.ndarray:
    """``m`` viewed as (lead, d_0..d_n-1, rest), each run x along screen k's axis made ``x @ F_k``,
    ``F_k = factors[k]`` (a d x w factor makes the axis w long).  Per group, one batched matmul
    over (pre, D, post); where nothing follows the screens (rest 1), the trailing group runs to the
    last screen, since a group with post 1 is one matmul per ``lead`` runs of D entries, and tiny
    batches cost more in calls than a larger product costs in arithmetic.  ``m`` is written only
    if ``owned``: else the first pass makes a new array, and later ones run in place in it.  The
    result is ``m`` with no factor; else it keeps m's column count if the screens span m's rows
    (``lead`` 1), and has ``lead`` rows if not."""
    out, total = m, math.prod(dims)
    shape = (-1, m.shape[1]) if lead == 1 and len(m) == total else (lead, -1)
    for first, block in _kron_groups(dims, factors, to_end=m.size == lead * total):
        pre = lead * math.prod(dims[:first])
        owned = owned or out is not m
        if (post := out.size // (pre * len(block))) == 1:
            out = _applied(out.reshape(-1, lead, len(block)), block, 1, owned).reshape(shape)
        else:
            out = _applied(out.reshape(pre, len(block), post), block.T, 2, owned).reshape(shape)
    return out


def _conjugated(m: np.ndarray, dims: Sequence[int], factors: dict[int, np.ndarray]) -> np.ndarray:
    """``R^dag @ m @ R`` without forming ``R``: ``R^dag`` applied to the rows of ``m``, then
    ``R`` to the columns of the product, in the one new array the rows were written to.  No
    other code applies a product of factors, and ``m`` is never written."""
    left = _mode_product(m, dims, {k: w.conj() for k, w in factors.items()})
    return _mode_product(left, dims, factors, len(left), owned=left is not m)


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every screen not in ``keep`` (0-based, screen 0 most significant); tracing
    all of them returns the 1x1 matrix ``[[Tr rho]]``."""
    rho = as_complex(rho)
    dims = _screen_dims(dims, *rho.shape)
    n = len(dims)
    keep = sorted(set(_index(k, n, "kept screen") for k in _sequence(keep, "kept screens")))

    if not keep:
        return np.array([[np.trace(rho)]], dtype=np.complex128)

    tensor = rho.reshape(dims + dims)
    for screen in reversed([k for k in range(n) if k not in keep]):  # the last first: axes stay put
        tensor = np.trace(tensor, axis1=screen, axis2=screen + tensor.ndim // 2)
    kept_dim = math.prod(dims[k] for k in keep)
    return np.ascontiguousarray(tensor.reshape(kept_dim, kept_dim))


def partial_transpose(
    rho: np.ndarray, dims: Sequence[int], party: Literal["A", "B"] = "B"
) -> np.ndarray:
    """Transpose one factor of a bipartite operator."""
    return _partial_transpose(as_complex(rho), dims, party)


def _partial_transpose(
    rho: np.ndarray, dims: Sequence[int], party: Literal["A", "B"] = "B"
) -> np.ndarray:
    """``partial_transpose`` of a matrix or of each of a stack of them, with no gate on the
    entries: only for an array its caller built."""
    d_a, d_b = _bipartite(dims, *rho.shape[-2:])
    if party not in ("A", "B"):
        raise DomainError(f"party must be 'A' or 'B', got {party!r}")
    tensor = rho.reshape(*rho.shape[:-2], d_a, d_b, d_a, d_b)
    tensor = tensor.swapaxes(-3, -1) if party == "B" else tensor.swapaxes(-4, -2)
    return np.ascontiguousarray(tensor.reshape(rho.shape))


def commutes(p: np.ndarray, q: np.ndarray, tol: float = PROJECTOR_TOL) -> bool:
    """True iff the max-entry magnitude of PQ - QP is at most ``tol``."""
    p = as_complex(p)
    q = as_complex(q)
    if p.shape != q.shape or p.shape[0] != p.shape[1]:
        raise ShapeError(f"commutator needs equal square shapes, got {p.shape} vs {q.shape}")
    return max_abs(p @ q - q @ p) <= tol

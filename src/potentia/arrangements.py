"""Experimental arrangements: a state viewed through a choice of screens (a
``qlin.Factorization``) and detectors (a ``qlin.DetectorBasis``: per-screen orthonormal bases).

An arrangement holds the state in detector coordinates, where the diagonal
entries are the intensities of its powers, and the local detector changes
that lead back to the ambient canonical space.  Multi-indices map to flat
indices by canonical mixed radix with screen 0 most significant.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import qlin
from .errors import DegenerateConditioningError, DomainError, ShapeError
from .qlin import DetectorBasis, Factorization, _index, _sequence, dagger, frozen, max_abs
from .states import DensityOperator, _conditioned
from .tolerances import CHAIN_TOL, EIGENVALUE_FLOOR, EQUIVALENCE_TOL, HERMITICITY_TOL, TRACE_TOL, _gamma


class Provenance(NamedTuple):
    """``origin``, a token shared by what detector changes and refactors derive from one admitted
    state A = B_0 M_0 B_0^dag, and bounds: ``drift`` >= ||B M B^dag - A||_2, and ``scale`` >= ||B||_2^2
    and >= ||M||_F over the bound on ||M_0||_F.  No matrix is held."""

    origin: object
    drift: float = 0.0
    scale: float = 1.0


def _growth(dim: int, gram_error: float) -> float:
    """1 + g >= ||w w^dag||_2 for a square factor whose Gram error ``require_isometry`` computed:
    the true error's entries are within sqrt(2) gamma_{d+2} of it (a complex dot product, Higham
    §3.6), and ||w w^dag - I||_2 = ||w^dag w - I||_2 <= d times its largest entry."""
    return 1 + dim * (1 + _gamma(2)) * (gram_error + 2 * _gamma(dim + 2))


def _stepped(p: Provenance, dims: Sequence[int], gram_errors: dict[int, float]) -> Provenance:
    """``p`` after ``qlin._conjugated`` takes M to R^dag M R and B to B R, R = the Kronecker product
    of factors on ``gram_errors``'s screens.  With r^2 = prod(1 + g_k) >= ||R||_2^2, g = r^2 - 1 >=
    ||G||_2, G = R R^dag - I, A moves by B (GM + MG + GMG + R E R^dag) B^dag, E the kernel's rounding:
    at most two passes per factor, each by a Kronecker block K of size D <= max(_KRON_BLOCK, dims),
    rounding its entries by sqrt(2) gamma_{D+2} and K's own (Higham §3.5-3.6), || |K| || <= sqrt(D)
    ||K||.  An admitted M_0's Hermitian part has trace <= 1 + TRACE_TOL and no eigenvalue below the
    floor, so its ||.||_F <= sum |lambda|; the rest is <= N HERMITICITY_TOL."""
    passes, d = 2 * len(gram_errors), max(qlin._KRON_BLOCK, *dims)
    r2 = math.prod(_growth(dims[k], e) for k, e in gram_errors.items())
    x = math.expm1(passes * math.sqrt(2 * d) * _gamma(d + passes + 3))  # E over r^2 ||M||_F
    norm = p.scale * (1 + TRACE_TOL + math.prod(dims) * (2 * abs(EIGENVALUE_FLOOR) + HERMITICITY_TOL))
    drift = p.drift + p.scale * norm * ((r2 - 1) * (r2 + 1) + r2 * r2 * x)
    return Provenance(p.origin, drift, p.scale * r2 * (1 + x))


class _Pending(NamedTuple):
    """A matrix before its first read: ``source``, its nearest formed ancestor's, and the one ``run``
    since, ``(dims, factors)`` of distinct screens in one layout, with its ``base`` and ``gram_errors``."""

    source: np.ndarray
    run: tuple
    base: Provenance
    gram_errors: dict


class ExperimentalArrangement(qlin._Value):
    """A density operator carved into screens and detectors.

    ``matrix`` is the state in detector coordinates.  ``steps`` holds the
    detector basis as its local factors, oldest first: ``(screen_dims,
    {screen: factor})`` pairs, each in the screen layout of its time.  ``provenance`` bounds
    how far rounding has moved the state from the one it was derived from.  The functions below make
    theirs by ``qlin._made``: an intensity bound could only refuse what the floor accepts, so readouts clip.
    """

    factorization: Factorization

    def __init__(self, matrix, factorization: Factorization, basis_matrix):
        # Written out because ``matrix`` and ``basis_matrix`` are read-only properties, not fields.
        vars(self)["factorization"] = factorization
        self.__post_init__(matrix, basis_matrix)

    def __post_init__(self, matrix, basis_matrix):
        """Check everything; the dense basis becomes the one step ``((N,), {0: B})``."""
        mat, basis = qlin.as_complex(matrix), qlin.as_complex(basis_matrix)
        n = self.factorization.degree
        for what, arr in (("matrix", mat), ("basis matrix", basis)):
            if arr.shape != (n, n):
                raise ShapeError(f"{what} is {arr.shape}, factorization degree is {n}")
        gram_error = qlin.require_isometry(basis, what="basis matrix")
        rho = DensityOperator(mat)  # the one state check
        provenance = Provenance(object(), scale=_growth(n, gram_error))
        steps = (((n,), {0: frozen(basis)}),)
        vars(self).update(_cell={"matrix": rho.matrix}, steps=steps, provenance=provenance)

    @property
    def matrix(self) -> np.ndarray:
        """The state in detector coordinates, in a cell refactors share, formed from a ``_Pending`` on
        first read, one N x N conjugation; concurrent first reads may each form it, and all return
        the one kept.  ``intensities``, ``power_intensity``, ``multiscreen_effect`` and ``restrict``
        of an arrangement in its run's layout read only the entries they need."""
        cell = vars(self)["_cell"]
        if (pending := cell.get("pending")) is not None:
            m = qlin._conjugated(pending.source, *pending.run)
            cell.setdefault("matrix", qlin._frozen_in_place(m))
            cell.pop("pending", None)
        return cell["matrix"]

    @property
    def degree(self) -> int:
        return self.factorization.degree

    @property
    def basis_matrix(self) -> np.ndarray:
        """Columns are the detector product vectors; multiplied out of ``steps`` on each read."""
        m = np.eye(self.degree, dtype=np.complex128)
        for dims, factors in _runs(self.steps):
            m = qlin._mode_product(m, dims, factors, len(m), owned=True)  # in place in the identity
        return qlin._frozen_in_place(m)

    def intensities(self) -> np.ndarray:
        """Flat potentia vector (clipped to [0, 1]): the diagonal, which ``_diagonal`` reads from a
        pending matrix at O(Du Dc^2 Sum d) and leaves it pending."""
        return np.clip(_diagonal(self), 0.0, 1.0)

    def canonical_density(self) -> DensityOperator:
        """The state in ambient canonical coordinates, basis unwound: the admitted state in another
        frame, so it is not admitted again."""
        return qlin._made(DensityOperator, matrix=_unwound(self.matrix, self.steps))


def _last_run(ea: ExperimentalArrangement) -> tuple:
    """``(source, (dims, factors))``, ``ea.matrix`` = R^dag source R, R the factors' product: of a
    pending matrix when ``ea`` is in its run's layout, else the formed matrix with no factor."""
    pending, dims = vars(ea)["_cell"].get("pending"), ea.factorization.screen_dims
    if pending is None or pending.run[0] != dims:
        return ea.matrix, (dims, {})
    return pending.source, pending.run


def _diagonal(ea: ExperimentalArrangement) -> np.ndarray:
    """The real diagonal of ``ea.matrix``, from ``_last_run``: per detector of the factor-free screens
    (Du of them), the source's Dc x Dc block over the factored screens, a view, conjugated by the
    factors; Du Dc^2 entries, no more than the N^2 that forming the matrix costs."""
    source, (dims, factors) = _last_run(ea)
    fixed, free = sorted(factors), [k for k in range(len(dims)) if k not in factors]
    du, dc = math.prod(dims[k] for k in free), math.prod(dims[k] for k in fixed)
    # The view's axes are the screens of more than one detector, at most log2(DIM_CAP) of them.
    big = [k for k in range(len(dims)) if dims[k] > 1]
    axis = {k: i for i, k in enumerate(big)}
    cols = [len(big) + axis[k] if k in factors else axis[k] for k in big]
    out = [axis[k] for k in free + fixed if k in axis] + [len(big) + axis[k] for k in fixed if k in axis]
    blocks = np.einsum(source.reshape([dims[k] for k in big] * 2), [*range(len(big)), *cols], out)
    blocks = np.ascontiguousarray(blocks).reshape(du * dc, dc)
    sub = tuple(dims[k] for k in fixed)
    left = qlin._mode_product(blocks, sub, {i: factors[k].conj() for i, k in enumerate(fixed)}, du)
    both = qlin._mode_product(left, sub, {i: factors[k] for i, k in enumerate(fixed)}, du * dc,
                              owned=left is not blocks)
    diag = np.real(both.reshape(du, dc, dc).diagonal(axis1=1, axis2=2))
    return diag.reshape([dims[k] for k in free + fixed]).transpose(np.argsort(free + fixed)).ravel()


def _block(ea: ExperimentalArrangement, kept: Sequence[Sequence[int]]) -> np.ndarray:
    """``ea.matrix`` on the kept detectors, one sorted index tuple per screen, in a new array, from
    ``_last_run``: the source on the kept detectors of the factor-free screens, conjugated by each
    factor cut to its kept columns."""
    source, (dims, factors) = _last_run(ea)
    rows = [range(d) if k in factors else kept[k] for k, d in enumerate(dims)]
    flat = np.ravel_multi_index(np.ix_(*rows), dims).ravel()
    cut = {k: np.ascontiguousarray(w[:, kept[k]]) for k, w in factors.items()}
    # A slice of every row is no copy: the factors' product is a new array.
    whole = factors and len(flat) == len(source)
    return qlin._conjugated(source if whole else source[np.ix_(flat, flat)], tuple(map(len, rows)), cut)


def _runs(steps: Sequence) -> list:
    """``steps`` with consecutive steps in one layout merged: ``older @ newer`` per screen."""
    runs = []
    for dims, factors in steps:
        older = runs.pop()[1] if runs and runs[-1][0] == dims else {}
        runs.append((dims, older | {k: older[k] @ w if k in older else w for k, w in factors.items()}))
    return runs


def _unwound(m: np.ndarray, steps: Sequence) -> np.ndarray:
    """``S @ m @ S^dag`` for ``S`` the product of ``steps``, newest first, without forming ``S``."""
    for dims, factors in reversed(_runs(steps)):
        m = qlin._conjugated(m, dims, {k: dagger(w) for k, w in factors.items()})
    return m


def _same_step(a: tuple, b: tuple) -> bool:
    """The same object, or one layout with equal factors on the same screens."""
    return a is b or a[0] == b[0] and a[1].keys() == b[1].keys() and all(
        np.array_equal(w, b[1][k]) for k, w in a[1].items()
    )


def make_ea(
    rho: DensityOperator, factorization: Factorization, basis: DetectorBasis | None = None
) -> ExperimentalArrangement:
    """Express an ambient state in the detector coordinates of a screen layout; with no
    ``basis``, in computational detectors, which take no factor and cost no product."""
    screens = () if basis is None else basis.screens
    if basis is not None and len(screens) != factorization.screens:
        raise ShapeError(f"{len(screens)} screen bases for {factorization.screens} screens")
    for k, (mat, dim) in enumerate(zip(screens, factorization.screen_dims)):
        if mat.shape[0] != dim:
            raise ShapeError(f"screen {k} basis is {mat.shape[0]}-dimensional, expected {dim}")
    if factorization.degree != rho.dim:
        raise ShapeError(
            f"state dim {rho.dim} does not match factorization degree {factorization.degree}"
        )
    # A missing factor is the identity to the kernel, so an identity screen is dropped.
    dims = factorization.screen_dims
    factors = {k: w for k, w in enumerate(screens) if not qlin._is_identity(w)}
    matrix = qlin._conjugated(rho.matrix, dims, factors)
    origin = Provenance(vars(rho).setdefault("_origin", object()))
    provenance = _stepped(origin, dims, {k: basis.gram_errors[k] for k in factors})
    return qlin._made(ExperimentalArrangement, _cell={"matrix": qlin._frozen_in_place(matrix)},
                      factorization=factorization, steps=((dims, factors),), provenance=provenance)


def power_intensity(ea: ExperimentalArrangement, multi_index: Sequence[int]) -> float:
    """The potentia of one power: the diagonal entry at the multi-index, read from a pending matrix
    as ``restrict``'s block of one detector per screen, at O(N^2) at most, leaving it pending."""
    f = ea.factorization
    entry = _block(ea, [(i,) for i in f.multi_index(f.flat_index(multi_index))])[0, 0]
    return float(np.clip(np.real(entry), 0.0, 1.0))


def change_detectors(
    ea: ExperimentalArrangement, screen: int, new_basis: np.ndarray
) -> ExperimentalArrangement:
    """Swap the detectors of one screen.

    ``new_basis`` columns are the new detector vectors written in the
    screen's current detector coordinates.  The ambient state is untouched;
    only its representation moves.  The step joins the arrangement's pending
    run, applied as one conjugation when ``matrix`` is first read, if the
    arrangement is in the run's layout and the screen is not in the run;
    otherwise it starts a run from ``ea.matrix``, which forms the pending run
    now, once, in the cell that its refactors share.  An exactly-identity
    basis adds no factor; where it would join, it shares the cell too.
    ``intensities``, ``power_intensity``, ``multiscreen_effect`` and
    ``restrict`` read only the entries they need, and form no N x N product
    of the run.
    """
    dims = ea.factorization.screen_dims
    screen = _index(screen, len(dims), "screen")
    v = qlin.as_complex(new_basis)
    if v.shape != (dims[screen], dims[screen]):
        raise ShapeError(f"screen {screen} basis must be {dims[screen]}x{dims[screen]}, got {v.shape}")
    gram_error = qlin.require_isometry(v, what="new detector basis")
    # A copy: ``v`` may be the caller's own array.  The identity is no factor, as in make_ea.
    step = {} if qlin._is_identity(v) else {screen: frozen(v)}
    steps, cell = ea.steps + ((dims, step),), vars(ea)["_cell"]
    pending = cell.get("pending")
    if pending is None or pending.run[0] != dims or screen in pending.run[1]:  # else no product to round
        pending = _Pending(ea.matrix, (dims, {}), ea.provenance, {})
    elif not step:  # the run as it is, and its bound: its cell, as a refactor shares it
        return qlin._made(ExperimentalArrangement, **vars(ea) | {"steps": steps})
    errors = pending.gram_errors | {k: gram_error for k in step}
    held = {"pending": pending._replace(run=(dims, pending.run[1] | step), gram_errors=errors)}
    return qlin._made(ExperimentalArrangement, _cell=held, factorization=ea.factorization, steps=steps,
                      provenance=_stepped(pending.base, dims, errors))


def refactor(
    ea: ExperimentalArrangement, new_factorization: Factorization
) -> ExperimentalArrangement:
    """Reinterpret the same detectors under a different screen layout.

    The flat detector list and the state entries are untouched; only the
    multi-index bookkeeping changes, so intensities survive as a flat list.
    """
    if new_factorization.degree != ea.degree:
        raise ShapeError(
            f"new factorization degree {new_factorization.degree} != arrangement degree {ea.degree}"
        )
    return qlin._made(ExperimentalArrangement, **vars(ea) | {"factorization": new_factorization})


def ea_equivalent(
    ea1: ExperimentalArrangement, ea2: ExperimentalArrangement, tol: float = EQUIVALENCE_TOL
) -> bool:
    """Same degree and ``max_abs(B1 M1 B1^dag - B2 M2 B2^dag) <= tol``.  Arrangements of one origin
    (``make_ea`` shares its state's; the public constructor and ``restrict`` start one) whose drifts
    sum to at most ``tol/2`` are that close in 2-norm: True, with nothing formed.  A near-unitary
    factor, or a screen of some 200 detectors (its Gram error is known to about 2 d^2 u), bounds too
    loosely.  Otherwise, with ``B_i = P S_i``, ``P`` shared, ``M1`` moves into ea2's frame by ``U =
    S2^-1 S1``: S2's steps reversed and inverted (a factor is unitary only within ``ISOMETRY_TOL`` >
    ``tol``), then S1's, one conjugation per layout.  ``||D||_F``, ``D = U M1 U^dag - M2``, decides
    outside ``(tol/2, 2N tol]``; inside, B2 D B2^dag."""
    if ea1.degree != ea2.degree:
        return False
    p1, p2 = ea1.provenance, ea2.provenance
    if p1.origin is p2.origin and p1.drift + p2.drift <= tol / 2:
        return True
    s1, s2 = ea1.steps, ea2.steps
    p = next((i for i, ab in enumerate(zip(s1, s2)) if not _same_step(*ab)), min(len(s1), len(s2)))
    inverse = tuple((ly, {k: np.linalg.inv(w) for k, w in ws.items()}) for ly, ws in reversed(s2[p:]))
    moved = _unwound(ea1.matrix, inverse + s1[p:])
    # Formed in the moved array, never in an arrangement's own matrix: a copy's is writeable.
    d = np.subtract(moved, ea2.matrix, out=None if moved is ea1.matrix else moved)
    norm = math.sqrt(np.vdot(d, d).real)
    if not tol / 2 < norm <= 2 * ea1.degree * tol:
        return norm <= tol / 2
    return max_abs(_unwound(d, s2)) <= tol


def restrict(
    ea: ExperimentalArrangement, kept_detectors: Sequence[Sequence[int]]
) -> ExperimentalArrangement:
    """Condition the arrangement on a subset of detectors per screen.

    Projects onto the span of the kept detector vectors and renormalizes
    (P rho P / Tr(P rho P)); the result lives on the kept detectors in
    their own coordinates.  It is a new state, formed and checked by
    ``states._conditioned`` as an instrument post-state is.  The kept block of
    a pending matrix is formed alone (``_block``), at O(N^2) for the slice and
    far less than N^2 Sum d for its conjugation, and the matrix stays pending.
    """
    dims = ea.factorization.screen_dims
    if len(kept_detectors := _sequence(kept_detectors, "kept detector sets")) != len(dims):
        raise ShapeError(f"{len(kept_detectors)} kept sets for {len(dims)} screens")
    kept: list[tuple[int, ...]] = []
    for screen, (subset, dim) in enumerate(zip(kept_detectors, dims)):
        subset = _sequence(subset, f"screen {screen} kept set")
        indices = tuple(sorted(set(_index(i, dim, f"screen {screen} kept detector") for i in subset)))
        if not indices:
            raise DomainError(f"screen {screen} keeps no detectors")
        kept.append(indices)

    overlap, conditioned = _conditioned(_block(ea, kept), ea.degree, ea.provenance.drift)  # a new array
    if conditioned is None:
        raise DegenerateConditioningError(
            f"kept detectors carry total intensity {overlap:.3e}; cannot condition"
        )
    reduced = Factorization(tuple(len(k) for k in kept))
    return qlin._made(ExperimentalArrangement, _cell={"matrix": conditioned.matrix}, factorization=reduced,
                      steps=(), provenance=Provenance(object()))


def multiscreen_effect(
    ea: ExperimentalArrangement, multi_index: Sequence[int]
) -> list[float]:
    """Per-screen marginal intensity of one power.

    Screen k's entry is the total intensity landing on detector
    multi_index[k] of screen k, all other screens summed over: sums of the
    diagonal, which a pending matrix gives as ``intensities`` does.
    """
    ea.factorization.flat_index(multi_index)  # validates the index
    diag = _diagonal(ea).reshape(ea.factorization.screen_dims)
    return [
        min(max(float(np.take(diag, int(wanted), axis=screen).sum()), 0.0), 1.0)
        for screen, wanted in enumerate(multi_index)
    ]


class ChainLink(qlin._Value, eq=True):
    """States how one arrangement is carved from the next-larger one."""

    kept_detectors: tuple[tuple[int, ...], ...]


class ChainFailure(qlin._Value, eq=True):
    link: int
    reason: str


class ChainReport(qlin._Value, eq=True):
    degrees: tuple[int, ...]
    failures: tuple[ChainFailure, ...]

    @property
    def valid(self) -> bool:
        return not self.failures


def complexity_chain_check(
    eas: Sequence[ExperimentalArrangement], links: Sequence[ChainLink] = ()
) -> ChainReport:
    """Validate an ascending complexity chain of arrangements.

    ``eas`` is ordered smallest degree first; ``links[i]`` states the
    restriction deriving eas[i] from eas[i+1].  The degree sequence is the
    knowledge-quantification measure reported either way.
    """
    eas, links = _sequence(eas, "chain arrangements"), _sequence(links, "chain links")
    if len(eas) > 1 and len(links) != len(eas) - 1:
        raise ShapeError(f"{len(eas)} arrangements need {len(eas) - 1} links, got {len(links)}")
    reasons = [_link_failure(eas[i], eas[i + 1], links[i]) for i in range(len(eas) - 1)]
    failures = tuple(ChainFailure(i, reason) for i, reason in enumerate(reasons) if reason)
    return ChainReport(tuple(ea.degree for ea in eas), failures)


def _link_failure(
    smaller: ExperimentalArrangement, larger: ExperimentalArrangement, link: ChainLink
) -> str | None:
    """Why ``link`` does not derive ``smaller`` from ``larger``; None if it does."""
    if smaller.degree >= larger.degree:
        return f"degree does not increase: {smaller.degree} -> {larger.degree}"
    try:
        derived = restrict(larger, link.kept_detectors)
    except (DomainError, ShapeError, IndexError) as exc:
        return f"stated restriction fails: {exc}"
    if derived.factorization != smaller.factorization:
        return (
            f"restriction yields factorization {derived.factorization.screen_dims}, "
            f"chain claims {smaller.factorization.screen_dims}"
        )
    gap = max_abs(derived.matrix - smaller.matrix)
    return f"restricted state differs by {gap:.3e} (> {CHAIN_TOL:g})" if gap > CHAIN_TOL else None

"""Minimal quantum-instrument layer: completely positive maps as Kraus families, and
instruments, plain or one-way local (one party measures, the rest apply trace-preserving
maps), whose validity is decided once, when made, from each screen's d x d completeness sum."""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence

import numpy as np

from . import qlin
from .errors import DomainError, ShapeError
from .qlin import dagger, max_abs
from .states import DensityOperator, _conditioned
from .tolerances import COMPLETENESS_TOL, DIM_CAP, KRAUS_RANK_CAP, require_at_most, require_within


class CPMap(qlin._Value):
    """Completely positive, trace-non-increasing map: Kraus operators and their kept sum K^dag K."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not (kraus := qlin._sequence(self.kraus, "Kraus operators")):
            raise DomainError("a CP map needs at least one Kraus operator")
        require_within("Kraus rank", len(kraus), KRAUS_RANK_CAP)
        mats = [qlin.as_complex(raw) for raw in kraus]
        for k, mat in enumerate(mats):
            if mat.shape != mats[0].shape:
                raise ShapeError(f"Kraus operator {k} is {mat.shape}, expected {mats[0].shape}")
            # |K_ij| <= ||K||_2 <= sqrt(top eigenvalue of sum K^dag K); checked before it can overflow.
            require_at_most(f"Kraus operator {k} |entry|", max_abs(mat), math.sqrt(1 + COMPLETENESS_TOL))
        completeness = qlin._frozen_in_place(sum(dagger(mat) @ mat for mat in mats))
        require_at_most("map trace gain", np.linalg.eigvalsh(completeness)[-1] - 1, COMPLETENESS_TOL)
        vars(self).update(kraus=tuple(map(qlin.frozen, mats)), completeness=completeness)

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    @classmethod
    def identity(cls, dim: int) -> "CPMap":
        eye = np.eye(*qlin._screen_dims((dim,)), dtype=np.complex128)
        return qlin._made(cls, kraus=(eye,), completeness=eye)  # I^dag I = I: one read-only array


def _kraus_sum(matrix: np.ndarray, maps: Sequence[CPMap]) -> np.ndarray:
    """Sum of K @ matrix @ K^dag over the products K of one Kraus operator per non-identity map,
    each applied by the local-factor kernel: a new array, even when its one term is ``matrix``."""
    families = {k: m.kraus for k, m in enumerate(maps)
                if len(m.kraus) > 1 or not qlin._is_identity(m.kraus[0])}
    dims = [m.in_dim for m in maps]
    terms = (qlin._conjugated(matrix, dims, {k: dagger(w) for k, w in zip(families, combo)})
             for combo in product(*families.values()))
    first = next(terms)
    # + 0.0 turns a -0.0 into +0.0, as a sum started from 0 does, so report bytes keep it.
    total = np.add(first, 0.0, out=None if first is matrix else first)
    for term in terms:
        total += term
    return total


def _completeness_gap(factors: Sequence[np.ndarray]) -> float:
    """max_abs(F_0 (x) ... (x) F_n-1 - I) unformed: the diagonal is the diagonals' Kronecker product;
    off it the max is, over q, F_q's off-diagonal max times the others' max_abs (their index free)."""
    diagonal, shares = np.ones(1), []
    for q, f in enumerate(factors):
        diagonal = np.multiply.outer(diagonal, np.diagonal(f)).ravel()
        np.fill_diagonal(off_diagonal := np.abs(f), 0.0)
        shares.append(float(off_diagonal.max()) * math.prod(map(max_abs, factors[:q] + factors[q + 1 :])))
    return max(max_abs(diagonal - 1), *shares)


class QuantumInstrument(qlin._Value, eq=True):
    """Branches: CP maps on the screen marked None in ``_bystanders``, where each other screen
    carries a trace-preserving map.  Valid when the screens' completeness sums multiply to I."""

    branches: tuple[CPMap, ...]
    _bystanders: tuple[CPMap | None, ...] = (None,)

    def __post_init__(self):
        if not (branches := qlin._sequence(self.branches, "instrument branches")):
            raise DomainError("an instrument needs at least one branch")
        in_dim = branches[0].in_dim
        out_dim = branches[0].out_dim
        for k, branch in enumerate(branches):
            if branch.in_dim != in_dim or branch.out_dim != out_dim:
                raise ShapeError(
                    f"branch {k} maps {branch.in_dim}->{branch.out_dim}, "
                    f"expected {in_dim}->{out_dim}"
                )
        total = sum(branch.completeness for branch in branches)
        bystanders = qlin._sequence(self._bystanders, "instrument bystanders")
        factors = [total if m is None else m.completeness for m in bystanders]
        vars(self).update(branches=branches, _bystanders=bystanders, _gap=_completeness_gap(factors))

    @property
    def in_dim(self) -> int:
        return math.prod(self.branches[0].in_dim if m is None else m.in_dim for m in self._bystanders)


def is_valid_instrument(ins: QuantumInstrument) -> bool:
    """True iff the completeness sums multiply to the identity within ``COMPLETENESS_TOL``."""
    return ins._gap <= COMPLETENESS_TOL


class BranchOutcome(qlin._Value, eq=True):
    probability: float
    post_state: DensityOperator | None


def apply_instrument(ins: QuantumInstrument, rho: DensityOperator) -> list[BranchOutcome]:
    """Branch probabilities and renormalized post-states.

    Probabilities sum to 1 within ``COMPLETENESS_TOL``.  Each branch is conditioned by
    ``states._conditioned``: at or below its floor the branch has no post-state.
    """
    if ins.in_dim != rho.dim:
        raise ShapeError(f"instrument acts on dim {ins.in_dim}, state has dim {rho.dim}")
    require_at_most("instrument completeness gap", ins._gap, COMPLETENESS_TOL)
    # _kraus_sum returns a new array, as _conditioned needs.
    conditioned = [_conditioned(_kraus_sum(rho.matrix, [b if m is None else m for m in ins._bystanders]),
                                rho.dim) for b in ins.branches]
    return [BranchOutcome(max(probability, 0.0), post_state) for probability, post_state in conditioned]


def one_way_local(
    party: int,
    local: QuantumInstrument,
    bystanders: Sequence[CPMap | None],
) -> QuantumInstrument:
    """Instrument whose branch j acts as T_1 (x) ... (x) E_j (x) ... (x) T_n.

    ``bystanders`` lists one trace-preserving map per party; the entry at ``party`` is ignored
    (that slot takes the measuring instrument, with its own layout).  The instrument keeps
    ``local``'s branches and that layout; the products of their dims, ranks and top completeness
    eigenvalues (which a Kronecker product's is) are checked before anything is formed.
    """
    bystanders = qlin._sequence(bystanders, "bystanders")
    party = qlin._index(party, len(bystanders), "party")
    others = {k: m for k, m in enumerate(bystanders) if k != party}
    for k, bystander in others.items():
        if bystander is None:
            raise DomainError(f"party {k} needs an explicit trace-preserving map")
        gap = _completeness_gap([bystander.completeness])
        require_at_most(f"party {k} map completeness gap", gap, COMPLETENESS_TOL)

    layout = (*bystanders[:party], *local._bystanders, *bystanders[party + 1 :])
    first = [local.branches[0] if m is None else m for m in layout]
    rows, cols = math.prod(m.out_dim for m in first), math.prod(m.in_dim for m in first)
    require_within("one-way product dimension", max(rows, cols), DIM_CAP)
    bystanders_top = math.prod(np.linalg.eigvalsh(m.completeness)[-1] for m in layout if m is not None)
    bystanders_rank = math.prod(len(m.kraus) for m in layout if m is not None)
    for branch in local.branches:
        require_within("Kraus rank", len(branch.kraus) * bystanders_rank, KRAUS_RANK_CAP)
        top = bystanders_top * np.linalg.eigvalsh(branch.completeness)[-1]
        require_at_most("map trace gain", top - 1, COMPLETENESS_TOL)
    return QuantumInstrument(local.branches, layout)


def projective_instrument(projectors: Sequence[np.ndarray]) -> QuantumInstrument:
    """One singleton-Kraus branch per projector."""
    return QuantumInstrument(tuple(CPMap((p,)) for p in projectors))

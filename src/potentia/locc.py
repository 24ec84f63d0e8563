"""Minimal quantum-instrument layer: completely positive maps as Kraus
families, completeness checks, application to states, and one-way local
instruments (one party measures, the rest apply trace-preserving maps)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np

from . import qlin
from .errors import CapacityError, DomainError, ShapeError
from .qlin import DIM_CAP, dagger, max_abs
from .states import DensityOperator, _conditioned

COMPLETENESS_TOL = 1e-8
KRAUS_RANK_CAP = 16


@dataclass(frozen=True, eq=False)
class CPMap:
    """Completely positive, trace-non-increasing map: Kraus operators and their kept sum K^dag K."""

    kraus: tuple[np.ndarray, ...]
    completeness: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.kraus:
            raise DomainError("a CP map needs at least one Kraus operator")
        if len(self.kraus) > KRAUS_RANK_CAP:
            raise CapacityError(f"Kraus rank capped at {KRAUS_RANK_CAP}, got {len(self.kraus)}")
        mats = [qlin.as_complex(raw) for raw in self.kraus]
        for k, mat in enumerate(mats):
            if mat.shape != mats[0].shape:
                raise ShapeError(f"Kraus operator {k} is {mat.shape}, expected {mats[0].shape}")
            # |K_ij| <= ||K||_2 <= sqrt(top eigenvalue of sum K^dag K); checked before it can overflow.
            if (largest := max_abs(mat)) > math.sqrt(1 + COMPLETENESS_TOL):
                raise DomainError(
                    f"Kraus operator {k} has |entry| {largest:.9e} > sqrt(1 + {COMPLETENESS_TOL:g})"
                )
        completeness = sum(dagger(mat) @ mat for mat in mats)
        _require_trace_non_increasing(np.linalg.eigvalsh(completeness)[-1])
        object.__setattr__(self, "kraus", tuple(map(qlin.frozen, mats)))
        object.__setattr__(self, "completeness", qlin._frozen_in_place(completeness))

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def is_trace_preserving(self) -> bool:
        return max_abs(self.completeness - np.eye(self.in_dim)) <= COMPLETENESS_TOL

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        return _kraus_sum(matrix, (self.in_dim,), {0: self.kraus})

    @classmethod
    def identity(cls, dim: int) -> "CPMap":
        return cls((np.eye(dim, dtype=np.complex128),))


def _require_trace_non_increasing(top: float) -> None:
    if top - 1 > COMPLETENESS_TOL:
        raise DomainError(f"map increases trace: max eigenvalue of sum(K^t K) - I is {top - 1:.3e}")


def _kraus_sum(matrix: np.ndarray, dims: Sequence[int], families: dict[int, tuple]) -> np.ndarray:
    """Sum of K @ matrix @ K^dag over the products K of one Kraus operator per screen in
    ``families`` (the identity on every other screen), each applied by the local-factor kernel."""
    return sum(
        qlin._conjugated(matrix, dims, {k: dagger(w) for k, w in f.items()})
        for f in (dict(zip(families, combo)) for combo in product(*families.values()))
    )


@dataclass(frozen=True, eq=False)
class _LocalBranch:
    """A one-way local branch, kept as the per-party maps whose Kronecker product it is."""

    maps: tuple[CPMap, ...]
    in_dim: int
    out_dim: int

    @property
    def completeness(self) -> np.ndarray:
        """The product's sum K^dag K: the Kronecker product of the parties' sums, formed on read."""
        return functools.reduce(np.kron, (m.completeness for m in self.maps))

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        # An identity party map is no factor, as an identity detector basis is none.
        families = {k: m.kraus for k, m in enumerate(self.maps)
                    if len(m.kraus) > 1 or not np.array_equal(m.kraus[0], np.eye(m.in_dim))}
        return _kraus_sum(matrix, [m.in_dim for m in self.maps], families)


@dataclass(frozen=True)
class QuantumInstrument:
    """Finite family of CP maps; valid when the branches sum to trace-preserving."""

    branches: tuple[CPMap, ...]

    def __post_init__(self):
        if not self.branches:
            raise DomainError("an instrument needs at least one branch")
        in_dim = self.branches[0].in_dim
        out_dim = self.branches[0].out_dim
        for k, branch in enumerate(self.branches):
            if branch.in_dim != in_dim or branch.out_dim != out_dim:
                raise ShapeError(
                    f"branch {k} maps {branch.in_dim}->{branch.out_dim}, "
                    f"expected {in_dim}->{out_dim}"
                )
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def in_dim(self) -> int:
        return self.branches[0].in_dim


def is_valid_instrument(ins: QuantumInstrument) -> bool:
    """True iff the branch completeness sums add up to the identity within ``COMPLETENESS_TOL``."""
    total = sum(branch.completeness for branch in ins.branches)  # a new array: sum adds to 0
    total.flat[:: len(total) + 1] -= 1
    return max_abs(total) <= COMPLETENESS_TOL


@dataclass(frozen=True)
class BranchOutcome:
    probability: float
    post_state: DensityOperator | None


def apply_instrument(ins: QuantumInstrument, rho: DensityOperator) -> list[BranchOutcome]:
    """Branch probabilities and renormalized post-states.

    Probabilities sum to 1 within ``COMPLETENESS_TOL``.  Each branch is conditioned by
    ``states._conditioned``: at or below its floor the branch has no post-state.
    """
    if ins.in_dim != rho.dim:
        raise ShapeError(f"instrument acts on dim {ins.in_dim}, state has dim {rho.dim}")
    if not is_valid_instrument(ins):
        raise DomainError("instrument branches do not sum to a trace-preserving map")
    # branch.apply returns a new array, as _conditioned needs: _kraus_sum adds its terms to 0.
    conditioned = [_conditioned(branch.apply(rho.matrix)) for branch in ins.branches]
    return [BranchOutcome(max(probability, 0.0), post_state) for probability, post_state in conditioned]


def one_way_local(
    party: int,
    local: QuantumInstrument,
    bystanders: Sequence[CPMap | None],
) -> QuantumInstrument:
    """Instrument whose branch j acts as T_1 (x) ... (x) E_j (x) ... (x) T_n.

    ``bystanders`` lists one trace-preserving map per party; the entry at
    ``party`` is ignored (that slot is taken by the measuring instrument).  A branch keeps its
    per-party maps; the products of their dims, ranks and top completeness eigenvalues (which
    a Kronecker product's is) are checked before anything is formed.
    """
    n_parties = len(bystanders)
    if not 0 <= party < n_parties:
        raise ShapeError(f"party {party} out of range for {n_parties} parties")
    others = {k: m for k, m in enumerate(bystanders) if k != party}
    for k, bystander in others.items():
        if bystander is None:
            raise DomainError(f"party {k} needs an explicit trace-preserving map")
        if not bystander.is_trace_preserving():
            raise DomainError(f"party {k} map is not trace-preserving within {COMPLETENESS_TOL:g}")

    first = [local.branches[0] if k == party else m for k, m in enumerate(bystanders)]
    rows, cols = math.prod(m.out_dim for m in first), math.prod(m.in_dim for m in first)
    if max(rows, cols) > DIM_CAP:
        raise CapacityError(f"one-way product {rows}x{cols} exceeds the configured cap of {DIM_CAP}")
    bystanders_top = math.prod(np.linalg.eigvalsh(m.completeness)[-1] for m in others.values())
    branches = []
    for branch in local.branches:
        maps = tuple(branch if k == party else m for k, m in enumerate(bystanders))
        if (rank := math.prod(len(m.kraus) for m in maps)) > KRAUS_RANK_CAP:
            raise CapacityError(f"Kraus rank capped at {KRAUS_RANK_CAP}, got {rank}")
        _require_trace_non_increasing(bystanders_top * np.linalg.eigvalsh(branch.completeness)[-1])
        branches.append(_LocalBranch(maps, cols, rows))
    return QuantumInstrument(tuple(branches))


def projective_instrument(projectors: Sequence[np.ndarray]) -> QuantumInstrument:
    """One singleton-Kraus branch per projector."""
    return QuantumInstrument(tuple(CPMap((p,)) for p in projectors))

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
from .qlin import dagger, max_abs
from .states import DensityOperator

COMPLETENESS_TOL = 1e-8
#: Branches below this probability are reported without a post-state.
PROBABILITY_FLOOR = 1e-12
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
            if max(mat.shape) > qlin.DIM_CAP:
                raise CapacityError(f"Kraus operator {k} is {mat.shape}, above the cap of {qlin.DIM_CAP}")
            if mat.shape != mats[0].shape:
                raise ShapeError(f"Kraus operator {k} is {mat.shape}, expected {mats[0].shape}")
            # |K_ij| <= ||K||_2 <= sqrt(top eigenvalue of sum K^dag K); checked before it can overflow.
            if (largest := max_abs(mat)) > math.sqrt(1 + COMPLETENESS_TOL):
                raise DomainError(
                    f"Kraus operator {k} has |entry| {largest:.9e} > sqrt(1 + {COMPLETENESS_TOL:g})"
                )
        completeness = sum(dagger(mat) @ mat for mat in mats)
        self._admit(tuple(map(qlin.frozen, mats)), completeness, np.linalg.eigvalsh(completeness)[-1])

    def _admit(self, kraus: tuple[np.ndarray, ...], completeness: np.ndarray, top: float) -> None:
        """Keep ``kraus`` and their completeness sum unless ``top``, its top eigenvalue, is > 1 + tol."""
        if top - 1 > COMPLETENESS_TOL:
            raise DomainError(f"map increases trace: max eigenvalue of sum(K^t K) - I is {top - 1:.3e}")
        object.__setattr__(self, "kraus", kraus)
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
        return sum(mat @ matrix @ dagger(mat) for mat in self.kraus)

    @classmethod
    def identity(cls, dim: int) -> "CPMap":
        return cls((np.eye(dim, dtype=np.complex128),))


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
    total = sum(branch.completeness for branch in ins.branches)
    return max_abs(total - np.eye(ins.in_dim)) <= COMPLETENESS_TOL


@dataclass(frozen=True)
class BranchOutcome:
    probability: float
    post_state: DensityOperator | None


def apply_instrument(ins: QuantumInstrument, rho: DensityOperator) -> list[BranchOutcome]:
    """Branch probabilities and renormalized post-states.

    Probabilities sum to 1 within ``COMPLETENESS_TOL``; branches that (numerically)
    never fire are reported with probability 0 and no post-state.
    """
    if ins.in_dim != rho.dim:
        raise ShapeError(f"instrument acts on dim {ins.in_dim}, state has dim {rho.dim}")
    if not is_valid_instrument(ins):
        raise DomainError("instrument branches do not sum to a trace-preserving map")
    outcomes = []
    for branch in ins.branches:
        unnormalized = branch.apply(rho.matrix)
        probability = float(np.real(np.trace(unnormalized)))
        if probability <= PROBABILITY_FLOOR:
            outcomes.append(BranchOutcome(max(probability, 0.0), None))
        else:
            outcomes.append(
                BranchOutcome(probability, DensityOperator(unnormalized / probability))
            )
    return outcomes


def one_way_local(
    party: int,
    local: QuantumInstrument,
    bystanders: Sequence[CPMap | None],
) -> QuantumInstrument:
    """Instrument whose branch j acts as T_1 (x) ... (x) E_j (x) ... (x) T_n.

    ``bystanders`` lists one trace-preserving map per party; the entry at
    ``party`` is ignored (that slot is taken by the measuring instrument).  A branch is
    admitted from its checked factors: a Kronecker product's top eigenvalue is theirs multiplied.
    """
    n_parties = len(bystanders)
    if not 0 <= party < n_parties:
        raise ShapeError(f"party {party} out of range for {n_parties} parties")
    for k, bystander in enumerate(bystanders):
        if k == party:
            continue
        if bystander is None:
            raise DomainError(f"party {k} needs an explicit trace-preserving map")
        if not bystander.is_trace_preserving():
            raise DomainError(f"party {k} map is not trace-preserving within {COMPLETENESS_TOL:g}")

    others = [m for k, m in enumerate(bystanders) if k != party]
    bystanders_top = math.prod(np.linalg.eigvalsh(m.completeness)[-1] for m in others)
    branches = []
    for branch in local.branches:
        maps = [branch if k == party else bystanders[k] for k in range(n_parties)]
        if (rank := math.prod(len(m.kraus) for m in maps)) > KRAUS_RANK_CAP:
            raise CapacityError(f"Kraus rank capped at {KRAUS_RANK_CAP}, got {rank}")
        completeness = functools.reduce(qlin.kron, (m.completeness for m in maps))
        kraus = tuple(functools.reduce(qlin.kron, combo) for combo in product(*(m.kraus for m in maps)))
        top = bystanders_top * np.linalg.eigvalsh(branch.completeness)[-1]
        admitted = object.__new__(CPMap)
        admitted._admit(kraus, completeness, top)
        branches.append(admitted)
    return QuantumInstrument(tuple(branches))


def projective_instrument(projectors: Sequence[np.ndarray]) -> QuantumInstrument:
    """One singleton-Kraus branch per projector."""
    return QuantumInstrument(tuple(CPMap((p,)) for p in projectors))

"""Minimal quantum-instrument layer: completely positive maps as Kraus
families, completeness checks, application to states, and one-way local
instruments (one party measures, the rest apply trace-preserving maps)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from . import qlin
from .errors import CapacityError, DomainError, ShapeError
from .qlin import dagger, kron_all, max_abs
from .states import DensityOperator

COMPLETENESS_TOL = 1e-8
#: Branches below this probability are reported without a post-state.
PROBABILITY_FLOOR = 1e-12
KRAUS_RANK_CAP = 16


@dataclass(frozen=True, eq=False)
class CPMap:
    """Completely positive, trace-non-increasing map given by Kraus operators."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.kraus:
            raise DomainError("a CP map needs at least one Kraus operator")
        if len(self.kraus) > KRAUS_RANK_CAP:
            raise CapacityError(f"Kraus rank capped at {KRAUS_RANK_CAP}, got {len(self.kraus)}")
        mats = []
        shape = None
        for k, raw in enumerate(self.kraus):
            mat = qlin.as_complex(raw)
            if max(mat.shape) > qlin.DIM_CAP:
                raise CapacityError(f"Kraus operator {k} is {mat.shape}, above the cap of {qlin.DIM_CAP}")
            if shape is None:
                shape = mat.shape
            elif mat.shape != shape:
                raise ShapeError(f"Kraus operator {k} is {mat.shape}, expected {shape}")
            mats.append(qlin.frozen(mat))
        object.__setattr__(self, "kraus", tuple(mats))
        excess = float(np.linalg.eigvalsh(self.completeness_sum() - np.eye(self.in_dim))[-1])
        if excess > COMPLETENESS_TOL:
            raise DomainError(
                f"map increases trace: max eigenvalue of sum(K^t K) - I is {excess:.3e}"
            )

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def completeness_sum(self) -> np.ndarray:
        return sum(dagger(mat) @ mat for mat in self.kraus)

    def is_trace_preserving(self) -> bool:
        return max_abs(self.completeness_sum() - np.eye(self.in_dim)) <= COMPLETENESS_TOL

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
    total = sum(branch.completeness_sum() for branch in ins.branches)
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
    ``party`` is ignored (that slot is taken by the measuring instrument).
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

    branches = []
    for branch in local.branches:
        kraus_choices = [
            branch.kraus if k == party else bystanders[k].kraus for k in range(n_parties)
        ]
        kraus = tuple(kron_all(combo) for combo in product(*kraus_choices))
        branches.append(CPMap(kraus))
    return QuantumInstrument(tuple(branches))


def projective_instrument(projectors: Sequence[np.ndarray]) -> QuantumInstrument:
    """One singleton-Kraus branch per projector."""
    return QuantumInstrument(tuple(CPMap((p,)) for p in projectors))

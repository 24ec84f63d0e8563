"""The graph of powers: projector nodes with commutation edges, intensive
valuations over them, contexts, the actualization map, and reconstruction of
the underlying density operator from a spanning valuation."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import qlin
from .errors import DomainError, ResidualError, ShapeError, UnderdeterminedError
from .qlin import commutes, frozen, max_abs
from .states import DensityOperator
from .tolerances import (
    AXIOM_TOL, BINARY_SEARCH_NODE_CAP, CONTEXT_NODE_CAP, FAMILY_SIZE_CAP, POTENTIA_SLACK, PROJECTOR_TOL,
    RANK_TOL, RESIDUAL_TOL, ZERO_THRESHOLD, require_at_most, require_within,
)


class PowerNode(qlin._Value):
    """A projector together with a human-readable label."""

    projector: np.ndarray
    label: str

    def __post_init__(self):
        mat = qlin.as_complex(self.projector)
        qlin.require_hermitian(mat, PROJECTOR_TOL, f"power {self.label!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # I @ I = I exactly: no GEMM for it
            idempotence_error = 0.0 if qlin._is_identity(mat) else max_abs(mat @ mat - mat)
        require_at_most(f"power {self.label!r} idempotence error", idempotence_error, PROJECTOR_TOL)
        vars(self)["projector"] = frozen(mat, self.projector)

    @property
    def dim(self) -> int:
        return self.projector.shape[0]


class PowersGraph(qlin._Value, eq=True):
    """Projector nodes with an edge wherever two nodes commute."""

    nodes: tuple[PowerNode, ...]
    edges: frozenset[tuple[int, int]]
    dim: int
    identity_index: int

    def adjacent(self, i: int, j: int) -> bool:
        return i == j or (min(i, j), max(i, j)) in self.edges

    def is_context(self, indices: Iterable[int]) -> bool:
        """True iff the index set induces a complete subgraph."""
        idx = sorted(set(indices))
        return all(self.adjacent(a, b) for k, a in enumerate(idx) for b in idx[k + 1 :])

    @cached_property
    def families(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """``orthogonal_families(self)``, enumerated on first access and kept."""
        return tuple(orthogonal_families(self))


class Context(qlin._Value, eq=True):
    """Complete subgraph of a powers graph (mutually commuting powers)."""

    node_indices: frozenset[int]

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.node_indices))


class ISAValuation(qlin._Value):
    """Intensities in [0, 1] assigned to every node of a powers graph."""

    graph: PowersGraph
    potentia: np.ndarray

    def __post_init__(self):
        values = qlin._numbers(self.potentia, "potentia", real=True).reshape(-1)
        if len(values) != len(self.graph.nodes):
            raise ShapeError(
                f"{len(values)} potentia for {len(self.graph.nodes)} nodes"
            )
        require_at_most("negated least potentia", -np.min(values, initial=0.0), POTENTIA_SLACK)
        require_at_most("greatest potentia", np.max(values, initial=0.0), 1 + POTENTIA_SLACK)
        vars(self)["potentia"] = frozen(np.clip(values, 0.0, 1.0))

    def value(self, label: str) -> float:
        for node, pot in zip(self.graph.nodes, self.potentia):
            if node.label == label:
                return float(pot)
        raise KeyError(label)


def _identity_index(nodes: Sequence[PowerNode]) -> int:
    """The identity's index in the graph of ``nodes``: the first node within ``PROJECTOR_TOL`` of
    it, else ``len(nodes)``, where ``build_graph`` appends an identity node."""
    identity = np.eye(nodes[0].dim, dtype=np.complex128)
    return next((i for i, node in enumerate(nodes) if max_abs(node.projector - identity) <= PROJECTOR_TOL),
                len(nodes))


def build_graph(projectors: Sequence[PowerNode], identity_index: int | None = None) -> PowersGraph:
    """Wire commutation edges over a projector family; the identity is
    auto-added when missing.  Labels name nodes in reports and overrides, so
    a repeated label is rejected.  A caller that has ``_identity_index`` of the
    family passes it as ``identity_index``, and it is not sought again."""
    nodes = list(qlin._sequence(projectors, "powers"))
    if not nodes:
        raise DomainError("a powers graph needs at least one node")
    dim = nodes[0].dim
    for node in nodes:
        if node.dim != dim:
            raise ShapeError(f"power {node.label!r} has dim {node.dim}, expected {dim}")
    if identity_index is None:
        identity_index = _identity_index(nodes)
    if identity_index == len(nodes):
        nodes.append(qlin._made(PowerNode, projector=np.eye(dim, dtype=np.complex128), label="I"))
    labels = [node.label for node in nodes]
    repeated = next((label for k, label in enumerate(labels) if label in labels[:k]), None)
    if repeated is not None:
        raise DomainError(f"power label {repeated!r} is repeated")
    edges = set()
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if commutes(nodes[i].projector, nodes[j].projector, PROJECTOR_TOL):
                edges.add((i, j))
    return PowersGraph(tuple(nodes), frozenset(edges), dim, identity_index)


def isa_from_density(rho: DensityOperator, graph: PowersGraph) -> ISAValuation:
    """Born-rule valuation: potentia[i] = Tr(rho P_i), clipped to [0, 1].  Only the
    floor-sized negative eigenvalues of an accepted state can push a value outside
    [0, 1], so the values are not checked again."""
    if rho.dim != graph.dim:
        raise ShapeError(f"state dim {rho.dim} vs graph dim {graph.dim}")
    # Tr(rho P) summed entrywise: both are Hermitian, so no product is formed.
    values = np.array([np.vdot(rho.matrix, node.projector).real for node in graph.nodes])
    return ISAValuation(graph, np.clip(values, 0.0, 1.0))


def orthogonal_families(graph: PowersGraph) -> list[tuple[tuple[int, ...], int]]:
    """All orthogonal node families (size 2..FAMILY_SIZE_CAP) whose sum is a node.

    Returns (family indices, index of the sum node) pairs in lexicographic
    order; the general problem is exponential, so families are capped at
    ``FAMILY_SIZE_CAP``.  Node sets are bitmasks, as in ``maximal_contexts``.
    """
    n = len(graph.nodes)
    mats = [node.projector for node in graph.nodes]
    traces = [float(np.trace(mat).real) for mat in mats]
    # later[i]: the nodes j > i orthogonal to node i.
    later = [
        sum(1 << j for j in range(i + 1, n) if max_abs(mats[i] @ mats[j]) <= PROJECTOR_TOL)
        for i in range(n)
    ]
    # A match within PROJECTOR_TOL entrywise moves the trace by <= dim * PROJECTOR_TOL.
    # The factor 2 covers rounding; a family's sum is formed only when some trace is near.
    trace_slack = 2 * graph.dim * PROJECTOR_TOL
    found: list[tuple[tuple[int, ...], int]] = []

    def extend(family: tuple[int, ...], trace: float, candidates: int) -> None:
        if len(family) >= 2:
            near = [k for k in range(n) if abs(traces[k] - trace) <= trace_slack]
            if near:
                total = sum(mats[i] for i in family)
                target = next((k for k in near if max_abs(total - mats[k]) <= PROJECTOR_TOL), None)
                if target is not None:
                    found.append((family, target))
        if len(family) < FAMILY_SIZE_CAP:
            for nxt in _bits(candidates):
                extend((*family, nxt), trace + traces[nxt], candidates & later[nxt])

    extend((), 0.0, (1 << n) - 1)
    return found


class AdditivityViolation(qlin._Value, eq=True):
    family: tuple[int, ...]
    sum_node: int
    member_total: float
    sum_value: float


class AxiomReport(qlin._Value, eq=True):
    identity_ok: bool
    identity_value: float
    additivity_violations: tuple[AdditivityViolation, ...]

    @property
    def ok(self) -> bool:
        return self.identity_ok and not self.additivity_violations


def check_isa_axioms(valuation: ISAValuation, tol: float = AXIOM_TOL) -> AxiomReport:
    """Verify the intensive-valuation axioms on the recorded node set.

    Violations are data, not errors: the report lists every orthogonal
    family whose summed potentia misses the sum node's potentia by more
    than ``tol``.
    """
    graph = valuation.graph
    identity_value = float(valuation.potentia[graph.identity_index])
    identity_ok = abs(identity_value - 1.0) <= tol
    violations = []
    for family, sum_node in graph.families:
        member_total = float(sum(valuation.potentia[i] for i in family))
        sum_value = float(valuation.potentia[sum_node])
        if abs(member_total - sum_value) > tol:
            violations.append(
                AdditivityViolation(family, sum_node, member_total, sum_value)
            )
    return AxiomReport(identity_ok, identity_value, tuple(violations))


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def maximal_contexts(graph: PowersGraph) -> list[Context]:
    """All maximal cliques, deterministically ordered: Bron–Kerbosch with Tomita
    pivoting (Tomita, Tanaka & Takahashi, TCS 363 (2006)); node sets are bitmasks."""
    n = len(graph.nodes)
    require_within("clique enumeration node count", n, CONTEXT_NODE_CAP)
    neighbours = [0] * n
    for i, j in graph.edges:
        neighbours[i] |= 1 << j
        neighbours[j] |= 1 << i
    cliques: list[tuple[int, ...]] = []

    def expand(clique: int, candidates: int, excluded: int) -> None:
        if not candidates:
            if not excluded:
                cliques.append(tuple(_bits(clique)))
            return
        pivot = max(
            _bits(candidates | excluded),
            key=lambda u: (candidates & neighbours[u]).bit_count(),
        )
        for v in _bits(candidates & ~neighbours[pivot]):
            expand(clique | 1 << v, candidates & neighbours[v], excluded & neighbours[v])
            candidates &= ~(1 << v)
            excluded |= 1 << v

    if n:
        expand(0, (1 << n) - 1, 0)
    return [Context(frozenset(c)) for c in sorted(cliques)]


def actualization_map(
    valuation: ISAValuation, zero_threshold: float = ZERO_THRESHOLD
) -> np.ndarray:
    """Binary existence map: 0 where the potentia vanishes, 1 elsewhere.

    Depends only on the zero set of the valuation.
    """
    return (valuation.potentia > zero_threshold).astype(np.int64)


def reconstruct_density(valuation: ISAValuation) -> DensityOperator:
    """Recover the unique density operator whose Born values match the valuation.

    Solves the real linear system Tr(rho P_i) = potentia[i] by least squares
    over Hermitian rho.  Requires the projector family to span the real
    vector space of Hermitian operators (dimension dim^2).
    """
    graph = valuation.graph
    dim = graph.dim
    if dim < 2:
        raise DomainError("reconstruction needs dim >= 2")
    needed = dim * dim
    # A matrix's float64 view lists its entries' re/im pairs; on Hermitian matrices it is an
    # isometry, as <view A, view B> = Tr(AB), so each projector's view is its design row.
    design = np.stack([node.projector.view(np.float64).ravel() for node in graph.nodes])
    rank = int(np.linalg.matrix_rank(design, tol=RANK_TOL))
    if rank < needed:
        raise UnderdeterminedError(
            f"projector family spans rank {rank} of {needed} Hermitian dimensions",
            rank=rank,
            needed=needed,
        )
    solution, *_ = np.linalg.lstsq(design, valuation.potentia, rcond=None)
    residual = float(np.max(np.abs(design @ solution - valuation.potentia)))
    if residual > RESIDUAL_TOL:
        raise ResidualError(
            f"valuation is inconsistent: residual {residual:.3e} > {RESIDUAL_TOL:g}",
            residual=residual,
        )
    return DensityOperator(solution.view(np.complex128).reshape(dim, dim))


def find_additive_binary_valuation(graph: PowersGraph) -> np.ndarray | None:
    """Complete backtracking search for a {0,1} valuation passing the axioms.

    Returns one admissible assignment aligned with the nodes, or None when
    none exists (the search is exhaustive over the constrained space, so
    None is a proof of nonexistence for the recorded constraint set).
    """
    n = len(graph.nodes)
    require_within("binary valuation search node count", n, BINARY_SEARCH_NODE_CAP)
    # Assign the identity first so family constraints become checkable (and
    # prune) as soon as their last member gets a value.
    order = [graph.identity_index] + [i for i in range(n) if i != graph.identity_index]
    position_of = {node: pos for pos, node in enumerate(order)}
    by_last: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n)]
    for family, sum_node in graph.families:
        last = max(position_of[i] for i in (*family, sum_node))
        by_last[last].append((family, sum_node))

    assignment = np.full(n, -1, dtype=np.int64)

    def admissible_at(position: int) -> bool:
        for family, sum_node in by_last[position]:
            if sum(assignment[i] for i in family) != assignment[sum_node]:
                return False
        return True

    def backtrack(position: int) -> bool:
        if position == n:
            return True
        node = order[position]
        choices = (1,) if node == graph.identity_index else (0, 1)
        for choice in choices:
            assignment[node] = choice
            if admissible_at(position) and backtrack(position + 1):
                return True
        assignment[node] = -1
        return False

    return assignment.copy() if backtrack(0) else None

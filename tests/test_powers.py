import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potentia import families, powers
from potentia.errors import CapacityError, DomainError, ResidualError, UnderdeterminedError
from potentia.powers import (
    CONTEXT_NODE_CAP,
    FAMILY_SIZE_CAP,
    PROJECTOR_TOL,
    ISAValuation,
    PowerNode,
    PowersGraph,
    actualization_map,
    build_graph,
    check_isa_axioms,
    find_additive_binary_valuation,
    isa_from_density,
    maximal_contexts,
    orthogonal_families,
    reconstruct_density,
)
from potentia.qlin import max_abs
from potentia.sampling import random_density, random_projector, random_unitary
from potentia.states import DensityOperator, PureVector, density_from_vector

from conftest import projector

ZERO = PowerNode(np.diag([1.0, 0.0]).astype(complex), "|0><0|")
ONE = PowerNode(np.diag([0.0, 1.0]).astype(complex), "|1><1|")
PLUS = PowerNode(projector([1, 1]), "|+><+|")
MINUS = PowerNode(projector([1, -1]), "|-><-|")


def random_graph(rng, dim):
    """A projector family with genuine additivity constraints baked in."""
    nodes = []
    for b in range(2):
        basis = random_unitary(dim, rng)
        for k in range(dim):
            nodes.append(PowerNode(projector(basis[:, k]), f"b{b}k{k}"))
        # A partial sum inside the basis gives the checker a family to verify.
        pair = basis[:, 0:2]
        nodes.append(PowerNode(pair @ pair.conj().T, f"b{b}pair"))
    nodes.append(PowerNode(random_projector(dim, 2, rng), "loose"))
    return build_graph(nodes)


class TestBuildGraph:
    def test_common_eigenbasis_is_complete(self):
        graph = build_graph(families.computational_family(3))
        n = len(graph.nodes)
        assert len(graph.edges) == n * (n - 1) // 2

    def test_incompatible_projectors_share_no_edge(self):
        graph = build_graph([ZERO, PLUS])
        names = {node.label: i for i, node in enumerate(graph.nodes)}
        assert not graph.adjacent(names["|0><0|"], names["|+><+|"])

    def test_complement_triangle(self):
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        graph = build_graph(
            [PowerNode(p, "P"), PowerNode(np.eye(3) - p, "I-P"), PowerNode(np.eye(3), "I")]
        )
        assert len(graph.nodes) == 3
        assert len(graph.edges) == 3

    def test_identity_auto_added(self):
        graph = build_graph([ZERO])
        assert len(graph.nodes) == 2
        assert graph.nodes[graph.identity_index].label == "I"

    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_the_identity_pays_no_idempotence_product(self, monkeypatch, n):
        """The exact identity is idempotent: its admission makes no I @ I; any other power does."""
        calls = []
        monkeypatch.setattr(powers, "max_abs", lambda m: calls.append(m.shape) or max_abs(m))
        assert PowerNode(np.eye(n), "I").dim == n and calls == []
        PowerNode(np.diag([1.0] + [0.0] * (n - 1)), "P")
        assert calls == [(n, n)]

    def test_non_projector_named(self):
        with pytest.raises(DomainError, match="bogus"):
            PowerNode(np.diag([0.5, 0.0]).astype(complex), "bogus")

    def test_repeated_label_rejected(self):
        with pytest.raises(DomainError, match="'P' is repeated"):
            build_graph([PowerNode(ZERO.projector, "P"), PowerNode(ONE.projector, "P")])

    def test_label_of_the_added_identity_counts(self):
        # |0><0| labelled "I" would share its label with the identity build_graph adds.
        with pytest.raises(DomainError, match="'I' is repeated"):
            build_graph([PowerNode(ZERO.projector, "I")])


class TestBornValuation:
    def test_certainty(self):
        graph = build_graph([ZERO, ONE])
        valuation = isa_from_density(density_from_vector(PureVector.basis_state(2, 0)), graph)
        assert valuation.value("|0><0|") == pytest.approx(1.0)
        assert valuation.value("|1><1|") == pytest.approx(0.0, abs=1e-12)

    def test_cross_basis_half(self):
        # Trace oracle: Tr(|0><0| |+><+|) = |<0|+>|^2 = 1/2.
        oracle = float(np.real(np.trace(ZERO.projector @ PLUS.projector)))
        assert oracle == pytest.approx(0.5)
        graph = build_graph([ZERO, PLUS])
        valuation = isa_from_density(density_from_vector(PureVector.basis_state(2, 0)), graph)
        assert valuation.value("|+><+|") == pytest.approx(oracle)

    def test_maximally_mixed(self):
        graph = build_graph([ZERO, PLUS, MINUS])
        valuation = isa_from_density(DensityOperator.maximally_mixed(2), graph)
        for label in ("|0><0|", "|+><+|", "|-><-|"):
            assert valuation.value(label) == pytest.approx(0.5)


class TestAxioms:
    def test_born_valuations_always_pass(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            graph = random_graph(rng, dim)
            rho = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
            report = check_isa_axioms(isa_from_density(rho, graph))
            assert report.ok

    def test_identity_violation_flagged(self):
        graph = build_graph([ZERO, ONE])
        values = np.array([0.5, 0.5, 0.9])
        report = check_isa_axioms(ISAValuation(graph, values))
        assert not report.identity_ok
        assert report.identity_value == pytest.approx(0.9)

    def test_additivity_violation_flagged(self):
        graph = build_graph([ZERO, ONE])  # identity appended at index 2
        report = check_isa_axioms(ISAValuation(graph, np.array([0.6, 0.6, 1.0])))
        assert report.identity_ok
        assert len(report.additivity_violations) == 1
        violation = report.additivity_violations[0]
        assert violation.member_total == pytest.approx(1.2)
        assert violation.sum_value == pytest.approx(1.0)

    def test_family_enumeration_sees_partial_sums(self):
        p0 = np.diag([1.0, 0, 0]).astype(complex)
        p1 = np.diag([0, 1.0, 0]).astype(complex)
        p01 = np.diag([1.0, 1.0, 0]).astype(complex)
        graph = build_graph(
            [PowerNode(p0, "P0"), PowerNode(p1, "P1"), PowerNode(p01, "P0+P1")]
        )
        labels = [node.label for node in graph.nodes]
        pairs = {
            (tuple(labels[i] for i in family), labels[target])
            for family, target in orthogonal_families(graph)
        }
        assert (("P0", "P1"), "P0+P1") in pairs


def families_by_exhaustion(graph):
    """Subset-check oracle: every pairwise orthogonal node set of size
    2..FAMILY_SIZE_CAP, in lexicographic order, with the first node that
    equals its sum."""
    mats = [node.projector for node in graph.nodes]
    n = len(mats)
    found = []
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(2, FAMILY_SIZE_CAP + 1)
    )
    for family in sorted(subsets):
        if all(max_abs(mats[i] @ mats[j]) <= PROJECTOR_TOL for i, j in itertools.combinations(family, 2)):
            total = sum(mats[i] for i in family)
            target = next((k for k in range(n) if max_abs(total - mats[k]) <= PROJECTOR_TOL), None)
            if target is not None:
                found.append((family, target))
    return found


def _nudged(mat, rng, mode, scale):
    """``mat`` rotated by a unitary within ``scale`` of the identity (still a
    projector), or shifted by ``scale`` times the identity (idempotent within
    ``scale``), so that orthogonality and sums land on either side of
    PROJECTOR_TOL."""
    if mode == "shift":
        return mat + scale * np.eye(len(mat))
    noise = rng.standard_normal(mat.shape) + 1j * rng.standard_normal(mat.shape)
    values, vectors = np.linalg.eigh((noise + noise.conj().T) / 2)
    rotation = (vectors * np.exp(1j * scale * values / np.max(np.abs(values)))) @ vectors.conj().T
    return rotation @ mat @ rotation.conj().T


@st.composite
def family_graphs(draw):
    """Graphs of Haar bases and partial sums of them, some nodes nudged to
    within a few PROJECTOR_TOL of their exact values."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 2))):
        basis = random_unitary(dim, rng)
        mats += [projector(basis[:, k]) for k in range(dim)]
        for _ in range(draw(st.integers(0, 2))):
            kept = basis[:, sorted(rng.choice(dim, size=int(rng.integers(2, dim + 1)), replace=False))]
            mats.append(kept @ kept.conj().T)
    nodes = []
    for k, mat in enumerate(mats):
        mode = draw(st.sampled_from(["exact", "rotate", "shift"]))
        if mode == "rotate":
            mat = _nudged(mat, rng, mode, draw(st.floats(0.1, 4.0)) * PROJECTOR_TOL)
        elif mode == "shift":
            mat = _nudged(mat, rng, mode, draw(st.floats(0.0, 0.99)) * PROJECTOR_TOL)
        nodes.append(PowerNode(mat, f"P{k}"))
    return build_graph(nodes)


class TestOrthogonalFamilies:
    @settings(max_examples=150, deadline=None)
    @given(family_graphs())
    def test_matches_exhaustive_search(self, graph):
        assert orthogonal_families(graph) == families_by_exhaustion(graph)

    @pytest.mark.parametrize(
        "family",
        [
            families.computational_family(4),
            families.qubit_mub_family(),
            families.tomography_family(3),
            families.ks18_family(),
        ],
        ids=["computational4", "mub", "tomography3", "ks18"],
    )
    def test_bundled_families_match_exhaustive_search(self, family):
        graph = build_graph(family)
        assert orthogonal_families(graph) == families_by_exhaustion(graph)

    def test_sum_node_is_the_first_match(self):
        # Two nodes equal P0 + P1 within PROJECTOR_TOL; the lower index is the sum node.
        p0, p1 = ZERO.projector, ONE.projector
        nodes = [PowerNode(p0, "P0"), PowerNode(p1, "P1"), PowerNode(np.eye(2), "I")]
        nodes.append(PowerNode(np.eye(2) + 0.5 * PROJECTOR_TOL * np.eye(2), "I'"))
        assert orthogonal_families(build_graph(nodes)) == [((0, 1), 2)]

    def test_graph_at_the_node_cap(self):
        graph = build_graph(families.computational_family(CONTEXT_NODE_CAP - 1))
        assert len(graph.nodes) == CONTEXT_NODE_CAP
        # 23 mutually orthogonal rank-one nodes: no family of at most 6 sums to a node.
        assert orthogonal_families(graph) == []


def cliques_by_exhaustion(graph):
    """Subset-check oracle: maximal cliques by brute force over all 2^n node
    sets, each set an integer bitmask (bit i for node i)."""
    n = len(graph.nodes)
    masks = np.arange(1 << n, dtype=np.int64)
    # foreign[v]: the nodes other than v that v does not commute with.
    foreign = [
        sum(1 << u for u in range(n) if u != v and not graph.adjacent(u, v)) for v in range(n)
    ]
    clique = np.ones(1 << n, dtype=bool)
    extendable = np.zeros(1 << n, dtype=bool)
    for v in range(n):
        member = (masks >> v) & 1 == 1
        compatible = masks & foreign[v] == 0
        clique &= ~member | compatible
        extendable |= ~member & compatible
    return sorted(
        ({i for i in range(n) if mask >> i & 1} for mask in np.flatnonzero(clique & ~extendable)),
        key=sorted,
    )


@st.composite
def small_graphs(draw):
    """A PowersGraph over at most 12 nodes with arbitrary edges; clique
    enumeration reads only the node count and the edge set."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = frozenset(pair for pair, kept in zip(pairs, keep) if kept)
    return PowersGraph((ZERO,) * n, edges, 2, 0)


class TestContexts:
    def test_complete_graph_single_context(self):
        graph = build_graph(families.computational_family(3))
        contexts = maximal_contexts(graph)
        assert len(contexts) == 1
        assert contexts[0].node_indices == frozenset(range(len(graph.nodes)))

    def test_two_basis_family_has_two_contexts(self):
        graph = build_graph([ZERO, ONE, PLUS, MINUS, PowerNode(np.eye(2), "I")])
        expected = cliques_by_exhaustion(graph)
        assert len(expected) == 2
        contexts = maximal_contexts(graph)
        assert sorted((set(c.node_indices) for c in contexts), key=sorted) == expected

    def test_edgeless_rank1_family(self, rng):
        # Three mutually non-commuting qubit projectors plus the identity.
        nodes = [
            PowerNode(projector([1, 0]), "a"),
            PowerNode(projector([1, 1]), "b"),
            PowerNode(projector([1, 1j]), "c"),
        ]
        graph = build_graph(nodes)
        contexts = maximal_contexts(graph)
        assert len(contexts) == 3
        for context in contexts:
            assert graph.identity_index in context.node_indices
            assert len(context.node_indices) == 2

    def test_every_node_appears(self, rng):
        graph = random_graph(rng, 3)
        covered = set()
        for context in maximal_contexts(graph):
            assert graph.is_context(context.node_indices)
            covered |= context.node_indices
        assert covered == set(range(len(graph.nodes)))

    def test_node_cap(self):
        nodes = [
            PowerNode(projector([1, k]), f"P{k}") for k in range(25)
        ]
        with pytest.raises(CapacityError):
            maximal_contexts(build_graph(nodes))

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_matches_exhaustive_search(self, graph):
        contexts = maximal_contexts(graph)
        assert [set(c.node_indices) for c in contexts] == cliques_by_exhaustion(graph)

    @pytest.mark.parametrize(
        "family",
        [
            families.computational_family(4),
            families.qubit_two_bases(),
            families.qubit_mub_family(),
            families.tomography_family(4),
            families.ks18_family(),
        ],
        ids=["computational4", "two_bases", "mub", "tomography4", "ks18"],
    )
    def test_bundled_families_match_exhaustive_search(self, family):
        graph = build_graph(family)
        contexts = maximal_contexts(graph)
        assert [set(c.node_indices) for c in contexts] == cliques_by_exhaustion(graph)


class TestActualization:
    def test_certainty_pattern(self):
        graph = build_graph([ZERO, ONE])
        valuation = isa_from_density(density_from_vector(PureVector.basis_state(2, 0)), graph)
        bits = actualization_map(valuation)
        assert bits[0] == 1 and bits[1] == 0

    def test_maximally_mixed_all_on(self):
        graph = build_graph([ZERO, ONE, PLUS])
        valuation = isa_from_density(DensityOperator.maximally_mixed(2), graph)
        assert actualization_map(valuation).tolist() == [1, 1, 1, 1]

    def test_half_intensity_is_existent(self):
        graph = build_graph([PLUS])
        valuation = isa_from_density(density_from_vector(PureVector.basis_state(2, 0)), graph)
        assert actualization_map(valuation)[0] == 1

    def test_depends_only_on_zero_set(self, rng):
        graph = build_graph([ZERO, ONE, PLUS, MINUS])
        valuation = isa_from_density(density_from_vector(PureVector.basis_state(2, 0)), graph)
        # Monotone reparameterization fixing zero: t -> sqrt(t)/2.
        warped = ISAValuation(graph, np.sqrt(np.array(valuation.potentia)) / 2)
        assert np.array_equal(actualization_map(valuation), actualization_map(warped))


class TestReconstruction:
    def test_roundtrip_diagonal(self):
        rho = DensityOperator(np.diag([0.7, 0.3]).astype(complex))
        graph = build_graph(families.tomography_family(2))
        back = reconstruct_density(isa_from_density(rho, graph))
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-10

    def test_roundtrip_maximally_mixed(self):
        rho = DensityOperator.maximally_mixed(2)
        graph = build_graph(families.tomography_family(2))
        back = reconstruct_density(isa_from_density(rho, graph))
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-10

    def test_roundtrip_random(self, rng):
        for dim in (2, 3, 4):
            graph = build_graph(families.tomography_family(dim))
            for _ in range(20):
                rho = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
                back = reconstruct_density(isa_from_density(rho, graph))
                assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-7

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_roundtrip_tomographic_valuations(self, dim, rank, seed):
        rho = random_density(dim, np.random.default_rng(seed), rank=min(rank, dim))
        graph = build_graph(families.tomography_family(dim))
        back = reconstruct_density(isa_from_density(rho, graph))
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-9

    def test_underdetermined_reports_rank(self):
        graph = build_graph([ZERO])
        valuation = isa_from_density(DensityOperator.maximally_mixed(2), graph)
        with pytest.raises(UnderdeterminedError) as excinfo:
            reconstruct_density(valuation)
        assert excinfo.value.rank == 2
        assert excinfo.value.needed == 4

    def test_inconsistent_valuation_rejected(self):
        graph = build_graph(families.tomography_family(2))
        valuation = isa_from_density(DensityOperator.maximally_mixed(2), graph)
        corrupted = np.array(valuation.potentia)
        corrupted[0] = 1.0  # |0><0| and |1><1| both certain: impossible
        corrupted[1] = 1.0
        with pytest.raises(ResidualError):
            reconstruct_density(ISAValuation(graph, corrupted))


class TestBundledFamilies:
    def test_mub_family_under_maximal_mixture(self):
        graph = build_graph(families.qubit_mub_family())
        valuation = isa_from_density(DensityOperator.maximally_mixed(2), graph)
        for node, value in zip(graph.nodes, valuation.potentia):
            if node.label != "I":
                assert value == pytest.approx(0.5)
        assert check_isa_axioms(valuation).ok
        # One context per unbiased basis: {Z, X, Y} plus the identity in each.
        assert len(maximal_contexts(graph)) == 3

    def test_mub_family_is_binary_colorable(self):
        graph = build_graph(families.qubit_mub_family())
        assert find_additive_binary_valuation(graph) is not None

    @pytest.mark.parametrize("ray", [*families.KS18_RAYS, (1, 1j), (1, -1j), (0, 1, 1j)])
    def test_ray_projector_is_the_outer_product_of_the_normalized_ray(self, ray):
        assert np.array_equal(families.ray_projector(ray, "r").projector, projector(ray))

    def test_zero_ray_is_refused_without_warning(self):
        with pytest.raises(DomainError, match=r"^cannot normalize a vector of norm 0\.0$"):
            families.ray_projector((0, 0), "z")


class TestBinaryContrast:
    def test_uncolorable_family_has_no_binary_valuation(self):
        graph = build_graph(families.ks18_family())
        assert find_additive_binary_valuation(graph) is None

    def test_single_basis_is_binary_colorable(self):
        graph = build_graph(families.computational_family(3))
        assignment = find_additive_binary_valuation(graph)
        assert assignment is not None
        report = check_isa_axioms(ISAValuation(graph, assignment.astype(float)))
        assert report.ok

    def test_intensive_valuation_passes_on_the_same_family(self, rng):
        graph = build_graph(families.ks18_family())
        for _ in range(5):
            rho = random_density(4, rng)
            assert check_isa_axioms(isa_from_density(rho, graph)).ok

    def test_checks_share_one_family_enumeration(self, monkeypatch, rng):
        calls = []
        original = powers.orthogonal_families

        def counted(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(powers, "orthogonal_families", counted)
        graph = build_graph(families.ks18_family())
        assert check_isa_axioms(isa_from_density(random_density(4, rng), graph)).ok
        assert find_additive_binary_valuation(graph) is None
        assert calls == [graph]

    def test_node_cap(self):
        n = powers.BINARY_SEARCH_NODE_CAP + 1
        graph = PowersGraph((ZERO,) * n, frozenset(), 2, 0)
        with pytest.raises(CapacityError, match=f"^binary valuation search node count {n} exceeds the cap of {n - 1}$"):
            find_additive_binary_valuation(graph)

    def test_tetrad_bookkeeping(self):
        """The parity argument of ``KS18_TETRADS``: each of the nine tetrads is four mutually
        orthogonal rays of ``ks18_family()`` whose projectors sum to I, and every ray lies in
        exactly two tetrads, so no binary valuation marks exactly one ray per tetrad."""
        rays = np.array(families.KS18_RAYS, dtype=float)
        projectors = [node.projector for node in families.ks18_family()]
        assert len(families.KS18_TETRADS) == 9 and len(projectors) == len(rays) == 18
        for tetrad in families.KS18_TETRADS:
            assert len(set(tetrad)) == 4
            for a, b in itertools.combinations(tetrad, 2):
                assert abs(np.dot(rays[a], rays[b])) == 0
                assert np.max(np.abs(projectors[a] @ projectors[b])) <= 1e-14
            assert np.max(np.abs(sum(projectors[k] for k in tetrad) - np.eye(4))) <= 1e-14
        counts = np.bincount(np.ravel(families.KS18_TETRADS), minlength=18)
        assert counts.tolist() == [2] * 18

import copy
import gc
import math
import pickle
import sys
import threading
import tracemalloc
import weakref
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from potentia import qlin
from potentia.arrangements import (
    EQUIVALENCE_TOL,
    ChainLink,
    ChainReport,
    DetectorBasis,
    ExperimentalArrangement,
    Factorization,
    Provenance,
    _stepped,
    change_detectors,
    complexity_chain_check,
    ea_equivalent,
    make_ea,
    multiscreen_effect,
    power_intensity,
    refactor,
    restrict,
)
from potentia.bell import chsh_max, correlation_matrix
from potentia.errors import CapacityError, DegenerateConditioningError, DomainError, ShapeError
from potentia.locc import CPMap, QuantumInstrument, apply_instrument
from potentia.powers import PowerNode, build_graph, isa_from_density
from potentia.qlin import dagger, partial_trace
from potentia.sampling import random_density, random_unitary
from potentia.states import (
    EIGENVALUE_FLOOR,
    DensityOperator,
    PureVector,
    _conditioned,
    bloch_from_density,
    density_from_vector,
)

from conftest import projector

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
TWO_SCREENS = Factorization((2, 2))


def worked_state() -> DensityOperator:
    """Half-half mixture of the (1,1) and (2,2) detector pairs."""
    return DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))


def worked_ea() -> ExperimentalArrangement:
    return make_ea(worked_state(), TWO_SCREENS)


class TestMakeEa:
    def test_worked_intensities(self):
        assert np.allclose(worked_ea().intensities(), [0.5, 0.0, 0.0, 0.5])

    def test_maximally_mixed(self):
        ea = make_ea(DensityOperator.maximally_mixed(4), TWO_SCREENS)
        assert np.allclose(ea.intensities(), [0.25] * 4)

    def test_pure_product(self):
        rho = density_from_vector(PureVector.normalized([1, 0, 0, 0]))
        ea = make_ea(rho, TWO_SCREENS)
        assert power_intensity(ea, (0, 0)) == pytest.approx(1.0)

    def test_dim_inconsistency(self):
        with pytest.raises(ShapeError):
            make_ea(DensityOperator.maximally_mixed(4), Factorization((2, 3)))

    def test_non_orthonormal_basis(self):
        with pytest.raises(DomainError):
            DetectorBasis((np.ones((2, 2), dtype=complex), np.eye(2, dtype=complex)))


class TestFactorization:
    def test_degree_above_dimension_cap(self):
        with pytest.raises(CapacityError):
            Factorization((4097,))
        with pytest.raises(CapacityError):
            Factorization((64, 65))

    def test_degree_at_dimension_cap(self):
        assert Factorization((64, 64)).degree == 4096

    def test_multi_index_inverts_flat_index(self):
        f = Factorization((2, 3, 4))
        for multi in np.ndindex(2, 3, 4):
            assert f.multi_index(f.flat_index(multi)) == multi

    @pytest.mark.parametrize("dims", [(2.5, 2), (2.0, 2), ("3", 2), (True, 4), (2, np.float64(3))])
    def test_non_integral_dims_rejected(self, dims):
        with pytest.raises(DomainError):
            Factorization(dims)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ea: ea.factorization.flat_index((1.9, 0)),
            lambda ea: ea.factorization.flat_index((True, 0)),
            lambda ea: ea.factorization.flat_index(("1", 0)),
            lambda ea: ea.factorization.multi_index(1.0),
            lambda ea: power_intensity(ea, (0.7, 1)),
            lambda ea: multiscreen_effect(ea, (0, np.float64(1))),
            lambda ea: restrict(ea, [(0.5,), (0, 1)]),
            lambda ea: change_detectors(ea, 0.0, HADAMARD),
        ],
        ids=["flat_index", "flat_index_bool", "flat_index_str", "multi_index", "power_intensity",
             "multiscreen_effect", "restrict", "change_detectors_screen"],
    )
    def test_non_integral_indices_rejected(self, call):
        with pytest.raises(IndexError):
            call(worked_ea())

    def test_numpy_integers_accepted(self):
        f = Factorization((np.int64(2), np.int32(3)))
        assert f.screen_dims == (2, 3) and all(type(d) is int for d in f.screen_dims)
        assert f.flat_index((np.int64(1), np.uint8(2))) == 5
        assert f.multi_index(np.int64(5)) == (1, 2)


class TestPublicConstructor:
    """The public constructor checks everything; derived arrangements skip
    only what holds by construction."""

    def test_rejects_non_isometric_basis(self):
        with pytest.raises(DomainError, match=r"^basis matrix max Gram error 3\.0 exceeds 1e-09$"):
            ExperimentalArrangement(worked_state().matrix, TWO_SCREENS, 2 * np.eye(4))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            ExperimentalArrangement(np.eye(2) / 2, TWO_SCREENS, np.eye(4))
        with pytest.raises(ShapeError):
            ExperimentalArrangement(worked_state().matrix, TWO_SCREENS, np.eye(2))

    def test_rejects_intensities_outside_unit_interval(self):
        # The state check rejects both: no intensity check of its own is needed.
        floor = r"^density operator negated least eigenvalue 0\.5 exceeds 1e-07$"
        with pytest.raises(DomainError, match=floor):
            ExperimentalArrangement(np.diag([1.5, -0.5, 0.0, 0.0]), TWO_SCREENS, np.eye(4))
        with pytest.raises(DomainError, match=r"^density operator \|trace - 1\| 0\.5 exceeds 1e-09$"):
            ExperimentalArrangement(np.diag([0.5, 0.0, 0.0, 0.0]), TWO_SCREENS, np.eye(4))

    def test_rejects_non_state_matrix(self):
        # Diagonal in [0, 1] and unit trace, but eigenvalue -0.4: no state.
        floor = r"^density operator negated least eigenvalue 0\.4\d* exceeds 1e-07$"
        with pytest.raises(DomainError, match=floor):
            ExperimentalArrangement(
                np.array([[0.5, 0.9], [0.9, 0.5]]), Factorization((2,)), np.eye(2)
            )

    def test_detector_change_accepts_what_the_floor_accepts(self):
        # A state whose low eigenvalue -5e-8 passes EIGENVALUE_FLOOR; a Hadamard
        # puts it on the diagonal.  The same state in new detectors is accepted.
        off = 0.5 + 5e-8
        ea = ExperimentalArrangement(
            np.array([[0.5, off], [off, 0.5]]), Factorization((2,)), np.eye(2)
        )
        changed = change_detectors(ea, 0, HADAMARD)
        assert np.real(changed.matrix[1, 1]) < 0
        assert np.all((changed.intensities() >= 0) & (changed.intensities() <= 1))
        assert ea_equivalent(ea, changed)

    def test_derived_arrangements_are_read_only(self):
        changed = change_detectors(worked_ea(), 0, HADAMARD)
        for arr in (changed.matrix, changed.basis_matrix):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


class TestChangeDetectors:
    def test_worked_example_quarters(self):
        changed = change_detectors(worked_ea(), 0, HADAMARD)
        assert np.allclose(changed.intensities(), [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_off_diagonal_structure(self):
        # Direct conjugation oracle: rho' = (U (x) I)^dag rho (U (x) I).
        rotation = np.kron(HADAMARD, np.eye(2))
        oracle = rotation.conj().T @ worked_state().matrix @ rotation
        changed = change_detectors(worked_ea(), 0, HADAMARD)
        assert np.max(np.abs(changed.matrix - oracle)) <= 1e-12
        # Hermitian cross terms of +1/4 between (up,1)/(down,1) and -1/4
        # between (up,2)/(down,2); flat order is (u1, u2, d1, d2).
        assert oracle[0, 2] == pytest.approx(0.25)
        assert oracle[2, 0] == pytest.approx(0.25)
        assert oracle[1, 3] == pytest.approx(-0.25)
        assert oracle[3, 1] == pytest.approx(-0.25)

    def test_identity_change_is_noop(self, monkeypatch):
        """As in ``make_ea``, an exactly-identity basis is a step with no factor: forming the
        change applies none, and the drift does not move."""
        ea = worked_ea()
        applied = count_kron_factors(monkeypatch)
        same = change_detectors(ea, 1, np.eye(2, dtype=complex))
        assert same.steps == ea.steps + (((2, 2), {}),) and same.provenance == ea.provenance
        assert np.array_equal(same.matrix, ea.matrix) and applied == []
        assert np.array_equal(same.basis_matrix, ea.basis_matrix)


class TestRefactor:
    def test_diagonal_dim6_relabeling(self):
        rho = DensityOperator(np.diag([0.1, 0.15, 0.2, 0.25, 0.05, 0.25]).astype(complex))
        f23 = Factorization((2, 3))
        ea = make_ea(rho, f23)
        flipped = refactor(ea, Factorization((3, 2)))
        assert np.array_equal(flipped.intensities(), ea.intensities())
        # Index-map oracle: flat index is preserved, tuples reinterpreted.
        assert power_intensity(ea, (1, 2)) == pytest.approx(0.25)
        assert power_intensity(flipped, (2, 1)) == pytest.approx(0.25)

    def test_single_screen_flattening(self):
        ea = worked_ea()
        flat = refactor(ea, Factorization((4,)))
        assert np.allclose(flat.intensities(), [0.5, 0.0, 0.0, 0.5])

    def test_worked_ea_to_single_screen(self):
        flat = refactor(worked_ea(), Factorization((4,)))
        for index, expected in enumerate((0.5, 0.0, 0.0, 0.5)):
            assert power_intensity(flat, (index,)) == pytest.approx(expected)

    def test_degree_mismatch(self):
        with pytest.raises(ShapeError):
            refactor(worked_ea(), Factorization((2, 3)))

    def test_shares_the_read_only_matrix(self):
        ea = worked_ea()
        flat = refactor(ea, Factorization((4,)))
        assert flat.matrix is ea.matrix and not flat.matrix.flags.writeable

    def test_roundtrip(self, rng):
        rho = random_density(6, rng)
        f23 = Factorization((2, 3))
        basis = DetectorBasis((random_unitary(2, rng), random_unitary(3, rng)))
        ea = make_ea(rho, f23, basis)
        back = refactor(refactor(ea, Factorization((3, 2))), f23)
        assert np.array_equal(back.matrix, ea.matrix)
        assert back.factorization == ea.factorization


class TestEquivalence:
    def test_detector_change_is_equivalent(self):
        ea = worked_ea()
        assert ea_equivalent(ea, change_detectors(ea, 0, HADAMARD))

    def test_different_states_are_not(self):
        uniform = make_ea(DensityOperator.maximally_mixed(4), TWO_SCREENS)
        assert not ea_equivalent(worked_ea(), uniform)

    def test_refactor_is_equivalent(self):
        ea = worked_ea()
        assert ea_equivalent(ea, refactor(ea, Factorization((4,))))

    def test_matrices_are_left_bit_identical(self, rng):
        """The difference is formed in a freshly unwound suffix, never in an arrangement's
        matrix: the same arrangement, two empty suffixes, and a fresh suffix on either side.
        A deep copy or an unpickled arrangement has a writeable matrix, and a suffix of
        identity steps unwinds to the matrix itself; neither is written either."""
        dims = (2, 3)
        rho = random_density(6, rng)
        basis = DetectorBasis(tuple(random_unitary(d, rng) for d in dims))
        ea = make_ea(rho, Factorization(dims), basis)
        other = make_ea(random_density(6, rng), Factorization(dims), basis)
        changed = change_detectors(ea, 1, random_unitary(3, rng))
        cases = [(ea, ea, True), (ea, other, False), (ea, changed, True), (changed, ea, True)]
        cases.append((changed, change_detectors(ea, 0, random_unitary(2, rng)), True))
        for ea1, ea2, expected in cases:
            before = ea1.matrix.tobytes(), ea2.matrix.tobytes()
            assert ea_equivalent(ea1, ea2) is expected
            assert (ea1.matrix.tobytes(), ea2.matrix.tobytes()) == before
            assert not ea1.matrix.flags.writeable and not ea2.matrix.flags.writeable

        computational = make_ea(rho, Factorization(dims))
        for copied in (copy.deepcopy(ea), pickle.loads(pickle.dumps(computational))):
            assert copied.matrix.flags.writeable
            fresh = change_detectors(copied, 1, random_unitary(3, rng))
            for ea1, ea2 in [(copied, copied), (copied, fresh), (fresh, copied), (copied, ea)]:
                before = ea1.matrix.tobytes(), ea2.matrix.tobytes()
                assert ea_equivalent(ea1, ea2) is True
                assert (ea1.matrix.tobytes(), ea2.matrix.tobytes()) == before


class TestRestrict:
    def test_product_state_conditioning(self, rng):
        rho_a = random_density(2, rng)
        rho = DensityOperator(np.kron(rho_a.matrix, np.diag([1.0, 0.0])))
        ea = make_ea(rho, TWO_SCREENS)
        conditioned = restrict(ea, [(0, 1), (0,)])
        assert conditioned.factorization.screen_dims == (2, 1)
        assert np.max(np.abs(conditioned.matrix - rho_a.matrix)) <= 1e-12

    def test_maximally_mixed_reduces_to_qubit(self):
        ea = make_ea(DensityOperator.maximally_mixed(4), TWO_SCREENS)
        conditioned = restrict(ea, [(0, 1), (1,)])
        assert np.allclose(conditioned.matrix, np.eye(2) / 2)

    def test_worked_ea_conditions_to_certainty(self):
        # P rho P / Tr oracle on the worked state, keeping screen-1 detector 1.
        keep = np.diag([1.0, 1.0, 0.0, 0.0])
        projected = keep @ worked_state().matrix @ keep
        oracle = projected / np.trace(projected)
        assert oracle[0, 0] == pytest.approx(1.0)
        conditioned = restrict(worked_ea(), [(0,), (0, 1)])
        assert np.allclose(conditioned.matrix, oracle[:2, :2])
        assert power_intensity(conditioned, (0, 0)) == pytest.approx(1.0)

    def test_zero_overlap_rejected(self):
        ea = worked_ea()
        with pytest.raises(DegenerateConditioningError):
            restrict(ea, [(0,), (1,)])  # the (1,2) detector never fires

    def test_conditioned_negativity_past_the_floor_rejected(self):
        # An accepted state; conditioning divides its -9e-8 by the kept intensity 9.1e-7.
        rho = DensityOperator(np.diag([1 - 1e-6 + 9e-8, -9e-8, 0.0, 1e-6]))
        ea = make_ea(rho, TWO_SCREENS)
        expected = (
            r"^probability 9\.100e-07; conditioned, "
            r"density operator negated least eigenvalue 0\.0989\d* exceeds 1e-07$"
        )
        with pytest.raises(DegenerateConditioningError, match=expected):
            restrict(ea, [(0, 1), (1,)])

    def test_sequential_matches_combined(self, rng):
        rho = random_density(8, rng)
        f = Factorization((2, 2, 2))
        basis = DetectorBasis(tuple(random_unitary(2, rng) for _ in range(3)))
        ea = make_ea(rho, f, basis)
        combined = restrict(ea, [(0,), (0, 1), (1,)])
        first = restrict(ea, [(0,), (0, 1), (0, 1)])
        sequential = restrict(first, [(0,), (0, 1), (1,)])
        assert np.max(np.abs(sequential.matrix - combined.matrix)) <= 1e-10


class TestIntensities:
    def test_worked_values(self):
        ea = worked_ea()
        assert power_intensity(ea, (0, 0)) == pytest.approx(0.5)
        changed = change_detectors(ea, 0, HADAMARD)
        assert power_intensity(changed, (0, 0)) == pytest.approx(0.25)

    def test_sum_rule(self, rng):
        rho = random_density(6, rng)
        f = Factorization((2, 3))
        ea = make_ea(rho, f, DetectorBasis((random_unitary(2, rng), random_unitary(3, rng))))
        assert float(np.sum(ea.intensities())) == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            power_intensity(worked_ea(), (0, 2))


class TestMultiscreen:
    def test_worked_state_marginals(self):
        assert multiscreen_effect(worked_ea(), (0, 0)) == pytest.approx([0.5, 0.5])

    def test_product_state_certainty(self):
        rho = density_from_vector(PureVector.normalized([1, 0, 0, 0]))
        ea = make_ea(rho, TWO_SCREENS)
        assert multiscreen_effect(ea, (0, 0)) == pytest.approx([1.0, 1.0])

    def test_uniform_marginals(self):
        ea = make_ea(DensityOperator.maximally_mixed(4), TWO_SCREENS)
        assert multiscreen_effect(ea, (1, 0)) == pytest.approx([0.5, 0.5])

    def test_joint_vs_marginal_products(self, rng):
        # One two-screen arrangement is not two one-screen arrangements:
        # on a correlated state the joint intensities are not marginal
        # products, while on a product state they are.
        correlated = worked_ea()
        joint = power_intensity(correlated, (0, 0))
        marginals = multiscreen_effect(correlated, (0, 0))
        assert abs(joint - marginals[0] * marginals[1]) > 0.2

        rho = DensityOperator(np.kron(random_density(2, rng).matrix, random_density(2, rng).matrix))
        ea = make_ea(rho, TWO_SCREENS)
        for index in np.ndindex(2, 2):
            joint = power_intensity(ea, index)
            marginals = multiscreen_effect(ea, index)
            assert joint == pytest.approx(marginals[0] * marginals[1], abs=1e-9)


class TestChain:
    def test_worked_chain(self):
        ea4 = worked_ea()
        ea2 = restrict(ea4, [(0,), (0, 1)])
        ea1 = restrict(ea2, [(0,), (0,)])
        report = complexity_chain_check(
            [ea1, ea2, ea4],
            [ChainLink(((0,), (0,))), ChainLink(((0,), (0, 1)))],
        )
        assert isinstance(report, ChainReport) and report.valid
        assert report.degrees == (1, 2, 4)

    def test_single_arrangement(self):
        report = complexity_chain_check([worked_ea()])
        assert report.valid
        assert report.degrees == (4,)

    def test_unrelated_chain_names_link(self):
        small = make_ea(DensityOperator(np.diag([0.9, 0.1]).astype(complex)), Factorization((1, 2)))
        report = complexity_chain_check(
            [small, worked_ea()], [ChainLink(((0,), (0, 1)))]
        )
        assert not report.valid
        assert report.failures[0].link == 0


class TestInvariance:
    def test_basis_changes_preserve_the_state(self, rng):
        factorizations = [(2, 2), (2, 3), (3, 2), (2, 2, 2), (3, 3)]
        for _ in range(60):
            dims = factorizations[int(rng.integers(len(factorizations)))]
            f = Factorization(dims)
            rho = random_density(f.degree, rng)
            ea = make_ea(rho, f, DetectorBasis(tuple(random_unitary(d, rng) for d in dims)))
            screen = int(rng.integers(len(dims)))
            changed = change_detectors(ea, screen, random_unitary(dims[screen], rng))
            assert ea_equivalent(ea, changed, tol=1e-10)
            assert np.max(np.abs(changed.canonical_density().matrix - rho.matrix)) <= 1e-10
            assert float(np.sum(changed.intensities())) == pytest.approx(1.0, abs=1e-9)

    def test_canonical_density_takes_every_state_admitted_at_the_floor(self):
        # A least eigenvalue just above the floor, in Haar detectors on three qubits: the unwound
        # matrix rounds it across the floor for 3 of the 195 states, which a second admission
        # refused.  It is the admitted state in another frame, so every one comes back.
        admitted = 0
        for rho, us in states_admitted_at_the_floor():
            admitted += 1
            ea = make_ea(rho, Factorization((2, 2, 2)), DetectorBasis(us))
            assert np.max(np.abs(ea.canonical_density().matrix - rho.matrix)) <= 1e-12
        assert admitted == 195

    def test_conditioning_at_probability_one_takes_every_state_admitted_at_the_floor(self):
        # The same 195 states, conditioned on an event of probability 1: restrict keeping every
        # detector, in computational and in Haar eigenframe detectors, and an instrument of one
        # identity Kraus operator.  Each forms the state again and solves its spectrum; admitted
        # again with no slack, they refused 1, 2 and 1 of them.
        f, identity = Factorization((2, 2, 2)), QuantumInstrument((CPMap.identity(8),))
        admitted = 0
        for rho, us in states_admitted_at_the_floor():
            admitted += 1
            for basis in (None, DetectorBasis(us)):
                ea = make_ea(rho, f, basis)
                assert np.max(np.abs(restrict(ea, [range(2)] * 3).matrix - ea.matrix)) <= 1e-12
            (outcome,) = apply_instrument(identity, rho)
            assert outcome.probability == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(outcome.post_state.matrix - rho.matrix)) <= 1e-12
        assert admitted == 195


def states_admitted_at_the_floor():
    """``(rho, us)`` for each of seeds 0-198 whose state ``DensityOperator`` admits (195 of them):
    eight Haar product eigenvectors on three qubits, ``us`` their screen factors, with one
    eigenvalue planted at ``EIGENVALUE_FLOOR`` (1 - 1e-9), just above the floor."""
    for seed in range(199):
        rng = np.random.default_rng(seed)
        us = tuple(random_unitary(2, rng) for _ in range(3))
        u = reduce(np.kron, us)
        weights, k = rng.random(8), int(rng.integers(8))
        weights[k] = 0.0
        weights *= (1 - EIGENVALUE_FLOOR * (1 - 1e-9)) / weights.sum()
        weights[k] = EIGENVALUE_FLOOR * (1 - 1e-9)
        try:
            rho = DensityOperator((u * weights) @ u.conj().T)
        except DomainError:
            continue
        yield rho, us


# ---------------------------------------------------------------- properties
# Dense references: every local operation against its Kronecker-product
# definition on layouts of 1-4 screens with dims 2-4.


@st.composite
def layouts(draw):
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    return dims, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def kron_oracle(factors):
    return reduce(np.kron, factors)


def local_rotation(dims, screen, v):
    return kron_oracle([v if k == screen else np.eye(d) for k, d in enumerate(dims)])


def random_layout_ea(dims, rng):
    f = Factorization(dims)
    rho = random_density(f.degree, rng)
    bases = tuple(random_unitary(d, rng) for d in dims)
    return rho, bases, make_ea(rho, f, DetectorBasis(bases))


def random_refactor(dims, rng):
    """Same degree, new layout: merge random adjacent screens, then shuffle."""
    merged = [dims[0]]
    for d in dims[1:]:
        if rng.random() < 0.5:
            merged[-1] *= d
        else:
            merged.append(d)
    return tuple(int(d) for d in rng.permutation(merged))


def random_walk(ea, product, rng, steps, factor=random_unitary):
    """Random detector changes, each by ``factor(d, rng)``, and refactors from ``ea``; yields
    each arrangement with its basis by the kron oracle, ``product`` being the oracle for ``ea``."""
    current = ea
    for _ in range(steps):
        layout_dims = current.factorization.screen_dims
        if rng.random() < 0.3:
            current = refactor(current, Factorization(random_refactor(layout_dims, rng)))
        else:
            screen = int(rng.integers(len(layout_dims)))
            v = factor(layout_dims[screen], rng)
            current = change_detectors(current, screen, v)
            product = product @ local_rotation(layout_dims, screen, v)
        yield current, product


def walked(ea, product, rng, steps, factor=random_unitary):
    """The end of a ``random_walk`` of ``steps`` steps: ``(ea, product)`` for none."""
    for ea, product in random_walk(ea, product, rng, steps, factor):
        pass
    return ea, product


PAIR_KINDS = (
    "identical", "copied", "diverge", "repeat", "same_basis", "two_bases", "dense",
    "unrelated", "swapped", "planted_in", "planted_out",
)
#: Kinds whose two arrangements hold different states.
DIFFERENT_STATES = ("unrelated", "swapped")
#: Kinds whose ambient states differ by ``EQUIVALENCE_TOL`` times this in two entries: the
#: Frobenius norm of the difference is inside ``(tol / 2, 2 N tol]``, where only the lift decides.
PLANTED = {"planted_in": 0.9, "planted_out": 1.1}


def arrangement_pair(dims, rng, kind, shared, tails):
    """Two ``(arrangement, basis by the kron oracle)`` pairs on one layout.

    ``diverge``: a common walk of ``shared`` steps, then walks of ``tails[0]`` and
    ``tails[1]`` steps; ``identical``: one walk on both sides; ``copied``: as
    ``diverge``, with a deep copy of the common walk on the second side; ``repeat``: one
    side changes one screen twice after the common walk; ``same_basis``: two ``make_ea``
    calls on one ``DetectorBasis``, then the two walks; ``two_bases``: as ``same_basis``
    in another Haar basis on the second side, so the histories share no step; ``dense``:
    as ``two_bases``, the first side built by the public constructor from an N x N Haar
    basis; ``unrelated``: as ``same_basis``, with another state on the second side;
    ``swapped``: as ``same_basis``, with diagonal states that differ by swapping two
    entries, so the ambient states differ in two entries only; ``planted_in`` and
    ``planted_out``: as ``two_bases``, with the state moved by ``PLANTED`` in two entries.
    """
    f = Factorization(dims)
    basis = DetectorBasis(tuple(random_unitary(d, rng) for d in dims))
    rho, other_state = random_density(f.degree, rng), random_density(f.degree, rng)
    if kind == "swapped":
        p = rng.dirichlet(np.ones(f.degree))
        swapped = np.concatenate([p[1::-1], p[2:]])
        rho, other_state = (DensityOperator(np.diag(q).astype(complex)) for q in (p, swapped))
    if kind in PLANTED:
        moved = np.zeros((f.degree, f.degree), dtype=complex)
        moved[0, 1] = moved[1, 0] = PLANTED[kind] * EQUIVALENCE_TOL
        other_state = DensityOperator(rho.matrix + moved)
    start = (make_ea(rho, f, basis), kron_oracle(basis.screens))
    if kind in ("two_bases", "dense", *PLANTED):
        other_basis = haar_basis(dims, rng)
        state = other_state if kind in PLANTED else rho
        other = (make_ea(state, f, other_basis), kron_oracle(other_basis.screens))
        if kind == "dense":
            dense = random_unitary(f.degree, rng)
            start = (ExperimentalArrangement(dense.conj().T @ rho.matrix @ dense, f, dense), dense)
    elif kind in ("same_basis", *DIFFERENT_STATES):
        other = (make_ea(rho if kind == "same_basis" else other_state, f, basis), start[1])
    else:
        start = other = walked(*start, rng, shared)
    if kind == "identical":
        return start, start
    if kind == "copied":
        other = (copy.deepcopy(other[0]), other[1])
    if kind == "repeat":
        ea, product = other
        layout = ea.factorization.screen_dims
        screen = int(rng.integers(len(layout)))
        for _ in range(2):
            v = random_unitary(layout[screen], rng)
            ea = change_detectors(ea, screen, v)
            product = product @ local_rotation(layout, screen, v)
        return start, (ea, product)
    return walked(*start, rng, tails[0]), walked(*other, rng, tails[1])


@st.composite
def arrangement_pairs(draw, kinds=PAIR_KINDS):
    dims, rng = draw(layouts())
    kind = draw(st.sampled_from(kinds))
    shared, *tails = (draw(st.integers(0, 3)) for _ in range(3))
    return kind, arrangement_pair(dims, rng, kind, shared, tails)


def near_unitary(d, rng):
    """A Haar unitary with its columns scaled by up to ``1 +- 2.5e-10``: a Gram error of up to
    5e-10, which admission accepts and which is five times ``EQUIVALENCE_TOL``."""
    return random_unitary(d, rng) * (1 + 2.5e-10 * rng.uniform(-1, 1, d))


def oracle_gap(pair) -> float:
    """``max_abs(B1 M1 B1^dag - B2 M2 B2^dag)`` with both bases multiplied out densely."""
    (ea1, b1), (ea2, b2) = pair
    return float(np.max(np.abs(b1 @ ea1.matrix @ b1.conj().T - b2 @ ea2.matrix @ b2.conj().T)))


def fresh_origin(ea):
    """``ea`` with a new origin of its own: no certificate joins it to another arrangement, so
    ``ea_equivalent`` computes its verdict."""
    provenance = ea.provenance._replace(origin=object())
    return qlin._made(ExperimentalArrangement, _cell={"matrix": ea.matrix}, factorization=ea.factorization,
                      steps=ea.steps, provenance=provenance)


def certified(ea1, ea2, tol=EQUIVALENCE_TOL) -> bool:
    p1, p2 = ea1.provenance, ea2.provenance
    return p1.origin is p2.origin and p1.drift + p2.drift <= tol / 2


def held_arrays(obj):
    """Every array an object holds, through tuples, dicts and attributes."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from held_arrays(item)
    elif hasattr(obj, "__dict__"):
        yield from held_arrays(vars(obj))


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


class TestLocalOperationProperties:
    @PROPERTY_SETTINGS
    @given(layouts())
    def test_make_ea_matches_kron_conjugation(self, layout):
        dims, rng = layout
        rho, bases, ea = random_layout_ea(dims, rng)
        product = kron_oracle(bases)
        assert np.max(np.abs(ea.basis_matrix - product)) <= 1e-12
        assert np.max(np.abs(ea.matrix - product.conj().T @ rho.matrix @ product)) <= 1e-12

    @PROPERTY_SETTINGS
    @given(layouts())
    def test_change_detectors_matches_kron_oracle(self, layout):
        dims, rng = layout
        _, _, ea = random_layout_ea(dims, rng)
        screen = int(rng.integers(len(dims)))
        v = random_unitary(dims[screen], rng)
        rotation = local_rotation(dims, screen, v)
        changed = change_detectors(ea, screen, v)
        oracle = rotation.conj().T @ ea.matrix @ rotation
        assert np.max(np.abs(changed.matrix - oracle)) <= 1e-12
        assert np.max(np.abs(changed.basis_matrix - ea.basis_matrix @ rotation)) <= 1e-12

    @PROPERTY_SETTINGS
    @given(layouts(), st.integers(1, 6))
    def test_changes_and_refactors_stay_equivalent(self, layout, steps):
        dims, rng = layout
        rho, bases, ea = random_layout_ea(dims, rng)
        current = ea
        for current, _ in random_walk(ea, kron_oracle(bases), rng, steps):
            assert ea_equivalent(ea, current)
        assert np.max(np.abs(current.canonical_density().matrix - rho.matrix)) <= 1e-10

    @PROPERTY_SETTINGS
    @given(layouts(), st.integers(1, 6))
    def test_basis_matrix_matches_kron_oracle_along_a_walk(self, layout, steps):
        dims, rng = layout
        rho, bases, ea = random_layout_ea(dims, rng)
        for current, product in random_walk(ea, kron_oracle(bases), rng, steps):
            assert np.max(np.abs(current.basis_matrix - product)) <= 1e-12
            assert np.max(np.abs(current.canonical_density().matrix - rho.matrix)) <= 1e-10

    @PROPERTY_SETTINGS
    @given(layouts())
    def test_multiscreen_effect_matches_flat_sum(self, layout):
        dims, rng = layout
        _, _, ea = random_layout_ea(dims, rng)
        index = tuple(int(rng.integers(d)) for d in dims)
        diag = np.real(np.diag(ea.matrix))
        for screen, got in enumerate(multiscreen_effect(ea, index)):
            total = sum(
                diag[flat]
                for flat in range(len(diag))
                if np.unravel_index(flat, dims)[screen] == index[screen]
            )
            assert got == pytest.approx(min(max(total, 0.0), 1.0), abs=1e-12)

    @PROPERTY_SETTINGS
    @given(layouts())
    def test_restrict_matches_ndindex_reference(self, layout):
        dims, rng = layout
        _, _, ea = random_layout_ea(dims, rng)
        kept = [
            sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist())
            for d in dims
        ]
        flat = [
            ea.factorization.flat_index([kept[s][i] for s, i in enumerate(multi)])
            for multi in np.ndindex(*[len(k) for k in kept])
        ]
        block = ea.matrix[np.ix_(flat, flat)]
        restricted = restrict(ea, kept)
        assert restricted.factorization.screen_dims == tuple(len(k) for k in kept)
        assert np.max(np.abs(restricted.matrix - block / np.trace(block).real)) <= 1e-12
        assert np.array_equal(restricted.basis_matrix, np.eye(len(flat)))


class TestEquivalenceOracle:
    """``ea_equivalent`` against its rule, applied densely to the kron oracle's bases."""

    @settings(max_examples=100, deadline=None)  # every kind, with near certainty
    @given(arrangement_pairs())
    def test_matches_dense_oracle(self, drawn):
        """Each verdict, either way round, is the dense rule's, and neither matrix is written;
        also with ea2 given a new origin, so that no certificate decides."""
        kind, pair = drawn
        (ea1, b1), (ea2, b2) = pair
        expected = oracle_gap(pair) <= EQUIVALENCE_TOL
        assert expected == (kind not in (*DIFFERENT_STATES, "planted_out"))
        if kind in PLANTED:
            d = b1 @ ea1.matrix @ b1.conj().T - b2 @ ea2.matrix @ b2.conj().T
            assert EQUIVALENCE_TOL / 2 < np.linalg.norm(d) <= 2 * ea1.degree * EQUIVALENCE_TOL
        before = ea1.matrix.tobytes(), ea2.matrix.tobytes()
        for other in (ea2, fresh_origin(ea2)):
            assert ea_equivalent(ea1, other) == expected
            assert ea_equivalent(other, ea1) == expected
        assert (ea1.matrix.tobytes(), ea2.matrix.tobytes()) == before

    @PROPERTY_SETTINGS
    @given(layouts(), st.booleans())
    def test_near_unitary_factors_either_way_round(self, layout, two_bases):
        """Factors are unitary only within ``ISOMETRY_TOL``, ten times ``EQUIVALENCE_TOL``, so
        a factor's dagger is not its inverse at the scale of ``tol``.  Either way round, the
        verdict is the dense rule's: one detector change after a shared ``make_ea``, or two
        ``make_ea`` calls that share no step."""
        dims, rng = layout
        f = Factorization(dims)
        rho = random_density(f.degree, rng)
        bases = [tuple(near_unitary(d, rng) for d in dims) for _ in range(2)]
        start = (make_ea(rho, f, DetectorBasis(bases[0])), kron_oracle(bases[0]))
        if two_bases:
            other = (make_ea(rho, f, DetectorBasis(bases[1])), kron_oracle(bases[1]))
        else:
            screen = int(rng.integers(len(dims)))
            w = near_unitary(dims[screen], rng)
            other = (change_detectors(start[0], screen, w), start[1] @ local_rotation(dims, screen, w))
        expected = oracle_gap((start, other)) <= EQUIVALENCE_TOL
        assert ea_equivalent(start[0], other[0]) == expected
        assert ea_equivalent(other[0], start[0]) == expected

    def test_rounded_hadamard_either_way_round(self):
        """A Hadamard rounded to nine digits has a Gram error of 5.3e-10 and is admitted.  The
        Bell state moved by it differs from itself by 5.3e-10 in the dense rule: not equivalent,
        either way round."""
        h = 0.707106781
        v = np.array([[h, h], [h, -h]], dtype=complex)
        bell = np.zeros((4, 4), dtype=complex)
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        ea = make_ea(DensityOperator(bell), Factorization((2, 2)))
        changed = change_detectors(ea, 0, v)
        pair = ((ea, np.eye(4)), (changed, local_rotation((2, 2), 0, v)))
        assert oracle_gap(pair) > EQUIVALENCE_TOL
        assert not ea_equivalent(ea, changed)
        assert not ea_equivalent(changed, ea)

    @PROPERTY_SETTINGS
    @given(arrangement_pairs(kinds=DIFFERENT_STATES))
    def test_lift_path_matches_dense_oracle(self, drawn):
        """With ``tol`` within 1e-6 of the gap, ``||D||_F`` is above ``tol / 2`` and at
        most ``N * tol * (1 + 1e-6)``, so neither Frobenius bound decides.  A swapped pair
        has ``||D||_F = sqrt(2) * gap``, inside even a bound loosened to ``2 * tol``."""
        _, pair = drawn
        (ea1, _), (ea2, _) = pair
        gap = oracle_gap(pair)
        assert ea_equivalent(ea1, ea2, tol=gap * (1 + 1e-6))
        assert not ea_equivalent(ea1, ea2, tol=gap * (1 - 1e-6))


class TestCertificate:
    """Arrangements of one origin within ``tol / 2`` of each other in drift are equivalent by
    the bound; wherever it decides, the dense rule and the computed path agree."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(layouts(), st.sampled_from([0.0, 0.2, 1.0]), st.booleans(), *[st.integers(0, 4)] * 2)
    def test_bound_is_sound(self, layout, near, two_bases, steps1, steps2):
        """Chains of ``make_ea``, ``change_detectors`` and ``refactor`` from one state, each
        factor Haar or, with probability ``near``, near unitary: where the certificate fires,
        the dense gap is within the drifts, the computed path says True, and so does either order."""
        dims, rng = layout
        f = Factorization(dims)
        rho = random_density(f.degree, rng)

        def factor(d, rng):
            return near_unitary(d, rng) if rng.random() < near else random_unitary(d, rng)

        def start():
            bases = tuple(factor(d, rng) for d in dims)
            return make_ea(rho, f, DetectorBasis(bases)), kron_oracle(bases)

        first = start()
        second = start() if two_bases else first
        pair = walked(*first, rng, steps1, factor), walked(*second, rng, steps2, factor)
        (ea1, _), (ea2, _) = pair
        if near == 0.0:
            assert certified(ea1, ea2)
        if certified(ea1, ea2):
            assert oracle_gap(pair) <= ea1.provenance.drift + ea2.provenance.drift
            assert ea_equivalent(ea1, ea2) and ea_equivalent(ea2, ea1)
            assert ea_equivalent(ea1, fresh_origin(ea2)) and ea_equivalent(fresh_origin(ea2), ea1)

    def test_origins(self, rng):
        """``make_ea`` shares its state's origin, and so do changes and refactors of it; a second
        ``DensityOperator`` of one matrix, the public constructor and ``restrict`` start a new one."""
        rho, bases, ea = random_layout_ea((2, 3), rng)
        origin = ea.provenance.origin
        derived = [make_ea(rho, ea.factorization), change_detectors(ea, 1, random_unitary(3, rng))]
        derived.append(refactor(derived[-1], Factorization((6,))))
        assert all(other.provenance.origin is origin for other in derived)
        fresh = [
            make_ea(DensityOperator(rho.matrix), ea.factorization, DetectorBasis(bases)),
            ExperimentalArrangement(ea.matrix, ea.factorization, ea.basis_matrix),
            restrict(ea, [[0, 1], [0, 1, 2]]),
        ]
        assert len({id(origin), *(id(other.provenance.origin) for other in fresh)}) == 4
        assert all(ea_equivalent(ea, other) for other in fresh[:2])
        assert list(held_arrays(ea.provenance)) == []

    def test_loose_factors_are_computed(self, monkeypatch, rng):
        """A near-unitary factor, or a screen of 256 detectors, whose Gram error is known only to
        about 2 d^2 u, bounds too loosely to certify: each pair is computed, the same either way
        round, and the Haar pair on the wide screen is equivalent."""
        _, _, ea = random_layout_ea((2, 3), rng)
        wide = make_ea(random_density(256, rng), Factorization((256,)), haar_basis((256,), rng))
        near = (ea, change_detectors(ea, 0, near_unitary(2, rng)))
        haar = (wide, change_detectors(wide, 0, random_unitary(256, rng)))
        calls, conjugated = [], qlin._conjugated
        monkeypatch.setattr(qlin, "_conjugated", lambda *args: calls.append(1) or conjugated(*args))
        for pair in (near, haar):
            calls.clear()
            assert not certified(*pair)
            assert ea_equivalent(*pair) == ea_equivalent(*pair[::-1])
            assert calls
        assert ea_equivalent(*haar)


class TestSteppedBound:
    @pytest.mark.parametrize("gram_error", [0.0, 1e-12])
    def test_one_factor_by_hand(self, gram_error):
        """``_stepped`` for one 3x3 factor on screen 1 of (2, 3), from a base of drift 1e-13 and
        scale 1.5, written out from its formula with u = 2^-53.  Both kernel passes round by a
        block of D = 64 (``_KRON_BLOCK``), so the kernel term is x = expm1(2 sqrt(2 D) gamma_69)
        ~ 1.7e-13; the factor's growth is r^2 = 1 + 3 (1 + gamma_2) (g + 2 gamma_5).  With g = 0 the
        kernel term is nearly all of the drift, and with g = 1e-12 the growth is."""
        u = 2.0**-53

        def gamma(n):
            return n * u / (1 - n * u)

        r2 = 1 + 3 * (1 + gamma(2)) * (gram_error + 2 * gamma(5))
        x = math.expm1(2 * math.sqrt(128) * gamma(69))
        norm = 1.5 * (1 + 1e-9 + 6 * (2 * 1e-7 + 1e-9))  # TRACE_TOL, EIGENVALUE_FLOOR, HERMITICITY_TOL
        drift = 1e-13 + 1.5 * norm * ((r2 - 1) * (r2 + 1) + r2 * r2 * x)
        origin = object()
        stepped = _stepped(Provenance(origin, 1e-13, 1.5), (2, 3), {1: gram_error})
        assert stepped.origin is origin
        assert stepped.drift == pytest.approx(drift, rel=1e-12, abs=0)
        assert stepped.scale / (1.5 * r2) - 1 == pytest.approx(x, rel=1e-3, abs=0)


class TestDetectorSteps:
    """An arrangement keeps its detector basis as local factors, not as an N x N matrix."""

    def test_caller_basis_is_copied(self):
        ea = worked_ea()
        v = HADAMARD.copy()  # complex128 already, so no conversion copies it
        changed = change_detectors(ea, 0, v)
        basis = changed.basis_matrix
        v[...] = np.eye(2)
        assert np.array_equal(changed.basis_matrix, basis)
        assert ea_equivalent(ea, changed)

    def test_only_the_state_has_full_size_rows(self, rng):
        """Before its first read a derived arrangement holds exactly its source, the matrix of
        its nearest formed ancestor; after it, exactly its own matrix, and no source.  A change
        in a refactored layout cannot join the pending run: it forms that run, in the cell the
        refactor shares, and holds it as its source."""
        _, _, start = random_layout_ea((2, 3, 4), rng)
        ea = change_detectors(start, 1, random_unitary(3, rng))
        ancestor = refactor(ea, Factorization((6, 4)))
        ea = change_detectors(ancestor, 0, random_unitary(6, rng))
        assert "pending" not in vars(ancestor)["_cell"]
        full = [arr for arr in held_arrays(ea) if arr.shape[0] == ea.degree]
        assert len(full) == 1 and full[0] is ancestor.matrix and full[0] is not start.matrix
        matrix = ea.matrix
        full = [arr for arr in held_arrays(ea) if arr.shape[0] == ea.degree]
        assert len(full) == 1 and full[0] is matrix and matrix is not ancestor.matrix
        assert "pending" not in vars(ea)["_cell"]

    @pytest.mark.parametrize("screen", [0, 1, 2])
    def test_one_change_unwinds_only_its_factor(self, monkeypatch, rng, screen):
        """``ea_equivalent(ea, change_detectors(twin, k, V))``, ``twin`` made in ea's detectors
        from a second ``DensityOperator`` of ea's state, so that the two share no origin, applies
        ``V`` once on each side of the state and no factor of the ``make_ea`` step.  Unwinding
        both histories in full applied 2n + 2(n + 1) factors for n screens: 14 on (2, 3, 4)."""
        rho, bases, ea = random_layout_ea((2, 3, 4), rng)
        twin = make_ea(DensityOperator(rho.matrix), ea.factorization, DetectorBasis(bases))
        changed = change_detectors(twin, screen, random_unitary((2, 3, 4)[screen], rng))
        changed.matrix  # formed here, so that only the comparison is counted
        applied = count_kron_factors(monkeypatch)
        assert ea_equivalent(ea, changed)
        assert applied == [((2, 3, 4), screen)] * 2

    def test_unrelated_pair_in_one_layout_is_one_conjugation(self, monkeypatch, rng):
        """Two ``make_ea``, in different Haar bases, of two ``DensityOperator``s of one matrix
        share no step and no origin: ea1's matrix moves into ea2's frame through one history
        whose steps, all in one layout, merge into one conjugation.  Unwinding both suffixes
        took two.  A detector change on each side adds a step to each suffix and no conjugation."""
        dims = (2, 3, 4)
        f = Factorization(dims)
        matrix = random_density(f.degree, rng).matrix
        ea1, ea2 = (make_ea(DensityOperator(matrix), f, haar_basis(dims, rng)) for _ in range(2))
        changed1 = change_detectors(ea1, 0, random_unitary(2, rng))
        changed2 = change_detectors(ea2, 2, random_unitary(4, rng))
        changed1.matrix, changed2.matrix  # formed here, so that only the comparisons are counted
        calls, conjugated = [], qlin._conjugated

        def counted(m, dims, factors):
            calls.append(tuple(dims))
            return conjugated(m, dims, factors)

        monkeypatch.setattr(qlin, "_conjugated", counted)
        for pair in [(ea1, ea2), (ea2, ea1), (changed1, changed2)]:
            calls.clear()
            assert ea_equivalent(*pair)
            assert calls == [dims]

    def test_computational_basis_applies_no_factor(self, monkeypatch, rng):
        dims = (2, 3, 4)
        f = Factorization(dims)
        rho = random_density(f.degree, rng)
        haar = make_ea(rho, f, haar_basis(dims, rng))
        other = make_ea(random_density(f.degree, rng), f, haar_basis(dims, rng))
        applied = count_kron_factors(monkeypatch)
        ea = make_ea(rho, f)
        assert applied == []
        assert ea.matrix is rho.matrix and np.array_equal(ea.basis_matrix, np.eye(f.degree))
        named = make_ea(rho, f, DetectorBasis(tuple(map(np.eye, dims))))  # no basis is this one
        assert named.matrix.tobytes() == ea.matrix.tobytes() and named.steps == ea.steps
        assert ea.steps == ((dims, {}),) and ea_equivalent(ea, named)
        assert ea_equivalent(ea, haar) and ea_equivalent(haar, ea)
        assert not ea_equivalent(ea, other)

    def test_identity_screens_are_dropped_one_by_one(self, monkeypatch, rng):
        dims = (2, 3, 4)
        f = Factorization(dims)
        rho = random_density(f.degree, rng)
        v = random_unitary(3, rng)
        applied = count_kron_factors(monkeypatch)
        ea = make_ea(rho, f, DetectorBasis((np.eye(2), v, np.eye(4))))
        assert applied == [(dims, 1)] * 2
        product = kron_oracle([np.eye(2), v, np.eye(4)])
        assert np.max(np.abs(ea.basis_matrix - product)) <= 1e-12
        assert np.max(np.abs(ea.matrix - product.conj().T @ rho.matrix @ product)) <= 1e-12


def count_kron_factors(monkeypatch) -> list:
    """Wrap the kernel; the returned list grows by ``(dims, screen)`` per factor applied."""
    applied, kernel = [], qlin._mode_product

    def counted(m, dims, factors, *args, **kwargs):
        applied.extend((tuple(dims), axis) for axis in factors)
        return kernel(m, dims, factors, *args, **kwargs)

    monkeypatch.setattr(qlin, "_mode_product", counted)
    return applied


def haar_basis(dims, rng) -> DetectorBasis:
    return DetectorBasis(tuple(random_unitary(d, rng) for d in dims))


#: ``_conjugated`` inputs and the forms its right-hand product takes: a Kronecker product
#: ending on the last screen acts on runs of columns ("block"; here with a factorless or a
#: dim-1 screen in it, or one screen wider than the cap), and any other is a column batch
#: ("columns"; here also a group of several screens, and a screen wider than all after it).
KERNEL_CASES = [
    ((2, 3, 4), (1,), {"block"}),
    ((2, 3, 4), (0, 2), {"block"}),
    ((1, 2, 1, 3), (0, 1, 3), {"block"}),
    ((70, 2), (1,), {"block"}),
    ((66,), (0,), {"block"}),
    ((2, 70), (1,), {"block"}),
    ((2, 40, 2), (0,), {"columns"}),
    ((70, 2), (0,), {"columns"}),
    ((70, 2), (0, 1), {"block", "columns"}),
    ((2, 40, 2), (0, 1, 2), {"block", "columns"}),
    ((2, 70), (0, 1), {"block", "columns"}),
    ((4, 4, 6, 6), (0, 1, 3), {"block", "columns"}),
    ((2, 1, 40, 2), (0, 1, 3), {"block", "columns"}),
    ((2, 3, 4, 5, 6), (0, 2, 4), {"block", "columns"}),
]


def conjugation_case(dims, screens, rng, widths=None):
    """A random ``m``, factors on ``screens`` and ``R^dag m R`` with ``R`` multiplied out.  The
    factor on screen k is unitary, or a d_k x widths[k] block of a unitary if ``widths`` has k."""
    n = int(np.prod(dims))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    widths = widths or {}
    factors = {
        k: random_unitary(max(dims[k], widths.get(k, 0)), rng)[: dims[k], : widths.get(k, dims[k])]
        for k in screens
    }
    r = kron_oracle([factors.get(k, np.eye(d)) for k, d in enumerate(dims)])
    return m, factors, r.conj().T @ m @ r


class MatmulSpy:
    """``numpy`` for ``qlin``, recording the operand ranks of each ``matmul``."""

    def __init__(self):
        self.ranks = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.ranks.append((a.ndim, b.ndim))
        return np.matmul(a, b, **kwargs)


class TestConjugationKernel:
    """Every route of ``_conjugated``'s right-hand product against the dense oracle."""

    @pytest.mark.parametrize("dims, screens, routes", KERNEL_CASES)
    def test_each_route_matches_kron_oracle(self, monkeypatch, rng, dims, screens, routes):
        m, factors, oracle = conjugation_case(dims, screens, rng)
        left = qlin._mode_product(m, dims, {k: w.conj() for k, w in factors.items()})
        spy = MatmulSpy()
        monkeypatch.setattr(qlin, "np", spy)
        out = qlin._mode_product(left, dims, factors, len(left), owned=True)
        # A block is a stack of column runs times one matrix; a column batch is one matrix
        # times a stack.
        taken = {"block"} if (3, 2) in spy.ranks else set()
        if (2, 3) in spy.ranks:
            taken.add("columns")
        assert taken == routes and out.flags.c_contiguous
        assert np.max(np.abs(out - oracle)) <= 1e-12

    @PROPERTY_SETTINGS
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple), st.integers(0, 2**32 - 1))
    @example(dims=(1,), seed=2)  # a 1 x 2 factor on the one screen of a 1 x 1 operand
    def test_one_kernel_takes_either_side(self, dims, seed):
        """``_mode_product`` against the dense oracle, square unitary and d x w factors on random
        screens: on the rows (lead 1) of a square or thin operand, on the columns (lead = rows) of
        a wide one, and in ``_conjugated``; with 256-byte chunks, so that passes run in place,
        neither input is written, and no factor is no product.  A 1 x 1 operand of lead 1 reads
        as rows, so the wide one has two rows or more there."""
        rng = np.random.default_rng(seed)
        screens = [k for k in range(len(dims)) if rng.random() < 0.5]
        widths = {k: int(rng.integers(1, 5)) for k in screens if rng.random() < 0.5}
        m, factors, oracle = conjugation_case(dims, screens, rng, widths)
        r = kron_oracle([factors.get(k, np.eye(d)) for k, d in enumerate(dims)])
        thin = np.ascontiguousarray(m[:, : int(rng.integers(1, len(m) + 1))])
        wide = rng.normal(size=(int(rng.integers(1 if len(m) > 1 else 2, 4)), len(m))) + 0j
        before = m.tobytes(), wide.tobytes()
        conjugate = {k: w.conj() for k, w in factors.items()}
        with mock.patch.object(qlin, "_CHUNK_BYTES", 256):
            outs = [
                (qlin._mode_product(m, dims, conjugate), r.conj().T @ m),
                (qlin._mode_product(thin, dims, conjugate), r.conj().T @ thin),
                (qlin._mode_product(wide, dims, factors, len(wide)), wide @ r),
                (qlin._conjugated(m, dims, factors), oracle),
            ]
        for out, dense in outs:
            assert out.shape == dense.shape and np.max(np.abs(out - dense), initial=0.0) <= 1e-12
        assert (m.tobytes(), wide.tobytes()) == before
        assert qlin._conjugated(m, dims, {}) is m and qlin._mode_product(wide, dims, {}, len(wide)) is wide

    def test_cases_cover_every_route(self):
        assert set().union(*(routes for *_, routes in KERNEL_CASES)) == {"block", "columns"}

    @PROPERTY_SETTINGS
    @given(
        st.one_of(
            st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
            st.sampled_from([(70, 2), (2, 70), (2, 40, 2), (66,), (3, 30), (2, 33), (8, 9)]),
        ),
        st.integers(0, 2**32 - 1),
        st.sampled_from([256, 4096, qlin._CHUNK_BYTES]),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_random_factor_subsets_match_kron_oracle(self, dims, seed, chunk, identities):
        """Square and rectangular factors: a screen takes its factor's column count.  With
        chunks small enough that every pass after the first runs in place, chunk by chunk, the
        writeable input is left bit-identical, also with no factor or only identity factors."""
        rng = np.random.default_rng(seed)
        screens = [k for k in range(len(dims)) if rng.random() < 0.5]
        widths = {k: max(1, dims[k] + int(rng.integers(-1, 2))) for k in screens if rng.random() < 0.5}
        m, factors, _ = conjugation_case(dims, screens, rng, widths)
        for k in [k for k in factors if k not in widths and rng.random() < identities]:
            factors[k] = np.eye(dims[k], dtype=complex)
        r = kron_oracle([factors.get(k, np.eye(d)) for k, d in enumerate(dims)])
        oracle = r.conj().T @ m @ r
        before = m.tobytes()
        with mock.patch.object(qlin, "_CHUNK_BYTES", chunk):
            out = qlin._conjugated(m, dims, factors)
        assert m.flags.writeable and m.tobytes() == before
        assert out.shape == oracle.shape and np.max(np.abs(out - oracle)) <= 1e-12


class TestConjugationMemory:
    """Under ``tracemalloc`` at (2,)*9, N = 512: each step allocates one N x N array beyond its
    inputs, one chunk of a pass made in place, and its groups' products of at most 64 x 64."""

    DIMS = (2,) * 9
    N2 = 512 * 512 * 16  # bytes of one N x N complex array
    BOUND = N2 + qlin._CHUNK_BYTES + 2 * 16 * qlin._KRON_BLOCK**2

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_conjugation_on_three_screens(self, rng):
        m, factors, _ = conjugation_case(self.DIMS, (0, 4, 8), rng)
        assert self.N2 < self.peak(lambda: qlin._conjugated(m, self.DIMS, factors)) <= self.BOUND

    def test_arrangement_pipeline(self, rng):
        """``make_ea`` on Haar bases of all nine screens, ``change_detectors`` on one, and
        ``ea_equivalent`` of the two, whose difference goes into the one unwound array.  The
        change is made to a twin of a second ``DensityOperator`` of the state: no shared origin.
        A change forms its matrix on first read, so the change is measured with that read, and
        the comparison after it."""
        f = Factorization(self.DIMS)
        rho, basis, v = random_density(f.degree, rng), haar_basis(self.DIMS, rng), random_unitary(2, rng)
        ea = make_ea(rho, f, basis)
        changed = change_detectors(make_ea(DensityOperator(rho.matrix), f, basis), 5, v)
        changed.matrix
        assert self.peak(lambda: make_ea(rho, f, basis)) <= self.BOUND
        assert self.peak(lambda: change_detectors(ea, 5, v).matrix) <= self.BOUND
        assert self.peak(lambda: ea_equivalent(ea, changed)) <= self.BOUND

    def test_three_changes_and_a_restriction(self, rng):
        """``make_ea``, three detector changes and ``restrict`` of the last, with the first
        arrangement kept, as a caller comparing the two would: above make_ea's matrix, which the
        changes hold as their source, one N x N array, one chunk and the blocks.  Forming each
        change at once held three N x N arrays."""
        f = Factorization(self.DIMS)
        rho, basis = random_density(f.degree, rng), haar_basis(self.DIMS, rng)
        changes = {screen: random_unitary(2, rng) for screen in (0, 4, 8)}

        def pipeline():
            ea = changed = make_ea(rho, f, basis)
            for screen, v in changes.items():
                changed = change_detectors(changed, screen, v)
            return ea, restrict(changed, [[0, 1]] * 3 + [[0]] * 6)

        assert self.peak(pipeline) <= self.N2 + self.BOUND

    def test_partial_reads_of_three_changes(self, rng):
        """The four reads of three pending changes copy the source's blocks on the changed screens,
        64 x 8 x 8 entries, and conjugate them, in two arrays of that size: under a sixteenth of
        one N x N array, with the matrix still pending."""
        f = Factorization(self.DIMS)
        changed = make_ea(random_density(f.degree, rng), f, haar_basis(self.DIMS, rng))
        for screen in (0, 4, 8):
            changed = change_detectors(changed, screen, random_unitary(2, rng))
        index, kept = (1,) * 9, [[0, 1]] * 3 + [[0]] * 6
        assert self.peak(lambda: four_reads(changed, index, kept)) < self.N2 // 16
        assert "pending" in vars(changed)["_cell"]

    def test_unrelated_comparison(self, rng):
        """Two ``make_ea``, in Haar bases of all nine screens, of two ``DensityOperator``s of one
        matrix, compared: one conjugation moves ea1's matrix into ea2's frame, and the difference
        is formed in the array it made.  Unwinding both matrices held two N x N arrays."""
        f = Factorization(self.DIMS)
        matrix = random_density(f.degree, rng).matrix
        ea1, ea2 = (make_ea(DensityOperator(matrix), f, haar_basis(self.DIMS, rng)) for _ in range(2))
        verdicts = []
        assert self.peak(lambda: verdicts.append(ea_equivalent(ea1, ea2))) <= self.BOUND
        assert verdicts == [True]

    def test_certified_pairs_form_nothing(self, monkeypatch, rng):
        """A detector change, a refactor and a second ``make_ea`` in other detectors all share
        the state's origin, within a drift far below ``tol / 2``: each comparison with the
        arrangement they came from is True by the bound, with no conjugation and under 1 MB."""
        f = Factorization(self.DIMS)
        rho = random_density(f.degree, rng)
        ea = make_ea(rho, f, haar_basis(self.DIMS, rng))
        changed = change_detectors(ea, 5, random_unitary(2, rng))
        others = [changed, refactor(changed, Factorization((8, 64)))]
        others.append(make_ea(rho, f, haar_basis(self.DIMS, rng)))
        conjugations = []
        monkeypatch.setattr(qlin, "_conjugated", lambda *args: conjugations.append(args))
        for other in others:
            verdicts = []
            both = lambda: verdicts.extend([ea_equivalent(ea, other), ea_equivalent(other, ea)])
            assert self.peak(both) < 1 << 20
            assert verdicts == [True, True] and conjugations == []

    def test_conditioned_state_keeps_its_array(self, rng):
        """The conditioned state is admitted in the array it was given; the Cholesky factor
        of the admission check is the one N x N array allocated."""
        unnormalized = random_density(512, rng).matrix * 0.5
        result = []
        peak = self.peak(lambda: result.append(_conditioned(unnormalized)))
        (probability, state), = result
        assert probability == pytest.approx(0.5) and np.shares_memory(state.matrix, unnormalized)
        assert peak < 1.25 * self.N2


@st.composite
def deferred_chains(draw):
    """A layout of degree at most 64 and a chain of operations on it: ``("change", screen,
    factor)``, screen taken modulo the layout's screens so that screens repeat, ``("refactor",)``
    and ``("read",)``, which forms the matrix mid-chain."""
    dims = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4).filter(lambda d: math.prod(d) <= 64))
    factor = st.sampled_from(["haar", "near", "identity"])
    change = st.tuples(st.just("change"), st.integers(0, 3), factor)
    ops = st.one_of(change, change, st.just(("refactor",)), st.just(("read",)))
    return tuple(dims), draw(st.lists(ops, min_size=1, max_size=8)), draw(st.integers(0, 2**32 - 1))


class TestDeferredChanges:
    """``change_detectors`` and ``refactor`` record steps; the matrix is formed on first read from
    the nearest formed ancestor's, one conjugation per run of changes."""

    @settings(max_examples=150, deadline=None)
    @given(deferred_chains())
    def test_formed_matches_eager_composition(self, chain):
        """The chain's matrix is the eager step-by-step conjugation within 1e-12; the verdict
        against the start is the dense rule's either way round, and a certified one forms
        nothing; the drift bounds the densely measured ||B M B^dag - A||_2."""
        dims, ops, seed = chain
        rng = np.random.default_rng(seed)
        rho, bases, start = random_layout_ea(dims, rng)
        current, eager, product = start, start.matrix, kron_oracle(bases)
        factors = {"haar": random_unitary, "near": near_unitary, "identity": lambda d, _: np.eye(d)}
        for op, *args in ops:
            layout = current.factorization.screen_dims
            if op == "refactor":
                current = refactor(current, Factorization(random_refactor(layout, rng)))
            elif op == "read":
                current.matrix
            else:
                screen = args[0] % len(layout)
                v = factors[args[1]](layout[screen], rng)
                current = change_detectors(current, screen, v)
                eager = qlin._conjugated(eager, layout, {screen: v})
                product = product @ local_rotation(layout, screen, v)
        pending = "pending" in vars(current)["_cell"]
        verdicts = ea_equivalent(start, current), ea_equivalent(current, start)
        if certified(start, current):
            assert ("pending" in vars(current)["_cell"]) == pending
        expected = oracle_gap(((start, kron_oracle(bases)), (current, product))) <= EQUIVALENCE_TOL
        assert verdicts == (expected, expected)
        assert np.max(np.abs(current.matrix - eager)) <= 1e-12
        moved = product @ current.matrix @ product.conj().T - rho.matrix
        assert np.linalg.norm(moved, 2) <= current.provenance.drift

    def test_three_changes_are_one_conjugation(self, monkeypatch, rng):
        """Changes of distinct screens in one layout, a refactor, and a change in the new layout:
        that change forms the run of three, once, and the first read forms its own; a screen
        changed twice starts from the formed run and takes one more conjugation, on its read."""
        _, _, ea = random_layout_ea((2, 3, 4), rng)
        calls, conjugated = [], qlin._conjugated

        def counted(m, dims, factors):
            calls.append((dims, sorted(factors)))
            return conjugated(m, dims, factors)

        monkeypatch.setattr(qlin, "_conjugated", counted)
        changed = ea
        for screen in (0, 2, 1):
            changed = change_detectors(changed, screen, random_unitary((2, 3, 4)[screen], rng))
        assert calls == []
        flat = change_detectors(refactor(changed, Factorization((24,))), 0, random_unitary(24, rng))
        again = change_detectors(changed, 2, random_unitary(4, rng))
        assert calls == [((2, 3, 4), [0, 1, 2])]
        flat.matrix, flat.matrix
        assert calls == [((2, 3, 4), [0, 1, 2]), ((24,), [0])]
        calls.clear()
        again.matrix, changed.matrix
        assert calls == [((2, 3, 4), [2])]

    @staticmethod
    def run_keys(calls: list):
        """A ``qlin._conjugated`` that appends to ``calls`` the factor arrays of each call that has
        any: a run's factors are arrays its changes made, so a repeated run repeats its arrays.
        The arrays are held, so that no identity is reused."""
        conjugated = qlin._conjugated

        def spy(m, dims, factors):
            if factors:
                calls.append(tuple(factors.values()))
            return conjugated(m, dims, factors)

        return spy

    @staticmethod
    def repeats(calls: list) -> int:
        return len(calls) - len({tuple(map(id, key)) for key in calls})

    @settings(max_examples=150, deadline=None)
    @given(deferred_chains())
    @example(((2, 2), [("change", 0, "haar"), ("change", 1, "identity")], 0))
    def test_no_run_is_formed_twice(self, chain):
        """Reading ``.matrix`` of every arrangement a chain made, and of a refactor of each, forms
        no run of changes twice: a change that cannot join its arrangement's run forms that run
        in the arrangement's cell, where every later reader finds it, and an identity change that
        joins a run shares its cell."""
        dims, ops, seed = chain
        rng = np.random.default_rng(seed)
        _, _, current = random_layout_ea(dims, rng)
        factors = {"haar": random_unitary, "near": near_unitary, "identity": lambda d, _: np.eye(d)}
        made, calls = [current], []
        with mock.patch.object(qlin, "_conjugated", self.run_keys(calls)):
            for op, *args in ops:
                layout = current.factorization.screen_dims
                if op == "refactor":
                    current = refactor(current, Factorization(random_refactor(layout, rng)))
                elif op == "read":
                    current.matrix
                else:
                    screen = args[0] % len(layout)
                    current = change_detectors(current, screen, factors[args[1]](layout[screen], rng))
                made.append(current)
            for ea in made:
                sharer = refactor(ea, Factorization(random_refactor(ea.factorization.screen_dims, rng)))
                ea.matrix, sharer.matrix
        assert self.repeats(calls) == 0

    @pytest.mark.parametrize("later, expected", [(1, 2), (2, 3)], ids=["three", "four"])
    def test_a_refactored_chain_forms_each_run_once(self, later, expected, rng):
        """A change, a refactor from (2, 3, 4) to (6, 4), and ``later`` changes of screen 1 in the
        new layout, read from the last arrangement back to the first: one conjugation per run (a
        screen changed twice starts a run); forming each earlier run once per reader would take 3
        and 6."""
        _, _, ea = random_layout_ea((2, 3, 4), rng)
        calls = []
        with mock.patch.object(qlin, "_conjugated", self.run_keys(calls)):
            made = [change_detectors(ea, 1, random_unitary(3, rng))]
            made.append(refactor(made[0], Factorization((6, 4))))
            for _ in range(later):
                made.append(change_detectors(made[-1], 1, random_unitary(4, rng)))
            for arrangement in reversed(made):
                arrangement.matrix
        assert len(calls) == expected and self.repeats(calls) == 0

    @pytest.mark.parametrize("first", [0, 1], ids=["source_first", "refactor_first"])
    def test_a_refactor_shares_the_pending_matrix(self, monkeypatch, rng, first):
        """A pending arrangement and its refactor read one cell: after three changes, reading
        both matrices, in either order, is one conjugation, and both hold the one array."""
        _, _, changed = random_layout_ea((2, 3, 4), rng)
        for screen in (0, 2, 1):
            changed = change_detectors(changed, screen, random_unitary((2, 3, 4)[screen], rng))
        pair = [changed, refactor(changed, Factorization((6, 4)))]
        calls, conjugated = [], qlin._conjugated
        monkeypatch.setattr(qlin, "_conjugated", lambda *args: (calls.append(args[1]), conjugated(*args))[1])
        read = pair[first].matrix
        assert pair[1 - first].matrix is read and calls == [(2, 3, 4)]
        assert not any("pending" in vars(ea)["_cell"] for ea in pair)

    @pytest.mark.parametrize("readers", [2, 6])
    def test_concurrent_first_reads(self, monkeypatch, rng, readers):
        """Threads, six being more than cores, read one pending matrix, half of them through a
        refactor that shares it, all inside its formation at once and switching often: none
        raises, and all get the one matrix kept."""
        _, _, ea = random_layout_ea((2, 3, 4), rng)
        v = random_unitary(3, rng)
        pending, oracle = change_detectors(ea, 1, v), qlin._conjugated(ea.matrix, (2, 3, 4), {1: v})
        sharers = (pending, refactor(pending, Factorization((24,))))
        barrier, conjugated = threading.Barrier(readers, timeout=30), qlin._conjugated
        monkeypatch.setattr(qlin, "_conjugated", lambda *args: (barrier.wait(), conjugated(*args))[1])
        got, errors = [], []

        def read(ea):
            try:
                got.append(ea.matrix)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=read, args=(sharers[k % 2],)) for k in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(got) == readers and all(m is got[0] for m in got)
        assert np.max(np.abs(got[0] - oracle)) <= 1e-12
        assert not any("pending" in vars(ea)["_cell"] for ea in sharers)

    def test_repr_forms_nothing(self, monkeypatch, rng):
        _, _, ea = random_layout_ea((2, 3), rng)
        pending = change_detectors(ea, 0, random_unitary(2, rng))
        calls = []
        monkeypatch.setattr(qlin, "_conjugated", lambda *args: calls.append(args))
        expected = "ExperimentalArrangement(factorization=Factorization(screen_dims=(2, 3)))"
        assert repr(pending) == expected
        assert calls == [] and "pending" in vars(pending)["_cell"]

    def test_copies_of_a_pending_arrangement_form(self, rng):
        """A deep copy or an unpickled pending arrangement is pending, starts a new origin, forms
        the same matrix, and takes further changes in its own origin."""
        _, _, ea = random_layout_ea((2, 3), rng)
        pending = change_detectors(ea, 0, random_unitary(2, rng))
        pending = change_detectors(pending, 1, random_unitary(3, rng))
        for copied in (copy.deepcopy(pending), pickle.loads(pickle.dumps(pending))):
            assert "pending" in vars(copied)["_cell"]
            assert copied.provenance.origin is not pending.provenance.origin
            further = change_detectors(copied, 0, random_unitary(2, rng))
            assert further.provenance.origin is copied.provenance.origin
            assert np.max(np.abs(copied.matrix - pending.matrix)) <= 1e-15
            assert ea_equivalent(copied, ea) and ea_equivalent(pending, copied)

    def test_dropped_ancestor(self, rng):
        """The source is held by the pending arrangement, not reached through its ancestor."""
        _, _, ea = random_layout_ea((2, 3, 4), rng)
        v = random_unitary(4, rng)
        pending, oracle = change_detectors(ea, 2, v), qlin._conjugated(ea.matrix, (2, 3, 4), {2: v})
        ancestor = weakref.ref(ea)
        del ea
        gc.collect()
        assert ancestor() is None
        assert np.max(np.abs(pending.matrix - oracle)) <= 1e-12


@st.composite
def pending_reads(draw):
    """A layout of 1-4 screens of dims 1-4 and a seed; whether a refactor follows the first run of
    changes, and whether more changes follow it (in the refactored layout, if there is one), which
    join that run or form it and start their own."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    return dims, draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def four_reads(ea, index, kept):
    """``intensities``, ``power_intensity``, ``multiscreen_effect`` and ``restrict``'s matrix and
    layout, or the class of what it raised."""
    try:
        restricted = restrict(ea, kept)
        conditioned = restricted.matrix, restricted.factorization
    except DegenerateConditioningError as exc:
        conditioned = type(exc)
    return ea.intensities(), power_intensity(ea, index), multiscreen_effect(ea, index), conditioned


class TestPartialReads:
    """The four reads of a pending arrangement in its run's layout take only the entries they
    need from its source, and leave the matrix pending."""

    @staticmethod
    def run_of_changes(ea, rng):
        """Haar changes of a random subset of screens, one of them perhaps the identity."""
        dims = ea.factorization.screen_dims
        for screen in np.flatnonzero(rng.random(len(dims)) < 0.6):
            v = np.eye(dims[screen]) if rng.random() < 0.2 else random_unitary(dims[screen], rng)
            ea = change_detectors(ea, int(screen), v)
        return ea

    @staticmethod
    def kept_sets(dims, diagonal, rng):
        """Random nonempty kept sets whose intensity is at least 0.01; every detector if ten
        draws find none."""
        for _ in range(10):
            kept = [sorted(set(rng.integers(0, d, size=rng.integers(1, d + 1)).tolist())) for d in dims]
            if diagonal[np.ix_(*kept)].sum() >= 0.01:
                return kept
        return [list(range(d)) for d in dims]

    @settings(max_examples=150, deadline=None)
    @given(pending_reads())
    @example(((1, 3, 1, 2), True, True, 0))
    @example(((4,), False, False, 1))
    def test_reads_match_the_formed_matrix(self, case):
        """Before ``.matrix`` is read, each read equals the one taken after within 1e-12, and a
        pending arrangement in its run's layout is still pending after them."""
        dims, refactored, second_run, seed = case
        rng = np.random.default_rng(seed)
        _, _, ea = random_layout_ea(dims, rng)
        ea = self.run_of_changes(ea, rng)
        if refactored:
            ea = refactor(ea, Factorization(random_refactor(dims, rng)))
        if second_run:
            ea = self.run_of_changes(ea, rng)
        layout = ea.factorization.screen_dims
        cell = vars(ea)["_cell"]
        partial = "pending" in cell and cell["pending"].run[0] == layout
        oracle = copy.deepcopy(ea).matrix  # the same matrix, formed in a copy
        index = tuple(int(rng.integers(d)) for d in layout)
        kept = self.kept_sets(layout, np.real(np.diag(oracle)).reshape(layout), rng)
        before = four_reads(ea, index, kept)
        assert ("pending" in cell) == partial
        ea.matrix
        after = four_reads(ea, index, kept)
        for got, formed in zip(before[:3], after[:3]):
            assert np.max(np.abs(np.subtract(got, formed))) <= 1e-12
        if isinstance(after[3], tuple):
            assert before[3][1] == after[3][1]
            assert np.max(np.abs(before[3][0] - after[3][0])) <= 1e-12
        else:
            assert before[3] is after[3]

    @staticmethod
    def spied(monkeypatch, name) -> list:
        """The shapes of the arrays passed to ``qlin.<name>``, which still runs."""
        shapes, kernel = [], getattr(qlin, name)
        def spy(m, *args, **kwargs):
            shapes.append(m.shape)
            return kernel(m, *args, **kwargs)

        monkeypatch.setattr(qlin, name, spy)
        return shapes

    def test_one_run_forms_no_matrix(self, monkeypatch, rng):
        """On (2, 3, 4) with screens 0 and 2 changed, the four reads pass no 24 x 24 array to
        ``_conjugated`` or ``_mode_product``, and the matrix stays pending."""
        _, _, ea = random_layout_ea((2, 3, 4), rng)
        pending = change_detectors(ea, 0, random_unitary(2, rng))
        pending = change_detectors(pending, 2, random_unitary(4, rng))
        conjugated = self.spied(monkeypatch, "_conjugated")
        products = self.spied(monkeypatch, "_mode_product")
        for _ in range(2):
            four_reads(pending, (1, 2, 3), [[0], [0, 2], [1, 2, 3]])
        assert conjugated and products and (24, 24) not in conjugated + products
        assert "pending" in vars(pending)["_cell"]

    def test_earlier_runs_are_formed_once(self, monkeypatch, rng):
        """Screen 0 changed twice makes two runs: the second change forms the first, once, and
        repeated reads of the last run's arrangement form nothing more; a refactor sharing its
        matrix, in another layout, then forms the last."""
        _, _, ea = random_layout_ea((2, 3, 4), rng)
        conjugated = self.spied(monkeypatch, "_conjugated")
        first = change_detectors(ea, 0, random_unitary(2, rng))
        changed = change_detectors(first, 0, random_unitary(2, rng))
        changed = change_detectors(changed, 1, random_unitary(3, rng))
        assert conjugated.count((24, 24)) == 1 and "pending" not in vars(first)["_cell"]
        flat = refactor(changed, Factorization((24,)))
        for _ in range(3):
            four_reads(changed, (1, 2, 3), [[0], [0, 2], [1, 2, 3]])
        first.matrix
        assert conjugated.count((24, 24)) == 1 and "pending" in vars(changed)["_cell"]
        flat.intensities()  # another layout: the matrix is formed
        assert conjugated.count((24, 24)) == 2 and "pending" not in vars(changed)["_cell"]
        changed.intensities()
        assert conjugated.count((24, 24)) == 2

    @pytest.mark.parametrize("threads", [4, 8])
    def test_concurrent_reads_and_changes_that_cannot_join(self, monkeypatch, rng, threads):
        """Threads, more than cores, race ``.matrix`` of a pending arrangement and of its refactor
        against changes that cannot join its run (screen 0 again; a screen of the refactor), all
        inside the run's formation at once and switching often: none raises, every thread gets
        the one matrix kept, as its read or as its change's source, and every result equals the
        one formed serially in a copy within 1e-12."""
        _, _, changed = random_layout_ea((2, 3, 4), rng)
        for screen in (0, 2):
            changed = change_detectors(changed, screen, random_unitary((2, 3, 4)[screen], rng))
        flat = refactor(changed, Factorization((24,)))
        v, w = random_unitary(2, rng), random_unitary(24, rng)
        work = (lambda: changed.matrix, lambda: flat.matrix,
                lambda: change_detectors(changed, 0, v), lambda: change_detectors(flat, 0, w))
        twin = copy.deepcopy(changed)
        serial = [twin.matrix, twin.matrix, change_detectors(twin, 0, v).matrix,
                  change_detectors(refactor(twin, Factorization((24,))), 0, w).matrix]
        barrier, conjugated = threading.Barrier(threads, timeout=30), qlin._conjugated
        monkeypatch.setattr(qlin, "_conjugated", lambda *args: (barrier.wait(), conjugated(*args))[1])
        got, errors = [], []

        def run(k):
            try:
                got.append((k % 4, work[k % 4]()))
            except Exception as exc:  # reported below
                errors.append(exc)

        workers = [threading.Thread(target=run, args=(k,)) for k in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(qlin, "_conjugated", conjugated)  # the reads below run alone
        assert not any(worker.is_alive() for worker in workers)
        assert errors == [] and len(got) == threads
        kept = changed.matrix
        assert flat.matrix is kept and "pending" not in vars(changed)["_cell"]
        for k, result in got:
            if k < 2:
                assert result is kept
            else:
                assert vars(result)["_cell"]["pending"].source is kept
                result = result.matrix
            assert np.max(np.abs(result - serial[k])) <= 1e-12


class TestEigensolves:
    """Arrangements certify their state and never read its spectrum."""

    def test_public_constructor_solves_no_spectrum(self, rng, eigensolve_counter):
        matrix = random_density(24, rng).matrix
        basis = random_unitary(24, rng)
        eigensolve_counter.clear()
        ExperimentalArrangement(matrix, Factorization((2, 3, 4)), basis)
        assert eigensolve_counter == {("cholesky", (24, 24)): 1}

    def test_pipeline_solves_nothing(self, rng, eigensolve_counter):
        """``make_ea`` takes a checked state, and detector changes and
        ``ea_equivalent`` need no spectrum."""
        dims = (2, 3, 4)
        rho = random_density(24, rng)
        bases = DetectorBasis(tuple(random_unitary(d, rng) for d in dims))
        factors = [random_unitary(d, rng) for d in dims]
        eigensolve_counter.clear()
        ea = make_ea(rho, Factorization(dims), bases)
        changed = ea
        for screen, v in enumerate(factors):
            changed = change_detectors(changed, screen, v)
        assert ea_equivalent(ea, changed)
        assert not eigensolve_counter


def in_unit_interval(values) -> bool:
    values = np.asarray(values, dtype=float)
    return bool(np.all((values >= 0) & (values <= 1)))


def floor_state(dims, low, rest, at, seed):
    """A state U D U^dag, U a product of per-screen Haar unitaries, D diagonal with
    ``low`` at ``at`` and ``rest`` scaled to weight 1 - low elsewhere: the screen
    bases ``U_k`` are the frame that puts ``low`` on the diagonal."""
    rest = np.array(rest) if sum(rest) > 0 else np.ones(len(rest))
    # Normalized first: a subnormal ``rest`` times (1 - low) can round back to itself.
    spectrum = np.insert(rest / rest.sum() * (1 - low), at, low)
    rng = np.random.default_rng(seed)
    us = tuple(random_unitary(d, rng) for d in dims)
    u = np.kron(*us)
    return dims, us, at, low, DensityOperator((u * spectrum) @ dagger(u))


@st.composite
def floor_states(draw):
    """``floor_state`` with ``low`` in [0.99 EIGENVALUE_FLOOR, 0]."""
    dims = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    n = dims[0] * dims[1]
    low = draw(st.floats(0.99 * EIGENVALUE_FLOOR, 0.0))
    rest = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    return floor_state(dims, low, rest, draw(st.integers(0, n - 1)), draw(st.integers(0, 2**32 - 1)))


class TestFloorStates:
    """A state ``DensityOperator`` accepts is accepted in every frame, and every
    readout of it lies in [0, 1].  Conditioning makes a new state, checked again."""

    @settings(max_examples=60, deadline=None)
    @given(floor_states())
    @example(floor_state((2, 2), 0.99 * EIGENVALUE_FLOOR, [5e-324, 0.0, 0.0], 0, 0))
    def test_accepted_in_every_frame(self, case):
        dims, us, at, low, rho = case
        factorization = Factorization(dims)
        computational = make_ea(rho, factorization)
        eigenframe = make_ea(rho, factorization, DetectorBasis(us))
        assert abs(np.real(eigenframe.matrix[at, at]) - low) <= 1e-12  # the planted eigenvalue
        into, out_of = computational, eigenframe
        for screen, u in enumerate(us):
            into = change_detectors(into, screen, u)
            out_of = change_detectors(out_of, screen, dagger(u))
        assert ea_equivalent(computational, into)
        assert ea_equivalent(eigenframe, into)
        assert ea_equivalent(computational, out_of)

        planted = factorization.multi_index(at)
        top = factorization.multi_index(int(np.argmax(np.real(np.diag(eigenframe.matrix)))))
        flat = refactor(eigenframe, Factorization((rho.dim,)))
        for ea in (computational, eigenframe, into, out_of, flat):
            assert in_unit_interval(ea.intensities())
        # Keeping {planted, top} per screen divides ``low`` by the kept intensity.
        kept = [sorted({a, b}) for a, b in zip(planted, top)]
        rows = np.ravel_multi_index(np.ix_(*kept), dims).ravel()
        block = eigenframe.matrix[np.ix_(rows, rows)]
        conditioned_low = np.linalg.eigvalsh(block / np.trace(block).real)[0]
        if conditioned_low >= EIGENVALUE_FLOOR + 1e-12:
            assert in_unit_interval(restrict(eigenframe, kept).intensities())
        elif conditioned_low < EIGENVALUE_FLOOR - 1e-12:
            expected = r"; conditioned, density operator negated least eigenvalue \S+ exceeds 1e-07$"
            with pytest.raises(DegenerateConditioningError, match=expected):
                restrict(eigenframe, kept)
        assert in_unit_interval(restrict(eigenframe, [range(d) for d in dims]).intensities())
        for ea in (computational, eigenframe, into, out_of):
            assert in_unit_interval(multiscreen_effect(ea, planted))
            assert in_unit_interval([power_intensity(ea, planted)])

        vector = np.kron(*(u[:, k] for u, k in zip(us, planted)))
        graph = build_graph([PowerNode(np.outer(vector, vector.conj()), "planted")])
        assert in_unit_interval(isa_from_density(rho, graph).potentia)

        for screen in (k for k, d in enumerate(dims) if d == 2):
            bloch_from_density(DensityOperator(partial_trace(rho.matrix, dims, (screen,))))
        if dims == (2, 2):
            correlation_matrix(rho)
            chsh_max(rho)

import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from potentia import fileio, qlin, states
from potentia.arrangements import DetectorBasis, Factorization, change_detectors, make_ea
from potentia.bell import CorrelationMatrix, MeasurementSetting
from potentia.entanglement import WitnessOperator, werner
from potentia.errors import CapacityError, DomainError, ShapeError
from potentia.families import qubit_two_bases
from potentia.locc import CPMap
from potentia.powers import ISAValuation, PowerNode, build_graph, isa_from_density
from potentia.qlin import DIM_CAP
from potentia.sampling import random_density, random_pure, random_unitary
from potentia.states import (
    EIGENVALUE_FLOOR,
    BlochPoint,
    DensityOperator,
    MixtureDecomposition,
    PureVector,
    abstract_purity,
    alternative_decomposition,
    bloch_from_density,
    density_from_vector,
    operational_purity,
    operational_purity_exists,
    spectral_decomposition,
)

from conftest import projector

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
UNIFORM = PureVector.normalized([1, 1])
QUBIT = Factorization((2,))


def bloch_state(x: float, y: float, z: float) -> DensityOperator:
    """The state (I + x X + y Y + z Z) / 2 of Bloch point (x, y, z), admitted by ``DensityOperator``."""
    return DensityOperator((np.eye(2) + x * states.PAULI_X + y * states.PAULI_Y + z * states.PAULI_Z) / 2)


class TestDensityFromVector:
    def test_ground_state(self):
        rho = density_from_vector(PureVector.basis_state(2, 0))
        assert np.array_equal(rho.matrix, np.diag([1.0, 0.0]))

    def test_uniform_superposition(self):
        rho = density_from_vector(UNIFORM)
        assert np.allclose(rho.matrix, np.full((2, 2), 0.5))
        assert abs(rho.purity() - 1.0) <= 1e-12

    def test_bloch_equator_matches_uniform(self):
        # cos(pi/4)|0> + e^{i*0} sin(pi/4)|1> is the uniform superposition.
        point = bloch_from_density(density_from_vector(UNIFORM))
        equator = BlochPoint.from_angles(np.pi / 2, 0.0)
        assert max(abs(point.x - equator.x), abs(point.y - equator.y), abs(point.z - equator.z)) <= 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            PureVector([1.0, 1.0])

    @pytest.mark.parametrize("amplitudes, norm", [
        ([np.nan, 1.0], "nan"), ([np.inf, 1.0], "inf"), ([0.0, 0.0], "0.0"), ([1e-13, 0.0], "1e-13"),
    ])
    def test_normalized_refuses_a_norm_that_is_not_finite_and_clear_of_zero(self, amplitudes, norm):
        """One DomainError and no RuntimeWarning (pytest turns one into a failure): the norm is
        judged before anything is divided by it."""
        with pytest.raises(DomainError, match=f"^cannot normalize a vector of norm {norm}$"):
            PureVector.normalized(amplitudes)

    @pytest.mark.parametrize("amplitudes, expected", [
        ([1e200, 0.0], [1.0, 0.0]),
        ([1e308, 1e308], [2**-0.5, 2**-0.5]),
        ([1e308j, -1e308 - 1e308j], [3**-0.5 * 1j, -(3**-0.5) * (1 + 1j)]),
    ])
    def test_normalized_scales_a_vector_whose_norm_overflows(self, amplitudes, expected):
        assert np.max(np.abs(PureVector.normalized(amplitudes).amplitudes - expected)) <= 1e-15

    def test_normalized_keeps_the_bits_of_a_vector_whose_norm_is_finite(self, rng):
        for amps in ([3.0, 4.0], [1e150, 1e150j], rng.standard_normal(5) + 1j * rng.standard_normal(5)):
            amps = np.asarray(amps, dtype=complex)
            assert np.array_equal(PureVector.normalized(amps).amplitudes, amps / np.linalg.norm(amps))

    @pytest.mark.parametrize("amplitudes", [[1e308, 1e308], [np.nan, 1.0], [np.inf, 0.0]])
    def test_overflowing_or_non_finite_vector_rejected_without_warning(self, amplitudes):
        with pytest.raises(DomainError, match=r"^vector \|norm - 1\| (inf|nan) exceeds 1e-09$"):
            PureVector(amplitudes)


#: Where an input sits within its admission tolerance: -1 and 1 are just inside its edges.
EDGE = st.sampled_from([-0.999, 0.999]) | st.floats(-0.999, 0.999)


class TestDerivedStatesAtTheEdge:
    """A state derived from inputs that passed admission is admitted too.  ``NORM_TOL``
    bounds |v| - 1, so <v|v> - 1 reaches 2 NORM_TOL: a derived projector or mixture is
    divided by its own trace."""

    def test_reported_calls(self):
        v = PureVector([1 + 9e-10, 0])
        assert np.trace(density_from_vector(v).matrix) == 1.0
        mixture = MixtureDecomposition([0.5, 0.5 + 9e-10], (v, v)).reconstruct()
        assert np.array_equal(mixture.matrix, np.diag([1.0, 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1), EDGE, EDGE)
    def test_no_call_raises(self, dim, count, seed, norm, weight):
        rng = np.random.default_rng(seed)
        vectors = [
            PureVector(random_pure(dim, rng).amplitudes * (1 + norm * states.NORM_TOL))
            for _ in range(count)
        ]
        rho = density_from_vector(vectors[0])
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-15)
        weights = rng.dirichlet(np.ones(count)) * (1 + weight * states.NORM_TOL)
        mixture = MixtureDecomposition(weights, tuple(vectors)).reconstruct()
        total = sum(w * np.outer(v.amplitudes, v.amplitudes.conj()) for w, v in zip(weights, vectors))
        assert np.max(np.abs(mixture.matrix - total / np.trace(total).real)) <= 1e-15


#: Least eigenvalues planted on and around the floor and half the floor, where
#: eigvalsh and the Cholesky certificate decide.
PLANTED_LEAST_EIGENVALUES = (
    -2e-7,
    -1e-7 * (1 - 1e-7),
    -1e-7,
    -1e-7 * (1 + 1e-7),
    -5e-8 * (1 - 1e-7),
    -5e-8,
    -5e-8 * (1 + 1e-7),
    -1e-9,
    0.0,
)


class TestSpectrum:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_eigenvalues_are_the_ascending_read_only_spectrum(self, dim, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
        assert np.allclose(rho.eigenvalues, np.linalg.eigvalsh(rho.matrix), rtol=0, atol=1e-12)
        assert np.all(np.diff(rho.eigenvalues) >= 0)
        with pytest.raises(ValueError):
            rho.eigenvalues[0] = 1.0

    def test_construction_certifies_with_one_cholesky(self, rng, eigensolve_counter):
        matrix = random_density(12, rng).matrix
        eigensolve_counter.clear()
        DensityOperator(matrix)
        assert eigensolve_counter == {("cholesky", (12, 12)): 1}

    def test_states_by_construction_are_not_solved(self, rng, eigensolve_counter):
        # Gram products and Werner states are PSD by construction: admitted on their trace alone.
        vectors = tuple(random_pure(6, rng) for _ in range(3))
        eigensolve_counter.clear()
        density_from_vector(vectors[0])
        MixtureDecomposition([0.2, 0.3, 0.5], vectors).reconstruct()
        random_density(6, rng, rank=2)
        werner(0.3)
        assert not eigensolve_counter

    def test_a_callers_matrix_and_a_files_are_certified_by_one_cholesky_each(
        self, rng, tmp_path, eigensolve_counter
    ):
        matrix = random_density(6, rng).matrix
        fileio.dump_state(tmp_path / "state.json", fileio.state_document(DensityOperator(matrix)))
        for admit in (lambda: DensityOperator(matrix), lambda: fileio.load_state(tmp_path / "state.json")):
            eigensolve_counter.clear()
            admit()
            assert eigensolve_counter == {("cholesky", (6, 6)): 1}

    def test_dimension_cap_is_checked_before_anything_is_solved(self, eigensolve_counter):
        matrix = np.eye(DIM_CAP + 1, dtype=complex)
        matrix /= DIM_CAP + 1
        with pytest.raises(CapacityError, match="^density operator dimension 4097 exceeds the cap of 4096$"):
            DensityOperator(matrix)
        assert not eigensolve_counter

    @pytest.mark.parametrize("make, what", [
        (lambda m: PowerNode(m, "P"), "power 'P'"),
        (lambda m: DetectorBasis((m,)), "screen 0 basis"),
        (lambda m: WitnessOperator(m, HALF), "witness"),
        (lambda m: CPMap((m,)), "Kraus operator 0"),
    ], ids=["PowerNode", "DetectorBasis", "WitnessOperator", "CPMap"])
    def test_every_matrix_gate_checks_the_dimension_cap(self, make, what):
        """The cap is checked first, and its refusal names the matrix."""
        with pytest.raises(CapacityError) as refused:
            make(np.zeros((DIM_CAP + 1, 1)))
        assert str(refused.value) == f"{what} dimension 4097 exceeds the cap of 4096"

    def test_spectrum_is_solved_once_on_first_read(self, rng, eigensolve_counter):
        rho = random_density(12, rng)
        eigensolve_counter.clear()
        first = rho.eigenvalues
        assert rho.eigenvalues is first
        assert eigensolve_counter == {(12, 12): 1}

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 16),
        st.one_of(st.sampled_from(PLANTED_LEAST_EIGENVALUES), st.floats(1e-12, 1e-2)),
        st.integers(0, 2**32 - 1),
    )
    def test_positivity_decision_is_the_eigvalsh_rule(self, dim, least, seed):
        """A state is accepted iff its eigvalsh minimum lies at or above
        EIGENVALUE_FLOOR, and rejected with that minimum, negated, in the message."""
        rng = np.random.default_rng(seed)
        rest = rng.uniform(0.1, 1.0, dim - 1)
        spectrum = np.concatenate([[least], rest * (1 - least) / rest.sum()]) if dim > 1 else [1.0]
        u = random_unitary(dim, rng)
        matrix = (u * spectrum) @ u.conj().T
        oracle = np.linalg.eigvalsh(matrix)
        if oracle[0] >= EIGENVALUE_FLOOR:
            rho = DensityOperator(matrix)
            assert np.array_equal(rho.eigenvalues, oracle)
            with pytest.raises(AttributeError) as refused:
                rho.eigenvalues = oracle
            assert type(refused.value) is AttributeError
            assert str(refused.value) == "cannot assign to field 'eigenvalues'"
        else:
            with pytest.raises(DomainError) as excinfo:
                DensityOperator(matrix)
            expected = f"density operator negated least eigenvalue {float(-oracle[0])!r} exceeds 1e-07"
            assert str(excinfo.value) == expected

    def test_purity_is_the_trace_of_the_square(self, rng):
        for dim in (1, 3, 6):
            rho = random_density(dim, rng)
            assert rho.purity() == pytest.approx(np.trace(rho.matrix @ rho.matrix).real, abs=1e-14)


class TestInputsAreCopied:
    def test_density_operator_leaves_caller_matrix_writable(self):
        matrix = np.eye(2, dtype=np.complex128) / 2
        rho = DensityOperator(matrix)
        matrix[0, 0] = 7.0
        assert rho.matrix[0, 0] == 0.5

    @pytest.mark.parametrize(
        "least, solves",
        [(0.05, {}), (-8e-8, {(5, 5): 1}), (-2e-7, {(5, 5): 1})],
        ids=["cholesky", "eigvalsh_fallback", "rejected"],
    )
    def test_density_operator_owns_one_copy(self, rng, eigensolve_counter, least, solves):
        """The caller's array stays bit-identical and writeable on every path, and
        ``matrix`` is a read-only, bit-identical copy of it."""
        u = random_unitary(5, rng)
        matrix = (u * [least, 0.3, 0.25, 0.25, 0.2 - least]) @ u.conj().T
        before = matrix.copy()
        eigensolve_counter.clear()
        try:
            rho = DensityOperator(matrix)
        except DomainError:
            rho = None
        assert eigensolve_counter == {("cholesky", (5, 5)): 1, **solves}
        assert matrix.tobytes() == before.tobytes() and matrix.flags.writeable
        assert (rho is None) == (least < EIGENVALUE_FLOOR)
        if rho is not None:
            assert rho.matrix.tobytes() == before.tobytes()
            assert not rho.matrix.flags.writeable and not np.shares_memory(rho.matrix, matrix)

    def test_pure_vector_ignores_later_writes(self):
        amplitudes = np.array([1.0, 0.0], dtype=np.complex128)
        vector = PureVector(amplitudes)
        amplitudes[0] = 5.0
        assert np.linalg.norm(vector.amplitudes) == 1.0


class TestPurity:
    def test_abstract_on_projector(self):
        assert abstract_purity(density_from_vector(PureVector.basis_state(2, 0)))

    def test_abstract_on_maximally_mixed(self):
        rho = DensityOperator.maximally_mixed(2)
        assert rho.purity() == pytest.approx(0.5, abs=1e-12)
        assert not abstract_purity(rho)

    def test_abstract_on_uniform_projector(self):
        assert abstract_purity(density_from_vector(UNIFORM))

    def test_operational_ground_state(self):
        rho = density_from_vector(PureVector.basis_state(2, 0))
        assert operational_purity(make_ea(rho, QUBIT))

    def test_operational_uniform_in_computational(self):
        assert not operational_purity(make_ea(density_from_vector(UNIFORM), QUBIT))

    def test_operational_uniform_in_its_own_basis(self):
        assert operational_purity(make_ea(density_from_vector(UNIFORM), QUBIT, DetectorBasis((HADAMARD,))))

    def test_operational_detects_a_column_of_a_random_basis(self, rng):
        basis = random_unitary(5, rng)
        detectors = Factorization((5,)), DetectorBasis((basis,))
        pure = density_from_vector(PureVector(basis[:, 3]))
        assert operational_purity(make_ea(pure, *detectors))
        blurred = DensityOperator(0.99 * pure.matrix + 0.01 * np.eye(5) / 5)
        assert not operational_purity(make_ea(blurred, *detectors))

    def test_existential_reading(self):
        assert operational_purity_exists(density_from_vector(UNIFORM))
        assert not operational_purity_exists(DensityOperator.maximally_mixed(2))

    def test_basis_dim_mismatch(self):
        with pytest.raises(ShapeError):
            make_ea(density_from_vector(UNIFORM), QUBIT, DetectorBasis((np.eye(3),)))

    def test_non_orthonormal_basis(self):
        with pytest.raises(DomainError):
            DetectorBasis((np.ones((2, 2)),))

    def test_agreement_report(self):
        """The two predicates side by side, in computational detectors: they are not equivalent."""
        ground = density_from_vector(PureVector.basis_state(2, 0))
        uniform = density_from_vector(UNIFORM)
        mixed = DensityOperator.maximally_mixed(2)
        for rho, expected in ((ground, (True, True)), (uniform, (True, False)), (mixed, (False, False))):
            assert (abstract_purity(rho), operational_purity(make_ea(rho, QUBIT))) == expected

    def test_operational_implies_abstract(self, rng):
        for _ in range(200):
            rho = random_density(2, rng, rank=int(rng.integers(1, 3)))
            basis = DetectorBasis((random_unitary(2, rng),))
            if operational_purity(make_ea(rho, QUBIT, basis)):
                assert abstract_purity(rho)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([(2,), (5,), (2, 2), (2, 3), (3, 2, 2)]),
        frame=st.sampled_from(["computational", "haar", "dense", "pending"]),
        near=st.sampled_from([None, "detector", "random"]),
        blur=st.floats(0.0, 4.0),
        tol=st.sampled_from([1e-9, 1e-6, 1e-3, 0.1]),
    )
    def test_operational_purity_is_the_dense_reading(self, seed, dims, frame, near, blur, tol):
        """``operational_purity(ea)`` is max over the columns b of ``ea.basis_matrix`` of <b|rho|b>
        >= 1 - tol, on random states (``near`` None) and on states ``blur * tol`` from the pure state
        of one detector or of a random vector, in computational, Haar product, dense one-screen and
        pending (one detector change not yet formed) frames."""
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        if frame == "dense":
            dims = (n,)
        screens = [np.eye(d) if frame == "computational" else random_unitary(d, rng) for d in dims]
        change = None
        if frame == "pending":
            k = int(rng.integers(len(dims)))
            change = (k, random_unitary(dims[k], rng))
        final = [u @ change[1] if change and j == change[0] else u for j, u in enumerate(screens)]
        if near is None:
            rho = random_density(n, rng, rank=int(rng.integers(1, n + 1)))
        else:
            columns = functools.reduce(np.kron, final)
            v = columns[:, rng.integers(n)] if near == "detector" else random_pure(n, rng).amplitudes
            mixing = min(blur * tol, 1.0)
            rho = DensityOperator((1 - mixing) * np.outer(v, v.conj()) + mixing * np.eye(n) / n)
        ea = make_ea(rho, Factorization(dims), DetectorBasis(tuple(screens)))
        if change is not None:
            ea = change_detectors(ea, *change)
            assert "pending" in vars(ea)["_cell"]
        b = ea.basis_matrix
        top = float(np.max(np.real(np.sum(b.conj() * (rho.matrix @ b), axis=0))))
        if abs(top - (1.0 - tol)) > 1e-12:  # nearer, the two sums may round either way
            assert operational_purity(ea, tol) is (top >= 1.0 - tol)

    def test_abstract_iff_max_eigenvalue(self, rng):
        for _ in range(200):
            rho = random_density(3, rng, rank=int(rng.integers(1, 4)))
            top = float(np.linalg.eigvalsh(rho.matrix)[-1])
            # Far from the tolerance boundary these two readings agree.
            if top > 1 - 1e-9:
                assert abstract_purity(rho)
            if top < 1 - 1e-3:
                assert not abstract_purity(rho)


class TestBloch:
    def test_roundtrip_over_the_ball(self, rng):
        for _ in range(1000):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            radius = rng.uniform(0.0, 1.0)
            point = BlochPoint(*(radius * direction))
            back = bloch_from_density(bloch_state(point.x, point.y, point.z))
            assert abs(back.x - point.x) <= 1e-9
            assert abs(back.y - point.y) <= 1e-9
            assert abs(back.z - point.z) <= 1e-9

    def test_surface_iff_abstract_pure(self, rng):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        assert abstract_purity(bloch_state(*direction))
        assert not abstract_purity(bloch_state(*(0.8 * direction)))

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            BlochPoint(1.0, 1.0, 0.0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        least=st.sampled_from(PLANTED_LEAST_EIGENVALUES[1:]) | st.floats(EIGENVALUE_FLOOR, 0.0),
        excess=st.sampled_from([-1.0, -(1 - 1e-7), 0.0, 1 - 1e-7, 1.0]) | st.floats(-1.0, 1.0),
        theta=st.sampled_from([0.0, np.pi / 2, np.pi]) | st.floats(0.0, np.pi),
        phi=st.floats(0.0, 2 * np.pi),
    )
    @example(least=-0.999e-7, excess=0.999, theta=0.0, phi=0.0)  # diag(1 + 0.999e-9 + 0.999e-7, -0.999e-7)
    def test_every_admitted_state_round_trips(self, least, excess, theta, phi):
        """A qubit state with its least eigenvalue planted at or above the floor and its trace at or
        within ``TRACE_TOL`` of one: if ``DensityOperator`` admits it, its Bloch point does too, and
        the point with the state's trace gives the state back, (Tr(rho) I + r.sigma) / 2.  A point
        past ``BlochPoint``'s bound, in the same direction, is refused."""
        c, s = np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)
        u = np.array([[c, -s.conjugate()], [s, c]])
        matrix = u @ np.diag([1 + excess * states.TRACE_TOL - least, least]) @ u.conj().T
        try:
            rho = DensityOperator(matrix)
        except DomainError:
            assume(False)
        point = bloch_from_density(rho)
        pauli = point.x * states.PAULI_X + point.y * states.PAULI_Y + point.z * states.PAULI_Z
        assert np.max(np.abs((np.trace(rho.matrix).real * np.eye(2) + pauli) / 2 - rho.matrix)) <= 1e-15
        bound = 1 + states.TRACE_TOL - 2 * EIGENVALUE_FLOOR
        if point.norm:
            with pytest.raises(DomainError, match="^Bloch point norm"):
                BlochPoint(*(np.array([point.x, point.y, point.z]) * (bound * (1 + 1e-12) / point.norm)))

    def test_the_bound_is_the_trace_tolerance_past_the_floor(self):
        """A point on ``BlochPoint``'s bound, 1 + ``TRACE_TOL`` + 2 |floor|, is admitted, on each axis;
        the next float past it is refused."""
        bound = 1 + states.TRACE_TOL - 2 * EIGENVALUE_FLOOR
        past = float(np.nextafter(bound, 2.0))
        for axis in np.eye(3):
            assert BlochPoint(*(-bound * axis)).norm == bound
            with pytest.raises(DomainError, match=f"^Bloch point norm {past!r} exceeds {bound!r}$"):
                BlochPoint(*(past * axis))

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, np.pi, exclude_min=True, exclude_max=True),
        st.floats(0.0, 2 * np.pi, exclude_max=True),
    )
    def test_angles_roundtrip(self, theta, phi):
        point = BlochPoint.from_angles(theta, phi)
        back = BlochPoint.from_angles(*point.angles())
        assert max(abs(back.x - point.x), abs(back.y - point.y), abs(back.z - point.z)) <= 1e-12

    def test_center_angles(self):
        assert BlochPoint(0.0, 0.0, 0.0).angles() == (np.pi / 2, 0.0)


class TestDecompositions:
    def test_spectral_of_maximally_mixed(self):
        decomposition = spectral_decomposition(DensityOperator.maximally_mixed(2))
        assert np.allclose(decomposition.weights, [0.5, 0.5])
        gram = np.array(
            [
                [abs(np.vdot(a.amplitudes, b.amplitudes)) for b in decomposition.components]
                for a in decomposition.components
            ]
        )
        assert np.allclose(gram, np.eye(2), atol=1e-9)

    def test_spectral_of_diagonal(self):
        decomposition = spectral_decomposition(DensityOperator(np.diag([0.7, 0.3]).astype(complex)))
        assert np.allclose(decomposition.weights, [0.7, 0.3])
        assert abs(decomposition.components[0].amplitudes[0]) == pytest.approx(1.0)
        assert abs(decomposition.components[1].amplitudes[1]) == pytest.approx(1.0)

    def test_spectral_weights_descend_and_rebuild_the_state(self, rng):
        for dim in (2, 5, 8):
            rho = random_density(dim, rng)
            decomposition = spectral_decomposition(rho)
            assert np.all(np.diff(decomposition.weights) <= 1e-12)
            amplitudes = np.stack([c.amplitudes for c in decomposition.components])
            assert np.max(np.abs(amplitudes.conj() @ amplitudes.T - np.eye(dim))) <= 1e-9
            assert np.max(np.abs(decomposition.reconstruct().matrix - rho.matrix)) <= 1e-8

    def test_spectral_of_a_degenerate_state_rebuilds_it(self):
        # Any orthonormal basis of a degenerate eigenspace must do.
        rho = DensityOperator(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        decomposition = spectral_decomposition(rho)
        assert np.allclose(decomposition.weights, [0.5, 0.5])
        assert np.max(np.abs(decomposition.reconstruct().matrix - rho.matrix)) <= 1e-12

    def test_spectral_of_pure(self):
        decomposition = spectral_decomposition(density_from_vector(UNIFORM))
        assert len(decomposition.components) == 1
        assert decomposition.weights[0] == pytest.approx(1.0)

    def test_identity_mixer(self):
        decomposition = spectral_decomposition(DensityOperator(np.diag([0.7, 0.3]).astype(complex)))
        same = alternative_decomposition(decomposition, np.eye(2))
        assert np.allclose(same.weights, decomposition.weights)

    def test_hadamard_mixer_yields_disjoint_ensemble(self):
        mixed = DensityOperator.maximally_mixed(2)
        spectral = spectral_decomposition(mixed)
        alternative = alternative_decomposition(spectral, HADAMARD)
        assert np.allclose(alternative.weights, [0.5, 0.5])
        # Reconstruction oracle: the new ensemble rebuilds I/2 ...
        rebuilt = alternative.reconstruct()
        assert np.max(np.abs(rebuilt.matrix - mixed.matrix)) <= 1e-10
        # ... from components sharing no pure state with the spectral ones.
        for new in alternative.components:
            for old in spectral.components:
                assert abs(np.vdot(new.amplitudes, old.amplitudes)) < 1 - 1e-6

    def test_rotation_mixer_gives_nonorthogonal_components(self):
        rho = DensityOperator(np.diag([0.7, 0.3]).astype(complex))
        angle = 0.4
        rotation = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]], dtype=complex
        )
        alternative = alternative_decomposition(spectral_decomposition(rho), rotation)
        overlap = abs(
            np.vdot(alternative.components[0].amplitudes, alternative.components[1].amplitudes)
        )
        assert overlap > 1e-3
        assert np.max(np.abs(alternative.reconstruct().matrix - rho.matrix)) <= 1e-10

    def test_random_unitary_mixers_always_reconstruct(self, rng):
        for _ in range(100):
            rho = random_density(3, rng)
            decomposition = spectral_decomposition(rho)
            mixer = random_unitary(len(decomposition.components), rng)
            alternative = alternative_decomposition(decomposition, mixer)
            assert np.max(np.abs(alternative.reconstruct().matrix - rho.matrix)) <= 1e-8

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(2, 6), st.data())
    def test_mixtures_reconstruct_their_state(self, dim, data):
        """Spectral and Haar-mixed ensembles: unit components, weights >= 0 summing to 1, the
        spectral weights the state's eigenvalues, and the mixed ensemble the same state."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rho = random_density(dim, rng, rank=data.draw(st.integers(1, dim)))
        spectral = spectral_decomposition(rho)
        k = len(spectral.components)
        mixer = random_unitary(data.draw(st.integers(k, k + 3)), rng)[:, :k]
        alternative = alternative_decomposition(spectral, mixer)
        assert np.max(np.abs(alternative.reconstruct().matrix - rho.matrix)) <= 1e-12
        for mixture in (spectral, alternative):
            count = len(mixture.components)
            assert np.min(mixture.weights) >= 0 and abs(mixture.weights.sum() - 1) <= 1e-15 * count
            norms = np.array([np.linalg.norm(c.amplitudes) for c in mixture.components])
            assert np.max(np.abs(norms - 1)) <= 1e-15
        eigenvalues = rho.eigenvalues[::-1]  # descending, as the spectral components
        assert np.max(np.abs(spectral.weights - eigenvalues[eigenvalues >= states.WEIGHT_FLOOR])) <= 1e-15

    @pytest.mark.parametrize("rows", [1, 2])
    def test_mixer_with_fewer_rows_than_columns_fails_the_isometry_check(self, rows):
        """V^dag V of an m x k matrix with m < k has an eigenvalue 0: its Gram error is >= 1/k."""
        decomposition = spectral_decomposition(DensityOperator.maximally_mixed(3))
        with pytest.raises(DomainError, match=r"^mixer max Gram error .* exceeds 1e-09$"):
            alternative_decomposition(decomposition, np.eye(3)[:rows])

    def test_non_isometric_mixer_rejected(self):
        decomposition = spectral_decomposition(DensityOperator.maximally_mixed(2))
        with pytest.raises(DomainError):
            alternative_decomposition(decomposition, np.array([[1, 1], [0, 1]], dtype=complex))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            MixtureDecomposition(
                np.array([0.5, 0.4]),
                (PureVector.basis_state(2, 0), PureVector.basis_state(2, 1)),
            )

    def test_components_of_different_dimensions_rejected(self):
        """Refused at construction, before ``reconstruct`` or a mixer could broadcast them."""
        components = (PureVector.basis_state(2, 0), PureVector.basis_state(3, 0))
        with pytest.raises(ShapeError, match=r"^mixture components differ in dimension: \[2, 3\]$"):
            MixtureDecomposition([0.5, 0.5], components)


HALF = DensityOperator.maximally_mixed(2)
QUBIT = Factorization((2,))
ARRAY_HOLDING_VALUES = {
    "PureVector": lambda: PureVector.basis_state(2, 0),
    "DensityOperator": lambda: DensityOperator.maximally_mixed(2),
    "MixtureDecomposition": lambda: spectral_decomposition(HALF),
    "DetectorBasis": lambda: DetectorBasis((np.eye(2),)),
    "ExperimentalArrangement": lambda: make_ea(HALF, QUBIT),
    "PowerNode": lambda: PowerNode(np.diag([1.0, 0.0]), "|0><0|"),
    "ISAValuation": lambda: isa_from_density(HALF, build_graph(qubit_two_bases())),
    "WitnessOperator": lambda: WitnessOperator(np.eye(2), HALF),
    "CPMap": lambda: CPMap.identity(2),
    "CorrelationMatrix": lambda: CorrelationMatrix(np.eye(3)),
    "MeasurementSetting": lambda: MeasurementSetting(*np.eye(3)[[0, 1, 0, 1]]),
}


@pytest.mark.parametrize("name", list(ARRAY_HOLDING_VALUES))
def test_array_holding_values_compare_by_identity_and_hash(name):
    first, second = ARRAY_HOLDING_VALUES[name](), ARRAY_HOLDING_VALUES[name]()
    assert first == first
    assert first != second
    assert len({first, second, first}) == 2


NAN = float("nan")
QUBIT_GRAPH = build_graph(qubit_two_bases())
NAN_INPUTS = {
    "PureVector": lambda: PureVector([NAN, 0]),
    "MixtureDecomposition": lambda: MixtureDecomposition([NAN], (PureVector.basis_state(2, 0),)),
    "BlochPoint": lambda: BlochPoint(NAN, 0.0, 0.0),
    "MeasurementSetting": lambda: MeasurementSetting([NAN, 0, 0], *np.eye(3)[[0, 1, 1]]),
    "ISAValuation": lambda: ISAValuation(QUBIT_GRAPH, [NAN] * len(QUBIT_GRAPH.nodes)),
    "CorrelationMatrix": lambda: CorrelationMatrix(np.full((3, 3), NAN)),
}


@pytest.mark.parametrize("name", list(NAN_INPUTS))
def test_bound_checks_reject_nan(name):
    with pytest.raises(DomainError):
        NAN_INPUTS[name]()

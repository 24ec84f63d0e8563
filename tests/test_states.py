import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potentia import states
from potentia.arrangements import DetectorBasis, Factorization, make_ea
from potentia.bell import CorrelationMatrix, MeasurementSetting
from potentia.entanglement import WitnessOperator
from potentia.errors import DomainError, ShapeError
from potentia.families import qubit_two_bases
from potentia.locc import CPMap
from potentia.powers import ISAValuation, PowerNode, build_graph, isa_from_density
from potentia.qlin import herm_eig
from potentia.sampling import random_density, random_pure, random_unitary
from potentia.states import (
    BlochPoint,
    DensityOperator,
    MixtureDecomposition,
    PureVector,
    abstract_purity,
    alternative_decomposition,
    bloch_from_density,
    density_from_bloch,
    density_from_vector,
    operational_purity,
    operational_purity_exists,
    projective_distance,
    purity_agreement_report,
    shadow,
    spectral_decomposition,
)

from conftest import projector

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
UNIFORM = PureVector.normalized([1, 1])


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
        rho = density_from_bloch(BlochPoint.from_angles(np.pi / 2, 0.0))
        assert np.allclose(rho.matrix, density_from_vector(UNIFORM).matrix, atol=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            PureVector([1.0, 1.0])


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
        assert operational_purity(rho, np.eye(2))

    def test_operational_uniform_in_computational(self):
        assert not operational_purity(density_from_vector(UNIFORM), np.eye(2))

    def test_operational_uniform_in_its_own_basis(self):
        assert operational_purity(density_from_vector(UNIFORM), HADAMARD)

    def test_operational_detects_a_column_of_a_random_basis(self, rng):
        basis = random_unitary(5, rng)
        pure = density_from_vector(PureVector(basis[:, 3]))
        assert operational_purity(pure, basis)
        blurred = DensityOperator(0.99 * pure.matrix + 0.01 * np.eye(5) / 5)
        assert not operational_purity(blurred, basis)

    def test_existential_reading(self):
        assert operational_purity_exists(density_from_vector(UNIFORM))
        assert not operational_purity_exists(DensityOperator.maximally_mixed(2))

    def test_basis_dim_mismatch(self):
        with pytest.raises(ShapeError):
            operational_purity(density_from_vector(UNIFORM), np.eye(3))

    def test_non_orthonormal_basis(self):
        with pytest.raises(DomainError):
            operational_purity(density_from_vector(UNIFORM), np.ones((2, 2)))

    def test_agreement_report(self):
        ground = density_from_vector(PureVector.basis_state(2, 0))
        assert purity_agreement_report(ground, np.eye(2)) == states.PurityReport(True, True)
        uniform = density_from_vector(UNIFORM)
        assert purity_agreement_report(uniform, np.eye(2)) == states.PurityReport(True, False)
        mixed = DensityOperator.maximally_mixed(2)
        assert purity_agreement_report(mixed, np.eye(2)) == states.PurityReport(False, False)

    def test_operational_implies_abstract(self, rng):
        for _ in range(200):
            rho = random_density(2, rng, rank=int(rng.integers(1, 3)))
            basis = random_unitary(2, rng)
            if operational_purity(rho, basis):
                assert abstract_purity(rho)

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
    def test_north_pole(self):
        rho = density_from_bloch(BlochPoint(0, 0, 1))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_south_pole_orthogonal(self):
        north = density_from_bloch(BlochPoint(0, 0, 1))
        south = density_from_bloch(BlochPoint(0, 0, -1))
        assert np.allclose(south.matrix, np.diag([0.0, 1.0]), atol=1e-12)
        assert abs(np.trace(north.matrix @ south.matrix)) <= 1e-12

    def test_center(self):
        rho = density_from_bloch(BlochPoint(0, 0, 0))
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_roundtrip_over_the_ball(self, rng):
        for _ in range(1000):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            radius = rng.uniform(0.0, 1.0)
            point = BlochPoint(*(radius * direction))
            back = bloch_from_density(density_from_bloch(point))
            assert abs(back.x - point.x) <= 1e-9
            assert abs(back.y - point.y) <= 1e-9
            assert abs(back.z - point.z) <= 1e-9

    def test_surface_iff_abstract_pure(self, rng):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        assert abstract_purity(density_from_bloch(BlochPoint(*direction)))
        assert not abstract_purity(density_from_bloch(BlochPoint(*(0.8 * direction))))

    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            BlochPoint(1.0, 1.0, 0.0)

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


class TestShadow:
    def test_on_itself(self):
        axis = PureVector.basis_state(3, 0)
        coefficient, projected = shadow(axis, axis)
        assert coefficient == pytest.approx(1.0)
        assert np.allclose(projected, axis.amplitudes)

    def test_orthogonal(self):
        coefficient, projected = shadow(PureVector.basis_state(2, 0), PureVector.basis_state(2, 1))
        assert coefficient == pytest.approx(0.0)
        assert np.allclose(projected, 0.0)

    def test_diagonal_vector(self):
        x = PureVector.basis_state(2, 0)
        y = PureVector.basis_state(2, 1)
        diagonal = PureVector.normalized(x.amplitudes + y.amplitudes)
        # Inner-product oracle.
        expected = complex(np.vdot(x.amplitudes, diagonal.amplitudes))
        assert expected == pytest.approx(1 / np.sqrt(2))
        coefficient, _ = shadow(diagonal, x)
        assert coefficient == pytest.approx(expected)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            shadow(PureVector.basis_state(2, 0), PureVector.basis_state(3, 0))


class TestProjectiveDistance:
    def test_self_distance(self):
        rho = density_from_vector(UNIFORM)
        assert projective_distance(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_pair(self):
        zero = density_from_vector(PureVector.basis_state(2, 0))
        one = density_from_vector(PureVector.basis_state(2, 1))
        assert projective_distance(zero, one) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_zero_vs_plus(self):
        # Oracle: sqrt(2 - 2|<0|+>|^2) = sqrt(2 - 1) = 1.
        overlap = abs(np.vdot([1, 0], np.array([1, 1]) / np.sqrt(2))) ** 2
        assert np.sqrt(2 - 2 * overlap) == pytest.approx(1.0)
        zero = density_from_vector(PureVector.basis_state(2, 0))
        plus = density_from_vector(UNIFORM)
        assert projective_distance(zero, plus) == pytest.approx(1.0, abs=1e-12)

    def test_range_and_extremes(self, rng):
        for _ in range(200):
            p = density_from_vector(random_pure(3, rng))
            q = density_from_vector(random_pure(3, rng))
            dist = projective_distance(p, q)
            assert -1e-12 <= dist <= np.sqrt(2) + 1e-12

    def test_mixed_input_rejected(self):
        with pytest.raises(DomainError):
            projective_distance(
                DensityOperator.maximally_mixed(2),
                density_from_vector(UNIFORM),
            )


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


HALF = DensityOperator.maximally_mixed(2)
QUBIT = Factorization((2,))
ARRAY_HOLDING_VALUES = {
    "PureVector": lambda: PureVector.basis_state(2, 0),
    "DensityOperator": lambda: DensityOperator.maximally_mixed(2),
    "MixtureDecomposition": lambda: spectral_decomposition(HALF),
    "DetectorBasis": lambda: DetectorBasis.computational(QUBIT),
    "ExperimentalArrangement": lambda: make_ea(HALF, QUBIT, DetectorBasis.computational(QUBIT)),
    "PowerNode": lambda: PowerNode(np.diag([1.0, 0.0]), "|0><0|"),
    "ISAValuation": lambda: isa_from_density(HALF, build_graph(qubit_two_bases())),
    "WitnessOperator": lambda: WitnessOperator(np.eye(2), HALF),
    "CPMap": lambda: CPMap.identity(2),
    "CorrelationMatrix": lambda: CorrelationMatrix(np.eye(3)),
    "MeasurementSetting": lambda: MeasurementSetting(*np.eye(3)[[0, 1, 0, 1]]),
    "HermitianSpectrum": lambda: herm_eig(np.eye(2)),
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

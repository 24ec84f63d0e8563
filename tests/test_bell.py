import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potentia.bell import (
    TSIRELSON_BOUND,
    MeasurementSetting,
    chsh_max,
    chsh_value,
    correlation_matrix,
    region,
)
from potentia.entanglement import WernerRegion, ppt_criterion, werner
from potentia.errors import ShapeError
from potentia.qlin import kron
from potentia.sampling import random_density, random_pure, random_separable, random_unitary
from potentia.states import PAULI_X, PAULI_Y, PAULI_Z, DensityOperator, PureVector, density_from_vector

RHO_PHI = density_from_vector(PureVector.normalized([1, 0, 0, 1]))

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
OPTIMAL = MeasurementSetting(Z, X, (Z + X) / np.sqrt(2), (Z - X) / np.sqrt(2))


def correlation_oracle(rho: DensityOperator) -> np.ndarray:
    """Nine explicit trace evaluations."""
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    t = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = float(np.real(np.trace(rho.matrix @ kron(si, sj))))
    return t


class TestCorrelationMatrix:
    def test_bell_state(self):
        oracle = correlation_oracle(RHO_PHI)
        assert np.allclose(oracle, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        assert np.allclose(correlation_matrix(RHO_PHI).t, oracle)

    def test_maximally_mixed(self):
        assert np.allclose(correlation_matrix(DensityOperator.maximally_mixed(4)).t, 0.0)

    def test_werner_linearity(self):
        for p in (0.25, 0.6, 0.9):
            expected = p * correlation_oracle(RHO_PHI) + (1 - p) * correlation_oracle(
                DensityOperator.maximally_mixed(4)
            )
            assert np.allclose(correlation_matrix(werner(p)).t, expected, atol=1e-12)

    def test_wrong_dim(self):
        with pytest.raises(ShapeError):
            correlation_matrix(DensityOperator.maximally_mixed(2))


class TestChshValue:
    def test_maximally_mixed_scores_zero(self):
        assert chsh_value(DensityOperator.maximally_mixed(4), OPTIMAL) == pytest.approx(0.0)

    def test_bell_state_at_optimal_settings(self):
        # Explicit vector arithmetic oracle with t = diag(1,-1,1):
        # E(z,(z+x)/sqrt2) = 1/sqrt2 three times, E(x,(z-x)/sqrt2) = -1/sqrt2.
        t = np.diag([1.0, -1.0, 1.0])
        terms = [
            Z @ t @ OPTIMAL.b,
            Z @ t @ OPTIMAL.b_prime,
            X @ t @ OPTIMAL.b,
            -(X @ t @ OPTIMAL.b_prime),
        ]
        assert sum(terms) == pytest.approx(2 * np.sqrt(2))
        assert chsh_value(RHO_PHI, OPTIMAL) == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_werner_scaling(self):
        for p in (0.3, 0.7):
            assert chsh_value(werner(p), OPTIMAL) == pytest.approx(p * 2 * np.sqrt(2), abs=1e-9)


class TestChshMax:
    def test_bell_state(self):
        # t^T t = identity, so the two leading eigenvalues sum to 2.
        t = correlation_oracle(RHO_PHI)
        assert np.allclose(t.T @ t, np.eye(3), atol=1e-12)
        assert chsh_max(RHO_PHI).value == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_werner_crossing(self):
        for p in (0.2, 0.6, 1 / np.sqrt(2), 0.95):
            assert chsh_max(werner(p)).value == pytest.approx(p * 2 * np.sqrt(2), abs=1e-9)

    def test_product_states_respect_classical_bound(self, rng):
        for _ in range(1000):
            rho = DensityOperator(
                np.kron(
                    density_from_vector(random_pure(2, rng)).matrix,
                    density_from_vector(random_pure(2, rng)).matrix,
                )
            )
            # Rank-1 correlation oracle: t = a b^T, so m1 + m2 = |a|^2 |b|^2 <= 1.
            assert chsh_max(rho).value <= 2.0 + 1e-9

    def test_achieving_setting_reproduces_maximum(self, rng):
        for _ in range(100):
            rho = random_density(4, rng)
            best = chsh_max(rho)
            assert chsh_value(rho, best.setting) == pytest.approx(best.value, abs=1e-7)

    def test_upper_bounds_sampled_settings(self, rng):
        rho = random_density(4, rng)
        best = chsh_max(rho)

        def unit(v):
            return v / np.linalg.norm(v)

        for _ in range(10_000):
            setting = MeasurementSetting(
                unit(rng.standard_normal(3)),
                unit(rng.standard_normal(3)),
                unit(rng.standard_normal(3)),
                unit(rng.standard_normal(3)),
            )
            assert chsh_value(rho, setting) <= best.value + 1e-7

    def test_tsirelson_bound(self, rng):
        for _ in range(300):
            rho = random_density(4, rng, rank=int(rng.integers(1, 5)))
            assert chsh_max(rho).value <= 2 * np.sqrt(2) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_maximum_is_bounded_and_attained(self, rank, seed):
        rho = random_density(4, np.random.default_rng(seed), rank=rank)
        best = chsh_max(rho)
        assert best.value <= TSIRELSON_BOUND + 1e-9
        assert chsh_value(rho, best.setting) == pytest.approx(best.value, abs=1e-9)

    def test_local_unitary_invariance(self, rng):
        for _ in range(100):
            rho = random_density(4, rng)
            u = random_unitary(2, rng)
            v = random_unitary(2, rng)
            local = np.kron(u, v)
            rotated = DensityOperator(local @ rho.matrix @ local.conj().T)
            assert chsh_max(rotated).value == pytest.approx(chsh_max(rho).value, abs=1e-8)

    def test_separable_mixtures_respect_classical_bound(self, rng):
        for _ in range(300):
            rho = random_separable((2, 2), rng, terms=int(rng.integers(1, 6)))
            assert chsh_max(rho).value <= 2.0 + 1e-7


class TestRegions:
    def test_werner_line(self):
        for p, expected in ((0.2, WernerRegion.SEPARABLE), (0.5, WernerRegion.ENTANGLED_LOCAL),
                            (0.9, WernerRegion.NONLOCAL)):
            rho = werner(p)
            assert region(ppt_criterion(rho, (2, 2)), chsh_max(rho).value) is expected

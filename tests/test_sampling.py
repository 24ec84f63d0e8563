import numpy as np
import pytest

from potentia import sampling
from potentia.errors import CapacityError, DomainError
from potentia.states import PureVector


def _ginibre(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSizesAreJudgedBeforeAnyDraw:
    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda rng: sampling.random_unitary(-1, rng), DomainError, r"got \(-1,\)$",
                     id="unitary-negative"),
        pytest.param(lambda rng: sampling.random_pure(-2, rng), DomainError, r"got \(-2,\)$",
                     id="pure-negative"),
        pytest.param(lambda rng: sampling.random_pure(2.0, rng), DomainError, r"got \(2\.0,\)$",
                     id="pure-float"),
        pytest.param(lambda rng: sampling.random_density(0, rng), DomainError, r"got \(0,\)$",
                     id="density-zero"),
        pytest.param(lambda rng: sampling.random_density(5000, rng), CapacityError,
                     "degree 5000 exceeds the cap of 4096$", id="density-over-cap"),
        pytest.param(lambda rng: sampling.random_density(3, rng, rank=4), DomainError,
                     "^rank must be an integer in 1..3, got 4$", id="density-rank"),
        pytest.param(lambda rng: sampling.random_density(3, rng, rank=2.5), DomainError,
                     r"^rank must be an integer in 1..3, got 2\.5$", id="density-float-rank"),
        pytest.param(lambda rng: sampling.random_density(3, rng, rank=True), DomainError,
                     "^rank must be an integer in 1..3, got True$", id="density-bool-rank"),
        pytest.param(lambda rng: sampling.random_projector(-1, 1, rng), DomainError, r"got \(-1,\)$",
                     id="projector-negative"),
        pytest.param(lambda rng: sampling.random_projector(3, 0, rng), DomainError,
                     "^rank must be an integer in 1..3, got 0$", id="projector-rank"),
        pytest.param(lambda rng: sampling.random_projector(3, 2.5, rng), DomainError,
                     r"^rank must be an integer in 1..3, got 2\.5$", id="projector-float-rank"),
        pytest.param(lambda rng: sampling.random_projector(3, True, rng), DomainError,
                     "^rank must be an integer in 1..3, got True$", id="projector-bool-rank"),
        pytest.param(lambda rng: sampling.random_product_pure((2, 0), rng), DomainError,
                     r"got \(2, 0\)$", id="product-zero"),
        pytest.param(lambda rng: sampling.random_separable((2, 2), rng, terms=0), DomainError,
                     "^terms must be an integer >= 1, got 0$", id="separable-no-terms"),
        pytest.param(lambda rng: sampling.random_separable((2, 2), rng, terms=2.0), DomainError,
                     r"^terms must be an integer >= 1, got 2\.0$", id="separable-float-terms"),
    ])
    def test_refusal_draws_nothing(self, call, error, message):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(error, match=message):
            call(rng)
        assert rng.bit_generator.state == before


class TestSeededDraws:
    """Each generator draws what a same-seeded generator drawing its arrays directly gives."""

    def test_pure_and_unitary(self):
        rng, oracle = np.random.default_rng(11), np.random.default_rng(11)
        amps = _ginibre(oracle, 4)
        assert np.array_equal(sampling.random_pure(4, rng).amplitudes, amps / np.linalg.norm(amps))
        q, r = np.linalg.qr(_ginibre(oracle, (3, 3)))
        assert np.array_equal(sampling.random_unitary(3, rng), q * (np.diag(r) / np.abs(np.diag(r))))
        assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("seed", range(10))
    def test_density_is_bit_identical(self, seed):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        dim, rank = 2 + seed % 5, 1 + seed % 2
        ginibre = _ginibre(oracle, (dim, rank))
        gram = ginibre @ ginibre.conj().T
        expected = gram / np.real(np.trace(gram))
        assert np.array_equal(sampling.random_density(dim, rng, rank=rank).matrix, expected)
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_separable_is_its_per_term_product_draws(self):
        rng, oracle = np.random.default_rng(3), np.random.default_rng(3)
        weights = oracle.dirichlet(np.ones(5))
        products = [sampling.random_product_pure((2, 3), oracle).amplitudes for _ in range(5)]
        expected = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, products))
        rho = sampling.random_separable((2, 3), rng, terms=5)
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-15
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_product_pure_is_the_kron_of_its_factors(self):
        rng, oracle = np.random.default_rng(8), np.random.default_rng(8)
        factors = [PureVector.normalized(_ginibre(oracle, d)).amplitudes for d in (2, 3)]
        assert np.array_equal(sampling.random_product_pure((2, 3), rng).amplitudes, np.kron(*factors))

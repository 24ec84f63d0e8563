import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from potentia import states
from potentia.bell import chsh_max, region
from potentia.entanglement import (
    VERDICT_TOL,
    WITNESS_SAMPLES_CAP,
    Verdict,
    WernerRegion,
    check_witness_on_products,
    marginal_verdicts,
    min_pt_eigenvalue,
    ppt_criterion,
    schmidt,
    schmidt_rank,
    von_neumann_entropy,
    werner,
    witness_from_entangled,
    WitnessOperator,
)
from potentia.errors import CapacityError, DomainError, NoWitnessError, ShapeError
from potentia.qlin import kron, partial_transpose
from potentia.sampling import random_density, random_pure, random_separable, random_unitary
from potentia.states import DensityOperator, PureVector, density_from_vector, spectral_decomposition
from potentia.tolerances import WEIGHT_FLOOR

from conftest import projector

PHI_PLUS = PureVector.normalized([1, 0, 0, 1])
RHO_PHI = density_from_vector(PHI_PLUS)


def entropy_oracle(eigenvalues) -> float:
    """Scalar formula oracle: -sum p log2 p over positive entries."""
    total = 0.0
    for p in eigenvalues:
        if p > 0:
            total -= p * np.log2(p)
    return total


class TestSchmidt:
    def test_product_state(self):
        coefficients = schmidt(PureVector.normalized([0, 1, 0, 0]), (2, 2))
        assert coefficients[0] == pytest.approx(1.0)
        assert coefficients[1] == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        # SVD oracle by hand: coefficient matrix diag(1,1)/sqrt(2) has equal
        # singular values sqrt(eig(M M^dag)) = (1/sqrt2, 1/sqrt2).
        m = PHI_PLUS.amplitudes.reshape(2, 2)
        gram_eigs = np.linalg.eigvalsh(m @ m.conj().T)
        expected = np.sqrt(np.sort(gram_eigs)[::-1])
        assert np.allclose(expected, [1 / np.sqrt(2)] * 2)
        assert np.allclose(schmidt(PHI_PLUS, (2, 2)), expected)

    def test_factoring_superposition(self):
        vector = PureVector.normalized([1, 1, 0, 0])  # |0> (x) |+>
        assert schmidt_rank(vector, (2, 2)) == 1

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            schmidt(PHI_PLUS, (2, 3))


class TestEntropy:
    def test_rank_one_is_zero(self, rng):
        rho = density_from_vector(random_pure(4, rng))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityOperator.maximally_mixed(2)) == pytest.approx(1.0)

    def test_seven_three_mixture(self):
        expected = entropy_oracle([0.7, 0.3])
        assert expected == pytest.approx(0.8812908992306927)
        rho = DensityOperator(np.diag([0.7, 0.3]).astype(complex))
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    def test_additivity_maximally_mixed(self):
        half = DensityOperator.maximally_mixed(2)
        joint = DensityOperator(kron(half.matrix, half.matrix))
        assert von_neumann_entropy(joint) == pytest.approx(2.0, abs=1e-12)

    def test_additivity_value_by_eigenvalue_products(self):
        # Eigenvalue-product oracle: spectrum of a (x) b is the outer product.
        eig_a = [0.7, 0.3]
        eig_b = [0.5, 0.5]
        products = [x * y for x in eig_a for y in eig_b]
        expected = entropy_oracle(products)
        assert expected == pytest.approx(1.8812908992306927)
        joint = DensityOperator(
            kron(np.diag(eig_a).astype(complex), np.diag(eig_b).astype(complex))
        )
        assert von_neumann_entropy(joint) == pytest.approx(expected, abs=1e-9)

    def test_unitary_invariance(self, rng):
        for _ in range(50):
            rho = random_density(4, rng)
            u = random_unitary(4, rng)
            rotated = DensityOperator(u @ rho.matrix @ u.conj().T)
            assert von_neumann_entropy(rotated) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9
            )


class TestEntropyCriterion:
    def test_bell_state_detected(self):
        verdict = marginal_verdicts(RHO_PHI, (2, 2))[1]
        assert verdict.verdict is Verdict.ENTANGLED
        # Oracle: S(rho) = 0 while S(rho_A) = 1, margin -1.
        assert verdict.evidence == pytest.approx(-1.0, abs=1e-9)

    def test_product_state_inconclusive(self, rng):
        rho = DensityOperator(
            kron(random_density(2, rng).matrix, random_density(2, rng).matrix)
        )
        assert marginal_verdicts(rho, (2, 2))[1].verdict is Verdict.INCONCLUSIVE

    def test_maximally_mixed_inconclusive(self):
        assert (
            marginal_verdicts(DensityOperator.maximally_mixed(4), (2, 2))[1].verdict
            is Verdict.INCONCLUSIVE
        )


class TestMajorizationCriterion:
    def test_bell_state_partial_sums(self):
        # Partial-sum oracle: global (1,0,0,0) vs padded reduced (1/2,1/2,0,0);
        # first partial sum already violates by 1/2.
        global_spec = np.array([1.0, 0.0, 0.0, 0.0])
        reduced = np.array([0.5, 0.5, 0.0, 0.0])
        worst = np.min(np.cumsum(reduced) - np.cumsum(global_spec))
        assert worst == pytest.approx(-0.5)
        verdict = marginal_verdicts(RHO_PHI, (2, 2))[0]
        assert verdict.verdict is Verdict.ENTANGLED
        assert verdict.evidence == pytest.approx(worst, abs=1e-9)

    def test_product_state_inconclusive(self, rng):
        # Brute-force oracle over eigenvalue products: for a (x) b the global
        # spectrum is the product distribution, majorized by both marginals.
        for _ in range(20):
            a = random_density(2, rng)
            b = random_density(3, rng)
            rho = DensityOperator(kron(a.matrix, b.matrix))
            verdict = marginal_verdicts(rho, (2, 3))[0]
            assert verdict.verdict is Verdict.INCONCLUSIVE

    def test_maximally_mixed_inconclusive(self):
        assert (
            marginal_verdicts(DensityOperator.maximally_mixed(4), (2, 2))[0].verdict
            is Verdict.INCONCLUSIVE
        )


class TestPptCriterion:
    def test_werner_half_entangled(self):
        # PT eigensolve oracle: min eigenvalue (1 - 3p)/4 = -1/8 at p = 1/2.
        rho = werner(0.5)
        oracle = np.linalg.eigvalsh(partial_transpose(rho.matrix, (2, 2), "B"))[0]
        assert oracle == pytest.approx(-0.125, abs=1e-12)
        verdict = ppt_criterion(rho, (2, 2))
        assert verdict.verdict is Verdict.ENTANGLED
        assert verdict.evidence == pytest.approx(oracle, abs=1e-12)

    def test_werner_fifth_separable(self):
        assert ppt_criterion(werner(0.2), (2, 2)).verdict is Verdict.SEPARABLE

    def test_large_dims_inconclusive(self, rng):
        rho = DensityOperator(
            kron(random_density(3, rng).matrix, random_density(3, rng).matrix)
        )
        assert ppt_criterion(rho, (3, 3)).verdict is Verdict.INCONCLUSIVE

    def test_agrees_with_schmidt_rank_on_pure_states(self, rng):
        for _ in range(300):
            if rng.random() < 0.5:
                vector = PureVector(
                    np.kron(random_pure(2, rng).amplitudes, random_pure(2, rng).amplitudes)
                )
            else:
                vector = random_pure(4, rng)
            entangled = ppt_criterion(density_from_vector(vector), (2, 2)).verdict is Verdict.ENTANGLED
            assert entangled == (schmidt_rank(vector, (2, 2)) > 1)

    def test_criterion_strength_ordering(self, rng):
        for _ in range(400):
            rho = random_density(4, rng, rank=int(rng.integers(1, 5)))
            by_majorization, by_entropy = (
                v.verdict is Verdict.ENTANGLED for v in marginal_verdicts(rho, (2, 2))
            )
            by_ppt = ppt_criterion(rho, (2, 2)).verdict is Verdict.ENTANGLED
            assert (not by_entropy) or by_majorization
            assert (not by_majorization) or by_ppt


class TestSeparableStates:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 3)]), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_no_criterion_calls_a_separable_state_entangled(self, dims, terms, seed):
        rho = random_separable(dims, np.random.default_rng(seed), terms=terms)
        for verdict in (ppt_criterion(rho, dims), *marginal_verdicts(rho, dims)):
            assert verdict.verdict is not Verdict.ENTANGLED


class TestWitness:
    def test_bell_state_expectation(self):
        # Trace oracle: Tr(W rho) = <eta| rho^T_B |eta> = min PT eigenvalue = -1/2.
        witness = witness_from_entangled(RHO_PHI, (2, 2))
        assert witness.expectation(RHO_PHI) == pytest.approx(-0.5, abs=1e-9)

    def test_werner_09_detected(self):
        rho = werner(0.9)
        witness = witness_from_entangled(rho, (2, 2))
        expected = min_pt_eigenvalue(rho, (2, 2))
        assert witness.expectation(rho) == pytest.approx(expected, abs=1e-9)
        assert witness.expectation(rho) < 0

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(2, 2), (2, 3)]), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_scores_negative_on_its_own_state(self, dims, rank, seed):
        rho = random_density(dims[0] * dims[1], np.random.default_rng(seed), rank=rank)
        minimum = min_pt_eigenvalue(rho, dims)
        assume(minimum < -VERDICT_TOL)
        score = witness_from_entangled(rho, dims).expectation(rho)
        assert score < 0
        assert score == pytest.approx(minimum, abs=1e-9)

    def test_nonnegative_on_sampled_products(self):
        witness = witness_from_entangled(RHO_PHI, (2, 2))
        worst = check_witness_on_products(witness, (2, 2), samples=10_000, seed=0)
        assert worst >= -1e-9

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_batched_check_matches_per_sample_loop(self, dims):
        def per_sample_loop(witness, samples, seed):
            rng = np.random.default_rng(seed)
            worst = np.inf
            for _ in range(samples):
                product = np.kron(
                    random_pure(dims[0], rng).amplitudes, random_pure(dims[1], rng).amplitudes
                )
                worst = min(worst, float(np.real(np.vdot(product, witness.matrix @ product))))
            return worst

        phi = np.zeros(dims[0] * dims[1], dtype=complex)
        phi[0] = phi[-1] = 1 / np.sqrt(2)
        witness = witness_from_entangled(density_from_vector(PureVector(phi)), dims)
        for seed in (0, 1, 7, 2024):
            for samples in (1, 50, 2000):
                batched = check_witness_on_products(witness, dims, samples=samples, seed=seed)
                assert batched == pytest.approx(per_sample_loop(witness, samples, seed), abs=1e-12)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_check_needs_a_sample(self, samples):
        witness = witness_from_entangled(RHO_PHI, (2, 2))
        with pytest.raises(DomainError, match="sample"):
            check_witness_on_products(witness, (2, 2), samples=samples)

    def test_check_seed_must_be_nonnegative(self):
        witness = witness_from_entangled(RHO_PHI, (2, 2))
        with pytest.raises(DomainError, match="^the product-sample seed must be an integer >= 0, got -1$"):
            check_witness_on_products(witness, (2, 2), samples=10, seed=-1)

    def test_check_samples_are_capped(self):
        witness = witness_from_entangled(RHO_PHI, (2, 2))
        with pytest.raises(CapacityError, match="cap"):
            check_witness_on_products(witness, (2, 2), samples=WITNESS_SAMPLES_CAP + 1)

    def test_ppt_state_has_no_witness(self):
        with pytest.raises(NoWitnessError):
            witness_from_entangled(werner(0.2), (2, 2))

    def test_reference_state_of_another_dimension_rejected(self):
        with pytest.raises(ShapeError, match="^witness is 4-dimensional, its reference state 2-dimensional$"):
            WitnessOperator(np.eye(4), DensityOperator.maximally_mixed(2))

    def test_expectation_on_a_state_of_another_dimension_rejected(self):
        witness = witness_from_entangled(RHO_PHI, (2, 2))
        with pytest.raises(ShapeError, match="^witness is 4-dimensional, the state 2-dimensional$"):
            witness.expectation(DensityOperator.maximally_mixed(2))

    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (4,), (1, 4)])
    def test_product_check_judges_its_layout_by_the_witness(self, dims):
        """(1, 4) is a valid layout of the 4-dim witness, whose "products" are all its states; the
        others are refused, and none is read as (2, 2)."""
        witness = witness_from_entangled(RHO_PHI, (2, 2))
        if dims == (1, 4):
            assert -1 <= check_witness_on_products(witness, dims, samples=5) < 0
            return
        with pytest.raises(ShapeError):
            check_witness_on_products(witness, dims, samples=5)

    def test_linearity(self, rng):
        witness = witness_from_entangled(RHO_PHI, (2, 2))
        sigma1 = random_separable((2, 2), rng)
        sigma2 = random_separable((2, 2), rng)
        alpha = 0.3
        blend = DensityOperator(alpha * sigma1.matrix + (1 - alpha) * sigma2.matrix)
        assert witness.expectation(blend) == pytest.approx(
            alpha * witness.expectation(sigma1) + (1 - alpha) * witness.expectation(sigma2),
            abs=1e-12,
        )


def sorted_eig_oracle(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The descending eigendecomposition the package once sorted with ``argsort``: eigh's
    output permuted by its eigenvalues' argsort, reversed, each part copied C-contiguous.

    The sort is stable. Where no two eigenvalues tie, every sort kind gives this permutation,
    so this is the removed sort exactly. Within a tie the default kind may reorder indices on
    some numpy builds, so there the oracle only pins eigh's own order, reversed."""
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    order = np.argsort(eigenvalues, kind="stable")[::-1]
    return np.array(eigenvalues[order], order="C"), np.array(eigenvectors[:, order], order="C")


#: Bipartite layouts up to 5 x 5 and 4 x 8: past 16 entries numpy's argsort is no insertion sort.
REFERENCE_LAYOUTS = [(2, 2), (2, 3), (3, 3), (2, 8), (3, 6), (5, 5), (4, 8)]


def reference_state(kind: str, dims: tuple[int, int], seed: int, k: int) -> DensityOperator:
    """A state of ``dims``: Wishart of rank 1 + k mod n, or one of three with exactly degenerate
    spectra: I/m on m = 1 + k mod n basis states; the Werner state of p = (k mod 9)/8, with
    |phi> maximally entangled on min(dims) levels; or a pure state of d_a x f beside I/g, where
    f g = d_b, random for odd k and a basis state for even k."""
    rng = np.random.default_rng(seed)
    (d_a, d_b), n = dims, dims[0] * dims[1]
    if kind == "wishart":
        return random_density(n, rng, rank=1 + k % n)
    if kind == "mixed_block":
        diagonal = np.zeros(n)
        diagonal[rng.permutation(n)[: 1 + k % n]] = 1.0
        return DensityOperator(np.diag(diagonal / diagonal.sum()))
    if kind == "werner":
        m, p = min(dims), (k % 9) / 8
        phi = np.zeros(n)
        phi[[i * d_b + i for i in range(m)]] = 1 / np.sqrt(m)
        return DensityOperator(p * np.outer(phi, phi) + (1 - p) * np.eye(n) / n)
    divisors = [g for g in range(1, d_b + 1) if d_b % g == 0]
    g = divisors[k // 2 % len(divisors)]
    f = d_b // g
    vector = random_pure(d_a * f, rng) if k % 2 else PureVector.basis_state(d_a * f, k % (d_a * f))
    return DensityOperator(kron(density_from_vector(vector).matrix, np.eye(g) / g))


REFERENCE_CASES = dict(
    kind=st.sampled_from(["wishart", "mixed_block", "werner", "product_mixed"]),
    dims=st.sampled_from(REFERENCE_LAYOUTS), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 63),
)


class TestSortedEigReference:
    """Each eigensolve keeps what the argsort-sorted reference selects, bit for bit, signed
    zeros included. On spectra with exact ties the choice within an eigenspace is eigh's, so
    each test also checks what holds for any eigenbasis: the witness scores the state at the
    least eigenvalue, and the decomposition's weights are the spectrum and rebuild the state."""

    @settings(max_examples=240, deadline=None, derandomize=True)
    @given(**REFERENCE_CASES)
    def test_witness_keeps_eighs_first_eigenpair(self, kind, dims, seed, k):
        rho = reference_state(kind, dims, seed, k)
        values, vectors = sorted_eig_oracle(partial_transpose(rho.matrix, dims, "B"))
        if values[-1] >= -VERDICT_TOL:
            with pytest.raises(NoWitnessError):
                witness_from_entangled(rho, dims)
            return
        witness = witness_from_entangled(rho, dims)
        eta = vectors[:, -1]
        expected = partial_transpose(np.outer(eta, eta.conj()), dims, "B")
        assert np.float64(witness.min_pt_eigenvalue).tobytes() == values[-1].tobytes()
        assert witness.matrix.tobytes() == expected.tobytes()
        assert witness.expectation(rho) == pytest.approx(values[-1], abs=1e-12)

    @settings(max_examples=240, deadline=None, derandomize=True)
    @given(**REFERENCE_CASES)
    def test_spectral_decomposition_reverses_eighs_order(self, kind, dims, seed, k):
        rho = reference_state(kind, dims, seed, k)
        values, vectors = sorted_eig_oracle(rho.matrix)
        expected = states._mixture(np.sqrt(np.maximum(values, 0.0))[:, None] * vectors.T)
        decomposition = spectral_decomposition(rho)
        assert decomposition.weights.tobytes() == expected.weights.tobytes()
        assert len(decomposition.components) == len(expected.components)
        for got, want in zip(decomposition.components, expected.components):
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        kept, dropped = np.split(values, [len(decomposition.weights)])
        assert decomposition.weights == pytest.approx(kept / kept.sum(), abs=1e-12)
        assert np.all(dropped < WEIGHT_FLOOR)
        rebuilt = sum(
            w * np.outer(c.amplitudes, c.amplitudes.conj())
            for w, c in zip(decomposition.weights, decomposition.components)
        )
        np.testing.assert_allclose(rebuilt, rho.matrix, atol=1e-12)


class TestWerner:
    def test_boundary_pt_eigenvalue(self):
        assert min_pt_eigenvalue(werner(1 / 3), (2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_half_is_entangled_but_local(self):
        rho = werner(0.5)
        assert region(ppt_criterion(rho, (2, 2)), chsh_max(rho).value) is WernerRegion.ENTANGLED_LOCAL

    def test_pure_is_nonlocal(self):
        rho = werner(1.0)
        assert region(ppt_criterion(rho, (2, 2)), chsh_max(rho).value) is WernerRegion.NONLOCAL
        assert chsh_max(rho).value == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_pt_eigenvalue_is_affine_with_root_one_third(self):
        # Affinity: the midpoint value is the average of the endpoints.
        ends = min_pt_eigenvalue(werner(0.0), (2, 2)), min_pt_eigenvalue(werner(1.0), (2, 2))
        midpoint = min_pt_eigenvalue(werner(0.5), (2, 2))
        assert midpoint == pytest.approx(sum(ends) / 2, abs=1e-12)
        # Bisection oracle on the affine minimum eigenvalue.
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if min_pt_eigenvalue(werner(mid), (2, 2)) > 0:
                lo = mid
            else:
                hi = mid
        assert (lo + hi) / 2 == pytest.approx(1 / 3, abs=1e-9)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            werner(1.2)

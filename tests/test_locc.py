import functools
import json
import re
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potentia import locc, qlin
from potentia.arrangements import Factorization, make_ea, restrict
from potentia.cli import main
from potentia.entanglement import Verdict, ppt_criterion
from potentia.errors import CapacityError, DegenerateConditioningError, DomainError
from potentia.locc import (
    COMPLETENESS_TOL,
    KRAUS_RANK_CAP,
    CPMap,
    QuantumInstrument,
    _kraus_sum,
    apply_instrument,
    is_valid_instrument,
    one_way_local,
    projective_instrument,
)
from potentia.qlin import DIM_CAP, partial_trace
from potentia.sampling import random_density, random_separable
from potentia.states import PROBABILITY_FLOOR, DensityOperator, PureVector, density_from_vector
from potentia.tolerances import EIGENVALUE_FLOOR, TRACE_TOL

from conftest import projector

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
SAMPLES = Path(__file__).resolve().parent.parent / "samples"
RHO_PHI = density_from_vector(PureVector.normalized([1, 0, 0, 1]))


def normalized_instrument(rng, dim: int, ranks, out_dim: int | None = None) -> QuantumInstrument:
    """Random valid instrument, one branch of Kraus rank ``r`` per entry of ``ranks``,
    by global completeness normalization; its Kraus operators are ``out_dim`` x ``dim``."""
    shape = (out_dim or dim, dim)
    raw = [
        [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(r)]
        for r in ranks
    ]
    total = sum(k.conj().T @ k for ks in raw for k in ks)
    values, vectors = np.linalg.eigh(total)
    inv_sqrt = vectors @ np.diag(1.0 / np.sqrt(values)) @ vectors.conj().T
    return QuantumInstrument(
        tuple(CPMap(tuple(k @ inv_sqrt for k in ks)) for ks in raw)
    )


def random_instrument(rng, dim: int) -> QuantumInstrument:
    # Each rank is drawn just before its branch's entries, so a seed gives the same instruments
    # as when this function built them itself.
    n_branches = int(rng.integers(1, 4))
    return normalized_instrument(rng, dim, (int(rng.integers(1, 4)) for _ in range(n_branches)))


def dense_one_way_local(party, local, bystanders):
    """Each branch's Kraus operators and completeness sum as ``one_way_local`` once formed
    them: every ``np.kron`` product, then the sum of K^dag K over the products."""
    branches = []
    for branch in local.branches:
        maps = [branch if k == party else m for k, m in enumerate(bystanders)]
        kraus = [functools.reduce(np.kron, combo) for combo in product(*(m.kraus for m in maps))]
        branches.append((kraus, sum(k.conj().T @ k for k in kraus)))
    return branches


class TestValidity:
    def test_projective_pair(self):
        assert is_valid_instrument(projective_instrument([P0, P1]))

    def test_lonely_projector(self):
        assert not is_valid_instrument(projective_instrument([P0]))

    def test_depolarizing_branch(self):
        # Algebra oracle: sum K^dag K = (1 - 3p/4) I + 3 (p/4) I = I.
        p = 0.37
        kraus = (
            np.sqrt(1 - 3 * p / 4) * np.eye(2),
            np.sqrt(p / 4) * np.array([[0, 1], [1, 0]]),
            np.sqrt(p / 4) * np.array([[0, -1j], [1j, 0]]),
            np.sqrt(p / 4) * np.array([[1, 0], [0, -1]]),
        )
        total = sum(k.conj().T @ k for k in kraus)
        assert np.allclose(total, np.eye(2))
        assert is_valid_instrument(QuantumInstrument((CPMap(kraus),)))

    def test_kraus_operator_above_dimension_cap_rejected_before_solving(self, eigensolve_counter):
        # A (DIM_CAP + 1) x 1 isometry is trace-preserving on a 1-dim input.
        tall = np.zeros((DIM_CAP + 1, 1))
        tall[0, 0] = 1.0
        with pytest.raises(CapacityError, match="^matrix dimension 4097 exceeds the cap of 4096$"):
            CPMap((tall,))
        with pytest.raises(CapacityError):
            CPMap((tall.T,))
        assert not eigensolve_counter

    def test_overcomplete_cpmap_rejected(self):
        with pytest.raises(DomainError):
            CPMap((np.eye(2, dtype=complex) * 1.1,))

    def test_completeness_is_kept_read_only(self):
        cpmap = CPMap((P0, P1))
        np.testing.assert_array_equal(cpmap.completeness, np.eye(2))
        assert not cpmap.completeness.flags.writeable
        assert is_valid_instrument(QuantumInstrument((cpmap,)))

    def test_instrument_command_decides_validity_once(self, monkeypatch, capsys):
        # Made by load_instrument; is_valid_instrument and apply_instrument read the kept gap.
        decisions = []
        monkeypatch.setattr(locc, "_completeness_gap",
                            lambda factors, gap=locc._completeness_gap: decisions.append(1) or gap(factors))
        argv = ["instrument", SAMPLES / "bell_phi_plus.json", "--instrument", SAMPLES / "measure_first_screen.json"]
        assert main([*map(str, argv), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["valid"] is True
        assert decisions == [1]

    def test_entry_above_the_completeness_bound_rejected_before_summing(self, eigensolve_counter):
        # No Kraus operator of a trace-non-increasing map has an entry above sqrt(1 + tol);
        # this one would overflow sum(K^dag K).
        huge = np.zeros((4, 4), dtype=complex)
        huge[0, 2] = 1e308 - 1j
        message = r"^Kraus operator 1 \|entry\| 1e\+308 exceeds 1\.000000005$"
        with pytest.raises(DomainError, match=message):
            CPMap((np.eye(4) / 2, huge))
        assert not eigensolve_counter


class TestApply:
    def test_measurement_of_uniform_superposition(self):
        rho = density_from_vector(PureVector.normalized([1, 1]))
        outcomes = apply_instrument(projective_instrument([P0, P1]), rho)
        assert [o.probability for o in outcomes] == pytest.approx([0.5, 0.5])
        assert np.allclose(outcomes[0].post_state.matrix, P0)
        assert np.allclose(outcomes[1].post_state.matrix, P1)

    def test_identity_channel(self, rng):
        rho = random_density(3, rng)
        outcomes = apply_instrument(QuantumInstrument((CPMap.identity(3),)), rho)
        assert outcomes[0].probability == pytest.approx(1.0)
        assert np.max(np.abs(outcomes[0].post_state.matrix - rho.matrix)) <= 1e-12

    def test_screen_measurement_matches_conditioning(self):
        # Measuring screen 1 of the worked arrangement is the restrict
        # operation in instrument form.
        rho = DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
        instrument = projective_instrument([np.kron(P0, np.eye(2)), np.kron(P1, np.eye(2))])
        outcomes = apply_instrument(instrument, rho)
        assert [o.probability for o in outcomes] == pytest.approx([0.5, 0.5])
        expected_posts = [
            np.diag([1.0, 0.0, 0.0, 0.0]),
            np.diag([0.0, 0.0, 0.0, 1.0]),
        ]
        f = Factorization((2, 2))
        ea = make_ea(rho, f)
        for outcome, expected, kept in zip(outcomes, expected_posts, ((0,), (1,))):
            assert np.allclose(outcome.post_state.matrix, expected)
            conditioned = restrict(ea, [kept, (0, 1)])
            block = outcome.post_state.matrix[
                np.ix_([2 * kept[0], 2 * kept[0] + 1], [2 * kept[0], 2 * kept[0] + 1])
            ]
            assert np.allclose(conditioned.matrix, block)

    def test_zero_probability_branch(self):
        rho = density_from_vector(PureVector.basis_state(2, 0))
        outcomes = apply_instrument(projective_instrument([P0, P1]), rho)
        assert outcomes[1].probability == pytest.approx(0.0, abs=1e-12)
        assert outcomes[1].post_state is None

    def test_post_state_past_the_floor_fails_as_restrict_does(self):
        # An accepted state; keeping screen 2's detector 1 divides its -9e-8 by the
        # probability 9.1e-7.  The instrument and restrict condition through one function.
        rho = DensityOperator(np.diag([1 - 1e-6 + 9e-8, -9e-8, 0.0, 1e-6]))
        f = Factorization((2, 2))
        instrument = one_way_local(1, projective_instrument([P0, P1]), [CPMap.identity(2), None])
        messages = []
        for condition in (
            lambda: restrict(make_ea(rho, f), [(0, 1), (1,)]),
            lambda: apply_instrument(instrument, rho),
        ):
            with pytest.raises(DegenerateConditioningError) as error:
                condition()
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert re.fullmatch(
            r"probability 9\.100e-07; conditioned, "
            r"density operator negated least eigenvalue 0\.0989\d* exceeds 1e-07",
            messages[0],
        )

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.sampled_from([(2, 2), (3, 2), (2, 3), (2, 2, 2)]),
        st.integers(0, 2**32 - 1),
        st.floats(0.01, 0.9),
        st.sampled_from([-10.0, -0.5, 10.0]),
        st.booleans(),
    )
    def test_conditioned_state_is_refused_only_past_its_slack(self, dims, seed, p, side, instrument):
        """A planted diagonal state conditioned on an event of probability p: restrict keeping
        some detectors, or the projective instrument onto them.  Its exact least eigenvalue is the
        planted parent's over p, set at EIGENVALUE_FLOOR + side x the slack; README's slack is
        2 ((N g(N+2) + n g(n+2)) (1 + TRACE_TOL + N |floor|) + drift) / p, g Higham's gamma and n
        the child's dim (N for an instrument branch).  10x below is refused, with the message that
        names the computed eigenvalue and the floor; half of it below, and 10x above, is accepted."""
        rng = np.random.default_rng(seed)
        n_total = int(np.prod(dims))
        # Screen 0 keeps a proper subset and the last screen keeps all: 2 <= kept < N.
        kept = [sorted(rng.choice(dims[0], int(rng.integers(1, dims[0])), replace=False).tolist())]
        kept += [sorted(rng.choice(d, int(rng.integers(1, d + 1)), replace=False).tolist()) for d in dims[1:-1]]
        kept += [list(range(dims[-1]))]
        flat = np.ravel_multi_index(np.ix_(*kept), dims).ravel()
        n = n_total if instrument else len(flat)
        gamma = [k * 2.0**-53 / (1 - k * 2.0**-53) for k in (n_total + 2, n + 2)]
        norm = 1 + TRACE_TOL + n_total * abs(EIGENVALUE_FLOOR)
        slack = 2 * (n_total * gamma[0] + n * gamma[1]) * norm / p
        target = EIGENVALUE_FLOOR + side * slack
        diagonal = np.zeros(n_total)
        others = np.setdiff1d(np.arange(n_total), flat)
        diagonal[others] = (1 - p) * rng.dirichlet(np.ones(len(others)))
        planted = flat[int(rng.integers(len(flat)))]
        rest = np.setdiff1d(flat, [planted])
        diagonal[rest] = (p - p * target) * rng.dirichlet(np.ones(len(rest)))
        diagonal[planted] = p * target
        rho = DensityOperator(np.diag(diagonal).astype(complex))
        if instrument:
            indicator = np.isin(np.arange(n_total), flat).astype(complex)
            branches = projective_instrument([np.diag(indicator), np.diag(1 - indicator)])
            condition = lambda: apply_instrument(branches, rho)[0].post_state.matrix  # noqa: E731
        else:
            condition = lambda: restrict(make_ea(rho, Factorization(dims)), kept).matrix  # noqa: E731
        if side < -1:
            with pytest.raises(DegenerateConditioningError) as error:
                condition()
            found = re.fullmatch(
                r"probability (\S+); conditioned, density operator negated least eigenvalue (\S+) "
                r"exceeds 1e-07",
                str(error.value),
            )
            assert found and float(found[1]) == pytest.approx(p, rel=1e-3)
            assert float(found[2]) == pytest.approx(-target, rel=1e-9)
        else:
            assert np.min(np.diag(condition()).real) == pytest.approx(target, rel=1e-9)

    def test_invalid_instrument_rejected(self, rng):
        with pytest.raises(DomainError):
            apply_instrument(projective_instrument([P0]), random_density(2, rng))

    def test_probability_sums(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            instrument = random_instrument(rng, dim)
            assert is_valid_instrument(instrument)
            outcomes = apply_instrument(instrument, random_density(dim, rng))
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-8)


class TestOneWayLocal:
    def test_local_measurement_is_valid(self):
        instrument = one_way_local(0, projective_instrument([P0, P1]), [None, CPMap.identity(2)])
        assert is_valid_instrument(instrument)
        assert len(instrument.branches) == 2

    def test_bystander_marginal_invariant_on_products(self, rng):
        instrument = one_way_local(0, projective_instrument([P0, P1]), [None, CPMap.identity(2)])
        rho_b = random_density(2, rng)
        rho = DensityOperator(np.kron(random_density(2, rng).matrix, rho_b.matrix))
        outcomes = apply_instrument(instrument, rho)
        for outcome in outcomes:
            if outcome.post_state is None:
                continue
            marginal = partial_trace(outcome.post_state.matrix, (2, 2), (1,))
            assert np.max(np.abs(marginal - rho_b.matrix)) <= 1e-10

    def test_steering_on_bell_state(self):
        # Conditioning oracle: measuring party 1 of phi+ steers party 2 to
        # |0><0| or |1><1| with probability 1/2 each.
        instrument = one_way_local(0, projective_instrument([P0, P1]), [None, CPMap.identity(2)])
        outcomes = apply_instrument(instrument, RHO_PHI)
        assert [o.probability for o in outcomes] == pytest.approx([0.5, 0.5], abs=1e-10)
        steered = [partial_trace(o.post_state.matrix, (2, 2), (1,)) for o in outcomes]
        assert np.max(np.abs(steered[0] - P0)) <= 1e-10
        assert np.max(np.abs(steered[1] - P1)) <= 1e-10

    def test_branches_preserve_ppt_on_separable_inputs(self, rng):
        instrument = one_way_local(
            0,
            projective_instrument([projector([1, 1]), projector([1, -1])]),
            [None, CPMap.identity(2)],
        )
        for _ in range(100):
            rho = random_separable((2, 2), rng, terms=int(rng.integers(1, 5)))
            for outcome in apply_instrument(instrument, rho):
                if outcome.post_state is None:
                    continue
                verdict = ppt_criterion(outcome.post_state, (2, 2))
                assert verdict.verdict is Verdict.SEPARABLE

    def test_kraus_product_above_cap_is_capacity_error(self, monkeypatch):
        # 5 x 4 = 20 Kraus operators per branch, above the cap of 16: rejected before any product.
        local = QuantumInstrument((CPMap(tuple(np.eye(2) / np.sqrt(5) for _ in range(5))),))
        paulis = (np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1]))
        depolarizing = CPMap(tuple(np.asarray(p) / 2 for p in paulis))
        assert 5 * 4 > KRAUS_RANK_CAP
        products = []
        monkeypatch.setattr(np, "kron", lambda a, b, kron=np.kron: products.append(1) or kron(a, b))
        with pytest.raises(CapacityError, match="^Kraus rank 20 exceeds the cap of 16$"):
            one_way_local(0, local, [None, depolarizing])
        assert not products

    def test_party_dims_above_the_dimension_cap_are_capacity_error(self):
        assert 65 * 64 > DIM_CAP
        with pytest.raises(CapacityError, match="^one-way product dimension 4160 exceeds the cap of 4096$"):
            one_way_local(0, projective_instrument([np.eye(65)]), [None, CPMap.identity(64)])

    @pytest.mark.parametrize("party", [0, 2])
    def test_dims_are_capped_before_anything_is_formed(self, monkeypatch, eigensolve_counter, party):
        """8192 = 2 x 64 x 64 is refused in any party order, before a solve or a product."""
        qubit = projective_instrument([P0, P1])
        bystanders = [CPMap.identity(64), CPMap.identity(64)]
        bystanders.insert(party, None)
        products = []
        monkeypatch.setattr(np, "kron", lambda a, b, kron=np.kron: products.append(1) or kron(a, b))
        eigensolve_counter.clear()
        with pytest.raises(CapacityError, match="^one-way product dimension 8192 exceeds the cap of 4096$"):
            one_way_local(party, qubit, bystanders)
        assert not eigensolve_counter and not products

    def test_completeness_solves_only_the_factors(self, monkeypatch, rng, eigensolve_counter):
        """On (2,)*6 every factor applied is a 2x2 party map: no N x N Kraus product is formed."""
        rho = random_density(64, rng)
        factors, kernel = [], qlin._mode_product

        def spied(m, dims, fs, *args, **kwargs):
            factors.extend(w.shape for w in fs.values())
            return kernel(m, dims, fs, *args, **kwargs)

        monkeypatch.setattr(qlin, "_mode_product", spied)
        eigensolve_counter.clear()
        bystanders = [None] + [CPMap.identity(2) for _ in range(5)]
        instrument = one_way_local(0, projective_instrument([P0, P1]), bystanders)
        outcomes = apply_instrument(instrument, rho)
        assert set(eigensolve_counter) == {(2, 2), ("cholesky", (64, 64))}
        assert eigensolve_counter[("cholesky", (64, 64))] == 2
        assert factors == [(2, 2)] * 4  # the measured qubit's P on each side; identities skipped
        assert all(isinstance(branch, CPMap) and branch.in_dim == 2 for branch in instrument.branches)
        np.testing.assert_array_equal(instrument.branches[0].completeness, P0)
        for outcome, p in zip(outcomes, (P0, P1)):
            dense = np.kron(p, np.eye(32))
            unnormalized = dense @ rho.matrix @ dense
            assert outcome.probability == pytest.approx(np.trace(unnormalized).real, abs=1e-14)

    def test_product_of_factors_within_tolerance_can_increase_trace(self):
        # Each factor's top completeness eigenvalue is 1 + 6e-9, within COMPLETENESS_TOL;
        # their product's is about 1 + 1.2e-8, which the dense check of the product rejects.
        slack = np.diag([np.sqrt(1 + 6e-9), 1.0])
        bystander, local = CPMap((slack,)), QuantumInstrument((CPMap((slack,)),))
        assert is_valid_instrument(QuantumInstrument((bystander,)))
        ((_, completeness),) = dense_one_way_local(0, local, [None, bystander])
        assert np.linalg.eigvalsh(completeness - np.eye(4))[-1] > COMPLETENESS_TOL
        with pytest.raises(DomainError, match=r"^map trace gain 1\.2\d*e-08 exceeds 1e-08$"):
            one_way_local(0, local, [None, bystander])

    def test_identity_branch_divides_its_own_array(self, rng):
        """An all-identity branch's one term is ``rho.matrix`` itself, which is read-only; the
        post-state is divided in an array of its own, bit for bit as ``rho.matrix / p``, on a
        one-way layout and on a plain instrument alike."""
        rho = random_density(4, rng)
        before = rho.matrix.copy()
        p = float(np.real(np.trace(rho.matrix)))
        for ins in (
            one_way_local(0, QuantumInstrument((CPMap.identity(2),)), [None, CPMap.identity(2)]),
            QuantumInstrument((CPMap.identity(4),)),
        ):
            (outcome,) = apply_instrument(ins, rho)
            assert np.array_equal(rho.matrix, before)
            assert outcome.probability == p
            assert np.array_equal(outcome.post_state.matrix, rho.matrix / p)

    def test_sum_of_negative_zeros_is_positive_zero(self):
        """Where every term is -0.0 the sum is +0.0, as a sum started from 0 gives, so that a
        report prints the entry as 0, not -0; with no factor the sum is still a new array."""
        matrix = qlin.frozen(np.full((2, 2), complex(-0.0, -0.0)))
        for maps in ([CPMap.identity(2)], [CPMap((np.eye(2) / np.sqrt(2),) * 2)]):
            total = _kraus_sum(matrix, maps)
            assert total is not matrix and total.flags.writeable
            assert not np.signbit(total.view(np.float64)).any()

    def test_factors_short_of_trace_preserving_are_invalid_together(self):
        # Each completeness sum is diag(1 - 6e-9, 1): valid alone, while their product's
        # corner is 1 - 1.2e-8, which the dense check of the product rejects too.
        short = np.diag([np.sqrt(1 - 6e-9), 1.0])
        bystander, local = CPMap((short,)), QuantumInstrument((CPMap((short,)),))
        assert is_valid_instrument(QuantumInstrument((bystander,))) and is_valid_instrument(local)
        instrument = one_way_local(0, local, [None, bystander])
        dense = np.kron(local.branches[0].completeness, bystander.completeness) - np.eye(4)
        assert np.max(np.abs(dense)) > COMPLETENESS_TOL
        assert instrument._gap == pytest.approx(np.max(np.abs(dense)), rel=1e-15, abs=0)
        assert not is_valid_instrument(instrument)

    def test_validity_forms_no_product_at_the_cap(self):
        """On (2,)*12 the verdict is decided from twelve 2x2 sums: nothing of N x N is allocated."""
        bystanders = [None] + [CPMap.identity(2) for _ in range(11)]
        tracemalloc.start()
        try:
            instrument = one_way_local(0, projective_instrument([P0, P1]), bystanders)
            valid = is_valid_instrument(instrument)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert valid and instrument.in_dim == DIM_CAP
        assert peak < DIM_CAP * DIM_CAP  # bytes: under an eighth of one N x N float64 array

    def test_one_way_local_of_a_one_way_local_keeps_its_layout(self, rng):
        depolarizing = CPMap(tuple(np.asarray(p) / 2 for p in (np.eye(2), [[0, 1], [1, 0]],
                                                            [[0, -1j], [1j, 0]], np.diag([1, -1]))))
        inner = one_way_local(0, projective_instrument([P0, P1]), [None, depolarizing])
        nested = one_way_local(1, inner, [CPMap.identity(2), None])
        flat = one_way_local(1, projective_instrument([P0, P1]), [CPMap.identity(2), None, depolarizing])
        rho = random_density(8, rng)
        assert nested.in_dim == 8
        for a, b in zip(apply_instrument(nested, rho), apply_instrument(flat, rho), strict=True):
            assert a.probability == b.probability
            assert np.array_equal(a.post_state.matrix, b.post_state.matrix)

    def test_non_trace_preserving_bystander_rejected(self):
        lossy = CPMap((0.5 * np.eye(2, dtype=complex),))
        with pytest.raises(DomainError):
            one_way_local(0, projective_instrument([P0, P1]), [None, lossy])


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    incomplete=st.booleans(),
    isometric=st.booleans(),
)
def test_one_way_local_matches_the_dense_construction(dims, seed, incomplete, isometric):
    """With the measuring party in every position, and sometimes one bystander an isometry
    d -> d + 1, branches act as their dense ``np.kron`` Kraus products do."""
    rng = np.random.default_rng(seed)
    wide = int(rng.integers(len(dims))) if isometric else None
    for party in range(len(dims)):
        local = random_instrument(rng, dims[party])
        if incomplete and len(local.branches) > 1:
            local = QuantumInstrument(local.branches[:-1])
        bystanders = [
            None if k == party else normalized_instrument(
                rng, d, [int(rng.integers(1, 3))], d + 1 if k == wide else d
            ).branches[0]
            for k, d in enumerate(dims)
        ]
        instrument = one_way_local(party, local, bystanders)
        reference = dense_one_way_local(party, local, bystanders)
        assert instrument.branches == local.branches
        total = sum(completeness for _, completeness in reference)
        valid = np.max(np.abs(total - np.eye(len(total)))) <= COMPLETENESS_TOL
        assert is_valid_instrument(instrument) == valid
        rho = random_density(len(total), rng)
        if not valid:
            with pytest.raises(DomainError):
                apply_instrument(instrument, rho)
            continue
        for outcome, (kraus, _) in zip(apply_instrument(instrument, rho), reference, strict=True):
            unnormalized = sum(k @ rho.matrix @ k.conj().T for k in kraus)
            probability = np.trace(unnormalized).real
            assert abs(outcome.probability - max(probability, 0.0)) <= 1e-12
            if probability <= PROBABILITY_FLOOR:
                assert outcome.post_state is None
            else:
                assert np.max(np.abs(outcome.post_state.matrix - unnormalized / probability)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    incomplete=st.booleans(),
    slacks=st.lists(st.floats(-0.9e-8, 0.9e-8), min_size=3, max_size=3),
)
def test_validity_from_the_factors_matches_the_dense_product(dims, seed, incomplete, slacks):
    """The kept gap is max_abs of the dense Kronecker product of the screens' completeness
    sums minus I, and the verdict is the dense one, with bystanders that are trace-preserving
    only within ``COMPLETENESS_TOL`` (their sums scaled by 1 + slack)."""
    rng = np.random.default_rng(seed)
    party = int(rng.integers(len(dims)))
    local = random_instrument(rng, dims[party])
    if incomplete and len(local.branches) > 1:
        local = QuantumInstrument(local.branches[:-1])
    bystanders = [
        None if k == party else CPMap(tuple(
            np.sqrt(1 + slack) * w for w in normalized_instrument(rng, d, [int(rng.integers(1, 3))]).branches[0].kraus
        ))
        for k, (d, slack) in enumerate(zip(dims, slacks))
    ]
    try:
        instrument = one_way_local(party, local, bystanders)
    except DomainError as exc:  # two slacks above 0 can multiply past the trace bound
        assert re.fullmatch(r"map trace gain \S+ exceeds 1e-08", str(exc))
        return
    factors = [sum(b.completeness for b in local.branches) if m is None else m.completeness for m in bystanders]
    dense = np.max(np.abs(functools.reduce(np.kron, factors) - np.eye(instrument.in_dim)))
    assert abs(instrument._gap - dense) <= 1e-15 * (1 + dense)
    assert is_valid_instrument(instrument) == (dense <= COMPLETENESS_TOL)

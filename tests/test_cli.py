import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from potentia import fileio
from potentia.arrangements import DetectorBasis, Factorization
from potentia.cli import SCAN_STEPS_CAP, _analysis_results, main
from potentia.entanglement import WITNESS_SAMPLES_CAP, schmidt, werner
from potentia.qlin import herm_eig
from potentia.sampling import random_density, random_pure
from potentia.states import (
    PURITY_TOL,
    DensityOperator,
    PureVector,
    abstract_purity,
    density_from_vector,
)

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

#: Callables given the path of each file opened while they are registered (see ``on_open``).
_open_listeners: list = []


def _audit_open(event, args):
    if event == "open" and _open_listeners and isinstance(args[0], (str, os.PathLike)):
        for listener in _open_listeners:
            listener(os.fspath(args[0]))


# The "open" audit event is raised however a file is opened (builtins, io, pathlib, os).
# An audit hook cannot be removed; outside ``on_open`` it has no listener and does nothing.
sys.addaudithook(_audit_open)


@pytest.fixture
def on_open():
    """Registers a listener for the path of every file opened during the test."""
    yield _open_listeners.append
    _open_listeners.clear()


def sha256(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def run_json(capsys, *argv) -> dict:
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    return json.loads(out)


class TestAnalyze:
    def test_ground_state(self, capsys):
        report = run_json(capsys, "analyze", SAMPLES / "zero_state.json")
        results = report["results"]
        assert results["purity"]["abstract"] is True
        assert results["purity"]["operational"] is True
        assert results["entropy_bits"] == pytest.approx(0.0, abs=1e-12)
        assert results["bloch"]["z"] == pytest.approx(1.0)

    def test_werner_half_region(self, capsys):
        report = run_json(capsys, "analyze", SAMPLES / "werner_05.json")
        results = report["results"]
        assert results["region"] == "EntangledLocal"
        assert results["verdicts"]["ppt"]["verdict"] == "Entangled"

    def test_worked_ea_intensities(self, capsys):
        report = run_json(capsys, "analyze", SAMPLES / "worked_ea.json")
        assert report["results"]["intensities"] == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_bell_state_schmidt(self, capsys):
        report = run_json(capsys, "analyze", SAMPLES / "bell_phi_plus.json")
        assert report["results"]["schmidt_coefficients"] == pytest.approx(
            [1 / np.sqrt(2)] * 2
        )
        assert report["results"]["region"] == "Nonlocal"


class TestAnalyzeEigensolves:
    """``analyze`` reads the spectrum its state check computed.  The full-dimension
    eigensolves are that check and the partial transpose; the two-qubit region
    reuses the PPT verdict and the CHSH maximum of the report."""

    def test_mixed_two_by_three_state(self, capsys, tmp_path, rng, eigensolve_counter):
        source = tmp_path / "mixed.json"
        fileio.dump_state(
            source, fileio.state_document(random_density(6, rng), Factorization((2, 3)))
        )
        eigensolve_counter.clear()
        code, _ = run(capsys, "analyze", source)
        assert code == 0
        assert eigensolve_counter[(6, 6)] == 2
        # Each reduced state is solved once for both spectral criteria.
        assert eigensolve_counter[(2, 2)] == 1
        assert eigensolve_counter[(3, 3)] == 1

    def test_werner_sample(self, capsys, eigensolve_counter):
        code, _ = run(capsys, "analyze", SAMPLES / "werner_05.json")
        assert code == 0
        assert eigensolve_counter[(4, 4)] == 2
        # One correlation-matrix check and one decomposition, inside one chsh_max.
        assert eigensolve_counter[("svd", (3, 3))] == 2

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)], ids=str)
    def test_pure_state_takes_its_vector_without_eigh(
        self, capsys, tmp_path, rng, eigensolve_counter, dims
    ):
        dim = dims[0] * dims[1]
        source = tmp_path / "pure.json"
        fileio.dump_state(
            source,
            fileio.state_document(density_from_vector(random_pure(dim, rng)), Factorization(dims)),
        )
        eigensolve_counter.clear()
        report = run_json(capsys, "analyze", source)
        assert len(report["results"]["schmidt_coefficients"]) == min(dims)
        # The state check and the partial transpose, both eigvalsh.
        assert eigensolve_counter[(dim, dim)] == 2
        assert eigensolve_counter[("eigh", (dim, dim))] == 0

    def test_verdict_tolerance_sets_the_region(self, capsys):
        results = run_json(
            capsys, "analyze", SAMPLES / "werner_05.json", "--tol", "verdict=0.2"
        )["results"]
        assert results["verdicts"]["ppt"]["verdict"] == "Separable"
        assert results["region"] == "Separable"


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 8), (4, 4)]),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_pure_state_schmidt_path_matches_the_eigh_oracle(dims, defect, seed):
    """Noise orthogonal to psi with weight eps gives a purity defect of nearly
    2 eps, so ``defect`` sweeps the defect from 0 up to ``PURITY_TOL``."""
    rng = np.random.default_rng(seed)
    dim = dims[0] * dims[1]
    psi = random_pure(dim, rng).amplitudes
    complement = np.eye(dim) - np.outer(psi, psi.conj())
    noise = complement @ random_density(dim, rng).matrix @ complement
    eps = defect * PURITY_TOL / 2
    rho = DensityOperator(
        (1 - eps) * np.outer(psi, psi.conj()) + eps * noise / np.real(np.trace(noise))
    )
    assume(abstract_purity(rho))
    layout = Factorization(dims)
    state = fileio.StateFile(
        rho, layout, DetectorBasis.computational(layout), None, True, False, "sha256:"
    )
    reported = _analysis_results(state, fileio.Tolerances())["schmidt_coefficients"]
    oracle = schmidt(PureVector.normalized(herm_eig(rho.matrix).eigenvectors[:, 0]), dims)
    assert np.max(np.abs(np.array(reported) - oracle)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats())
def test_verdict_tolerance_must_be_finite_and_nonnegative(value):
    """``--tol verdict=x`` is accepted exactly when x is a finite number >= 0."""
    argv = ["analyze", str(SAMPLES / "werner_05.json"), "--tol", f"verdict={value!r}"]
    rejected = math.isnan(value) or math.isinf(value) or value < 0
    assert main(argv) == (2 if rejected else 0)


class TestTransform:
    def test_hadamard_on_screen_one(self, capsys, tmp_path):
        out_state = tmp_path / "transformed.json"
        report = run_json(
            capsys,
            "transform",
            SAMPLES / "worked_ea.json",
            "--screen", "1",
            "--basis", "hadamard",
            "--out-state", out_state,
        )
        results = report["results"]
        assert results["before_intensities"] == pytest.approx([0.5, 0.0, 0.0, 0.5])
        assert results["after_intensities"] == pytest.approx([0.25] * 4)
        assert results["equivalent"] is True
        reloaded = fileio.load_state(out_state)
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.max(np.abs(reloaded.basis.screens[0] - hadamard)) <= 1e-12

    def test_transformed_file_reanalyzes_equivalently(self, capsys, tmp_path):
        out_state = tmp_path / "transformed.json"
        run_json(
            capsys,
            "transform",
            SAMPLES / "worked_ea.json",
            "--screen", "1",
            "--basis", "hadamard",
            "--out-state", out_state,
        )
        report = run_json(capsys, "analyze", out_state)
        assert report["results"]["intensities"] == pytest.approx([0.25] * 4)
        original = fileio.load_state(SAMPLES / "worked_ea.json")
        transformed = fileio.load_state(out_state)
        assert np.max(np.abs(transformed.density.matrix - original.density.matrix)) <= 1e-12

    def test_identity_transform_is_byte_identical(self, capsys, tmp_path):
        out_state = tmp_path / "copy.json"
        code, _ = run(capsys, "transform", SAMPLES / "worked_ea.json", "--out-state", out_state)
        assert code == 0
        assert out_state.read_bytes() == (SAMPLES / "worked_ea.json").read_bytes()

    def test_refactor_relabels(self, capsys, tmp_path):
        rho = DensityOperator(np.diag([0.1, 0.15, 0.2, 0.25, 0.05, 0.25]).astype(complex))
        source = tmp_path / "dim6.json"
        fileio.dump_state(source, fileio.state_document(rho))
        report = run_json(capsys, "transform", source, "--refactor", "2,3")
        results = report["results"]
        assert results["after_intensities"] == pytest.approx(results["before_intensities"])
        assert results["equivalent"] is True

    def test_refactor_with_detector_bases_rejected(self, capsys, tmp_path):
        loaded = fileio.load_state(SAMPLES / "worked_ea.json")
        hadamard = np.array([[1, 1], [1, -1]]).astype(complex) / np.sqrt(2)
        from potentia.arrangements import DetectorBasis

        source = tmp_path / "rotated.json"
        fileio.dump_state(
            source,
            fileio.state_document(
                loaded.density,
                loaded.factorization,
                DetectorBasis((hadamard, np.eye(2, dtype=complex))),
            ),
        )
        code, _ = run(capsys, "transform", source, "--refactor", "4")
        assert code == 3


    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--refactor", "4", "--screen", "1"),
             "parse error: --refactor and --screen/--basis are mutually exclusive"),
            (("--refactor", "4", "--basis", "hadamard"),
             "parse error: --refactor and --screen/--basis are mutually exclusive"),
            (("--screen", "1"), "parse error: --screen needs --basis"),
            (("--basis", "hadamard"), "parse error: --basis needs --screen"),
            (("--refactor", "2x2"),
             "parse error: --refactor expects comma-separated integers, got '2x2'"),
        ],
        ids=["refactor_screen", "refactor_basis", "screen_alone", "basis_alone", "refactor_not_dims"],
    )
    def test_option_combinations_that_would_be_ignored(self, capsys, tmp_path, flags, message):
        # Options are checked before the state file is read, so a missing file reports them too.
        for state in (SAMPLES / "worked_ea.json", tmp_path / "missing.json"):
            assert main(["transform", str(state), *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == message + "\n"


class TestPowers:
    def test_ground_state_over_two_bases(self, capsys):
        report = run_json(
            capsys,
            "powers",
            SAMPLES / "zero_state.json",
            "--projectors", SAMPLES / "qubit_two_bases.json",
        )
        results = report["results"]
        table = dict((label, value) for label, value in results["potentia"])
        assert table["|0><0|"] == pytest.approx(1.0)
        assert table["|1><1|"] == pytest.approx(0.0, abs=1e-12)
        assert table["|+><+|"] == pytest.approx(0.5)
        assert table["|-><-|"] == pytest.approx(0.5)
        assert len(results["maximal_contexts"]) == 2
        assert results["axioms"]["identity_ok"] is True
        assert results["axioms"]["additivity_violations"] == []

    def test_maximally_mixed_all_half(self, capsys, tmp_path):
        source = tmp_path / "mixed.json"
        fileio.dump_state(
            source, fileio.state_document(DensityOperator.maximally_mixed(2))
        )
        report = run_json(
            capsys, "powers", source, "--projectors", SAMPLES / "qubit_two_bases.json"
        )
        values = [value for label, value in report["results"]["potentia"] if label != "I"]
        assert values == pytest.approx([0.5] * 4)

    def test_override_breaks_additivity(self, capsys):
        report = run_json(
            capsys,
            "powers",
            SAMPLES / "zero_state.json",
            "--projectors", SAMPLES / "qubit_two_bases.json",
            "--override", "|0><0|=0.6",
            "--override", "|1><1|=0.6",
        )
        violations = report["results"]["axioms"]["additivity_violations"]
        assert violations
        assert violations[0]["member_total"] == pytest.approx(1.2)

    def test_actualization_listed(self, capsys):
        report = run_json(
            capsys,
            "powers",
            SAMPLES / "zero_state.json",
            "--projectors", SAMPLES / "qubit_two_bases.json",
        )
        bits = dict((label, bit) for label, bit in report["results"]["actualization"])
        assert bits["|0><0|"] == 1
        assert bits["|1><1|"] == 0
        assert bits["|+><+|"] == 1


class TestWerner:
    def test_single_point(self, capsys):
        report = run_json(capsys, "werner", "--p", "1")
        results = report["results"]
        assert results["region"] == "Nonlocal"
        assert results["chsh_max"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_maximally_mixed_point(self, capsys):
        report = run_json(capsys, "werner", "--p", "0")
        results = report["results"]
        assert results["region"] == "Separable"
        assert results["entropy_bits"] == pytest.approx(2.0, abs=1e-12)

    def test_verdict_tolerance_sets_the_region(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(fileio.render_json({"tolerances": {"verdict": 0.2}}), encoding="utf-8")
        for flags in (("--tol", "verdict=0.2"), ("--config", config)):
            results = run_json(capsys, "werner", "--p", "0.5", *flags)["results"]
            assert results["region"] == "Separable"
        assert run_json(capsys, "werner", "--p", "0.5")["results"]["region"] == "EntangledLocal"

    def test_scan_solves_each_point_once(self, capsys, eigensolve_counter):
        code, _ = run(capsys, "werner", "--scan", "0,1,101")
        assert code == 0
        # Per row: the state check and the partial transpose.  Each boundary
        # bisection evaluates 32 states; the PPT one also solves their transposes.
        assert eigensolve_counter[(4, 4)] == 101 * 2 + 32 * 2 + 32
        # Two per chsh_max: one call per row and per CHSH bisection step.
        assert eigensolve_counter[("svd", (3, 3))] == (101 + 32) * 2

    def test_scan_boundaries(self, capsys):
        report = run_json(capsys, "werner", "--scan", "0,1,101")
        boundaries = report["results"]["boundaries"]
        assert boundaries["ppt"] == pytest.approx(1 / 3, abs=1e-6)
        assert boundaries["chsh"] == pytest.approx(1 / np.sqrt(2), abs=1e-6)
        assert len(report["results"]["rows"]) == 101

    def test_out_of_range_is_validation_error(self, capsys):
        code, _ = run(capsys, "werner", "--p", "1.5")
        assert code == 3

    def test_scan_steps_above_cap_is_capacity_error(self, capsys):
        code, out = run(capsys, "werner", "--scan", f"0,1,{SCAN_STEPS_CAP + 1}")
        assert code == 4
        assert out == ""

    def test_bad_scan_spec_is_parse_error(self, capsys):
        code, _ = run(capsys, "werner", "--scan", "0,1")
        assert code == 2


class TestWitness:
    def test_bell_state(self, capsys):
        report = run_json(
            capsys, "witness", SAMPLES / "bell_phi_plus.json", "--samples", "2000"
        )
        results = report["results"]
        assert results["expectation_on_state"] == pytest.approx(-0.5, abs=1e-9)
        assert results["product_check"]["min_expectation"] >= -1e-9

    def test_partial_transpose_is_solved_once(self, capsys, eigensolve_counter):
        code, _ = run(capsys, "witness", SAMPLES / "bell_phi_plus.json", "--samples", "200")
        assert code == 0
        # The state check, then one eigh that gives the witness and min_pt_eigenvalue.
        assert eigensolve_counter[(4, 4)] == 1
        assert eigensolve_counter[("eigh", (4, 4))] == 1

    def test_verdict_tolerance_decides_the_witness(self, capsys, tmp_path):
        source = tmp_path / "werner.json"
        fileio.dump_state(
            source, fileio.state_document(werner(1 / 3 + 1e-7), Factorization((2, 2)))
        )
        code, _ = run(capsys, "witness", source, "--samples", "200")
        assert code == 0
        assert main(["witness", str(source), "--samples", "200", "--tol", "verdict=1e-6"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "validation error: state is PPT (min partial-transpose eigenvalue -7.500e-08); "
            "the eigenvector construction yields no witness\n"
        )

    def test_separable_state_has_no_witness(self, capsys, tmp_path):
        source = tmp_path / "sep.json"
        fileio.dump_state(
            source,
            fileio.state_document(
                DensityOperator.maximally_mixed(4),
                factorization=None,
            ),
        )
        # No factorization at all: bipartite structure missing.
        code, _ = run(capsys, "witness", source)
        assert code == 3

    def test_zero_samples_is_validation_error(self, capsys, eigensolve_counter):
        code, out = run(capsys, "witness", SAMPLES / "bell_phi_plus.json", "--samples", "0")
        assert code == 3
        assert out == ""
        # Rejected before the state check and the partial transpose are solved.
        assert not eigensolve_counter

    def test_samples_above_cap_is_capacity_error(self, capsys, eigensolve_counter):
        code, out = run(
            capsys, "witness", SAMPLES / "bell_phi_plus.json",
            "--samples", str(WITNESS_SAMPLES_CAP + 1),
        )
        assert code == 4
        assert out == ""
        assert not eigensolve_counter


class TestBell:
    def test_bell_state(self, capsys):
        report = run_json(capsys, "bell", SAMPLES / "bell_phi_plus.json")
        results = report["results"]
        assert results["chsh_max"] == pytest.approx(2 * np.sqrt(2), abs=1e-9)
        assert results["chsh_at_setting"] == pytest.approx(results["chsh_max"], abs=1e-7)
        assert results["correlation_matrix"][0][0] == pytest.approx(1.0)
        assert results["region"] == "Nonlocal"

    def test_region_reuses_the_reported_chsh_max(self, capsys, eigensolve_counter):
        code, _ = run(capsys, "bell", SAMPLES / "bell_phi_plus.json")
        assert code == 0
        # correlation_matrix, chsh_max (check and decomposition) and chsh_value.
        assert eigensolve_counter[("svd", (3, 3))] == 4


class TestInstrument:
    def test_screen_measurement(self, capsys):
        report = run_json(
            capsys,
            "instrument",
            SAMPLES / "worked_ea.json",
            "--instrument", SAMPLES / "measure_first_screen.json",
        )
        results = report["results"]
        assert results["valid"] is True
        probabilities = [branch["probability"] for branch in results["branches"]]
        assert probabilities == pytest.approx([0.5, 0.5])

    def test_kraus_rank_above_cap_is_capacity_error(self, capsys, tmp_path):
        kraus = [fileio.matrix_to_json(np.eye(4) / np.sqrt(17))] * 17
        path = tmp_path / "crowded.json"
        path.write_text(
            fileio.render_json({"schema_version": "1", "branches": [{"kraus": kraus}]}),
            encoding="utf-8",
        )
        code, _ = run(
            capsys, "instrument", SAMPLES / "bell_phi_plus.json", "--instrument", path
        )
        assert code == 4

    def test_incomplete_instrument_reported(self, capsys, tmp_path):
        payload = {
            "schema_version": "1",
            "branches": [
                {"kraus": [fileio.matrix_to_json(np.kron(np.diag([1.0, 0.0]), np.eye(2)))]}
            ],
        }
        path = tmp_path / "partial.json"
        path.write_text(fileio.render_json(payload), encoding="utf-8")
        report = run_json(
            capsys, "instrument", SAMPLES / "worked_ea.json", "--instrument", path
        )
        assert report["results"]["valid"] is False
        assert "branches" not in report["results"]


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        code, _ = run(capsys, "analyze", broken)
        assert code == 2

    def test_validation_error(self, capsys, tmp_path):
        payload = {
            "schema_version": "1",
            "dim": 2,
            "matrix": fileio.matrix_to_json(np.eye(2)),
        }
        bad = tmp_path / "trace2.json"
        bad.write_text(fileio.render_json(payload), encoding="utf-8")
        code, _ = run(capsys, "analyze", bad)
        assert code == 3

    def test_capacity_error(self, capsys, tmp_path):
        def ray(k):
            v = np.array([1.0, k + 1.0])
            v /= np.linalg.norm(v)
            return np.outer(v, v)

        payload = {
            "schema_version": "1",
            "dim": 2,
            "projectors": [
                {"label": f"P{k}", "matrix": fileio.matrix_to_json(ray(k))} for k in range(25)
            ],
        }
        family = tmp_path / "crowd.json"
        family.write_text(fileio.render_json(payload), encoding="utf-8")
        code, _ = run(capsys, "powers", SAMPLES / "zero_state.json", "--projectors", family)
        assert code == 4

    def test_dim_above_cap_is_capacity_error(self, capsys, tmp_path):
        payload = {"schema_version": "1", "dim": 5000, "matrix": fileio.matrix_to_json(np.eye(1))}
        huge = tmp_path / "huge.json"
        huge.write_text(fileio.render_json(payload), encoding="utf-8")
        code, _ = run(capsys, "analyze", huge)
        assert code == 4

    def test_integer_beyond_float64_is_parse_error(self, capsys, tmp_path):
        huge = tmp_path / "huge_entry.json"
        huge.write_text(
            json.dumps({"schema_version": "1", "dim": 1, "matrix": [[[10**400, 0]]]}),
            encoding="utf-8",
        )
        code = main(["analyze", str(huge)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"parse error: {huge}.matrix: an entry is too large for a float64\n"

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            (("--tol", "axioms"), 2, "parse error: --tol expects name=value, got 'axioms'"),
            (("--tol", "axioms=tiny"), 2, "parse error: --tol axioms: 'tiny' is not a number"),
            (("--tol", "wobble=1"), 2,
             "parse error: unknown tolerance 'wobble'; known: hermiticity, trace, purity, "
             "verdict, equivalence, axioms, zero"),
            (("--tol", "verdict=nan"), 2,
             "parse error: tolerance 'verdict': NaN is not a finite number >= 0"),
            (("--tol", "verdict=inf"), 2,
             "parse error: tolerance 'verdict': Infinity is not a finite number >= 0"),
            (("--tol", "verdict=-1e-9"), 2,
             "parse error: tolerance 'verdict': -1e-09 is not a finite number >= 0"),
            (("--override", "|0><0|"), 2,
             "parse error: --override expects label=value, got '|0><0|'"),
            (("--override", " |0><0| =half"), 2,
             "parse error: --override  |0><0| : 'half' is not a number"),
            (("--override", "|2><2|=0.5"), 3,
             "validation error: --override: no node labelled '|2><2|'"),
            (("--override", "5=0.5"), 3, "validation error: --override: node index 5 out of range"),
            (("--override", "|0><0|=2"), 3, "validation error: potentia must lie in [0, 1]"),
            (("--override", "I=nan"), 3, "validation error: potentia must lie in [0, 1]"),
        ],
        ids=[
            "tol_no_equals", "tol_not_a_number", "tol_unknown_name", "tol_nan", "tol_infinite",
            "tol_negative", "override_no_equals", "override_not_a_number", "override_unknown_label",
            "override_index_out_of_range", "override_outside_unit_interval", "override_nan",
        ],
    )
    def test_malformed_assignment_values(self, capsys, flags, code, message):
        argv = [
            "powers", str(SAMPLES / "zero_state.json"),
            "--projectors", str(SAMPLES / "qubit_two_bases.json"), *flags,
        ]
        for report_format in ("json", "text"):
            assert main([*argv, "--format", report_format]) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == message + "\n"

    def test_override_syntax_is_checked_before_files_are_read(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        argv = ["powers", str(missing), "--projectors", str(missing), "--override", "|0><0|"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "parse error: --override expects label=value, got '|0><0|'\n"
        )

    @pytest.mark.parametrize(
        "value, shown",
        [('"abc"', '"abc"'), ("[1]", "[1]"), ("true", "true"), ("null", "null"),
         ("-0.5", "-0.5"), ("1e400", "Infinity")],
        ids=["string", "list", "bool", "null", "negative", "overflow"],
    )
    def test_config_tolerance_must_be_a_finite_number(self, capsys, tmp_path, value, shown):
        config = tmp_path / "config.json"
        config.write_text(f'{{"tolerances": {{"verdict": {value}}}}}', encoding="utf-8")
        assert main(["analyze", str(SAMPLES / "werner_05.json"), "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"parse error: tolerance 'verdict': {shown} is not a finite number >= 0\n"
        )

    def test_nan_hermiticity_tolerance_is_parse_error(self, capsys, tmp_path):
        skewed = tmp_path / "skewed.json"
        matrix = np.array([[0.5, 0.3], [0.0, 0.5]])
        skewed.write_text(
            fileio.render_json(
                {"schema_version": "1", "dim": 2, "matrix": fileio.matrix_to_json(matrix)}
            ),
            encoding="utf-8",
        )
        assert main(["analyze", str(skewed)]) == 3
        assert "violates Hermiticity (max asymmetry 3.000e-01" in capsys.readouterr().err
        assert main(["analyze", str(skewed), "--tol", "hermiticity=nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "parse error: tolerance 'hermiticity': NaN is not a finite number >= 0\n"
        )

    def test_non_orthonormal_basis_file_is_validation_error(self, capsys, tmp_path):
        stretch = tmp_path / "stretch.json"
        stretch.write_text(
            fileio.render_json({"matrix": fileio.matrix_to_json(np.diag([2.0, 1.0]))}),
            encoding="utf-8",
        )
        argv = ["transform", str(SAMPLES / "worked_ea.json"), "--screen", "1", "--basis", str(stretch)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "validation error: new detector basis columns are not orthonormal within 1e-09 "
            "(max Gram error 3.000e+00)\n"
        )

    @pytest.mark.parametrize(
        "diagonal, trace", [((0.0, 0.0), "0+0j"), ((-0.25, -0.25), "-0.5+0j")],
        ids=["zero_trace", "negative_trace"],
    )
    def test_non_positive_trace_under_loose_trace_tolerance(
        self, capsys, tmp_path, diagonal, trace
    ):
        # Within --tol trace=2 of 1, but no density operator: exit 3 before any division.
        path = tmp_path / "state.json"
        fileio.dump_state(path, {"schema_version": "1", "dim": 2,
                                 "matrix": fileio.matrix_to_json(np.diag(diagonal))})
        assert main(["analyze", str(path), "--tol", "trace=2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: {path}: matrix violates unit trace (trace {trace})\n"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("analyze", "missing.json"), 2,
             "parse error: missing.json: cannot read: No such file or directory"),
            (("analyze", "folder"), 2, "parse error: folder: cannot read: Is a directory"),
            (("analyze", "latin1.json"), 2,
             "parse error: latin1.json: cannot read: 'utf-8' codec can't decode byte 0xe9 "
             "in position 14: invalid continuation byte"),
            (("analyze", SAMPLES / "zero_state.json", "--config", "missing.json"), 2,
             "parse error: missing.json: cannot read: No such file or directory"),
            (("powers", SAMPLES / "zero_state.json", "--projectors", "folder"), 2,
             "parse error: folder: cannot read: Is a directory"),
            (("instrument", SAMPLES / "zero_state.json", "--instrument", "latin1.json"), 2,
             "parse error: latin1.json: cannot read: 'utf-8' codec can't decode byte 0xe9 "
             "in position 14: invalid continuation byte"),
            (("transform", SAMPLES / "worked_ea.json", "--screen", "1", "--basis", "hadamrd"), 2,
             "parse error: unknown basis 'hadamrd'; named bases: computational, hadamard, fourier"),
        ],
        ids=[
            "missing_state", "directory_state", "non_utf8_state", "missing_config",
            "directory_projectors", "non_utf8_instrument", "misspelt_basis",
        ],
    )
    def test_unreadable_input_is_parse_error(
        self, capsys, tmp_path, monkeypatch, argv, code, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folder").mkdir()
        (tmp_path / "latin1.json").write_bytes('{"label": "caf\xe9"}'.encode("latin-1"))
        assert main([str(a) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", SAMPLES / "zero_state.json", "--out", "missing/x.json"),
            ("transform", SAMPLES / "worked_ea.json", "--out-state", "missing/x.json"),
        ],
        ids=["analyze_out", "transform_out_state"],
    )
    def test_unwritable_output_is_parse_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main([str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "parse error: missing/x.json: cannot write: No such file or directory\n"
        )

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
    def test_non_finite_entry_is_one_validation_line(self, tmp_path, entry):
        rows = fileio.matrix_to_json(np.eye(2) / 2)
        rows[entry[0]][entry[1]][0] = "HUGE"
        state = tmp_path / "overflow.json"
        text = json.dumps({"schema_version": "1", "dim": 2, "matrix": rows})
        state.write_text(text.replace('"HUGE"', "1e400"), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "potentia.cli", "analyze", str(state)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"validation error: {state}: matrix has non-finite entries\n"

    def test_tol_override_flows_through(self, capsys):
        code, _ = run(
            capsys, "analyze", SAMPLES / "zero_state.json", "--tol", "purity=1e-3"
        )
        assert code == 0

    def test_unknown_tol_is_parse_error(self, capsys):
        code, _ = run(
            capsys, "analyze", SAMPLES / "zero_state.json", "--tol", "nope=1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("transform", SAMPLES / "worked_ea.json"),
            ("powers", SAMPLES / "zero_state.json", "--projectors", SAMPLES / "qubit_two_bases.json"),
            ("werner", "--p", "0.5"),
            ("witness", SAMPLES / "bell_phi_plus.json"),
            ("bell", SAMPLES / "bell_phi_plus.json"),
            ("instrument", SAMPLES / "bell_phi_plus.json",
             "--instrument", SAMPLES / "measure_first_screen.json"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_other_subcommands_reject_unknown_tol(self, capsys, argv):
        code, out = run(capsys, *argv, "--tol", "wobble=1")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", SAMPLES / "zero_state.json"),
            ("transform", SAMPLES / "worked_ea.json"),
            ("powers", SAMPLES / "zero_state.json", "--projectors", SAMPLES / "qubit_two_bases.json"),
            ("werner", "--p", "0.5"),
            ("bell", SAMPLES / "bell_phi_plus.json"),
            ("instrument", SAMPLES / "bell_phi_plus.json",
             "--instrument", SAMPLES / "measure_first_screen.json"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_is_a_witness_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main([str(a) for a in (*argv, "--seed", "1")])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_removed_orthonormality_tol_is_parse_error(self, capsys):
        code, _ = run(
            capsys, "analyze", SAMPLES / "zero_state.json", "--tol", "orthonormality=1e-3"
        )
        assert code == 2

    def test_config_file_sets_tolerances(self, capsys, tmp_path):
        matrix = np.diag([0.5, 0.5 + 3e-9]).astype(complex)
        payload = {
            "schema_version": "1",
            "dim": 2,
            "matrix": fileio.matrix_to_json(matrix),
        }
        noisy = tmp_path / "noisy.json"
        noisy.write_text(fileio.render_json(payload), encoding="utf-8")
        code, _ = run(capsys, "analyze", noisy)
        assert code == 3
        config = tmp_path / "config.json"
        config.write_text(
            fileio.render_json({"tolerances": {"trace": 1e-6}}), encoding="utf-8"
        )
        code, _ = run(capsys, "analyze", noisy, "--config", config)
        assert code == 0


class TestInputDigests:
    @pytest.mark.parametrize(
        "argv, inputs",
        [
            (("analyze", "S/werner_05.json"), ("S/werner_05.json",)),
            (("analyze", "S/werner_05.json", "--config", "T/config.json"),
             ("S/werner_05.json", "T/config.json")),
            (("transform", "S/worked_ea.json", "--screen", "1", "--basis", "hadamard"),
             ("S/worked_ea.json",)),
            (("transform", "S/worked_ea.json", "--screen", "1", "--basis", "T/basis.json"),
             ("S/worked_ea.json", "T/basis.json")),
            (("transform", "S/worked_ea.json", "--out-state", "T/out.json"), ("S/worked_ea.json",)),
            (("powers", "S/zero_state.json", "--projectors", "S/qubit_two_bases.json"),
             ("S/zero_state.json", "S/qubit_two_bases.json")),
            (("witness", "S/bell_phi_plus.json", "--samples", "100"), ("S/bell_phi_plus.json",)),
            (("bell", "S/bell_phi_plus.json"), ("S/bell_phi_plus.json",)),
            (("instrument", "S/bell_phi_plus.json", "--instrument", "S/measure_first_screen.json"),
             ("S/bell_phi_plus.json", "S/measure_first_screen.json")),
        ],
        ids=[
            "analyze", "analyze_config", "transform_named_basis", "transform_file_basis",
            "transform_out_state", "powers", "witness", "bell", "instrument",
        ],
    )
    def test_each_input_file_is_opened_once(self, capsys, tmp_path, on_open, argv, inputs):
        def place(arg: str) -> str:
            return arg.replace("S/", f"{SAMPLES}/", 1).replace("T/", f"{tmp_path}/", 1)

        (tmp_path / "config.json").write_text('{"tolerances": {}}', encoding="utf-8")
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        (tmp_path / "basis.json").write_text(
            json.dumps({"matrix": fileio.matrix_to_json(hadamard)}), encoding="utf-8"
        )
        opens = Counter()
        on_open(lambda path: opens.update([path]))
        code, _ = run(capsys, *map(place, argv))
        assert code == 0
        paths = [place(path) for path in inputs]
        assert {path: opens[path] for path in paths} == dict.fromkeys(paths, 1)

    def test_digest_attests_the_bytes_that_were_analysed(self, capsys, tmp_path, on_open):
        """A file replaced after its first open: the report describes and attests that open."""
        state, later = tmp_path / "state.json", tmp_path / "later.json"
        state.write_bytes((SAMPLES / "zero_state.json").read_bytes())
        fileio.dump_state(later, fileio.state_document(DensityOperator(np.diag([0.0, 1.0]))))
        digest = sha256(state)
        seen = []

        def replace_after_first_open(path):
            if path == str(state):
                seen.append(path)
                if len(seen) == 2:  # any later read sees other bytes
                    os.replace(later, state)

        on_open(replace_after_first_open)
        report = run_json(capsys, "analyze", state)
        assert report["input_digest"] == {"state": digest}
        assert report["results"] == run_json(capsys, "analyze", SAMPLES / "zero_state.json")["results"]

    def test_basis_file_is_digested_and_named_basis_is_not(self, capsys, tmp_path):
        basis = tmp_path / "basis.json"
        basis.write_text(json.dumps({"matrix": fileio.matrix_to_json(np.eye(2))}), encoding="utf-8")
        worked = SAMPLES / "worked_ea.json"
        report = run_json(capsys, "transform", worked, "--screen", "1", "--basis", basis)
        assert report["input_digest"] == {"state": sha256(worked), "basis": sha256(basis)}
        for name in ("computational", "hadamard"):
            report = run_json(capsys, "transform", worked, "--screen", "1", "--basis", name)
            assert report["input_digest"] == {"state": sha256(worked)}


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            code, out = run(capsys, "analyze", SAMPLES / "werner_05.json", "--format", "json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]


def test_cli_import_leaves_networkx_unloaded():
    probe = "import sys, potentia.cli; print('networkx' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

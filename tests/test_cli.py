import functools
import hashlib
import json
import math
import operator
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from potentia import fileio, powers, qlin
from potentia.arrangements import DetectorBasis, Factorization
from potentia.cli import SCAN_STEPS_CAP, _analysis_results, _bisect, main
from potentia.entanglement import WITNESS_SAMPLES_CAP, schmidt, werner
from potentia.sampling import random_density, random_pure
from potentia.states import (
    PURITY_TOL,
    DensityOperator,
    PureVector,
    abstract_purity,
    density_from_vector,
)
from potentia.tolerances import VERDICT_TOL

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
        # One decomposition inside one chsh_max; the correlation-matrix check reads its values.
        assert eigensolve_counter[("svd", (3, 3))] == 1

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
    state = fileio.StateFile(rho, layout, None, None, True, "sha256:")
    reported = _analysis_results(state, fileio.Tolerances())["schmidt_coefficients"]
    oracle = schmidt(PureVector.normalized(np.linalg.eigh(rho.matrix)[1][:, -1]), dims)
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

    def test_near_unitary_basis_file_is_not_equivalent(self, capsys, tmp_path):
        """A Hadamard rounded to nine digits is admitted (Gram error 5.3e-10); the Bell state it
        moves differs by 5.3e-10 from the original in the dense rule, so ``equivalent`` is false."""
        h = 0.707106781
        basis = tmp_path / "rounded.json"
        basis.write_text(json.dumps({"matrix": [[[h, 0.0], [h, 0.0]], [[h, 0.0], [-h, 0.0]]]}))
        argv = ("transform", SAMPLES / "bell_phi_plus.json", "--screen", "1", "--basis", basis)
        assert run_json(capsys, *argv)["results"]["equivalent"] is False

    @pytest.mark.parametrize("source", ["hadamard", "file"])
    def test_file_without_bases_writes_the_new_basis_as_given(self, capsys, tmp_path, source):
        """A file that names no detectors has computational ones, so the changed screen's basis
        is written bit for bit.  In the ``file`` case the imaginary parts are -0.0, which a
        product with the identity would have turned into +0.0."""
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        if source == "file":
            hadamard.imag = -0.0
            source = tmp_path / "hadamard.json"
            source.write_text(json.dumps({"matrix": fileio.matrix_to_json(hadamard)}))
        out_state = tmp_path / "one_screen.json"
        argv = ("transform", SAMPLES / "zero_state.json", "--screen", "1", "--basis", source)
        run_json(capsys, *argv, "--out-state", out_state)
        written = json.loads(out_state.read_text())
        assert written["bases"] == [fileio.matrix_to_json(hadamard)]
        assert "factorization" not in written
        reloaded = fileio.load_state(out_state).basis.screens[0]
        assert reloaded.tobytes() == hadamard.tobytes()

    def test_out_state_refuses_a_product_that_would_not_load_back(self, capsys, tmp_path):
        """Both factors are scaled by 1 + 4.9e-10 (Gram error 9.8e-10, admitted); their product
        has a Gram error of 1.96e-9, so the file it would write could not be read back."""
        scale = 1.00000000049
        loaded = fileio.load_state(SAMPLES / "bell_phi_plus.json")
        source, basis = tmp_path / "scaled.json", tmp_path / "v.json"
        fileio.dump_state(source, fileio.state_document(
            loaded.density, loaded.factorization, DetectorBasis((scale * np.eye(2), np.eye(2)))
        ))
        hadamard = scale * np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        basis.write_text(json.dumps({"matrix": fileio.matrix_to_json(hadamard)}))
        argv = ["transform", str(source), "--screen", "1", "--basis", str(basis)]
        assert main(argv) == 0
        capsys.readouterr()
        out_state = tmp_path / "out.json"
        assert main([*argv, "--out-state", str(out_state)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"validation error: --out-state: the file's basis times --screen 1's would not load back: "
            r"screen 0 basis max Gram error 1\.96\d*e-09 exceeds 1e-09\n",
            captured.err,
        )
        assert not out_state.exists()

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

    def test_computational_basis_applies_no_factor(self, capsys, monkeypatch):
        """An identity basis is a step with no factor: no kernel applies a factor, and the report
        is the one that applying the identity gave, byte for byte."""
        applied, kernel = [], qlin._mode_product

        def counted(m, dims, factors, *args, **kwargs):
            applied.extend(factors)
            return kernel(m, dims, factors, *args, **kwargs)

        monkeypatch.setattr(qlin, "_mode_product", counted)
        argv = ("transform", SAMPLES / "worked_ea.json", "--screen", "1", "--basis", "computational")
        code, out = run(capsys, *argv, "--format", "text")
        assert code == 0 and applied == []
        assert out == (
            "command: transform\n"
            "input_digest:\n"
            "  state: sha256:0f89d83b865dfbcc48c9a9d4651c93cba70484ec39756ad340daf9522605a37a\n"
            "results:\n"
            "  after_intensities:\n"
            "    [0.5, 0, 0, 0.5]\n"
            "  before_intensities:\n"
            "    [0.5, 0, 0, 0.5]\n"
            "  degree: 4\n"
            "  equivalent: true\n"
            "  transform:\n"
            "    basis: computational\n"
            "    screen: 1\n"
            "tool: potentia\n"
            "version: 0.1.0\n"
        )

    def test_refactor_relabels(self, capsys, tmp_path):
        rho = DensityOperator(np.diag([0.1, 0.15, 0.2, 0.25, 0.05, 0.25]).astype(complex))
        source = tmp_path / "dim6.json"
        fileio.dump_state(source, fileio.state_document(rho))
        report = run_json(capsys, "transform", source, "--refactor", "2,3")
        results = report["results"]
        assert results["after_intensities"] == pytest.approx(results["before_intensities"])
        assert results["equivalent"] is True

    @staticmethod
    def rotated_state_file(tmp_path) -> Path:
        """worked_ea.json with Hadamard detectors on screen 1."""
        loaded = fileio.load_state(SAMPLES / "worked_ea.json")
        hadamard = np.array([[1, 1], [1, -1]]).astype(complex) / np.sqrt(2)
        source = tmp_path / "rotated.json"
        fileio.dump_state(
            source,
            fileio.state_document(
                loaded.density,
                loaded.factorization,
                DetectorBasis((hadamard, np.eye(2, dtype=complex))),
            ),
        )
        return source

    def test_refactor_with_detector_bases_rejected(self, capsys, tmp_path):
        # Only the emitted file cannot express the refactor of such bases.
        out_state = tmp_path / "out.json"
        source = self.rotated_state_file(tmp_path)
        code, _ = run(capsys, "transform", source, "--refactor", "4", "--out-state", out_state)
        assert code == 3
        assert not out_state.exists()

    def test_refactor_with_detector_bases_reports_without_out_state(self, capsys, tmp_path):
        report = run_json(capsys, "transform", self.rotated_state_file(tmp_path), "--refactor", "4")
        assert report["results"]["equivalent"] is True
        assert report["results"]["transform"] == {"refactor": [4]}

    @pytest.mark.parametrize("offset, code", [(0.0, 0), (1e-13, 3)], ids=["identity", "near_identity"])
    def test_refactor_out_state_needs_identity_bases_exactly(self, capsys, tmp_path, offset, code):
        # The rule is make_ea's: a basis equal to the identity stores no factor; any other
        # basis, however close, cannot be written as computational detectors.
        loaded = fileio.load_state(SAMPLES / "worked_ea.json")
        near = np.eye(2, dtype=complex)
        near[0, 1] = near[1, 0] = offset
        source, out_state = tmp_path / "bases.json", tmp_path / "out.json"
        fileio.dump_state(source, fileio.state_document(
            loaded.density, loaded.factorization, DetectorBasis((near, np.eye(2, dtype=complex)))
        ))
        assert main(["transform", str(source), "--refactor", "4", "--out-state", str(out_state)]) == code
        captured = capsys.readouterr()
        assert out_state.exists() == (code == 0)
        assert captured.err.count("\n") == (code != 0)


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
            (("--refactor", "0,4"), "parse error: --refactor expects positive screen dims, got '0,4'"),
            (("--refactor=-2,-2",),
             "parse error: --refactor expects positive screen dims, got '-2,-2'"),
            (("--refactor", ""), "parse error: --refactor expects comma-separated integers, got ''"),
            (("--screen", "1", "--basis", "hadamrd"),
             "parse error: unknown basis 'hadamrd'; named bases: computational, hadamard, fourier"),
        ],
        ids=["refactor_screen", "refactor_basis", "screen_alone", "basis_alone", "refactor_not_dims",
             "refactor_zero_dim", "refactor_negative_dims", "refactor_empty", "unknown_basis"],
    )
    def test_option_combinations_that_would_be_ignored(self, capsys, tmp_path, flags, message):
        # Options are checked before the state file is read, so a missing file reports them too.
        for state in (SAMPLES / "worked_ea.json", tmp_path / "missing.json"):
            assert main(["transform", str(state), *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == message + "\n"

    def test_empty_basis_is_no_file(self, capsys, tmp_path, monkeypatch):
        # Path('') is the working directory; '' is an unknown basis name, not a file to read.
        monkeypatch.chdir(tmp_path)
        assert main(["transform", str(SAMPLES / "worked_ea.json"), "--screen", "1", "--basis", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "parse error: unknown basis ''; named bases: computational, hadamard, fourier\n"
        )


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

    def test_identity_is_sought_once(self, capsys, monkeypatch):
        """The node count and the graph share one comparison of each projector with the identity."""
        calls, sought = [], powers._identity_index
        monkeypatch.setattr(powers, "_identity_index", lambda nodes: calls.append(1) or sought(nodes))
        report = run_json(capsys, "powers", SAMPLES / "zero_state.json",
                          "--projectors", SAMPLES / "qubit_two_bases.json")
        assert len(calls) == 1 and [label for label, _ in report["results"]["potentia"]][-1] == "I"

    def test_node_cap_is_checked_before_the_graph_is_built(self, capsys, tmp_path, monkeypatch):
        payload = {
            "schema_version": "1",
            "dim": 2,
            "projectors": [
                {"label": f"P{k}", "matrix": fileio.matrix_to_json(np.diag([1.0, 0.0]))}
                for k in range(100)
            ],
        }
        family = tmp_path / "crowd.json"
        family.write_text(fileio.render_json(payload), encoding="utf-8")

        def unreachable(nodes):
            raise AssertionError("build_graph ran on an oversized family")

        monkeypatch.setattr(powers, "build_graph", unreachable)
        code = main(["powers", str(SAMPLES / "zero_state.json"), "--projectors", str(family)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        # 100 projectors and the identity that build_graph would add.
        assert captured.err == "capacity error: clique enumeration node count 101 exceeds the cap of 24\n"

    def test_node_cap_counts_the_identity_before_any_product(self, capsys, tmp_path, monkeypatch):
        """24 projectors without the identity make 25 nodes: refused before one pair is compared."""
        payload = {
            "schema_version": "1",
            "dim": 2,
            "projectors": [
                {"label": f"P{k}", "matrix": fileio.matrix_to_json(np.diag([1.0, 0.0]))}
                for k in range(24)
            ],
        }
        family = tmp_path / "crowd.json"
        family.write_text(fileio.render_json(payload), encoding="utf-8")
        calls = []

        def counting(*args):
            calls.append(args)
            return qlin.commutes(*args)

        monkeypatch.setattr(powers, "commutes", counting)
        code = main(["powers", str(SAMPLES / "zero_state.json"), "--projectors", str(family)])
        captured = capsys.readouterr()
        assert (code, captured.out, len(calls)) == (4, "", 0)
        assert captured.err == "capacity error: clique enumeration node count 25 exceeds the cap of 24\n"

    def test_repeated_label_is_validation_error(self, capsys, tmp_path):
        # Without the check, `--override I=0.5` would set |0><0|, not the added identity.
        payload = {
            "schema_version": "1",
            "dim": 2,
            "projectors": [{"label": "I", "matrix": fileio.matrix_to_json(np.diag([1.0, 0.0]))}],
        }
        family = tmp_path / "relabelled.json"
        family.write_text(fileio.render_json(payload), encoding="utf-8")
        for extra in ([], ["--override", "I=0.5"]):
            code = main(["powers", str(SAMPLES / "zero_state.json"), "--projectors", str(family), *extra])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert "'I' is repeated" in captured.err

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
        # The rows: one stacked solve each for the partial transposes, the
        # spectra the entropy reads and the correlation matrices.
        assert eigensolve_counter[(101, 4, 4)] == 2
        assert eigensolve_counter[("svd", (101, 3, 3))] == 1
        # Each bisection reads its 32 points as the rows read theirs, one stack
        # of one point each, and admits no state: no Cholesky.
        assert eigensolve_counter[(1, 4, 4)] == 32
        assert eigensolve_counter[("svd", (1, 3, 3))] == 32
        assert sum(eigensolve_counter.values()) == 2 + 1 + 2 * 32

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

    @pytest.mark.parametrize(
        "flags, message",
        [
            ((), "parse error: one of the arguments --p --scan is required"),
            (("--p", "0.5", "--scan", ""), "parse error: argument --scan: not allowed with argument --p"),
            (("--scan", ""), "parse error: --scan expects from,to,steps, got ''"),
        ],
        ids=["neither", "both_scan_empty", "scan_empty"],
    )
    def test_needs_exactly_one_of_p_and_scan(self, capsys, flags, message):
        assert main(["werner", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    ends=st.lists(
        st.sampled_from([0.0, 1 / 3, 1 / math.sqrt(2), 1.0]) | st.floats(0.0, 1.0), min_size=2, max_size=2,
        unique=True,
    ).map(sorted),
    steps=st.integers(2, 300),
    verdict=st.sampled_from([None, 0.0, 1e-9, 0.05, 0.2, 0.5]),
    pick=st.integers(0, 299),
)
@example(ends=[1 / 3, 1 / math.sqrt(2)], steps=2, verdict=None, pick=1)
@example(ends=[0.0, 1.0], steps=4, verdict=0.0, pick=1)
def test_scan_rows_are_the_per_state_values(capsys, ends, steps, verdict, pick):
    """Every stacked row, bit for bit, is what the per-state calls give at its p, and so is each
    boundary, bisected on admitted states; and ``werner --p`` reports the scan's row at that p."""
    from potentia import bell, entanglement

    lo, hi = ends
    tol = [] if verdict is None else ["--tol", f"verdict={verdict!r}"]
    results = run_json(capsys, "werner", "--scan", f"{lo!r},{hi!r},{steps}", *tol)["results"]
    rows = results["rows"]
    assert results["boundaries"] == {
        "ppt": _bisect(lambda p: entanglement.min_pt_eigenvalue(werner(p), (2, 2)), lo, hi),
        "chsh": _bisect(lambda p: bell.chsh_max(werner(p)).value - bell.CLASSICAL_BOUND, lo, hi),
    }
    expected = []
    for p in np.linspace(lo, hi, steps).tolist():
        rho = werner(p)
        ppt = entanglement.ppt_criterion(rho, (2, 2), VERDICT_TOL if verdict is None else verdict)
        chsh = bell.chsh_max(rho).value
        expected.append({
            "p": p,
            "min_pt_eigenvalue": ppt.evidence,
            "chsh_max": chsh,
            "region": bell.region(ppt, chsh).value,
            "entropy_bits": entanglement.von_neumann_entropy(rho),
        })
    assert fileio.render_json(rows) == fileio.render_json(expected)
    row = rows[pick % steps]
    point = run_json(capsys, "werner", "--p", repr(row["p"]), *tol)["results"]
    assert fileio.render_json(point) == fileio.render_json(row)


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
        # One eigh gives the witness and min_pt_eigenvalue; the state check
        # and the report read no spectrum.
        assert eigensolve_counter[(4, 4)] == 0
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
        assert main(["witness", str(source)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validation error: a bipartite layout needs two screens, got dims (4,)\n"

    def test_zero_samples_is_validation_error(self, capsys, eigensolve_counter):
        code, out = run(capsys, "witness", SAMPLES / "bell_phi_plus.json", "--samples", "0")
        assert code == 3
        assert out == ""
        # Rejected before the state check and the partial transpose are solved.
        assert not eigensolve_counter

    def test_negative_seed_is_validation_error(self, capsys, tmp_path, eigensolve_counter):
        # Checked with the --samples bounds, before the state file is read.
        for state in (SAMPLES / "bell_phi_plus.json", tmp_path / "missing.json"):
            assert main(["witness", str(state), "--seed", "-1"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "validation error: the product-sample seed must be an integer >= 0, got -1\n"
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
        # One decomposition each in correlation_matrix, chsh_max and chsh_value.
        assert eigensolve_counter[("svd", (3, 3))] == 3


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

    def test_kraus_operator_above_dimension_cap_is_capacity_error(self, capsys, tmp_path):
        tall = np.zeros((4097, 1))
        tall[0, 0] = 1.0
        path = tmp_path / "tall.json"
        path.write_text(
            fileio.render_json(
                {"schema_version": "1", "branches": [{"kraus": [fileio.matrix_to_json(tall)]}]}
            ),
            encoding="utf-8",
        )
        code, out = run(capsys, "instrument", SAMPLES / "zero_state.json", "--instrument", path)
        assert code == 4
        assert out == ""

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

    def test_running_out_of_memory_is_a_capacity_error(self, capsys, monkeypatch):
        """A ``MemoryError``, here from the state loader, exits 4 with one stderr line and no report."""
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(fileio, "load_state", exhausted)
        code = main(["analyze", str(SAMPLES / "werner_05.json")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert captured.err == "capacity error: out of memory; the input is too large for this machine\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_a_parse_past_an_address_space_cap_is_a_capacity_error(self, tmp_path):
        """``analyze`` of a file whose parse does not fit under the process's address-space cap exits 4
        with one stderr line, not a ``MemoryError`` traceback.  The cap is the child's own peak after
        ``import potentia.cli``, plus 32 MB: room for the 12 MB file's bytes and its text, but not for
        the ~120 MB of lists ``json.loads`` makes of the maximally mixed state at dim 1024."""
        import resource

        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}  # each BLAS thread would reserve address space
        probe = ("import potentia.cli; "
                 "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmPeak:')))")
        baseline = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
        assert baseline.returncode == 0, baseline.stderr
        cap = (int(baseline.stdout) << 10) + (32 << 20)  # VmPeak is in kB
        dim = 1024
        rows = (", ".join(f"[{1 / dim!r}, 0.0]" if j == i else "[0.0, 0.0]" for j in range(dim)) for i in range(dim))
        matrix = ", ".join(f"[{row}]" for row in rows)
        state = tmp_path / "large.json"
        state.write_text(f'{{"schema_version": "1", "dim": {dim}, "matrix": [{matrix}]}}', encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "potentia.cli", "analyze", str(state)], env=env, capture_output=True, text=True,
            timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == "capacity error: out of memory; the input is too large for this machine\n"

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
            (("--override", "5=0.5"), 3,
             "validation error: --override node index must be an integer in 0..4, got 5"),
            (("--override", "|0><0|=2"), 3,
             "validation error: greatest potentia 2.0 exceeds 1.000000000001"),
            (("--override", "I=nan"), 3, "validation error: negated least potentia nan exceeds 1e-12"),
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
        refusal = f"validation error: {skewed}: matrix max asymmetry 0.3 exceeds 1e-09\n"
        assert capsys.readouterr().err == refusal
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
            "validation error: new detector basis max Gram error 3.0 exceeds 1e-09\n"
        )

    @pytest.mark.parametrize(
        "argv, document, field, message",
        [
            (("analyze",), "zero_state.json", ("matrix",),
             "{file}.matrix: shape (3, 3), expected (2, 2)"),
            (("analyze",), "worked_ea.json", ("bases", 1),
             "{file}.bases[1]: shape (3, 3), expected (2, 2)"),
            (("powers", SAMPLES / "zero_state.json", "--projectors"), "qubit_two_bases.json",
             ("projectors", 1, "matrix"),
             "{file}.projectors[1].matrix: shape (3, 3), expected (2, 2)"),
        ],
        ids=["state_matrix", "state_basis", "projector"],
    )
    def test_matrix_of_another_shape_than_its_document_fixes_is_parse_error(
        self, capsys, tmp_path, argv, document, field, message
    ):
        document = json.loads((SAMPLES / document).read_text(encoding="utf-8"))
        *parents, last = field
        functools.reduce(operator.getitem, parents, document)[last] = fileio.matrix_to_json(
            np.eye(3)
        )
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main([*map(str, argv), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message.format(file=path)}\n"

    def test_basis_file_of_another_dim_than_its_screen_is_validation_error(self, capsys, tmp_path):
        basis = tmp_path / "basis.json"
        basis.write_text(json.dumps({"matrix": fileio.matrix_to_json(np.eye(3))}), encoding="utf-8")
        argv = ["transform", str(SAMPLES / "worked_ea.json"), "--screen", "2", "--basis", basis]
        assert main([str(a) for a in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"validation error: {basis}: basis shape (3, 3) does not match screen dim 2\n"
        )

    @pytest.mark.parametrize(
        "dims, expected",
        [([0, 4], "a nonempty list of positive integers"),
         ([-2, -2], "a nonempty list of positive integers"),
         ([], "a nonempty list")],
        ids=["zero", "negative", "empty"],
    )
    def test_non_positive_factorization_is_parse_error(self, capsys, tmp_path, dims, expected):
        path = tmp_path / "state.json"
        fileio.dump_state(path, {"schema_version": "1", "dim": 4, "factorization": dims,
                                 "matrix": fileio.matrix_to_json(np.eye(4) / 4)})
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {path}.factorization: expected {expected}\n"

    @pytest.mark.parametrize("key", ["factorization", "bases"])
    @pytest.mark.parametrize("value", [4, "x", True, None, {}, []], ids=repr)
    def test_layout_fields_pass_the_field_gate(self, capsys, tmp_path, key, value):
        """A ``factorization`` or ``bases`` that is not a nonempty list, ``null`` included, is
        refused by the field gate: exit 2 and its one line."""
        document = json.loads((SAMPLES / "worked_ea.json").read_text(encoding="utf-8"))
        document[key] = value
        path = tmp_path / "state.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {path}.{key}: expected a nonempty list\n"

    def test_bases_of_another_screen_count(self, capsys, tmp_path):
        document = json.loads((SAMPLES / "worked_ea.json").read_text(encoding="utf-8"))
        document["bases"] = document["bases"][:1]
        path = tmp_path / "state.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"parse error: {path}.bases: expected one basis per screen (2)\n"

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze",),
            ("transform", "--screen", "1", "--basis", "hadamard"),
            ("witness",),
            ("bell",),
            ("powers", "--projectors", SAMPLES / "qubit_two_bases.json"),
            ("instrument", "--instrument", SAMPLES / "measure_first_screen.json"),
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize(
        "diagonal, off_diagonal, tol",
        [(0.5, 1e308, ()), (1e-300, 1e10, ("--tol", "trace=1"))],
        ids=["sum_overflows", "division_overflows"],
    )
    def test_overflowing_canonical_form_is_one_validation_line(
        self, capsys, tmp_path, argv, diagonal, off_diagonal, tol
    ):
        """A Hermitian file within its trace tolerance whose canonical form, (M + M^dag) / 2 over
        its trace, overflows: refused as non-finite, with no numpy warning (an error here)."""
        entry = lambda x: [x, 0]  # noqa: E731
        state = tmp_path / "overflow.json"
        state.write_text(json.dumps({"schema_version": "1", "dim": 2, "matrix": [
            [entry(diagonal), entry(off_diagonal)], [entry(off_diagonal), entry(diagonal)]
        ]}), encoding="utf-8")
        assert main([argv[0], str(state), *map(str, argv[1:]), *tol]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: {state}: matrix has non-finite entries\n"

    def test_overflowing_asymmetry_is_one_validation_line(self, tmp_path):
        """A finite entry whose asymmetry overflows a float64: no numpy warning before the line."""
        document = json.loads((SAMPLES / "zero_state.json").read_text(encoding="utf-8"))
        document["matrix"][0][0] = [1.0, 1e308]
        state = tmp_path / "overflow.json"
        state.write_text(json.dumps(document), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "potentia.cli", "analyze", str(state)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            f"validation error: {state}: matrix max asymmetry inf exceeds 1e-09\n"
        )

    @pytest.mark.parametrize(
        "argv, document, entry, value, message",
        [
            (
                ("instrument", SAMPLES / "bell_phi_plus.json", "--instrument"),
                SAMPLES / "measure_first_screen.json", ("branches", 1, "kraus", 0, 0, 2), [1e308, -1],
                "{file}: branch 1 invalid: Kraus operator 0 |entry| 1e+308 exceeds 1.000000005",
            ),
            (
                ("powers", SAMPLES / "zero_state.json", "--projectors"),
                SAMPLES / "qubit_two_bases.json", ("projectors", 0, "matrix", 0, 0), [1e308, 0],
                "{file}: projector '|0><0|' invalid: power '|0><0|' idempotence error inf exceeds 1e-08",
            ),
            (
                ("transform", SAMPLES / "worked_ea.json", "--screen", "1", "--basis"),
                {"matrix": fileio.matrix_to_json(np.eye(2))}, ("matrix", 0, 0), [1e308, 0],
                "new detector basis max Gram error inf exceeds 1e-09",
            ),
        ],
        ids=["instrument", "powers", "transform"],
    )
    def test_overflowing_entry_is_one_validation_line(
        self, tmp_path, argv, document, entry, value, message
    ):
        """A finite entry whose products overflow a float64: no traceback and no numpy warning."""
        if isinstance(document, Path):
            document = json.loads(document.read_text(encoding="utf-8"))
        *parents, last = entry
        functools.reduce(operator.getitem, parents, document)[last] = value
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "potentia.cli", *map(str, argv), str(path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"validation error: {message.format(file=path)}\n"

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
        assert main([str(a) for a in (*argv, "--seed", "1")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: unrecognized arguments: --seed 1\n"

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("analyze", "S/zero_state.json", "--out", ""), "--out"),
            (("analyze", "S/zero_state.json", "--config", ""), "--config"),
            (("transform", "S/worked_ea.json", "--out-state", ""), "--out-state"),
            (("analyze", ""), "state"),
            (("powers", "S/zero_state.json", "--projectors", ""), "--projectors"),
            (("instrument", "S/bell_phi_plus.json", "--instrument", ""), "--instrument"),
        ],
        ids=["out", "config", "out_state", "state", "projectors", "instrument"],
    )
    def test_empty_file_option_names_no_file(self, capsys, tmp_path, monkeypatch, argv, option):
        # Path('') is the working directory, which can be neither read nor written as a file:
        # the option is refused before any file is read, and on a missing state file too.
        monkeypatch.chdir(tmp_path)
        for state in (str(SAMPLES), str(tmp_path / "missing")):
            assert main([a.replace("S", state, 1) if a.startswith("S/") else a for a in argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"parse error: argument {option}: expected a file path, got ''\n"

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

    @pytest.mark.parametrize(
        "argv, edit, code, message",
        [
            (("powers", "S/zero_state.json", "--projectors"), ("qubit_two_bases.json", ("projectors",), []),
             2, "parse error: {file}.projectors: expected a nonempty list"),
            (("instrument", "S/bell_phi_plus.json", "--instrument"),
             ("measure_first_screen.json", ("branches",), []),
             2, "parse error: {file}.branches: expected a nonempty list"),
            (("instrument", "S/bell_phi_plus.json", "--instrument"),
             ("measure_first_screen.json", ("branches", 0, "kraus"), []),
             2, "parse error: {file}.branches[0].kraus: expected a nonempty list"),
            (("analyze",), ("zero_state.json", ("label",), 0), 2, "parse error: {file}.label: expected str"),
            (("powers", "S/zero_state.json", "--projectors"),
             ("qubit_two_bases.json", ("projectors", 0, "label"), None),
             2, "parse error: {file}.projectors[0].label: expected str"),
            (("analyze", "S/zero_state.json", "--config"), ({"tolerances": {}}, ("tolerances",), []),
             2, "parse error: {file}.tolerances: expected dict"),
            (("analyze",), ("zero_state.json", ("label",), None), 0, ""),
            (("transform", "S/worked_ea.json", "--screen", "0", "--basis", "hadamard"), None,
             3, "validation error: --screen must be an integer in 1..2, got 0"),
            (("transform", "S/worked_ea.json", "--screen", "3", "--basis", "hadamard"), None,
             3, "validation error: --screen must be an integer in 1..2, got 3"),
            (("powers", "S/zero_state.json", "--projectors", "S/qubit_two_bases.json",
              "--override=5=0.5"), None,
             3, "validation error: --override node index must be an integer in 0..4, got 5"),
            (("powers", "S/zero_state.json", "--projectors", "S/qubit_two_bases.json",
              "--override=-1=0.5"), None,
             3, "validation error: --override node index must be an integer in 0..4, got -1"),
            (("werner", "--scan", "0,1,1"), None,
             3, "validation error: --scan step count must be an integer >= 2, got 1"),
        ],
        ids=[
            "empty_projectors", "empty_branches", "empty_kraus", "state_label_number",
            "projector_label_null", "tolerances_list", "state_label_null", "screen_0", "screen_3",
            "override_index_5", "override_index_negative", "scan_one_step",
        ],
    )
    def test_field_and_integer_gates(self, capsys, tmp_path, argv, edit, code, message):
        """Each input once refused by a hand-written check: the same exit code, and one line from
        the field gate ``fileio._require`` or the count and index gates ``qlin._count``/``_index``.
        ``edit`` is (a sample or a document, a field path, its new value), and the file written
        from it ends the command line."""
        argv = [str(SAMPLES) + a[1:] if a.startswith("S/") else a for a in argv]
        path = tmp_path / "edited.json"
        if edit is not None:
            document, field, value = edit
            if isinstance(document, str):
                document = json.loads((SAMPLES / document).read_text(encoding="utf-8"))
            *parents, last = field
            functools.reduce(operator.getitem, parents, document)[last] = value
            path.write_text(json.dumps(document), encoding="utf-8")
            argv.append(str(path))
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err == (message.format(file=path) + "\n" if message else "")


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(
    st.tuples(st.just("screen"), st.integers(-3, 6)),
    st.tuples(st.just("override"), st.integers(-3, 8)),
    st.tuples(st.just("scan"), st.sampled_from([*range(-2, 5), SCAN_STEPS_CAP + 1])),
))
def test_cli_integers_pass_the_library_gates(capsys, case):
    """``transform --screen``, ``powers --override``'s node index and ``werner --scan``'s step
    count: in range they run, out of range they exit with one line from ``qlin._count`` or
    ``qlin._index`` (a scan above its cap from ``require_within``)."""
    what, n = case
    if what == "screen":  # worked_ea.json has two screens
        argv = ["transform", SAMPLES / "worked_ea.json", f"--screen={n}", "--basis", "hadamard"]
        refused = (3, f"validation error: --screen must be an integer in 1..2, got {n}")
        expected = (0, "") if 1 <= n <= 2 else refused
    elif what == "override":  # four projectors and the identity: nodes 0..4
        argv = ["powers", SAMPLES / "zero_state.json", "--projectors", SAMPLES / "qubit_two_bases.json",
                f"--override={n}=0.5"]
        refused = (3, f"validation error: --override node index must be an integer in 0..4, got {n}")
        expected = (0, "") if 0 <= n <= 4 else refused
    else:
        argv = ["werner", "--scan", f"0,1,{n}"]
        expected = (
            (3, f"validation error: --scan step count must be an integer >= 2, got {n}") if n < 2
            else (4, f"capacity error: scan step count {n} exceeds the cap of {SCAN_STEPS_CAP}")
            if n > SCAN_STEPS_CAP else (0, "")
        )
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert (code, err.removesuffix("\n")) == expected
    assert err.count("\n") == (code != 0)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(label=st.text())
def test_a_label_is_one_line_of_a_text_report(capsys, tmp_path, label):
    """A label holding a line break, or another unprintable character, prints as its JSON
    literal, so no label adds a line to a text report or forges one."""
    def report(label: str) -> list[str]:
        document = json.loads((SAMPLES / "zero_state.json").read_text(encoding="utf-8"))
        document["label"] = label
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, out = run(capsys, "analyze", path)
        assert code == 0
        return out.splitlines()

    lines = report(label)
    assert len(lines) == len(report("x"))
    shown = next(line for line in lines if line.startswith("  label: "))[len("  label: "):]
    assert shown == (label if label.isprintable() else json.dumps(label))


@pytest.mark.parametrize("label", ["", "x"])
def test_a_state_label_is_reported_even_when_empty(capsys, tmp_path, label):
    """A label that loads is reported, the empty one too: as ``label`` in JSON, and in text as
    a line of its own."""
    document = json.loads((SAMPLES / "zero_state.json").read_text(encoding="utf-8"))
    document["label"] = label
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert run_json(capsys, "analyze", path)["results"]["label"] == label
    code, out = run(capsys, "analyze", path, "--format", "text")
    assert code == 0 and f"  label: {label}" in out.splitlines()


def test_a_projector_label_is_one_line_of_a_text_report(capsys, tmp_path):
    lines = []
    for label in ("x", "a\nb: c"):
        document = json.loads((SAMPLES / "qubit_two_bases.json").read_text(encoding="utf-8"))
        document["projectors"][0]["label"] = label
        path = tmp_path / "labelled.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, out = run(capsys, "powers", SAMPLES / "zero_state.json", "--projectors", path)
        assert code == 0
        lines.append(out.splitlines())
    assert len(lines[0]) == len(lines[1])
    assert "  nodes:" in lines[1] and '    ["a\\nb: c", |1><1|, |+><+|, |-><-|, I]' in lines[1]


#: One documented command per report kind; ``mutated_argv`` edits one of their tokens.
DOCUMENTED_ARGV = [
    ("instrument", SAMPLES / "bell_phi_plus.json", "--instrument", SAMPLES / "measure_first_screen.json"),
    ("analyze", SAMPLES / "werner_05.json"),
    ("transform", SAMPLES / "worked_ea.json", "--screen", "1", "--basis", "hadamard"),
    ("transform", SAMPLES / "worked_ea.json", "--refactor", "4"),
    ("powers", SAMPLES / "zero_state.json", "--projectors", SAMPLES / "qubit_two_bases.json"),
    ("witness", SAMPLES / "bell_phi_plus.json", "--seed", "7"),
    ("bell", SAMPLES / "bell_phi_plus.json"),
    ("werner", "--scan", "0,1,101"),
    ("werner", "--p", "0.4"),
]
#: Replacement tokens: none of them makes a run slow (no sample count, scan length or dim grows).
JUNK_TOKENS = ("", "-1", "0", "nan", "1e400", "abc", "2x2", "0,1,3", "--flag")


@st.composite
def mutated_argv(draw) -> list[str]:
    """A documented command with ``--format``, one of its tokens replaced, dropped or repeated."""
    argv = [str(token) for token in draw(st.sampled_from(DOCUMENTED_ARGV))]
    argv += ["--format", draw(st.sampled_from(("json", "text")))]
    k = draw(st.integers(0, len(argv) - 1))
    edit = draw(st.sampled_from(("replace", "drop", "repeat")))
    if edit == "replace":
        argv[k] = draw(st.sampled_from(JUNK_TOKENS))
    elif edit == "drop":
        del argv[k]
    else:
        argv.insert(k, argv[k])
    return argv


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=mutated_argv())
def test_every_argv_meets_the_exit_code_contract(capsys, tmp_path, monkeypatch, argv):
    # In an empty directory, so that no junk token names a file.
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert err.count("\n") == (code != 0) and err.endswith("\n") == (code != 0)
    if code == 0 and argv[-2:] == ["--format", "json"]:
        json.loads(out)


_HADAMARD = fileio.matrix_to_json(np.array([[1, 1], [1, -1]]) / np.sqrt(2))

#: The fields of a state file that ``fileio.load_state`` reads, each a path of keys and indices;
#: ``bases`` is optional, so a file without it gains it.  ``BASES_FIELDS`` reach into a file's own.
STATE_FIELDS = (("schema_version",), ("dim",), ("matrix",), ("matrix", 0), ("matrix", 0, 0),
                ("matrix", 0, 0, 0), ("factorization",), ("factorization", 0), ("bases",), ("label",))
BASES_FIELDS = (("bases", 1), ("bases", 1, 0, 0))

#: Each file kind a command reads: the command, with ``None`` where the file goes; the document it
#: starts from (a sample's name, or the document itself); and the fields its loader reads, each
#: a path of keys and indices.  Every subcommand that reads a state has a row.
DOCUMENT_KINDS = (
    (("analyze", None), "worked_ea.json", STATE_FIELDS + BASES_FIELDS),
    (("transform", None, "--refactor", "4"), "worked_ea.json", STATE_FIELDS + BASES_FIELDS),
    (("witness", None, "--seed", "7"), "bell_phi_plus.json", STATE_FIELDS),
    (("bell", None), "bell_phi_plus.json", STATE_FIELDS),
    (("powers", SAMPLES / "zero_state.json", "--projectors", None), "qubit_two_bases.json",
     (("schema_version",), ("dim",), ("projectors",), ("projectors", 0), ("projectors", 0, "label"),
      ("projectors", 0, "matrix"), ("projectors", 0, "matrix", 1, 1))),
    (("instrument", SAMPLES / "bell_phi_plus.json", "--instrument", None), "measure_first_screen.json",
     (("schema_version",), ("branches",), ("branches", 0), ("branches", 0, "kraus"),
      ("branches", 0, "kraus", 0), ("branches", 1, "kraus", 0, 0, 0))),
    (("transform", SAMPLES / "worked_ea.json", "--screen", "2", "--basis", None), {"matrix": _HADAMARD},
     (("matrix",), ("matrix", 0), ("matrix", 0, 0))),
    (("analyze", SAMPLES / "werner_05.json", "--config", None), {"tolerances": {"verdict": 1e-6}},
     (("tolerances",), ("tolerances", "verdict"))),
)
#: A value of each JSON kind, and numbers at float64's edges: the largest, its negation, a tiny
#: normal and the least subnormal.
JSON_JUNK = (0, 2.5, 1e308, -1e308, 1e-300, 5e-324, "x", True, None, [], [1], {})
#: Every case ``mutated_document`` can draw: a field of a kind, a junk value and a format.
#: Hypothesis draws a case it has not drawn while one is left, so a run this long draws each.
DOCUMENT_CASES = sum(len(fields) for *_, fields in DOCUMENT_KINDS) * len(JSON_JUNK) * 2


@st.composite
def mutated_document(draw) -> tuple[list, dict]:
    """A command that reads a file, and that file's document with one field replaced by junk."""
    argv, document, fields = draw(st.sampled_from(DOCUMENT_KINDS))
    if isinstance(document, str):
        document = json.loads((SAMPLES / document).read_text(encoding="utf-8"))
    document = json.loads(json.dumps(document))  # a copy to edit
    *parents, last = draw(st.sampled_from(fields))
    functools.reduce(operator.getitem, parents, document)[last] = draw(st.sampled_from(JSON_JUNK))
    return [*argv, "--format", draw(st.sampled_from(("json", "text")))], document


@settings(max_examples=DOCUMENT_CASES, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_document())
def test_every_document_meets_the_exit_code_contract(capsys, tmp_path, case):
    argv, document = case
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code = main([str(path if a is None else a) for a in argv])
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert err.count("\n") == (code != 0) and err.endswith("\n") == (code != 0)
    if code == 0 and argv[-1] == "json":
        json.loads(out)


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


class TestFloorState:
    """A state within the eigenvalue floor is accepted by every command that reads it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze",),
            ("bell",),
            ("transform", "--screen", "1", "--basis", "hadamard"),
            ("powers", "--projectors", "negative.json"),
            ("witness",),
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_command_accepts_it(self, capsys, tmp_path, monkeypatch, argv):
        # (1 + d)|phi+><phi+| - (d / 3)(I - |phi+><phi+|): lambda_min = -5e-8 lies on the
        # diagonal (|01>, |10>) and above EIGENVALUE_FLOOR; the correlations reach 1 + 2e-7.
        d = 1.5e-7
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = (1 + d + d / 3) * np.outer(phi, phi) - d / 3 * np.eye(4)
        monkeypatch.chdir(tmp_path)
        state = fileio.state_document(DensityOperator(rho), Factorization((2, 2)))
        fileio.dump_state("floor.json", state)
        negative = {"schema_version": "1", "dim": 4, "projectors": [
            {"label": "|01><01|", "matrix": fileio.matrix_to_json(np.diag([0.0, 1.0, 0.0, 0.0]))}
        ]}
        fileio.dump_state("negative.json", negative)
        for report_format in ("json", "text"):
            assert main([argv[0], "floor.json", *argv[1:], "--format", report_format]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            if argv == ("analyze",) and report_format == "json":
                assert json.loads(out)["results"]["entropy_bits"] >= 0  # lambda_max > 1


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

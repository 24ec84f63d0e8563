import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from potentia import fileio, qlin
from potentia.arrangements import DetectorBasis, Factorization
from potentia.errors import CapacityError, ParseError, ValidationError
from potentia.fileio import Tolerances, load_instrument, load_projectors, load_state
from potentia.sampling import random_density, random_unitary
from potentia.states import DensityOperator


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload, encoding="utf-8")
    else:
        path.write_text(fileio.render_json(payload), encoding="utf-8")
    return str(path)


def state_payload(matrix, **extra):
    payload = {
        "schema_version": "1",
        "dim": matrix.shape[0],
        "matrix": fileio.matrix_to_json(matrix),
    }
    payload.update(extra)
    return payload


class TestStateFiles:
    def test_roundtrip(self, tmp_path, rng):
        rho = random_density(6, rng)
        f = Factorization((2, 3))
        basis = DetectorBasis((random_unitary(2, rng), random_unitary(3, rng)))
        document = fileio.state_document(rho, f, basis, "roundtrip")
        path = write(tmp_path, "state.json", document)
        loaded = load_state(path)
        assert np.max(np.abs(loaded.density.matrix - rho.matrix)) <= 1e-12
        assert loaded.factorization == f
        assert loaded.label == "roundtrip"
        for got, want in zip(loaded.basis.screens, basis.screens):
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_bad_json_reports_position(self, tmp_path):
        path = write(tmp_path, "broken.json", '{"schema_version": "1",\n  "dim": }')
        with pytest.raises(ParseError, match="line 2"):
            load_state(path)

    def test_missing_field(self, tmp_path):
        path = write(tmp_path, "nomatrix.json", {"schema_version": "1", "dim": 2})
        with pytest.raises(ParseError, match="matrix"):
            load_state(path)

    def test_missing_schema_version(self, tmp_path):
        path = write(tmp_path, "noversion.json", {"dim": 1, "matrix": [[[1.0, 0.0]]]})
        with pytest.raises(ParseError, match="schema_version"):
            load_state(path)

    def test_bad_entry_shape(self, tmp_path):
        payload = {"schema_version": "1", "dim": 1, "matrix": [[[1.0, 0.0, 0.0]]]}
        path = write(tmp_path, "badentry.json", payload)
        with pytest.raises(ParseError, match=r"matrix\[0\]\[0\]"):
            load_state(path)

    def test_non_hermitian_rejected(self, tmp_path):
        matrix = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        path = write(tmp_path, "nonherm.json", state_payload(matrix))
        with pytest.raises(ValidationError, match=r": matrix max asymmetry 0\.5 exceeds 1e-09$"):
            load_state(path)

    def test_wrong_trace_rejected(self, tmp_path):
        path = write(tmp_path, "trace.json", state_payload(np.eye(2, dtype=complex)))
        with pytest.raises(ValidationError, match=r": matrix \|trace - 1\| 1\.0 exceeds 1e-09$"):
            load_state(path)

    def test_negative_eigenvalue_rejected(self, tmp_path):
        matrix = np.diag([1.5, -0.5]).astype(complex)
        path = write(tmp_path, "negeig.json", state_payload(matrix))
        floor = r": density operator negated least eigenvalue 0\.5 exceeds 1e-07$"
        with pytest.raises(ValidationError, match=floor):
            load_state(path)

    def test_bad_factorization_product(self, tmp_path):
        matrix = np.eye(4, dtype=complex) / 4
        path = write(tmp_path, "factor.json", state_payload(matrix, factorization=[2, 3]))
        with pytest.raises(ValidationError, match="factorization"):
            load_state(path)

    def test_non_orthonormal_bases(self, tmp_path):
        matrix = np.eye(2, dtype=complex) / 2
        payload = state_payload(
            matrix,
            factorization=[2],
            bases=[fileio.matrix_to_json(np.ones((2, 2)))],
        )
        path = write(tmp_path, "bases.json", payload)
        with pytest.raises(ValidationError, match=r": screen 0 basis max Gram error 2\.0 exceeds 1e-09$"):
            load_state(path)

    def test_dim_above_cap_rejected_before_matrix_is_read(self, tmp_path):
        # The 1x1 matrix would fail the shape check; the cap must fire first.
        path = write(tmp_path, "huge.json", state_payload(np.eye(1, dtype=complex), dim=5000))
        with pytest.raises(CapacityError, match="5000"):
            load_state(path)

    def test_boolean_dim_rejected(self, tmp_path):
        path = write(tmp_path, "booldim.json", state_payload(np.eye(1, dtype=complex), dim=True))
        with pytest.raises(ParseError, match="dim"):
            load_state(path)

    def test_boolean_factorization_entry_rejected(self, tmp_path):
        matrix = np.eye(2, dtype=complex) / 2
        path = write(tmp_path, "boolfactor.json", state_payload(matrix, factorization=[True, 2]))
        with pytest.raises(ParseError, match="factorization"):
            load_state(path)

    def test_factorization_above_cap_rejected(self, tmp_path):
        matrix = np.eye(2, dtype=complex) / 2
        path = write(tmp_path, "bigfactor.json", state_payload(matrix, factorization=[2, 4096]))
        with pytest.raises(CapacityError):
            load_state(path)

    def test_loosened_tolerance_admits_noisy_trace(self, tmp_path):
        matrix = np.diag([0.5, 0.5 + 3e-9]).astype(complex)
        path = write(tmp_path, "noisy.json", state_payload(matrix))
        with pytest.raises(ValidationError):
            load_state(path)
        tols = Tolerances()
        tols.override("trace", 1e-6)
        loaded = load_state(path, tols)
        assert abs(np.trace(loaded.density.matrix) - 1.0) <= 1e-12


BROKEN = '{"schema_version": "1",\n  "dim": 2,\n  "matrix": ]\n}'
VALID = json.dumps({"schema_version": "1", "dim": 1, "matrix": [[[1.0, 0.0]]]}, indent=2)


class TestReading:
    @pytest.mark.parametrize(
        "content, message",
        [
            (BROKEN.encode(), "invalid JSON at line 3, column 13: Expecting value"),
            (BROKEN.replace("\n", "\r\n").encode(), "invalid JSON at line 3, column 13: Expecting value"),
            # Lines end at a lone CR too, as in Path.read_text; a plain decode would say line 1.
            (BROKEN.replace("\n", "\r").encode(), "invalid JSON at line 3, column 13: Expecting value"),
            ('{"label": "caf\xe9"}'.encode("latin-1"),
             "cannot read: 'utf-8' codec can't decode byte 0xe9 in position 14: "
             "invalid continuation byte"),
            (None, "cannot read: No such file or directory"),
            ("directory", "cannot read: Is a directory"),
        ],
        ids=["lf", "crlf", "cr_only", "not_utf8", "missing", "directory"],
    )
    def test_parse_error_text(self, tmp_path, content, message):
        path = tmp_path / "input.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(ParseError) as raised:
            fileio._load_json(path)
        assert str(raised.value) == f"{path}: {message}"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr_only"])
    def test_digest_is_of_the_bytes_read(self, tmp_path, newline):
        content = VALID.replace("\n", newline).encode()
        path = tmp_path / "state.json"
        path.write_bytes(content)
        digest = "sha256:" + hashlib.sha256(content).hexdigest()
        assert fileio._load_json(path) == (json.loads(VALID), digest)
        assert load_state(path).digest == digest

    @pytest.mark.parametrize("layout", [None, [16, 16]], ids=["one_screen", "16x16"])
    def test_canonical_matrix_is_formed_in_the_parsed_array(
        self, tmp_path, rng, monkeypatch, layout
    ):
        """Past the parse, reading a 256-dim file holds at most one more N x N array, the
        conjugate to symmetrize with (and then the admission's Cholesky factor).  Forming the
        canonical matrix in a new array and copying it into the state held three, and so did
        an N x N identity basis for a file with neither ``factorization`` nor ``bases``.  The
        values are those of ``(m + m^dag) / 2`` over its trace, bit for bit."""
        n, n2 = 256, 256 * 256 * 16
        matrix = random_density(n, rng).matrix * (1 + 1e-10)
        matrix[0, 1] += 1e-12
        extra = {} if layout is None else {"factorization": layout}
        path = write(tmp_path, "state.json", state_payload(matrix, **extra))
        parse, parsed, base = fileio.matrix_from_json, [], []

        def measured(*args):
            parsed.append(parse(*args))
            tracemalloc.reset_peak()
            base.append(tracemalloc.get_traced_memory()[0])
            return parsed[-1]

        monkeypatch.setattr(fileio, "matrix_from_json", measured)
        tracemalloc.start()
        try:
            state = load_state(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base[0] <= 1.25 * n2
        assert np.shares_memory(state.density.matrix, parsed[0])
        canonical = (matrix + matrix.conj().T) / 2.0
        canonical /= np.real(np.trace(canonical))
        assert state.density.matrix.tobytes() == canonical.tobytes()

    def test_detectors_are_checked_only_when_the_file_names_them(self, tmp_path, monkeypatch):
        """A file without ``bases`` has computational detectors: no basis is built or checked."""
        checked, require = [], qlin.require_isometry

        def spy(mat, **kwargs):
            checked.append(mat)
            require(mat, **kwargs)

        monkeypatch.setattr(qlin, "require_isometry", spy)
        plain = state_payload(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), factorization=[2, 2])
        loaded = load_state(write(tmp_path, "plain.json", plain))
        assert checked == [] and loaded.basis is None
        bases = [fileio.matrix_to_json(np.eye(2))] * 2
        named = load_state(write(tmp_path, "named.json", {**plain, "bases": bases}))
        assert [m.shape for m in checked] == [(2, 2), (2, 2)]
        assert [np.array_equal(m, np.eye(2)) for m in named.basis.screens] == [True, True]


class TestProjectorFiles:
    def test_load(self, tmp_path):
        payload = {
            "schema_version": "1",
            "dim": 2,
            "projectors": [
                {"label": "Z0", "matrix": fileio.matrix_to_json(np.diag([1.0, 0.0]))},
                {"matrix": fileio.matrix_to_json(np.diag([0.0, 1.0]))},
            ],
        }
        path = write(tmp_path, "projectors.json", payload)
        nodes, _ = load_projectors(path)
        assert [node.label for node in nodes] == ["Z0", "P1"]

    def test_non_projector_names_node(self, tmp_path):
        payload = {
            "schema_version": "1",
            "dim": 2,
            "projectors": [
                {"label": "leaky", "matrix": fileio.matrix_to_json(np.diag([0.5, 0.0]))}
            ],
        }
        path = write(tmp_path, "badproj.json", payload)
        with pytest.raises(ValidationError, match="leaky"):
            load_projectors(path)

    def test_dim_above_cap_rejected_before_matrices_are_read(self, tmp_path):
        payload = {
            "schema_version": "1",
            "dim": 5000,
            "projectors": [{"matrix": fileio.matrix_to_json(np.eye(1))}],
        }
        with pytest.raises(CapacityError, match="5000"):
            load_projectors(write(tmp_path, "hugeproj.json", payload))

    def test_boolean_dim_rejected(self, tmp_path):
        payload = {
            "schema_version": "1",
            "dim": True,
            "projectors": [{"matrix": fileio.matrix_to_json(np.eye(1))}],
        }
        with pytest.raises(ParseError, match="dim"):
            load_projectors(write(tmp_path, "boolproj.json", payload))


class TestInstrumentFiles:
    def test_load(self, tmp_path):
        payload = {
            "schema_version": "1",
            "branches": [
                {"kraus": [fileio.matrix_to_json(np.diag([1.0, 0.0]))]},
                {"kraus": [fileio.matrix_to_json(np.diag([0.0, 1.0]))]},
            ],
        }
        path = write(tmp_path, "instrument.json", payload)
        instrument, _ = load_instrument(path)
        assert len(instrument.branches) == 2

    def test_trace_increasing_branch_rejected(self, tmp_path):
        payload = {
            "schema_version": "1",
            "branches": [{"kraus": [fileio.matrix_to_json(1.2 * np.eye(2))]}],
        }
        path = write(tmp_path, "badins.json", payload)
        with pytest.raises(ValidationError, match="branch 0"):
            load_instrument(path)


class TestFieldGate:
    @pytest.mark.parametrize(
        "document, kind, message",
        [
            ({}, list, "f: missing required field 'k'"),
            ({"k": []}, list, "f.k: expected a nonempty list"),
            ({"k": {}}, list, "f.k: expected a nonempty list"),
            ({"k": None}, str, "f.k: expected str"),
            ({"k": True}, int, "f.k: expected int"),
            ({"k": []}, dict, "f.k: expected dict"),
        ],
        ids=["missing", "empty_list", "object_for_list", "null_for_string", "bool_for_int", "list_for_object"],
    )
    def test_refusal(self, document, kind, message):
        with pytest.raises(ParseError) as refused:
            fileio._require(document, "k", kind, "f")
        assert str(refused.value) == message

    def test_optional_field(self):
        assert fileio._require({}, "k", str, "f", "P0") == "P0"
        assert fileio._require({"k": None}, "k", str, "f", None) is None  # a null state label
        assert fileio._require({"k": {}}, "k", dict, "f", {}) == {}
        assert fileio._require({"k": ""}, "k", str, "f", None) == ""
        with pytest.raises(ParseError, match=r"^f\.k: expected str$"):
            fileio._require({"k": None}, "k", str, "f", "P0")  # a null projector label


class TestTolerances:
    def test_unknown_name(self):
        with pytest.raises(ParseError, match="unknown tolerance"):
            Tolerances().override("wobble", 1e-3)

    def test_from_config(self, tmp_path):
        config = write(tmp_path, "config.json", {"tolerances": {"axioms": 1e-6}})
        tols = fileio.load_tolerances(config)
        assert tols.axioms == 1e-6
        assert tols.trace == 1e-9


class TestMatrixJson:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[[1, 0], [0, 0]], [[1, 0]]], "m[1]: row has 1 entries, expected 2"),
            ([[[1, 0], [0, 0, 0]], [[0, 0], [1, 0]]],
             "m[0][1]: complex entries must be [re, im] number pairs"),
            ([[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]],
             "m[0][0]: complex entries must be [re, im] number pairs"),
            ([[[1, 0], ["0", 0]]], "m[0][1]: complex entries must be [re, im] number pairs"),
            ([[[1, 0], [0, None]]], "m[0][1]: complex entries must be [re, im] number pairs"),
            ([[{"re": 1, "im": 0}]], "m[0][0]: complex entries must be [re, im] number pairs"),
            ([[[1, 0]], []], "m[1]: expected a nonempty row"),
            ([[[1, 0]], "row"], "m[1]: expected a nonempty row"),
            ([], "m: expected a nonempty list of rows"),
            ("matrix", "m: expected a nonempty list of rows"),
            (None, "m: expected a nonempty list of rows"),
            ({"rows": []}, "m: expected a nonempty list of rows"),
            (7, "m: expected a nonempty list of rows"),
            ([[[1, 0], [10**400, 0]]], "m: an entry is too large for a float64"),
        ],
        ids=[
            "ragged_row", "triple_in_one_cell", "triples_in_all_cells", "string", "null",
            "object", "empty_row", "row_not_a_list", "no_rows", "string_rows", "null_rows",
            "object_rows", "number_rows", "integer_beyond_float64",
        ],
    )
    def test_malformed_input_names_the_first_bad_place(self, rows, message):
        with pytest.raises(ParseError) as excinfo:
            fileio.matrix_from_json(rows, "m")
        assert str(excinfo.value) == message

    def test_booleans_and_wide_integers_read_as_numbers(self):
        matrix = fileio.matrix_from_json([[[True, False], [2**70, -1]]], "m")
        assert matrix.tolist() == [[1 + 0j, float(2**70) - 1j]]

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5), st.just(2)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_roundtrip_is_bit_exact(self, parts):
        matrix = parts.view(np.complex128)[..., 0]
        rows = fileio.matrix_to_json(matrix)
        per_entry = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
        assert json.dumps(rows) == json.dumps(per_entry)
        back = fileio.matrix_from_json(json.loads(json.dumps(rows)), "m")
        assert back.dtype == np.complex128
        assert np.array_equal(back, matrix)
        assert np.array_equal(np.signbit(back.real), np.signbit(matrix.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(matrix.imag))


class TestRendering:
    def test_render_json_is_canonical(self):
        a = fileio.render_json({"b": 1, "a": [1.5, 2]})
        b = fileio.render_json({"a": [1.5, 2], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a) == {"a": [1.5, 2], "b": 1}

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_is_rejected(self, value):
        with pytest.raises(ValidationError, match="JSON"):
            fileio.render_json({"results": {"min_expectation": value}})

    def test_state_document_roundtrips_floats(self, rng):
        rho = random_density(3, rng)
        document = fileio.state_document(rho)
        rebuilt = fileio.matrix_from_json(document["matrix"], "mem")
        assert np.array_equal(rebuilt, rho.matrix)

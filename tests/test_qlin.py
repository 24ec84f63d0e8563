import importlib
import json
import math
import pickle
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from collections.abc import Sized
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import potentia
from potentia import arrangements, bell, families, fileio, locc, powers, qlin
from potentia.arrangements import DetectorBasis, Factorization, change_detectors, make_ea, restrict
from potentia.entanglement import (
    SeparabilityVerdict,
    Verdict,
    WitnessOperator,
    werner,
    check_witness_on_products,
    marginal_verdicts,
    min_pt_eigenvalue,
    ppt_criterion,
    schmidt,
    witness_from_entangled,
)
from potentia.errors import (
    CapacityError, DomainError, NoWitnessError, PotentiaError, ShapeError,
)
from potentia.powers import PowerNode, build_graph
from potentia.sampling import (
    random_density, random_product_pure, random_projector, random_pure, random_separable, random_unitary,
)
from potentia.states import (
    BlochPoint, DensityOperator, MixtureDecomposition, PureVector, density_from_vector, spectral_decomposition,
)
from potentia.tolerances import DIM_CAP, PROJECTOR_TOL

from conftest import projector

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Definition-level Kronecker product via explicit index loops."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(qlin.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_basis_projector_placement(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        assert np.array_equal(qlin.kron(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_sx_sx_maps_00_to_11(self):
        oracle = kron_oracle(SX, SX)
        lib = qlin.kron(SX, SX)
        assert np.allclose(lib, oracle)
        e00 = np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(lib @ e00, [0, 0, 0, 1])

    def test_associativity(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        left = qlin.kron(qlin.kron(a, b), c)
        right = qlin.kron(a, qlin.kron(b, c))
        assert np.max(np.abs(left - right)) <= 1e-12

    def test_capacity_cap(self):
        big = np.eye(128)
        with pytest.raises(CapacityError):
            qlin.kron(big, np.eye(64))


class TestPartialTrace:
    def test_product_state_factorization(self, rng):
        rho_a = projector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        rho_b = projector(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        reduced = qlin.partial_trace(np.kron(rho_a, rho_b), (2, 3), (0,))
        assert np.max(np.abs(reduced - rho_a)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_kron_product_returns_its_factors(self, d_a, d_b, seed):
        rng = np.random.default_rng(seed)
        a, b = random_density(d_a, rng).matrix, random_density(d_b, rng).matrix
        joint = np.kron(a, b)
        assert np.max(np.abs(qlin.partial_trace(joint, (d_a, d_b), (0,)) - a)) <= 1e-12
        assert np.max(np.abs(qlin.partial_trace(joint, (d_a, d_b), (1,)) - b)) <= 1e-12

    def test_bell_state_reduction(self):
        phi = projector([1, 0, 0, 1])
        # Index-summation oracle over all basis pairs: rhoA[i,k] = sum_j rho[ij, kj].
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    oracle[i, k] += phi[2 * i + j, 2 * k + j]
        assert np.allclose(oracle, np.eye(2) / 2)
        assert np.allclose(qlin.partial_trace(phi, (2, 2), (0,)), oracle)

    def test_trace_everything(self):
        rho = np.diag([0.25, 0.25, 0.5]).astype(complex)
        assert np.allclose(qlin.partial_trace(rho, (3,), ()), [[1.0]])

    def test_trace_preservation_and_linearity(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        ta = qlin.partial_trace(a, (2, 3), (1,))
        tb = qlin.partial_trace(b, (2, 3), (1,))
        combined = qlin.partial_trace(2.0 * a + 3.0 * b, (2, 3), (1,))
        assert np.max(np.abs(combined - 2.0 * ta - 3.0 * tb)) <= 1e-12
        assert abs(np.trace(ta) - np.trace(a)) <= 1e-12

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            qlin.partial_trace(np.eye(6), (2, 2), (0,))


def partial_transpose_oracle(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Block-transpose oracle: (i j, k l) -> (i l, k j)."""
    out = np.zeros_like(rho)
    for i in range(d_a):
        for j in range(d_b):
            for k in range(d_a):
                for l in range(d_b):
                    out[i * d_b + j, k * d_b + l] = rho[i * d_b + l, k * d_b + j]
    return out


class TestPartialTranspose:
    def test_product_case_spectrum(self, rng):
        rho_a = projector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        rho_b = projector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        rho = np.kron(rho_a, rho_b)
        transposed = qlin.partial_transpose(rho, (2, 2), "B")
        assert np.allclose(transposed, np.kron(rho_a, rho_b.T))
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(transposed)), np.sort(np.linalg.eigvalsh(rho))
        )

    def test_bell_state_minimum_eigenvalue(self):
        phi = projector([1, 0, 0, 1])
        oracle = partial_transpose_oracle(phi, 2, 2)
        assert abs(np.linalg.eigvalsh(oracle)[0] + 0.5) <= 1e-12
        lib = qlin.partial_transpose(phi, (2, 2), "B")
        assert np.allclose(lib, oracle)
        assert abs(np.linalg.eigvalsh(lib)[0] + 0.5) <= 1e-12

    def test_both_parties_share_spectrum(self, rng):
        mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = mat @ mat.conj().T
        rho /= np.trace(rho)
        s_a = np.linalg.eigvalsh(qlin.partial_transpose(rho, (2, 3), "A"))
        s_b = np.linalg.eigvalsh(qlin.partial_transpose(rho, (2, 3), "B"))
        assert np.max(np.abs(np.sort(s_a) - np.sort(s_b))) <= 1e-10

    def test_involution_hermiticity_trace(self, rng):
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = (mat + mat.conj().T) / 2
        once = qlin.partial_transpose(rho, (2, 2), "B")
        twice = qlin.partial_transpose(once, (2, 2), "B")
        assert np.array_equal(twice, rho)
        qlin.require_hermitian(once, 1e-12)
        assert abs(np.trace(once) - np.trace(rho)) <= 1e-12

    def test_non_bipartite_dims(self):
        with pytest.raises(ShapeError):
            qlin.partial_transpose(np.eye(8), (2, 2, 2), "B")

    def test_every_input_passes_the_matrix_gate(self):
        """NaN entries and stacks, NaN or integer, are refused; an integer matrix is read as complex."""
        with pytest.raises(DomainError, match="^matrix has non-finite entries$"):
            qlin.partial_transpose(np.full((4, 4), np.nan), (2, 2))
        for stack, dims in ((np.full((1, 2, 2), np.nan), (1, 2)), (np.ones((3, 4, 4), dtype=int), (2, 2))):
            with pytest.raises(ShapeError, match="^expected a 2-D matrix, got ndim=3$"):
                qlin.partial_transpose(stack, dims)
        assert qlin.partial_transpose(np.eye(4, dtype=int), (2, 2)).dtype == np.complex128

    def test_a_stack_is_transposed_member_by_member(self, rng):
        stack = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
        for party in ("A", "B"):
            transposed = qlin._partial_transpose(stack, (2, 3), party)
            for member, expected in zip(transposed, stack):
                assert np.array_equal(member, qlin.partial_transpose(expected, (2, 3), party))


def dense_hermiticity_message(mat: np.ndarray, tol: float) -> str | None:
    """The check read densely, on all of ``mat - mat^dag``: its message, or None if it passes."""
    asymmetry = qlin.max_abs(mat - qlin.dagger(mat))
    if asymmetry > tol:
        return f"matrix max asymmetry {asymmetry!r} exceeds {float(tol)!r}"
    return None


@st.composite
def planted_asymmetries(draw):
    """A Hermitian matrix, asymmetric noise of a drawn scale on every entry, and one planted
    asymmetric entry: an imaginary diagonal part, or an entry in the first tile, in the last
    (possibly partial) tile's rows, or anywhere."""
    n = draw(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 128, 129]), st.integers(0, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = (a + a.conj().T) / 2  # exactly Hermitian: its diagonal is exactly real
    noise = draw(st.sampled_from([0.0, 1e-13, 1e-10, 4e-10]))
    mat += noise * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    if n:
        tile = qlin._HERMITICITY_TILE
        where = draw(st.sampled_from(["diagonal", "first_tile", "last_tile", "anywhere"]))
        size = draw(st.one_of(st.sampled_from([4e-10, 5e-10, 1e-9, 2e-9]), st.floats(0, 1e-8)))
        end = min(n, tile) if where == "first_tile" else n
        row = draw(st.integers((n - 1) // tile * tile if where == "last_tile" else 0, end - 1))
        col = draw(st.integers(0, end - 1))
        if where == "diagonal":
            mat[row, row] += 1j * size
        else:
            mat[row, col] += size * np.exp(1j * draw(st.floats(0, 2 * np.pi)))
    return mat


class TestRequireHermitian:
    @settings(max_examples=300, deadline=None)
    @given(planted_asymmetries(), st.sampled_from([qlin.HERMITICITY_TOL, 5e-10, 2e-9]))
    def test_tiled_check_is_the_dense_check(self, mat, tol):
        """It raises iff the dense max entry of ``mat - mat^dag`` exceeds ``tol``, and its
        message is byte-identical to the one the dense max gives."""
        try:
            qlin.require_hermitian(mat, tol)
            message = None
        except DomainError as exc:
            message = str(exc)
        assert message == dense_hermiticity_message(mat, tol)

    def test_overflowing_asymmetry_is_inf_and_warns_nothing(self):
        """pytest turns a RuntimeWarning into a failure here, so this also shows none is raised."""
        mat = np.array([[1 + 1e308j, 0], [0, 0]])
        with pytest.raises(DomainError, match=r"^matrix max asymmetry inf exceeds 1e-09$"):
            qlin.require_hermitian(mat)


class TestFrozen:
    @pytest.mark.parametrize(
        "arr", [np.arange(3.0), np.eye(2, dtype=np.complex128)[:, ::-1], np.arange(4)]
    )
    def test_read_only_contiguous_copy_with_dtype_kept(self, arr):
        """An array that may still be the caller's, ``given``, is copied; the caller's stays writable."""
        out = qlin.frozen(arr, arr)
        assert out.dtype == arr.dtype
        assert np.array_equal(out, arr)
        assert not np.shares_memory(out, arr)
        assert out.flags.c_contiguous and not out.flags.writeable
        assert arr.flags.writeable

    @pytest.mark.parametrize("make", [lambda: np.arange(3.0), lambda: np.eye(2, dtype=np.complex128)[:, ::-1],
                                      lambda: np.arange(4)], ids=["float64", "reversed view", "int"])
    def test_with_no_given_array_frozen_in_place(self, make):
        """An array potentia just made is frozen in place, copied only to make it C-contiguous."""
        arr = make()
        out = qlin.frozen(arr)
        assert out.dtype == arr.dtype and np.array_equal(out, arr)
        assert out.flags.c_contiguous and not out.flags.writeable
        assert (out is arr) is arr.flags.c_contiguous

    @pytest.mark.parametrize("given", [np.arange(4), [0, 1, 2, 3], (0, 1, 2, 3)])
    def test_a_conversion_is_no_callers_memory(self, given):
        """A gate's converted array shares no memory with the caller's argument: it is kept as made."""
        converted = np.asarray(given, dtype=np.complex128)
        assert qlin.frozen(converted, given) is converted


HALF = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=np.complex128)
UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2)
#: Each gate that keeps an array the caller hands in: the entries of its arguments, in the gate's
#: own dtype, the value made from those arguments, and the arrays the value keeps of them.
COPY_RULE_GATES = {
    "DensityOperator": ([HALF], DensityOperator, lambda v: [v.matrix]),
    "PureVector": ([np.array([0.6, 0.8], dtype=np.complex128)], PureVector, lambda v: [v.amplitudes]),
    "MixtureDecomposition": (
        [np.array([0.5, 0.5])],
        lambda w: MixtureDecomposition(w, (PureVector.basis_state(2, 0), PureVector.basis_state(2, 1))),
        lambda v: [v.weights]),
    "PowerNode": ([UP], lambda p: PowerNode(p, "up"), lambda v: [v.projector]),
    "CPMap": ([UP, UP[::-1, ::-1]], lambda *kraus: locc.CPMap(kraus), lambda v: list(v.kraus)),
    "DetectorBasis": ([HADAMARD, UP + UP[::-1, ::-1]], lambda *screens: DetectorBasis(screens),
                      lambda v: list(v.screens)),
    "WitnessOperator": ([UP], lambda m: WitnessOperator(m, DensityOperator.maximally_mixed(2)),
                        lambda v: [v.matrix]),
    "CorrelationMatrix": ([np.diag([0.5, -0.25, 0.75])], bell.CorrelationMatrix, lambda v: [v.t]),
    "MeasurementSetting": (list(np.eye(3)[[0, 1, 2, 0]]), bell.MeasurementSetting,
                           lambda v: [v.a, v.a_prime, v.b, v.b_prime]),
    "ExperimentalArrangement": (
        [HALF, HADAMARD], lambda m, b: arrangements.ExperimentalArrangement(m, Factorization((2,)), b),
        lambda v: [v.matrix, v.steps[0][1][0]]),
    "change_detectors": (
        [HADAMARD], lambda b: change_detectors(make_ea(DensityOperator(HALF), Factorization((2,))), 0, b),
        lambda v: [v.steps[-1][1][0]]),
}


def _contiguous_slice(ref: np.ndarray) -> np.ndarray:
    """A C-contiguous view of ``ref``'s entries: the leading part of a larger array."""
    base = np.zeros((len(ref) + 1, *ref.shape[1:]), ref.dtype)
    base[: len(ref)] = ref
    return base[: len(ref)]


#: How a caller may hand in an array whose entries are ``ref``'s, of the gate's own dtype.  A
#: complex gate is handed float64 entries; a real gate, float32 ones, each exact.
COPY_RULE_KINDS = {
    "own dtype, C-contiguous": np.array,
    "another dtype": lambda ref: ref.real.copy() if ref.dtype.kind == "c" else ref.astype(np.float32),
    "Fortran-ordered": lambda ref: np.array(ref, order="F"),
    "list": lambda ref: ref.tolist(),
    "slice view": _contiguous_slice,
}


class TestCopyRule:
    @pytest.mark.parametrize("kind", COPY_RULE_KINDS)
    @pytest.mark.parametrize("gate", COPY_RULE_GATES)
    def test_a_gate_never_keeps_the_callers_array(self, gate, kind):
        """Each array the value keeps is read-only and shares no memory with the caller's, which
        stays writable; writing the caller's arrays afterwards leaves the value unchanged."""
        refs, build, kept_of = COPY_RULE_GATES[gate]
        given = [COPY_RULE_KINDS[kind](ref) for ref in refs]
        kept = kept_of(build(*given))
        before = [arr.copy() for arr in kept]
        assert all(not arr.flags.writeable for arr in kept)
        for arg in given:
            assert not any(np.shares_memory(arr, arg) for arr in kept)
            if isinstance(arg, np.ndarray):
                assert arg.flags.writeable
                arg[...] = 0
            else:
                arg.clear()
        assert all(np.array_equal(arr, old) for arr, old in zip(kept, before))

    def test_a_real_state_is_admitted_with_no_copy_of_its_conversion(self):
        """``DensityOperator`` of a float64 state at 1024 peaks at two complex N x N arrays, traced:
        the conversion, kept, and the Cholesky factor.  A copy of the conversion would make three."""
        n = 1024
        v = np.random.default_rng(5).standard_normal((n, 64))
        state = v @ v.T / np.vdot(v, v)
        tracemalloc.start()
        try:
            rho = DensityOperator(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(rho.matrix, state)
        assert peak <= 2.05 * 16 * n * n, peak / (16 * n * n)


WORKED_EA = Path(__file__).resolve().parent.parent / "samples" / "worked_ea.json"
#: A real rotation: a list, float64 or Fortran-ordered copy converts to its complex128 entries exactly.
ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]])
#: The library entries that reach a detector basis, each on a two-detector screen: the value made
#: from a basis, and the basis it keeps with its Gram error (the public constructor keeps the bound
#: ``arrangements._growth`` makes of it).
BASIS_ENTRIES = {
    "DetectorBasis": (lambda b: DetectorBasis((b,)), lambda v: (v.screens[0], v.gram_errors[0])),
    "change_detectors": (
        lambda b: change_detectors(make_ea(DensityOperator(HALF), Factorization((2,))), 0, b),
        lambda v: (v.steps[-1][1][0], vars(v)["_cell"]["pending"].gram_errors[0])),
    "ExperimentalArrangement": (
        lambda b: arrangements.ExperimentalArrangement(HALF, Factorization((2,)), b),
        lambda v: (v.steps[0][1][0], v.provenance.scale)),
}
NON_SQUARE, NAN = np.full((2, 3), 0.5), np.array([[1.0, np.nan], [0.0, 1.0]])
#: Per entry and malformed basis: the exception type, or for the CLI the exit code, and the message,
#: which names the entry; a NaN entry is refused first by ``as_complex``, the one matrix gate, which
#: names the entry too.  ``transform --out-state`` reads its basis from a file or, for a named basis, on a
#: screen of four detectors; its message names the ``--basis`` value, ``{basis}``.
BASIS_REFUSALS = {
    ("DetectorBasis", "non-square"): (NON_SQUARE, ShapeError, "screen 0 basis must be 2x2, got (2, 3)"),
    ("DetectorBasis", "the wrong size"): (
        np.zeros((0, 0)), DomainError, "screen 0 basis detector count must be an integer >= 1, got 0"),
    ("DetectorBasis", "2 I"): (2 * np.eye(2), DomainError, "screen 0 basis max Gram error 3.0 exceeds 1e-09"),
    ("DetectorBasis", "a NaN entry"): (NAN, DomainError, "screen 0 basis has non-finite entries"),
    ("change_detectors", "non-square"): (NON_SQUARE, ShapeError, "new detector basis must be 2x2, got (2, 3)"),
    ("change_detectors", "the wrong size"): (np.eye(3), ShapeError, "new detector basis must be 2x2, got (3, 3)"),
    ("change_detectors", "2 I"): (2 * np.eye(2), DomainError, "new detector basis max Gram error 3.0 exceeds 1e-09"),
    ("change_detectors", "a NaN entry"): (NAN, DomainError, "new detector basis has non-finite entries"),
    ("ExperimentalArrangement", "non-square"): (NON_SQUARE, ShapeError, "basis matrix must be 2x2, got (2, 3)"),
    ("ExperimentalArrangement", "the wrong size"): (np.eye(3), ShapeError, "basis matrix must be 2x2, got (3, 3)"),
    ("ExperimentalArrangement", "2 I"): (2 * np.eye(2), DomainError, "basis matrix max Gram error 3.0 exceeds 1e-09"),
    ("ExperimentalArrangement", "a NaN entry"): (NAN, DomainError, "basis matrix has non-finite entries"),
    ("transform --out-state", "non-square"): (
        NON_SQUARE, 3, "validation error: --basis {basis}: new detector basis must be 2x2, got (2, 3)"),
    ("transform --out-state", "the wrong size"): (
        np.eye(3), 3, "validation error: --basis {basis}: new detector basis must be 2x2, got (3, 3)"),
    ("transform --out-state", "2 I"): (
        2 * np.eye(2), 3,
        "validation error: --basis {basis}: new detector basis max Gram error 3.0 exceeds 1e-09"),
    ("transform --out-state", "a NaN entry"): (
        NAN, 3, "validation error: --basis {basis}: new detector basis has non-finite entries"),
    ("transform --out-state", "a named basis"): (
        "hadamard", 3, "validation error: --basis {basis}: new detector basis must be 4x4, got (2, 2)"),
}


class TestBasisGate:
    """Every entry that reaches a detector basis reaches it through ``qlin._basis``: one conversion,
    size check, isometry check and freeze."""

    @pytest.mark.parametrize("entry, case", BASIS_REFUSALS, ids=[": ".join(key) for key in BASIS_REFUSALS])
    def test_a_malformed_basis_is_refused_at_every_entry(self, entry, case, capsys, tmp_path):
        basis, gives, message = BASIS_REFUSALS[entry, case]
        if entry == "transform --out-state":
            state, path, out_state = WORKED_EA, tmp_path / "basis.json", tmp_path / "out.json"
            if isinstance(basis, str):
                state, path = tmp_path / "four.json", basis
                fileio.dump_state(state, fileio.state_document(DensityOperator.maximally_mixed(4)))
            else:
                path.write_text(json.dumps({"matrix": fileio.matrix_to_json(basis)}))
            argv = ["transform", str(state), "--screen", "1", "--basis", str(path), "--out-state", str(out_state)]
            assert importlib.import_module("potentia.cli").main(argv) == gives
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", message.format(basis=path) + "\n")
            assert not out_state.exists()
        else:
            with pytest.raises(gives) as caught:
                BASIS_ENTRIES[entry][0](basis)
            assert type(caught.value) is gives and str(caught.value) == message

    @pytest.mark.parametrize("entry", BASIS_ENTRIES)
    def test_every_input_kind_keeps_one_array_and_gram_error(self, entry):
        """A list, a float64 and a Fortran-ordered basis keep what a complex128 one keeps: the same
        read-only C-contiguous complex128 array and the same Gram error."""
        build, kept_of = BASIS_ENTRIES[entry]
        kinds = (ROTATION.astype(np.complex128), ROTATION.tolist(), ROTATION, np.asfortranarray(ROTATION))
        (reference, gram), *others = [kept_of(build(given)) for given in kinds]
        assert reference.dtype == np.complex128 and reference.flags.c_contiguous
        assert not reference.flags.writeable and np.array_equal(reference, ROTATION)
        for kept, error in others:
            assert kept.dtype == np.complex128 and kept.flags.c_contiguous and not kept.flags.writeable
            assert np.array_equal(kept, reference) and error == gram

    def test_the_constructor_admits_a_real_state_with_no_copy_of_its_conversion(self):
        """The public arrangement constructor on a float64 rank-64 state at 1024, with a float64 identity
        basis, peaks at three complex N x N arrays, traced: the basis kept, the state's conversion, kept,
        and its Cholesky factor.  Converting the state, then copying that conversion, made four."""
        n = 1024
        v = np.random.default_rng(5).standard_normal((n, 64))
        state, identity = v @ v.T / np.vdot(v, v), np.eye(n)
        tracemalloc.start()
        try:
            ea = arrangements.ExperimentalArrangement(state, Factorization((n,)), identity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(ea.matrix, state)
        assert peak <= 3.6 * 16 * n * n, peak / (16 * n * n)


#: The entries that reach a Hermitian matrix, each on a two-detector space: the value made from it;
#: ``analyze`` reads it from a state file through ``cli.main``.
HERMITIAN_ENTRIES = {
    "DensityOperator": DensityOperator,
    "PowerNode": lambda m: PowerNode(m, "P"),
    "WitnessOperator": lambda m: WitnessOperator(m, DensityOperator(HALF)),
}
ASYMMETRIC, TEXT = np.array([[0.5, 0.3], [0.0, 0.5]]), [["a", "b"], ["c", "d"]]
#: Per entry and malformed matrix: the exception type, or for ``analyze`` the exit code, and the
#: message, which names the entry: a value by its kind, a file by its path, ``{file}`` here.  A state
#: file fixes its matrix's shape and entry form, so it refuses a non-square or text matrix as a parse
#: error, before the gate.
HERMITIAN_REFUSALS = {
    ("DensityOperator", "non-square"): (NON_SQUARE, ShapeError, "density operator must be square, got (2, 3)"),
    ("DensityOperator", "asymmetric"): (ASYMMETRIC, DomainError, "density operator max asymmetry 0.3 exceeds 1e-09"),
    ("DensityOperator", "a NaN entry"): (NAN, DomainError, "density operator has non-finite entries"),
    ("DensityOperator", "a string entry"): (
        TEXT, DomainError, "density operator entries must be numbers, got dtype <U1"),
    ("PowerNode", "non-square"): (NON_SQUARE, ShapeError, "power 'P' must be square, got (2, 3)"),
    ("PowerNode", "asymmetric"): (ASYMMETRIC, DomainError, "power 'P' max asymmetry 0.3 exceeds 1e-08"),
    ("PowerNode", "a NaN entry"): (NAN, DomainError, "power 'P' has non-finite entries"),
    ("PowerNode", "a string entry"): (TEXT, DomainError, "power 'P' entries must be numbers, got dtype <U1"),
    ("WitnessOperator", "non-square"): (NON_SQUARE, ShapeError, "witness must be square, got (2, 3)"),
    ("WitnessOperator", "asymmetric"): (ASYMMETRIC, DomainError, "witness max asymmetry 0.3 exceeds 1e-09"),
    ("WitnessOperator", "a NaN entry"): (NAN, DomainError, "witness has non-finite entries"),
    ("WitnessOperator", "a string entry"): (TEXT, DomainError, "witness entries must be numbers, got dtype <U1"),
    ("analyze", "non-square"): (NON_SQUARE, 2, "parse error: {file}.matrix: shape (2, 3), expected (2, 2)"),
    ("analyze", "asymmetric"): (ASYMMETRIC, 3, "validation error: {file}: matrix max asymmetry 0.3 exceeds 1e-09"),
    ("analyze", "a NaN entry"): (NAN, 3, "validation error: {file}: matrix has non-finite entries"),
    ("analyze", "a string entry"): (
        TEXT, 2, "parse error: {file}.matrix[0][0]: complex entries must be [re, im] number pairs"),
}


class TestHermitianGate:
    """Every entry that reaches a Hermitian matrix reaches it through ``qlin.require_hermitian``: one
    conversion, then the squareness and asymmetry checks, each refusal naming the entry."""

    @pytest.mark.parametrize("entry, case", HERMITIAN_REFUSALS, ids=[": ".join(key) for key in HERMITIAN_REFUSALS])
    def test_a_malformed_matrix_is_refused_at_every_entry(self, entry, case, capsys, tmp_path):
        matrix, gives, message = HERMITIAN_REFUSALS[entry, case]
        if entry == "analyze":
            path = tmp_path / "state.json"
            rows = fileio.matrix_to_json(matrix) if isinstance(matrix, np.ndarray) else matrix
            path.write_text(json.dumps({"schema_version": "1", "dim": 2, "matrix": rows}))
            assert importlib.import_module("potentia.cli").main(["analyze", str(path)]) == gives
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", message.format(file=path) + "\n")
        else:
            with pytest.raises(gives) as caught:
                HERMITIAN_ENTRIES[entry](matrix)
            assert type(caught.value) is gives and str(caught.value) == message

    def test_the_gate_returns_the_conversion_it_judged(self):
        """A complex128 C-contiguous matrix is judged and returned as it is; any other is converted
        once, by ``as_complex``, and that conversion is returned."""
        assert qlin.require_hermitian(HALF) is HALF
        for given in (HALF.real, HALF.real.tolist(), np.asfortranarray(HALF)):
            judged = qlin.require_hermitian(given)
            assert judged.dtype == np.complex128 and judged.flags.c_contiguous
            assert np.array_equal(judged, HALF)


class TestCommutes:
    def test_self(self):
        p = projector([1, 2j, 0])
        assert qlin.commutes(p, p, 1e-10)

    def test_common_eigenbasis(self):
        assert qlin.commutes(np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), 1e-12)

    def test_incompatible_projectors(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        q = projector([1, 1])
        # Hand oracle: PQ - QP = [[0, 1/2], [-1/2, 0]].
        commutator = p @ q - q @ p
        assert np.allclose(commutator, [[0, 0.5], [-0.5, 0]])
        assert not qlin.commutes(p, q, 1e-8)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            qlin.commutes(np.eye(2), np.eye(3))

    def test_default_tolerance_is_the_projector_tolerance(self):
        """PQ - QP = [[0, t], [-t, 0]] exactly: it commutes at t = PROJECTOR_TOL, not one float above."""
        p = np.diag([1.0, 0.0])
        for t, expected in ((PROJECTOR_TOL, True), (math.nextafter(PROJECTOR_TOL, math.inf), False)):
            assert qlin.commutes(p, np.array([[0.0, t], [t, 0.0]])) is expected


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
    planted=st.sampled_from([np.nan, np.inf, -np.inf, None]),
    imaginary=st.booleans(),
)
def test_as_complex_rejects_exactly_the_non_finite(shape, seed, planted, imaginary):
    """A NaN or infinity in either part of any entry is refused; finite entries up to
    +-1.7e308, whose range would overflow, pass unchanged."""
    rng = np.random.default_rng(seed)
    matrix = rng.choice([-1.7e308, 1.7e308, -1.0, 0.0, 2.5], size=shape) + 1j * rng.choice(
        [-1.7e308, 1.7e308, 0.0, -3.0], size=shape
    )
    if planted is None:
        np.testing.assert_array_equal(qlin.as_complex(matrix), matrix)
        return
    entry = tuple(int(rng.integers(n)) for n in shape)
    matrix.view(np.float64).reshape(*shape, 2)[(*entry, int(imaginary))] = planted
    with pytest.raises(DomainError, match="^matrix has non-finite entries$"):
        qlin.as_complex(matrix)


def test_as_complex_accepts_the_empty_matrix():
    assert qlin.as_complex(np.zeros((0, 0))).shape == (0, 0)


@pytest.mark.parametrize("call", [
    lambda: DensityOperator("a"), lambda: DensityOperator([["a"]]), lambda: locc.CPMap(["x"]),
    lambda: qlin.as_complex(np.array([[b"1"]])), lambda: qlin.as_complex(np.array([[1, None]])),
    lambda: qlin.as_complex(np.zeros((1, 1), dtype="i4,i4")), lambda: PureVector(["1", "0"]),
    lambda: MixtureDecomposition([1j], (PureVector.basis_state(2, 0),)),
    lambda: PureVector([Fraction(1)]), lambda: PureVector.normalized([Decimal(1)]),
    lambda: DensityOperator([[2**70]]),
], ids=["state_text", "state_entry", "kraus_text", "bytes", "object", "void", "amplitudes", "complex_weight",
        "fraction", "decimal", "beyond_int64"])
def test_an_entry_that_is_no_number_is_a_domain_error(call):
    """A text, bytes, object or record entry, or a complex one where a real is meant, is refused by
    its kind before numpy converts it, so numpy's ``ValueError`` or ``TypeError`` never escapes.  Only
    numpy's number kinds count: a ``Fraction``, a ``Decimal`` or an int beyond int64 makes an object
    array, and is refused too."""
    with pytest.raises(DomainError, match="entries must be (real )?numbers, got dtype"):
        call()


@pytest.mark.parametrize("call", [
    lambda: PureVector(1.0), lambda: PureVector.normalized(2),
    lambda: MixtureDecomposition(1.0, (PureVector.basis_state(1, 0),)),
    lambda: powers.ISAValuation(build_graph([PowerNode(np.eye(1), "I")]), 1.0),
    lambda: DensityOperator(np.float64(1)),
], ids=["amplitudes", "normalized", "weights", "potentia", "matrix"])
def test_a_lone_number_is_no_sequence(call):
    """A vector or matrix argument is a sequence, as every collection argument is: a lone number, which
    ``np.asarray(...).reshape(-1)`` once read as a one-entry vector, is refused as a count is."""
    with pytest.raises(ShapeError, match="must be an array or a regular sequence, got "):
        call()


@pytest.mark.parametrize("p, error, message", [
    ([0.5, 0.2], ShapeError, "Werner parameter must be one real number, got [0.5, 0.2]"),
    ("a", DomainError, "Werner parameter entries must be real numbers, got dtype <U1"),
    (None, DomainError, "Werner parameter entries must be real numbers, got dtype object"),
], ids=["stack", "text", "none"])
def test_werner_takes_one_real_number(p, error, message):
    """``werner``'s parameter passes the number gate, and only a single number is a Werner state:
    a list would make a stack of matrices, text would escape as numpy's ``ValueError``, and ``None``
    would read as NaN."""
    with pytest.raises(error) as refused:
        werner(p)
    assert type(refused.value) is error and str(refused.value) == message


def test_as_complex_keeps_a_complex_array_and_refuses_ragged_rows():
    matrix = np.eye(3, dtype=np.complex128)
    assert qlin.as_complex(matrix) is matrix
    with pytest.raises(ShapeError,
                       match=r"^density operator must be an array or a regular sequence, got \[\[1, 0\], \[0\]\]$"):
        DensityOperator([[1, 0], [0]])
    with pytest.raises(DomainError, match="^density operator entries must be numbers, got dtype <U1$"):
        DensityOperator("a")


def rule_error(dims):
    """The class the screen-layout rule raises for ``dims`` from its definition, or None:
    DomainError unless there is an entry and each is a non-bool integer > 0, CapacityError for a
    product over the cap."""
    if not dims or not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d > 0
                           for d in dims):
        return DomainError
    return CapacityError if math.prod(int(d) for d in dims) > DIM_CAP else None


def layout_error(dims, size, screens):
    """``rule_error``, else ShapeError for a product other than ``size`` (None: no operand) or a
    screen count other than ``screens`` (None: any count)."""
    if (error := rule_error(dims)) or size is None:
        return error
    mismatch = math.prod(int(d) for d in dims) != size or screens is not None and len(dims) != screens
    return ShapeError if mismatch else None


def witness_of(n: int) -> WitnessOperator:
    return WitnessOperator(np.eye(n), DensityOperator.maximally_mixed(n))


def entangled(n: int) -> DensityOperator:
    """|0 0> + |d_a - 1, d_b - 1> over its norm: not PPT in any layout with two screens of 2 or more."""
    return density_from_vector(PureVector.normalized(np.eye(n)[0] + np.eye(n)[-1]))


#: Every function that takes screen dims, on an operand of size ``n``, and the screen count it
#: needs; ``None`` for any count.  ``random_product_pure`` has no operand: it takes the product.
LAYOUT_CALLS = {
    "partial_trace": (lambda n, dims: qlin.partial_trace(np.eye(n) / n, dims, (0,)), None),
    "partial_transpose": (lambda n, dims: qlin.partial_transpose(np.eye(n) / n, dims), 2),
    "schmidt": (lambda n, dims: schmidt(PureVector.basis_state(n, 0), dims), 2),
    "ppt_criterion": (lambda n, dims: ppt_criterion(entangled(n), dims), 2),
    "min_pt_eigenvalue": (lambda n, dims: min_pt_eigenvalue(entangled(n), dims), 2),
    "marginal_verdicts": (lambda n, dims: marginal_verdicts(entangled(n), dims), 2),
    "witness_from_entangled": (
        lambda n, dims: witness_from_entangled(entangled(n), dims), 2),
    "check_witness_on_products": (
        lambda n, dims: check_witness_on_products(witness_of(n), dims, samples=3), 2),
    "random_product_pure": (lambda n, dims: random_product_pure(dims, np.random.default_rng(0)), None),
    "Factorization": (lambda n, dims: Factorization(dims), None),
}
SIZE_FREE = {"random_product_pure", "Factorization"}

DIM_ENTRIES = st.one_of(
    st.integers(-2, 8), st.integers(9, 70), st.integers(4097, 10**30), st.booleans(),
    st.integers(-2, 70).map(np.int64), st.integers(0, 9).map(np.uint8),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([2.0, 2.5, 2.7, 0.7, -2.0]),
    st.text(max_size=2),
)


class TestScreenLayoutRule:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dims=st.one_of(st.lists(st.integers(1, 8), min_size=1, max_size=4),
                          st.lists(DIM_ENTRIES, min_size=1, max_size=4)).map(tuple),
           fits=st.booleans(),
           other=st.integers(1, 64))
    def test_every_dims_taking_function_applies_the_rule(self, dims, fits, other):
        """On an operand of the layout's own size (``fits``, where the layout is valid and small)
        or of another, each call succeeds or raises exactly the rule's class: the one
        ``Factorization`` raises, or ShapeError for a count or product mismatch; never a numpy
        or Python error, and never a dim truncated to fit."""
        total = None if rule_error(dims) else math.prod(int(d) for d in dims)
        size = total if total and fits and total <= 64 else other
        for name, (call, screens) in LAYOUT_CALLS.items():
            expected = layout_error(dims, None if name in SIZE_FREE else size, screens)
            try:
                result = call(size, dims)
            except PotentiaError as exc:
                if expected is None and isinstance(exc, NoWitnessError):
                    continue  # a layout with a screen of 1: the state is PPT, so it has no witness
                assert type(exc) is expected, (name, dims, size, exc)
                continue
            assert expected is None, (name, dims, size, result)
            if name == "partial_trace":
                assert result.shape == (int(dims[0]),) * 2
            if name == "random_product_pure":
                assert result.dim == total
            if name == "Factorization":
                assert result.screen_dims == tuple(int(d) for d in dims)

    @pytest.mark.parametrize("call, error", [
        (lambda: qlin.partial_trace(np.eye(4) / 4, (2.7, 2), (0,)), DomainError),
        (lambda: qlin.partial_trace(np.eye(4) / 4, (2, 2), (0.7,)), IndexError),
        (lambda: ppt_criterion(DensityOperator.maximally_mixed(4), (True, 4)), DomainError),
        (lambda: ppt_criterion(DensityOperator.maximally_mixed(4), (2.5, 1.6)), DomainError),
        (lambda: ppt_criterion(DensityOperator.maximally_mixed(4), (-2, -2)), DomainError),
        (lambda: schmidt(PureVector.basis_state(4, 0), (-2, -2)), DomainError),
        (lambda: random_product_pure((-2,), np.random.default_rng(0)), DomainError),
        (lambda: random_separable((2.5, 2), np.random.default_rng(0)), DomainError),
        (lambda: check_witness_on_products(witness_of(4), (2, 3), samples=3), ShapeError),
        (lambda: check_witness_on_products(witness_of(4), (2, 2, 2), samples=3), ShapeError),
        (lambda: qlin.partial_trace(np.eye(4) / 4, (4097, 1), (0,)), CapacityError),
        (lambda: qlin.partial_trace(np.eye(4) / 4, (0, 2), (0,)), DomainError),
        (lambda: families.ray_projector(np.ones(DIM_CAP + 1), "r"), CapacityError),
    ], ids=["trace_float_dim", "trace_float_keep", "ppt_bool", "ppt_floats", "ppt_negative",
            "schmidt_negative", "product_negative", "separable_float", "witness_product",
            "witness_three_screens", "trace_over_cap", "trace_zero", "ray_over_cap"])
    def test_each_former_leak_is_refused(self, call, error):
        with pytest.raises(error):
            call()

    def test_messages(self):
        with pytest.raises(DomainError, match=r"^screen dims must be a nonempty list of positive "
                                              r"integers, got \(2\.5, 2\)$"):
            qlin._screen_dims((2.5, 2))
        with pytest.raises(CapacityError, match="^screen layout degree 4100 exceeds the cap of 4096$"):
            qlin._screen_dims((2, 2050))
        with pytest.raises(ShapeError, match=r"^screen dims \(2, 3\) multiply to 6, but the "
                                             r"operand's shape is \(4, 4\)$"):
            qlin._screen_dims((2, 3), 4, 4)
        with pytest.raises(ShapeError, match=r"^a bipartite layout needs two screens, got dims \(4,\)$"):
            qlin._bipartite((4,), 4)
        assert qlin._bipartite((np.int64(2), np.uint8(3)), 6) == (2, 3)


def is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def index_error(value, size):
    """IndexError unless ``value`` is a non-bool integer in 0..size-1."""
    return None if is_int(value) and 0 <= value < size else IndexError


def count_error(value, least, most=math.inf):
    """DomainError unless ``value`` is a non-bool integer in least..most."""
    return None if is_int(value) and least <= value <= most else DomainError


def sequence_error(value, entries_error):
    """ShapeError unless ``value`` is sized and iterable; else what ``entries_error`` gives for it."""
    return entries_error(value) if isinstance(value, Sized) else ShapeError


def size_error(value):
    """DomainError unless ``value`` is a non-bool integer > 0, CapacityError above the cap."""
    if not (is_int(value) and value > 0):
        return DomainError
    return CapacityError if value > DIM_CAP else None


HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
QUBIT_MEASUREMENT = locc.projective_instrument([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


class Refusal(NamedTuple):
    error: Exception
    drew_nothing: bool


def drawn(call):
    """``call`` on a fresh generator: its result, or a refusal that says whether it drew."""
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    try:
        return call(rng)
    except Exception as exc:  # noqa: BLE001 - the class is what the property judges
        return Refusal(exc, rng.bit_generator.state == before)


#: Every function that takes an index or a count: the call on a value ``v``, the class the rule
#: gives for ``v`` (None: success), and what a success must satisfy.
INDEX_CALLS = {
    "flat_index": (lambda v: Factorization((2, 3)).flat_index((1, v)), lambda v: index_error(v, 3),
                   lambda v, r: Factorization((2, 3)).multi_index(r) == (1, v)),
    "multi_index": (lambda v: Factorization((2, 3)).multi_index(v), lambda v: index_error(v, 6),
                    lambda v, r: Factorization((2, 3)).flat_index(r) == v),
    "change_detectors": (
        lambda v: change_detectors(make_ea(DensityOperator.maximally_mixed(4), Factorization((2, 2))),
                                   v, HADAMARD),
        lambda v: index_error(v, 2), lambda v, r: r.degree == 4),
    "restrict": (
        lambda v: restrict(make_ea(DensityOperator.maximally_mixed(6), Factorization((2, 3))), [[v], [0, 2]]),
        lambda v: index_error(v, 2), lambda v, r: r.factorization.screen_dims == (1, 2)),
    "partial_trace": (lambda v: qlin.partial_trace(np.eye(6) / 6, (2, 3), (v,)), lambda v: index_error(v, 2),
                      lambda v, r: r.shape == ((2, 3)[v],) * 2),
    # A container of indices is judged as one before its entries: v in place of the whole.
    "flat_index_multi_index": (lambda v: Factorization((2, 3)).flat_index(v),
                               lambda v: sequence_error(v, lambda s: ShapeError if len(s) != 2 else IndexError),
                               lambda v, r: Factorization((2, 3)).multi_index(r) == tuple(v)),
    "restrict_kept_sets": (
        lambda v: restrict(make_ea(DensityOperator.maximally_mixed(6), Factorization((2, 3))), v),
        lambda v: sequence_error(v, lambda s: ShapeError if len(s) != 2 else IndexError),
        lambda v, r: r.degree >= 1),
    "restrict_kept_set": (
        lambda v: restrict(make_ea(DensityOperator.maximally_mixed(6), Factorization((2, 3))), [v, [0, 2]]),
        lambda v: sequence_error(v, lambda s: IndexError if s else DomainError), lambda v, r: r.degree >= 2),
    "partial_trace_kept": (lambda v: qlin.partial_trace(np.eye(6) / 6, (2, 3), v),
                           lambda v: sequence_error(v, lambda s: IndexError if s else None),
                           lambda v, r: r.shape == (1, 1) and abs(r[0, 0] - 1) < 1e-12),
    "screen_dims": (Factorization, lambda v: sequence_error(v, lambda s: DomainError), lambda v, r: False),
    "one_way_local": (lambda v: locc.one_way_local(v, QUBIT_MEASUREMENT, [locc.CPMap.identity(2)] * 2),
                      lambda v: index_error(v, 2), lambda v, r: r.in_dim == 4),
    "basis_state_index": (lambda v: PureVector.basis_state(2, v), lambda v: index_error(v, 2),
                          lambda v, r: r.amplitudes[v] == 1),
    "random_density_rank": (lambda v: drawn(lambda rng: random_density(3, rng, rank=v)),
                            lambda v: None if v is None else count_error(v, 1, 3),  # None: full rank
                            lambda v, r: np.linalg.matrix_rank(r.matrix) == (3 if v is None else v)),
    "random_projector_rank": (lambda v: drawn(lambda rng: random_projector(3, v, rng)),
                              lambda v: count_error(v, 1, 3),
                              lambda v, r: round(np.trace(r).real) == v),
    "random_separable_terms": (lambda v: drawn(lambda rng: random_separable((2, 2), rng, terms=v)),
                               lambda v: count_error(v, 1), lambda v, r: r.dim == 4),
    "samples": (lambda v: check_witness_on_products(witness_of(4), (2, 2), samples=v),
                lambda v: count_error(v, 1), lambda v, r: abs(r - 1) < 1e-12),
    "seed": (lambda v: check_witness_on_products(witness_of(4), (2, 2), samples=2, seed=v),
             lambda v: count_error(v, 0), lambda v, r: abs(r - 1) < 1e-12),
}
#: Ways to hand in a collection: a sized one is taken as a list is, and the rest are refused by
#: ``qlin._sequence`` with ``ShapeError``.
COLLECTIONS = {
    "list": list,
    "tuple": tuple,
    "array": lambda items: (np.stack(items) if isinstance(items[0], np.ndarray)
                            else np.array(items, None if isinstance(items[0], (float, list)) else object)),
    "generator": lambda items: (item for item in items),
    "iterator": iter,
    "count": len,
}
SIZED = {"list", "tuple", "array"}
CHAIN_LARGE = make_ea(DensityOperator.maximally_mixed(4), Factorization((2, 2)))
CHAIN_SMALL = restrict(CHAIN_LARGE, [[0], [0, 1]])
CHAIN_LINK = arrangements.ChainLink(((0,), (0, 1)))
IDENTITY_GRAPH = build_graph([PowerNode(np.eye(2), "I")])
#: Every argument that takes a collection of values: the call on a collection of valid entries in
#: a given form, and what a success must satisfy.
SEQUENCE_CALLS = {
    "CPMap_kraus": (lambda form: locc.CPMap(form([np.eye(2)])),
                    lambda r: np.array_equal(r.kraus[0], np.eye(2))),
    "QuantumInstrument_branches": (lambda form: locc.QuantumInstrument(form([locc.CPMap.identity(2)])),
                                   locc.is_valid_instrument),
    "MixtureDecomposition_components": (
        lambda form: MixtureDecomposition([0.5, 0.5], form([PureVector.basis_state(2, k) for k in (0, 1)])),
        lambda r: np.array_equal(r.reconstruct().matrix, np.eye(2) / 2)),
    "one_way_local_bystanders": (
        lambda form: locc.one_way_local(0, QUBIT_MEASUREMENT, form([None, locc.CPMap.identity(2)])),
        lambda r: r.in_dim == 4 and locc.is_valid_instrument(r)),
    "complexity_chain_eas": (lambda form: arrangements.complexity_chain_check(form([CHAIN_SMALL, CHAIN_LARGE]),
                                                                             [CHAIN_LINK]),
                             lambda r: r.valid and r.degrees == (2, 4)),
    "complexity_chain_links": (lambda form: arrangements.complexity_chain_check([CHAIN_SMALL, CHAIN_LARGE],
                                                                               form([CHAIN_LINK])),
                               lambda r: r.valid and r.degrees == (2, 4)),
    "QuantumInstrument_bystanders": (
        lambda form: locc.QuantumInstrument((locc.CPMap.identity(2),), form([None, locc.CPMap.identity(3)])),
        lambda r: r.in_dim == 6 and r._bystanders[0] is None and locc.is_valid_instrument(r)),
    "PureVector_amplitudes": (lambda form: PureVector(form([0.0, 1.0])),
                              lambda r: np.array_equal(r.amplitudes, [0, 1])),
    "PureVector_normalized": (lambda form: PureVector.normalized(form([0.0, 2.0])),
                              lambda r: np.array_equal(r.amplitudes, [0, 1])),
    "MixtureDecomposition_weights": (
        lambda form: MixtureDecomposition(form([0.5, 0.5]), [PureVector.basis_state(2, k) for k in (0, 1)]),
        lambda r: np.array_equal(r.reconstruct().matrix, np.eye(2) / 2)),
    "ISAValuation_potentia": (lambda form: powers.ISAValuation(IDENTITY_GRAPH, form([1.0])),
                              lambda r: np.array_equal(r.potentia, [1])),
    "MeasurementSetting_direction": (lambda form: bell.MeasurementSetting(form([0.0, 1.0, 0.0]), *np.eye(3)[:3]),
                                     lambda r: np.array_equal(r.a, [0, 1, 0])),
    "CorrelationMatrix_rows": (lambda form: bell.CorrelationMatrix(form(np.eye(3).tolist())),
                               lambda r: np.array_equal(r.t, np.eye(3))),
    "DetectorBasis_screens": (lambda form: DetectorBasis(form([np.eye(2), HADAMARD])),
                              lambda r: np.array_equal(r.screens[1], HADAMARD) and len(r.screens) == 2),
    "build_graph_projectors": (lambda form: build_graph(form([PowerNode(np.eye(2), "I")])),
                               lambda r: len(r.nodes) == 1 and r.identity_index == 0),
}
#: Every function that takes one size ``n``, judged by ``size_error``, and what a success must satisfy.
SIZE_CALLS = {
    "basis_state": (lambda n: PureVector.basis_state(n, 0), lambda n, r: r.dim == n and r.amplitudes[0] == 1),
    "maximally_mixed": (DensityOperator.maximally_mixed, lambda n, r: r.dim == n),
    "CPMap.identity": (locc.CPMap.identity, lambda n, r: r.in_dim == r.out_dim == n),
    "computational_family": (families.computational_family, lambda n, r: len(r) == n),
    "tomography_family": (families.tomography_family, lambda n, r: len(r) == n * n),
}

INTEGER_LIKE = st.one_of(
    st.integers(-3, 12), st.booleans(), st.sampled_from([2.0, 2.5, math.nan, math.inf, -math.inf]),
    st.floats(), st.integers(-3, 12).map(np.int64), st.integers(0, 12).map(np.uint8),
    st.text(max_size=2), st.none(),
)
#: Valid sizes stay at most 6 (a family of size n forms n matrices of n x n); over the cap is
#: drawn only as DIM_CAP + 1.
SIZES = st.one_of(
    st.integers(-3, 6), st.just(DIM_CAP + 1), st.booleans(),
    st.sampled_from([2.0, 2.5, math.nan, math.inf]), st.floats(), st.integers(-3, 6).map(np.int64),
    st.integers(0, 6).map(np.uint8), st.text(max_size=2), st.none(),
)


class TestIndexAndCountRule:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(value=INTEGER_LIKE, size=SIZES, form=st.sampled_from(sorted(COLLECTIONS)))
    @example(value=-1, size=2, form="array")
    @example(value=True, size=True, form="generator")
    @example(value=5, size=2, form="count")
    def test_every_integer_taking_function_applies_the_rule(self, value, size, form):
        """Each index, count, single size and list a caller passes is judged by ``qlin._index``,
        ``_count``, ``_screen_dims`` or ``_sequence``: a call succeeds and keeps the value, or raises
        exactly the rule's class (a refused draw leaves the generator as it was); never a Python or
        numpy error, and never a value truncated or wrapped to fit."""
        calls = [(name, lambda call=call: call(value), expected(value), lambda r, ok=ok: ok(value, r))
                 for name, (call, expected, ok) in INDEX_CALLS.items()]
        calls += [(name, lambda call=call: call(size), size_error(size), lambda r, ok=ok: ok(size, r))
                  for name, (call, ok) in SIZE_CALLS.items()]
        calls += [(name, lambda call=call: call(COLLECTIONS[form]), None if form in SIZED else ShapeError,
                   lambda r, ok=ok: ok(r)) for name, (call, ok) in SEQUENCE_CALLS.items()]
        wrong = []
        for name, call, expected, ok in calls:
            try:
                result = call()
            except Exception as exc:  # noqa: BLE001 - the class is what the property judges
                result = Refusal(exc, True)
            if isinstance(result, Refusal):
                if not (type(result.error) is expected and result.drew_nothing):
                    wrong.append((name, expected, result))
            elif not (expected is None and ok(result)):
                wrong.append((name, expected, result))
        assert not wrong, (value, size, wrong)

    def test_messages(self):
        with pytest.raises(DomainError, match="^terms must be an integer >= 1, got 0$"):
            qlin._count(0, 1, "terms")
        with pytest.raises(DomainError, match="^rank must be an integer in 1..3, got True$"):
            qlin._count(True, 1, "rank", 3)
        with pytest.raises(IndexError, match="^screen must be an integer in 0..1, got 2$"):
            qlin._index(2, 2, "screen")
        with pytest.raises(IndexError, match="^kept screen must be an integer in 0..1, got 0.7$"):
            qlin.partial_trace(np.eye(4) / 4, (2, 2), (0.7,))
        assert type(qlin._index(np.uint8(1), 2, "i")) is int and qlin._count(np.int64(5), 1, "n") == 5
        with pytest.raises(ShapeError, match="^multi-index must be a sequence, got 5$"):
            Factorization((2, 3)).flat_index(5)
        with pytest.raises(ShapeError, match="^screen 0 kept set must be a sequence, got 0$"):
            restrict(make_ea(DensityOperator.maximally_mixed(6), Factorization((2, 3))), [0, [1]])
        with pytest.raises(ShapeError, match="^multi-index must be a sequence, got <generator"):
            Factorization((2, 3)).flat_index(k for k in (1, 2))
        with pytest.raises(ShapeError, match="^Kraus operators must be a sequence, got <generator"):
            locc.CPMap(k for k in [np.eye(2)])


MATRIX_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1j, 1 - 0j, complex(-0.0, -0.0), math.nan])


class TestIsIdentity:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=st.integers(0, 4), cols=st.integers(0, 4), data=st.data(), planted=st.booleans())
    def test_same_verdict_as_comparing_with_the_identity(self, rows, cols, data, planted):
        m = np.eye(rows, cols, dtype=complex) if planted else np.zeros((rows, cols), dtype=complex)
        for i, j in data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3)):
            if i < rows and j < cols:
                m[i, j] = data.draw(MATRIX_ENTRIES)
        assert qlin._is_identity(m) == np.array_equal(m, np.eye(len(m))), m


def test_layout_and_basis_are_qlin_values_under_every_name():
    """``Factorization`` and ``DetectorBasis`` are defined in ``qlin``, beside the gates they call,
    and are the very classes the package and ``arrangements`` bind; a pickle that names them under
    ``arrangements``, as one written before they moved to ``qlin`` does, loads as the same values."""
    for name in ("Factorization", "DetectorBasis"):
        cls = getattr(qlin, name)
        assert cls.__module__ == "potentia.qlin"
        assert getattr(potentia, name) is getattr(arrangements, name) is cls
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for value in (qlin.Factorization((2, 3)), qlin.DetectorBasis((h, np.eye(3)))):
        old = pickle.dumps(value, protocol=0).replace(b"potentia.qlin\n", b"potentia.arrangements\n")
        assert b"potentia.arrangements" in old and b"potentia.qlin" not in old
        loaded = pickle.loads(old)
        assert type(loaded) is type(value)
        assert vars(loaded).keys() == vars(value).keys()
        for key, field in vars(value).items():
            assert all(np.array_equal(a, b) for a, b in zip(vars(loaded)[key], field, strict=True))


def _value_classes() -> list[type]:
    """Every class of the package with a gate of its own, a ``__post_init__``."""
    modules = [importlib.import_module(f"potentia.{m.name}") for m in pkgutil.iter_modules(potentia.__path__)]
    return [cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__ and "__post_init__" in vars(cls)]


HALF_HADAMARD = DetectorBasis((HADAMARD, np.eye(2)))
LAYOUT, ONE_SCREEN = Factorization((2, 2)), Factorization((4,))
STATE = random_density(4, np.random.default_rng(5))
ARRANGEMENT = make_ea(STATE, LAYOUT, HALF_HADAMARD)
BELL = density_from_vector(PureVector.normalized([1, 0, 0, 1]))
MIXTURE = MixtureDecomposition([0.25, 0.75], (PureVector.basis_state(2, 0), PureVector.normalized([1, 1j])))
NOT_THE_IDENTITY = PowerNode(np.diag([1.0, 0.0]), "P0")
#: Every site that makes a value with ``qlin._made``, on inputs made beforehand.
MAKER_SITES = {
    "witness_from_entangled": lambda: witness_from_entangled(BELL, (2, 2)),
    "build_graph_identity": lambda: build_graph([NOT_THE_IDENTITY]).nodes[-1],
    "maximally_mixed": lambda: DensityOperator.maximally_mixed(4),
    "CPMap.identity": lambda: locc.CPMap.identity(3),
    "PureVector.normalized": lambda: PureVector.normalized([1, 1j, 2]),
    "PureVector.basis_state": lambda: PureVector.basis_state(3, 1),
    "spectral_decomposition": lambda: spectral_decomposition(STATE),
    "ray_projector": lambda: families.ray_projector((1, 1j), "|+i><+i|"),
    "computational_family": lambda: families.computational_family(3),
    "random_product_pure": lambda: random_product_pure((2, 3), np.random.default_rng(0)),
    "werner": lambda: werner(0.7),
    "canonical_density": ARRANGEMENT.canonical_density,
    "density_from_vector": lambda: density_from_vector(PureVector.normalized([1, 2j])),
    "MixtureDecomposition.reconstruct": MIXTURE.reconstruct,
    "random_density": lambda: random_density(3, np.random.default_rng(0)),
    "random_separable": lambda: random_separable((2, 2), np.random.default_rng(0)),
    "make_ea": lambda: make_ea(STATE, LAYOUT, HALF_HADAMARD),
    "change_detectors": lambda: change_detectors(ARRANGEMENT, 1, HADAMARD),
    "refactor": lambda: arrangements.refactor(ARRANGEMENT, ONE_SCREEN),
}


@pytest.fixture
def gate_calls(monkeypatch):
    """Counts calls, during one test, of every value class's ``__post_init__``, of
    ``qlin.require_hermitian`` and of ``numpy.linalg.cholesky`` and ``eigvalsh``."""
    calls: Counter = Counter()

    def spied(name, run):
        def spy(*args, **kwargs):
            calls[name] += 1
            return run(*args, **kwargs)
        return spy

    for cls in _value_classes():
        monkeypatch.setattr(cls, "__post_init__", spied(f"{cls.__name__}.__post_init__", cls.__post_init__))
    monkeypatch.setattr(qlin, "require_hermitian", spied("require_hermitian", qlin.require_hermitian))
    for name in ("cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spied(name, getattr(np.linalg, name)))
    return calls


def held_arrays(value) -> list:
    """Every array a value holds, through tuples, lists, dicts and the package's values."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    elif isinstance(value, qlin._Value):
        value = list(vars(value).values())
    elif not isinstance(value, (tuple, list)):
        return []
    return [arr for entry in value for arr in held_arrays(entry)]


#: Cached properties: a value holds one once it is read, so a made value and its twin may differ in them.
LAZY = {"eigenvalues", "families"}


def assert_same_value(made, public) -> None:
    """Field by field, over every field and computed field the public twin's gate writes, each of
    which the made value must hold too: arrays byte-equal, as ``tobytes`` reads them (signed zeros
    count), the package's values the same way, and any other field equal."""
    if isinstance(made, np.ndarray):
        assert (made.dtype, made.shape, made.tobytes()) == (public.dtype, public.shape, public.tobytes())
    elif isinstance(made, (tuple, list)):
        assert len(made) == len(public)
        for a, b in zip(made, public):
            assert_same_value(a, b)
    elif isinstance(made, qlin._Value) and made is not public:
        assert type(made) is type(public)
        assert vars(public).keys() - LAZY <= vars(made).keys(), type(made)
        for name in sorted(vars(public).keys() - LAZY):
            assert_same_value(vars(made)[name], vars(public)[name])
    else:
        assert made is public or made == public


def public_twin(made):
    """``made`` remade by its class's public constructor, from its own fields; an arrangement from
    its matrix, layout and basis matrix."""
    if isinstance(made, arrangements.ExperimentalArrangement):
        return arrangements.ExperimentalArrangement(made.matrix, made.factorization, made.basis_matrix)
    return type(made)(**{name: getattr(made, name) for name in made._fields})


class TestMadeValues:
    @pytest.mark.parametrize("site", sorted(MAKER_SITES))
    def test_no_gate_runs_on_a_made_value(self, site, gate_calls, monkeypatch):
        """A value the package builds from admitted inputs runs no gate: no ``__post_init__``, no
        Hermiticity pass and no positivity solve.  The witness keeps the very array its partial
        transpose returned."""
        returned = []

        def transpose(*args, _run=qlin._partial_transpose):
            returned.append(_run(*args))
            return returned[-1]

        monkeypatch.setattr(qlin, "_partial_transpose", transpose)
        made = MAKER_SITES[site]()
        assert not gate_calls, (site, dict(gate_calls))
        assert all(not arr.flags.writeable for arr in held_arrays(made)), site
        if site == "witness_from_entangled":
            assert made.matrix is returned[-1] and np.shares_memory(made.matrix, returned[-1])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0),
           entries=st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-3]), min_size=32, max_size=32))
    def test_each_made_value_is_what_its_constructor_makes(self, n, seed, p, entries):
        """Each value a maker site makes at dim ``n`` (``2 * (n // 2)`` for a bipartite one) is
        accepted by its class's public constructor from its own fields; the two hold byte-equal
        arrays, and every array the made value holds is read-only."""
        rng = np.random.default_rng(seed)
        ray = np.array(entries[:n]) + 1j * np.array(entries[16 : 16 + n])
        ray[0] = 1.0 if ray[0] == 0 else ray[0]
        rho = random_density(n, rng)
        m = max(2, n // 2)  # the layout (2, m) is entangled by a generic pure state
        ea = make_ea(rho, Factorization((n,)), DetectorBasis((random_unitary(n, rng),)))
        made = [
            DensityOperator.maximally_mixed(n), locc.CPMap.identity(n), PureVector.normalized(ray),
            PureVector.basis_state(n, n - 1), random_product_pure((n, 1), rng), spectral_decomposition(rho),
            families.ray_projector(ray, "ray"), *families.computational_family(n),
            build_graph([families.ray_projector(ray, "ray")]).nodes[-1], werner(p), ea.canonical_density(),
            density_from_vector(PureVector.normalized(ray)), rho,
            witness_from_entangled(density_from_vector(random_pure(2 * m, rng)), (2, m)),
            random_separable((n,), rng, terms=2), ea, change_detectors(ea, 0, random_unitary(n, rng)),
            arrangements.refactor(ea, Factorization((n,))),
        ]
        for value in made:
            assert all(not arr.flags.writeable for arr in held_arrays(value)), value
            twin = public_twin(value)
            if isinstance(value, arrangements.ExperimentalArrangement):
                assert_same_value(value.matrix, twin.matrix)
            else:
                assert_same_value(value, twin)


I2_REPR = "array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 1.+0.j]])"
HALF_REPR = "DensityOperator(matrix=array([[0.5+0.j, 0. +0.j],\n       [0. +0.j, 0.5+0.j]]))"
SETTING_REPR = ("MeasurementSetting(a=array([1., 0., 0.]), a_prime=array([0., 1., 0.]), b=array([0., 0., 1.]), "
                "b_prime=array([1., 0., 0.]))")
HALF_STATE = DensityOperator(np.eye(2) / 2)
IDENTITY_MAP = locc.CPMap((np.eye(2),))
SETTING = bell.MeasurementSetting(*np.eye(3)[[0, 1, 2, 0]])
FAILURE = arrangements.ChainFailure(0, "why")
#: Every value class: one value (two calls hold the same values), whether the class compares and
#: hashes by its fields (else by identity), and the value's repr, as the dataclasses made it.
VALUE_CLASSES = {
    "Factorization": (lambda: Factorization((2, 3)), True, "Factorization(screen_dims=(2, 3))"),
    "DetectorBasis": (lambda: DetectorBasis((np.eye(2),)), False, f"DetectorBasis(screens=({I2_REPR},))"),
    "ExperimentalArrangement": (
        lambda: arrangements.ExperimentalArrangement(np.eye(2) / 2, Factorization((2,)), np.eye(2)), False,
        "ExperimentalArrangement(factorization=Factorization(screen_dims=(2,)))"),
    "ChainLink": (lambda: arrangements.ChainLink(((0,), (1, 2))), True, "ChainLink(kept_detectors=((0,), (1, 2)))"),
    "ChainFailure": (lambda: arrangements.ChainFailure(0, "why"), True, "ChainFailure(link=0, reason='why')"),
    "ChainReport": (lambda: arrangements.ChainReport((2, 4), (FAILURE,)), True,
                    "ChainReport(degrees=(2, 4), failures=(ChainFailure(link=0, reason='why'),))"),
    "CorrelationMatrix": (lambda: bell.CorrelationMatrix(np.eye(3)), False,
                          "CorrelationMatrix(t=array([[1., 0., 0.],\n       [0., 1., 0.],\n       [0., 0., 1.]]))"),
    "MeasurementSetting": (lambda: bell.MeasurementSetting(*np.eye(3)[[0, 1, 2, 0]]), False, SETTING_REPR),
    "ChshMax": (lambda: bell.ChshMax(2.0, SETTING), True, f"ChshMax(value=2.0, setting={SETTING_REPR})"),
    "SeparabilityVerdict": (
        lambda: SeparabilityVerdict(Verdict.SEPARABLE, "ppt", 0.5), True,
        "SeparabilityVerdict(verdict=<Verdict.SEPARABLE: 'Separable'>, criterion='ppt', evidence=0.5)"),
    "WitnessOperator": (lambda: WitnessOperator(np.eye(2), HALF_STATE), False,
                        f"WitnessOperator(matrix={I2_REPR}, reference_state={HALF_REPR}, min_pt_eigenvalue=None)"),
    "StateFile": (
        lambda: fileio.StateFile(HALF_STATE, Factorization((2,)), None, "label", False, "sha256:00"), True,
        f"StateFile(density={HALF_REPR}, factorization=Factorization(screen_dims=(2,)), basis=None, label='label', "
        "has_explicit_factorization=False, digest='sha256:00')"),
    "CPMap": (lambda: locc.CPMap((np.eye(2),)), False, f"CPMap(kraus=({I2_REPR},))"),
    "QuantumInstrument": (lambda: locc.QuantumInstrument((IDENTITY_MAP,)), True,
                          f"QuantumInstrument(branches=(CPMap(kraus=({I2_REPR},)),), _bystanders=(None,))"),
    "BranchOutcome": (lambda: locc.BranchOutcome(1.0, None), True, "BranchOutcome(probability=1.0, post_state=None)"),
    "PowerNode": (lambda: PowerNode(np.eye(2), "I"), False, f"PowerNode(projector={I2_REPR}, label='I')"),
    "PowersGraph": (lambda: powers.PowersGraph(IDENTITY_GRAPH.nodes, frozenset({(0, 1)}), 2, 0), True,
                    f"PowersGraph(nodes=(PowerNode(projector={I2_REPR}, label='I'),), edges=frozenset({{(0, 1)}}), "
                    "dim=2, identity_index=0)"),
    "Context": (lambda: powers.Context(frozenset({0, 1})), True, "Context(node_indices=frozenset({0, 1}))"),
    "ISAValuation": (lambda: powers.ISAValuation(IDENTITY_GRAPH, [1.0]), False,
                     f"ISAValuation(graph=PowersGraph(nodes=(PowerNode(projector={I2_REPR}, label='I'),), "
                     "edges=frozenset(), dim=2, identity_index=0), potentia=array([1.]))"),
    "AdditivityViolation": (lambda: powers.AdditivityViolation((0, 1), 2, 0.5, 1.0), True,
                            "AdditivityViolation(family=(0, 1), sum_node=2, member_total=0.5, sum_value=1.0)"),
    "AxiomReport": (lambda: powers.AxiomReport(True, 1.0, ()), True,
                    "AxiomReport(identity_ok=True, identity_value=1.0, additivity_violations=())"),
    "PureVector": (lambda: PureVector([1, 0]), False, "PureVector(amplitudes=array([1.+0.j, 0.+0.j]))"),
    "DensityOperator": (lambda: DensityOperator(np.eye(2) / 2), False, HALF_REPR),
    "BlochPoint": (lambda: BlochPoint(0.0, 0.0, 1.0), True, "BlochPoint(x=0.0, y=0.0, z=1.0)"),
    "MixtureDecomposition": (lambda: MixtureDecomposition([1.0], (PureVector([1, 0]),)), False,
                             "MixtureDecomposition(weights=array([1.]))"),
}


class TestValueBase:
    def test_the_table_lists_every_value_class(self):
        modules = [importlib.import_module(f"potentia.{m.name}") for m in pkgutil.iter_modules(potentia.__path__)]
        found = {name for module in modules for name, cls in vars(module).items() if isinstance(cls, type)
                 and cls.__module__ == module.__name__ and qlin._Value in cls.__mro__[1:]}
        assert found == set(VALUE_CLASSES)

    @pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
    def test_repr_equality_hash_and_freezing(self, name):
        """Each value class keeps the repr, equality, hash and freezing message its frozen dataclass had;
        assignment and deletion raise a plain ``AttributeError``, the base of ``FrozenInstanceError``."""
        make, by_fields, shown = VALUE_CLASSES[name]
        value, twin = make(), make()
        assert type(value).__name__ == name and repr(value) == shown
        assert value == value and hash(value) == hash(value)
        if by_fields:
            assert value == twin and hash(value) == hash(twin)
            assert value.__eq__(object()) is NotImplemented
        else:
            assert value != twin and type(value).__eq__ is object.__eq__
            assert hash(value) == object.__hash__(value)
        first = type(value)._fields[0]
        for act, verb, field in ((setattr, "assign to", first), (setattr, "assign to", "other"),
                                 (delattr, "delete", first)):
            with pytest.raises(AttributeError) as refused:
                act(value, field, *(None,) * (act is setattr))
            assert type(refused.value) is AttributeError and str(refused.value) == f"cannot {verb} field {field!r}"
        assert repr(value) == shown

    def test_the_constructor_binds_its_arguments_as_a_call_does(self):
        """By position or by name, a missing field takes its class default, and a missing field
        without one, an unknown or a repeated name, or one argument too many raise ``TypeError``."""
        assert locc.BranchOutcome(post_state=None, probability=0.5) == locc.BranchOutcome(0.5, None)
        assert locc.QuantumInstrument((IDENTITY_MAP,))._bystanders == (None,)
        assert Factorization([2, 3]).screen_dims == (2, 3)  # the gate ran
        for args, kwargs in (((0.5,), {}), ((0.5, None), {"other": 1}), ((0.5,), {"probability": 0.5}),
                             ((0.5, None, 1), {}), ((), {"post_state": None})):
            message = (f"BranchOutcome takes ('probability', 'post_state'), "
                       f"got {len(args)} positional and {list(kwargs)}")
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                locc.BranchOutcome(*args, **kwargs)

    def test_no_class_is_a_dataclass(self):
        """In a fresh interpreter, the CLI and every submodule make no dataclass, and an ``analyze``
        run after importing them all leaves the ``dataclasses`` module unloaded."""
        probe = """if True:
            import contextlib, importlib, io, json, pkgutil, sys, potentia, potentia.cli
            names = [f"potentia.{m.name}" for m in pkgutil.iter_modules(potentia.__path__)]
            modules = [importlib.import_module(name) for name in names]
            made = sorted(name for module in modules for name, cls in vars(module).items()
                          if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__"))
            with contextlib.redirect_stdout(io.StringIO()):
                code = potentia.cli.main(["analyze", sys.argv[1]])
            print(json.dumps([len(modules), made, code, "dataclasses" in sys.modules]))
        """
        sample = str(Path(__file__).resolve().parent.parent / "samples" / "werner_05.json")
        proc = subprocess.run([sys.executable, "-c", probe, sample], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [13, [], 0, False]

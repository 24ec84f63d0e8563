"""JSON file schemas: states, projector families, and instruments.

All files are UTF-8 JSON with a mandatory ``schema_version`` ("1").
Complex entries are two-element ``[re, im]`` arrays; matrices are row-major
(a list of rows).  Structural problems raise ParseError (CLI exit 2),
physical-invariant failures raise ValidationError (CLI exit 3).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import arrangements, entanglement, powers, qlin, states
from .arrangements import DetectorBasis, Factorization
from .errors import CapacityError, DomainError, ParseError, ShapeError, ValidationError
from .locc import CPMap, QuantumInstrument
from .powers import PowerNode
from .states import DensityOperator

SCHEMA_VERSION = "1"


@dataclass
class Tolerances:
    """Load- and analysis-time tolerances; every field can be overridden, with a
    finite number >= 0, via the CLI ``--tol name=value`` flag or a config file."""

    hermiticity: float = qlin.HERMITICITY_TOL
    trace: float = states.TRACE_TOL
    purity: float = states.PURITY_TOL
    verdict: float = entanglement.VERDICT_TOL
    equivalence: float = arrangements.EQUIVALENCE_TOL
    axioms: float = powers.AXIOM_TOL
    zero: float = powers.ZERO_THRESHOLD

    def override(self, name: str, value: float) -> None:
        if not any(field.name == name for field in dataclasses.fields(self)):
            known = ", ".join(field.name for field in dataclasses.fields(self))
            raise ParseError(f"unknown tolerance {name!r}; known: {known}")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and 0 <= value <= sys.float_info.max):  # NaN fails both comparisons
            raise ParseError(f"tolerance {name!r}: {json.dumps(value)} is not a finite number >= 0")
        setattr(self, name, float(value))

    @classmethod
    def from_config(cls, mapping: dict) -> "Tolerances":
        tols = cls()
        for name, value in mapping.items():
            tols.override(name, value)
        return tols


def matrix_to_json(matrix: np.ndarray) -> list:
    """Row-major nested list of [re, im] pairs."""
    m = np.asarray(matrix, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _require_pairs(rows, path: str) -> None:
    """Raise ParseError at the first row or entry that is not a row of [re, im] number pairs."""
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"{path}: expected a nonempty list of rows")
    for r, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{path}[{r}]: expected a nonempty row")
        if len(row) != len(rows[0]):
            raise ParseError(f"{path}[{r}]: row has {len(row)} entries, expected {len(rows[0])}")
        for c, entry in enumerate(row):
            pair = isinstance(entry, list) and len(entry) == 2
            if not pair or not all(isinstance(part, (int, float)) for part in entry):
                raise ParseError(f"{path}[{r}][{c}]: complex entries must be [re, im] number pairs")


def matrix_from_json(rows, path: str) -> np.ndarray:
    """Complex matrix from row-major [re, im] pairs; every float64 part is kept bit for bit."""
    try:
        pairs = np.array(rows)
    except ValueError:  # ragged nesting
        pairs = np.array(None)
    if pairs.ndim != 3 or pairs.shape[2] != 2 or pairs.dtype.kind not in "biuf":
        _require_pairs(rows, path)
        try:
            pairs = np.array(rows, dtype=np.float64)  # well formed: integers beyond int64
        except OverflowError:
            raise ParseError(f"{path}: an entry is too large for a float64")
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]


def _load_json(path: str | Path) -> tuple[dict, str]:
    """A file's top-level JSON object and the ``sha256:`` digest of the bytes it was parsed from."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")  # as read_text
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8 text
        raise ParseError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}")
    digest = "sha256:" + hashlib.sha256(data).hexdigest()
    del data  # the parse peaks at many times the file's size; hold the text only
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(document, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return document, digest


def _require(document: dict, key: str, kind: type, path: str):
    if key not in document:
        raise ParseError(f"{path}: missing required field {key!r}")
    value = document[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise ParseError(f"{path}.{key}: expected {kind.__name__}")
    return value


def _is_int(value) -> bool:
    """A JSON integer: ``bool`` subclasses ``int`` but ``true`` is not a dimension."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_dim(document: dict, path: str) -> int:
    """The ``dim`` field, checked against the dimension cap before any matrix is read."""
    dim = _require(document, "dim", int, path)
    if dim < 1:
        raise ParseError(f"{path}.dim: must be a positive integer")
    if dim > qlin.DIM_CAP:
        raise CapacityError(f"{path}.dim: {dim} exceeds the dimension cap of {qlin.DIM_CAP}")
    return dim


def _validated(prefix: str, make, *args):
    """``make(*args)``, with invariant failures of parsed data raised as ValidationError."""
    try:
        return make(*args)
    except (DomainError, ShapeError) as exc:
        raise ValidationError(f"{prefix}: {exc}")


def _load_document(path: str | Path) -> tuple[dict, str, str]:
    """A schema-versioned file's top-level object, its path as a message prefix, and its digest."""
    document, digest = _load_json(path)
    name = str(path)
    version = _require(document, "schema_version", str, name)
    if version != SCHEMA_VERSION:
        raise ParseError(f"{name}.schema_version: unsupported version {version!r}")
    return document, name, digest


@dataclass(frozen=True)
class StateFile:
    density: DensityOperator
    factorization: Factorization
    basis: DetectorBasis
    label: str | None
    has_explicit_factorization: bool
    has_explicit_bases: bool
    digest: str  # "sha256:" and the hex SHA-256 of the file's bytes


def load_state(path: str | Path, tolerances: Tolerances | None = None) -> StateFile:
    """Parse and validate a state file.

    The matrix must satisfy the density-operator invariants within the
    configured tolerances; it is then canonicalized (symmetrized and
    trace-normalized) before analysis.
    """
    tols = tolerances or Tolerances()
    document, name, digest = _load_document(path)
    dim = _require_dim(document, name)
    matrix = matrix_from_json(_require(document, "matrix", list, name), f"{name}.matrix")
    if matrix.shape != (dim, dim):
        raise ParseError(f"{name}.matrix: shape {matrix.shape} does not match dim {dim}")

    try:
        qlin.require_hermitian(qlin.as_complex(matrix), tols.hermiticity)  # rejects non-finite first
        trace = complex(np.trace(matrix))
        if abs(trace - 1.0) > tols.trace or not trace.real > 0:
            raise DomainError(f"matrix violates unit trace (trace {trace:.12g})")
        canonical = (matrix + matrix.conj().T) / 2.0
        canonical /= np.real(np.trace(canonical))
        density = DensityOperator(canonical)
    except DomainError as exc:
        raise ValidationError(f"{name}: {exc}")

    has_factorization = "factorization" in document
    if has_factorization:
        dims = document["factorization"]
        if not isinstance(dims, list) or not all(_is_int(d) for d in dims):
            raise ParseError(f"{name}.factorization: expected a list of integers")
        factorization = Factorization(tuple(dims))
        if factorization.degree != dim:
            raise ValidationError(
                f"{name}: factorization {dims} multiplies to {factorization.degree}, dim is {dim}"
            )
    else:
        factorization = Factorization((dim,))

    has_bases = "bases" in document
    if has_bases:
        raw_bases = document["bases"]
        if not isinstance(raw_bases, list) or len(raw_bases) != factorization.screens:
            raise ParseError(
                f"{name}.bases: expected one basis per screen ({factorization.screens})"
            )
        screens = []
        for k, raw in enumerate(raw_bases):
            screen = matrix_from_json(raw, f"{name}.bases[{k}]")
            if screen.shape != (factorization.screen_dims[k],) * 2:
                raise ParseError(
                    f"{name}.bases[{k}]: shape {screen.shape} does not match screen dim "
                    f"{factorization.screen_dims[k]}"
                )
            screens.append(screen)
        basis = _validated(name, DetectorBasis, tuple(screens))
    else:
        basis = DetectorBasis.computational(factorization)

    label = document.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError(f"{name}.label: expected a string")
    return StateFile(density, factorization, basis, label, has_factorization, has_bases, digest)


def state_document(
    density: DensityOperator,
    factorization: Factorization | None = None,
    basis: DetectorBasis | None = None,
    label: str | None = None,
) -> dict:
    """Serializable state-file dictionary."""
    document: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "dim": density.dim,
        "matrix": matrix_to_json(density.matrix),
    }
    if factorization is not None:
        document["factorization"] = list(factorization.screen_dims)
    if basis is not None:
        document["bases"] = [matrix_to_json(screen) for screen in basis.screens]
    if label is not None:
        document["label"] = label
    return document


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:  # a missing directory, a directory, no permission
        raise ParseError(f"{path}: cannot write: {exc.strerror or exc}")


def dump_state(path: str | Path, document: dict) -> None:
    _write_text(path, render_json(document))


def load_projectors(path: str | Path) -> tuple[list[PowerNode], str]:
    """The file's projectors, in order, and the digest of its bytes."""
    document, name, digest = _load_document(path)
    dim = _require_dim(document, name)
    raw_nodes = _require(document, "projectors", list, name)
    if not raw_nodes:
        raise ParseError(f"{name}.projectors: expected at least one projector")
    nodes = []
    for k, raw in enumerate(raw_nodes):
        if not isinstance(raw, dict):
            raise ParseError(f"{name}.projectors[{k}]: expected an object")
        label = raw.get("label", f"P{k}")
        if not isinstance(label, str):
            raise ParseError(f"{name}.projectors[{k}].label: expected a string")
        matrix = matrix_from_json(
            _require(raw, "matrix", list, f"{name}.projectors[{k}]"),
            f"{name}.projectors[{k}].matrix",
        )
        if matrix.shape != (dim, dim):
            raise ParseError(
                f"{name}.projectors[{k}].matrix: shape {matrix.shape} does not match dim {dim}"
            )
        nodes.append(_validated(f"{name}: projector {label!r} invalid", PowerNode, matrix, label))
    return nodes, digest


def load_instrument(path: str | Path) -> tuple[QuantumInstrument, str]:
    """The file's instrument and the digest of its bytes."""
    document, name, digest = _load_document(path)
    raw_branches = _require(document, "branches", list, name)
    if not raw_branches:
        raise ParseError(f"{name}.branches: expected at least one branch")
    branches = []
    for k, raw in enumerate(raw_branches):
        if not isinstance(raw, dict):
            raise ParseError(f"{name}.branches[{k}]: expected an object")
        raw_kraus = _require(raw, "kraus", list, f"{name}.branches[{k}]")
        if not raw_kraus:
            raise ParseError(f"{name}.branches[{k}].kraus: expected at least one operator")
        kraus = tuple(
            matrix_from_json(mat, f"{name}.branches[{k}].kraus[{i}]")
            for i, mat in enumerate(raw_kraus)
        )
        branches.append(_validated(f"{name}: branch {k} invalid", CPMap, kraus))
    return _validated(name, QuantumInstrument, tuple(branches)), digest


def render_json(document: dict) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline-terminated.

    NaN and infinities have no JSON form, so a report holding one is rejected.
    """
    try:
        return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"report is not valid JSON: {exc}")

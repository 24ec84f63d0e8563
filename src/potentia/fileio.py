"""JSON file schemas: states, projector families, instruments, bases and configs.

All files are UTF-8 JSON.  State, projector and instrument files carry a mandatory
``schema_version`` ("1"); a basis file (``{"matrix": ...}``) and a config file
(``{"tolerances": {...}}``) carry none.  Complex entries are two-element ``[re, im]``
arrays; matrices are row-major (a list of rows).  Structural problems raise ParseError
(CLI exit 2), physical-invariant failures raise ValidationError (CLI exit 3).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from . import qlin
from .errors import DomainError, ParseError, ShapeError, ValidationError
from .qlin import DetectorBasis, Factorization
from .states import DensityOperator
from .tolerances import DIM_CAP, Tolerances, require_at_most, require_within

if TYPE_CHECKING:
    from .locc import QuantumInstrument
    from .powers import PowerNode

SCHEMA_VERSION = "1"


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


def matrix_from_json(rows, path: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Complex matrix from row-major [re, im] pairs; every float64 part is kept bit for bit.
    ``shape``, when given, is the one its document fixes (by ``dim`` or a screen dim), and a
    matrix of another shape raises ParseError."""
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
    matrix = np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]
    if shape is not None and matrix.shape != shape:
        raise ParseError(f"{path}: shape {matrix.shape}, expected {shape}")
    return matrix


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


_REQUIRED = object()


def _require(document: dict, key: str, kind: type, path: str, default=_REQUIRED):
    """The one field gate: ``document[key]`` if it is a ``kind`` (a nonempty one, for ``list``).
    An absent optional field reads as its ``default``, and so does a null one whose default is None."""
    value = document.get(key, default)
    if value is _REQUIRED:
        raise ParseError(f"{path}: missing required field {key!r}")
    fits = qlin._is_integer(value) if kind is int else isinstance(value, kind) and (value or kind is not list)
    if not (fits or value is default):
        raise ParseError(f"{path}.{key}: expected {'a nonempty list' if kind is list else kind.__name__}")
    return value


def _require_dim(document: dict, path: str) -> int:
    """The ``dim`` field, checked against the dimension cap before any matrix is read."""
    dim = _require(document, "dim", int, path)
    if dim < 1:
        raise ParseError(f"{path}.dim: must be a positive integer")
    require_within(f"{path}: dim", dim, DIM_CAP)
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


class StateFile(qlin._Value, eq=True):
    density: DensityOperator
    factorization: Factorization
    basis: DetectorBasis | None  # None: the file names no detectors, so they are computational
    label: str | None
    has_explicit_factorization: bool
    digest: str  # "sha256:" and the hex SHA-256 of the file's bytes


def load_state(
    path: str | Path, tolerances: Tolerances | None = None, layout: Callable | None = None
) -> StateFile:
    """Parse and validate a state file: its layout, then ``layout``, the caller's rule on it, if any, whose
    refusal propagates as it is; then its bases and label, then its matrix, which is solved last.

    The matrix must be Hermitian and of unit trace within the configured
    tolerances; it is then canonicalized (symmetrized and trace-normalized),
    checked finite, and held to the one positivity rule, ``DensityOperator._admit``.
    """
    tols = tolerances or Tolerances()
    document, name, digest = _load_document(path)
    dim = _require_dim(document, name)
    dims = _require(document, "factorization", list, name, [dim])  # absent: one screen
    try:
        factorization = Factorization(tuple(dims))
    except DomainError:
        raise ParseError(f"{name}.factorization: expected a nonempty list of positive integers")
    if factorization.degree != dim:
        raise ValidationError(
            f"{name}: factorization {dims} multiplies to {factorization.degree}, dim is {dim}"
        )
    if layout is not None:
        layout(factorization)

    raw_bases = _require(document, "bases", list, name, ())  # absent: computational detectors
    if raw_bases and len(raw_bases) != factorization.screens:
        raise ParseError(f"{name}.bases: expected one basis per screen ({factorization.screens})")
    screens = tuple(
        matrix_from_json(raw, f"{name}.bases[{k}]", (d, d))
        for k, (raw, d) in enumerate(zip(raw_bases, factorization.screen_dims))
    )
    basis = _validated(name, DetectorBasis, screens) if raw_bases else None
    label = _require(document, "label", str, name, None)

    matrix = matrix_from_json(_require(document, "matrix", list, name), f"{name}.matrix", (dim, dim))
    try:
        matrix = qlin.require_hermitian(matrix, tols.hermiticity)  # rejects non-finite first
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as non-finite
            trace = complex(np.trace(matrix))
            require_at_most("matrix |trace - 1|", abs(trace - 1.0), tols.trace)
            if not trace.real > 0:
                raise DomainError(f"matrix violates unit trace (trace {trace:.12g})")
            matrix += matrix.conj().T  # canonical in the parsed array, which is admitted in place
            matrix /= 2.0
            matrix /= np.real(np.trace(matrix))
        density = qlin._made(DensityOperator)._admit(qlin.as_complex(matrix))
    except DomainError as exc:
        raise ValidationError(f"{name}: {exc}")
    return StateFile(density, factorization, basis, label, "factorization" in document, digest)


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
    from .powers import PowerNode

    document, name, digest = _load_document(path)
    dim = _require_dim(document, name)
    raw_nodes = _require(document, "projectors", list, name)
    nodes = []
    for k, raw in enumerate(raw_nodes):
        where = f"{name}.projectors[{k}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        label = _require(raw, "label", str, where, f"P{k}")
        matrix = matrix_from_json(_require(raw, "matrix", list, where), f"{where}.matrix", (dim, dim))
        nodes.append(_validated(f"{name}: projector {label!r} invalid", PowerNode, matrix, label))
    return nodes, digest


def load_instrument(path: str | Path) -> tuple[QuantumInstrument, str]:
    """The file's instrument and the digest of its bytes."""
    from .locc import CPMap, QuantumInstrument

    document, name, digest = _load_document(path)
    raw_branches = _require(document, "branches", list, name)
    branches = []
    for k, raw in enumerate(raw_branches):
        if not isinstance(raw, dict):
            raise ParseError(f"{name}.branches[{k}]: expected an object")
        raw_kraus = _require(raw, "kraus", list, f"{name}.branches[{k}]")
        kraus = tuple(
            matrix_from_json(mat, f"{name}.branches[{k}].kraus[{i}]")
            for i, mat in enumerate(raw_kraus)
        )
        branches.append(_validated(f"{name}: branch {k} invalid", CPMap, kraus))
    return _validated(name, QuantumInstrument, tuple(branches)), digest


def load_basis(path: str | Path) -> tuple[np.ndarray, str]:
    """A basis file's matrix, judged by the basis gate where it is used, and the digest of its bytes."""
    document, digest = _load_json(path)
    name = str(path)
    return matrix_from_json(_require(document, "matrix", list, name), f"{name}.matrix"), digest


def load_tolerances(path: str | Path) -> Tolerances:
    """The defaults, overridden by each entry of a config file's optional ``tolerances`` object."""
    raw = _require(_load_json(path)[0], "tolerances", dict, str(path), {})
    tols = Tolerances()
    for name, value in raw.items():
        tols.override(name, value)
    return tols


def render_json(document: dict) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline-terminated.

    NaN and infinities have no JSON form, so a report holding one is rejected.
    """
    try:
        return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"report is not valid JSON: {exc}")

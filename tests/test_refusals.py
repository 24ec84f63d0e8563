"""Every refusal the package makes, in one table: each row is one call, what it gives, and the
message.  The table holds the refusals that no other test reaches, and the early returns beside
them, so that every ``raise`` in ``src/potentia`` runs in the tier-1 suite."""

import json
import math

import numpy as np
import pytest

from potentia import cli
from potentia.arrangements import (
    ChainFailure, ChainLink, ChainReport, DetectorBasis, Factorization, change_detectors,
    complexity_chain_check, ea_equivalent, make_ea,
)
from potentia.bell import CorrelationMatrix, MeasurementSetting
from potentia.entanglement import SeparabilityVerdict, Verdict
from potentia.errors import DomainError, ShapeError
from potentia.locc import CPMap, QuantumInstrument, one_way_local
from potentia.powers import ISAValuation, PowerNode, build_graph, reconstruct_density
from potentia.qlin import partial_transpose, require_hermitian
from potentia.states import (
    BlochPoint, DensityOperator, MixtureDecomposition, PureVector, alternative_decomposition,
    bloch_from_density, density_from_vector, spectral_decomposition,
)


def mixed(dim: int) -> DensityOperator:
    return DensityOperator.maximally_mixed(dim)


def computational(*dims: int):
    return make_ea(mixed(math.prod(dims)), Factorization(dims))


def pure(dim: int) -> DensityOperator:
    return density_from_vector(PureVector.basis_state(dim, 0))


IDENTITY_GRAPH = build_graph([PowerNode(np.eye(2), "I")])
#: A state file of one four-detector screen: ``dim`` 4 and no layout.
ONE_SCREEN_OF_FOUR = {"schema_version": "1", "dim": 4,
                      "matrix": [[[0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)]}

#: Per row: the call, then what it gives and the message.  A call is a function, or a CLI argv (a
#: tuple) whose non-string entries are JSON documents, each written to a file that the argv names.
#: A function raises the exception type given, exactly, with the fragment in its message, or
#: gives, with ``None`` for the type, the value given; an argv exits with the code given and
#: writes one stderr line holding the fragment.
REFUSALS = {
    # arrangements
    "make_ea: one basis per screen": (
        lambda: make_ea(mixed(4), Factorization((2, 2)), DetectorBasis((np.eye(2),))),
        ShapeError, "1 screen bases for 2 screens"),
    "change_detectors: the screen's shape": (
        lambda: change_detectors(computational(2), 0, np.eye(3)),
        ShapeError, "new detector basis must be 2x2, got (3, 3)"),
    "ea_equivalent: two degrees": (lambda: ea_equivalent(computational(2), computational(2, 2)), None, False),
    "complexity_chain_check: one link per step": (
        lambda: complexity_chain_check([computational(2), computational(2, 2)]),
        ShapeError, "2 arrangements need 1 links, got 0"),
    "complexity_chain_check: no link for one arrangement": (
        lambda: complexity_chain_check([computational(2)], [ChainLink(((0,),))]),
        ShapeError, "1 arrangements need 0 links, got 1"),
    "complexity_chain_check: no link for no arrangement": (
        lambda: complexity_chain_check([], [ChainLink(((0,),))]),
        ShapeError, "0 arrangements need 0 links, got 1"),
    "complexity_chain_check: the degree must increase": (
        lambda: complexity_chain_check([computational(2, 2), computational(2)], [ChainLink(((0,),))]),
        None, ChainReport((4, 2), (ChainFailure(0, "degree does not increase: 4 -> 2"),))),
    "complexity_chain_check: the stated restriction fails": (
        lambda: complexity_chain_check([computational(2), computational(2, 2)], [ChainLink(((0,),))]),
        None, ChainReport((2, 4), (ChainFailure(0, "stated restriction fails: 1 kept sets for 2 screens"),))),
    "complexity_chain_check: the restriction's layout": (
        lambda: complexity_chain_check([computational(2), computational(2, 2)], [ChainLink(((0, 1), (0,)))]),
        None, ChainReport((2, 4), (ChainFailure(0, "restriction yields factorization (2, 1), chain claims (2,)"),))),
    # bell
    "CorrelationMatrix: 3x3": (lambda: CorrelationMatrix(np.eye(2)), ShapeError,
                               "correlation matrix must be 3x3, got (2, 2)"),
    "MeasurementSetting: 3-vectors": (
        lambda: MeasurementSetting([1.0, 0.0], *np.eye(3)[:3]),
        ShapeError, "Bloch direction must be a 3-vector, got shape (2,)"),
    "MeasurementSetting: a norm that overflows": (
        lambda: MeasurementSetting([1e200, 0.0, 0.0], *np.eye(3)[:3]),
        DomainError, "Bloch direction |norm - 1| inf exceeds 1e-09"),
    # cli
    "transform: hadamard needs a two-detector screen": (
        ("transform", ONE_SCREEN_OF_FOUR, "--screen", "1", "--basis", "hadamard"),
        3, "validation error: --basis hadamard: new detector basis must be 4x4, got (2, 2)"),
    "_bisect: a zero at the lower end": (lambda: cli._bisect(lambda p: p - 0.25, 0.25, 1.0), None, 0.25),
    "_bisect: a zero at the upper end": (lambda: cli._bisect(lambda p: p - 0.75, 0.0, 0.75), None, 0.75),
    "_bisect: a zero at a midpoint": (lambda: cli._bisect(lambda p: p - 0.25, 0.0, 1.0), None, 0.25),
    "werner --scan: numbers": (("werner", "--scan", "a,b,3"), 2, "parse error: --scan expects numbers, got 'a,b,3'"),
    "werner --scan: a reversed range": (
        ("werner", "--scan", "0.5,0.2,3"), 3, "scan range [0.5, 0.2] must satisfy 0 <= from < to <= 1"),
    "werner --scan: an empty range": (
        ("werner", "--scan", "0.3,0.3,3"), 3, "scan range [0.3, 0.3] must satisfy 0 <= from < to <= 1"),
    "werner --scan: a range past 1": (
        ("werner", "--scan", "0,2,5"), 3, "scan range [0.0, 2.0] must satisfy 0 <= from < to <= 1"),
    # entanglement
    "SeparabilityVerdict: Entangled needs negative evidence": (
        lambda: SeparabilityVerdict(Verdict.ENTANGLED, "ppt", 0.0),
        DomainError, "an Entangled verdict must carry strictly negative evidence (violation margin), got 0.0"),
    # fileio
    "load_state: a JSON object": (("analyze", [1, 2]), 2, "top level must be a JSON object"),
    # locc
    "CPMap: a Kraus operator": (lambda: CPMap(()), DomainError, "a CP map needs at least one Kraus operator"),
    "CPMap: one shape": (lambda: CPMap((np.eye(2) / 2, np.eye(3) / 2)), ShapeError,
                         "Kraus operator 1 is (3, 3), expected (2, 2)"),
    "QuantumInstrument: a branch": (lambda: QuantumInstrument(()), DomainError,
                                    "an instrument needs at least one branch"),
    "QuantumInstrument: one map shape": (
        lambda: QuantumInstrument((CPMap.identity(2), CPMap.identity(3))),
        ShapeError, "branch 1 maps 3->3, expected 2->2"),
    "one_way_local: a map per bystander": (
        lambda: one_way_local(0, QuantumInstrument((CPMap.identity(2),)), (None, None)),
        DomainError, "party 1 needs an explicit trace-preserving map"),
    # powers
    "ISAValuation: one potentia per node": (lambda: ISAValuation(IDENTITY_GRAPH, [0.5, 0.5]), ShapeError,
                                            "2 potentia for 1 nodes"),
    "ISAValuation.value: a node's label": (lambda: ISAValuation(IDENTITY_GRAPH, [1.0]).value("P"), KeyError, "'P'"),
    "build_graph: a node": (lambda: build_graph([]), DomainError, "a powers graph needs at least one node"),
    "build_graph: one dim": (lambda: build_graph([PowerNode(np.eye(2), "a"), PowerNode(np.eye(3), "b")]),
                             ShapeError, "power 'b' has dim 3, expected 2"),
    "reconstruct_density: dim 2 at least": (
        lambda: reconstruct_density(ISAValuation(build_graph([PowerNode(np.eye(1), "I")]), [1.0])),
        DomainError, "reconstruction needs dim >= 2"),
    # qlin
    "require_hermitian: square": (lambda: require_hermitian(np.zeros((2, 3))), ShapeError,
                                  "matrix must be square, got (2, 3)"),
    "DetectorBasis: square": (lambda: DetectorBasis((np.zeros((2, 3)),)), ShapeError,
                              "screen 0 basis must be 2x2, got (2, 3)"),
    "DetectorBasis: a detector per screen, as a layout holds": (
        lambda: DetectorBasis((np.zeros((0, 0)),)),
        DomainError, "screen 0 basis detector count must be an integer >= 1, got 0"),
    "DetectorBasis: a screen, as a layout holds": (lambda: DetectorBasis(()), DomainError,
                                                   "screen bases must be a nonempty list, got ()"),
    "partial_transpose: party A or B": (lambda: partial_transpose(np.eye(4), (2, 2), "C"), DomainError,
                                        "party must be 'A' or 'B', got 'C'"),
    # states
    "MixtureDecomposition: a weight per component": (lambda: MixtureDecomposition([1.0], ()), ShapeError,
                                                     "weights and components differ in length"),
    "MixtureDecomposition: a weight sum that overflows": (
        lambda: MixtureDecomposition([1e308, 1e308], (PureVector.basis_state(2, 0),) * 2),
        DomainError, "mixture |weight sum - 1| inf exceeds 1e-09"),
    "DensityOperator: a trace that overflows": (lambda: DensityOperator(np.diag([1e308, 1e308])), DomainError,
                                                "density operator |trace - 1| inf exceeds 1e-09"),
    "BlochPoint: real coordinates": (lambda: BlochPoint(1j, 0, 0), DomainError,
                                     "Bloch point (x, y, z) entries must be real numbers, got dtype complex128"),
    "BlochPoint: numbers, not text": (lambda: BlochPoint("a", 0, 0), DomainError,
                                      "Bloch point (x, y, z) entries must be real numbers, got dtype <U"),
    "BlochPoint: numbers, not None": (lambda: BlochPoint(None, 0, 0), DomainError,
                                      "Bloch point (x, y, z) entries must be real numbers, got dtype object"),
    "BlochPoint: one number per coordinate": (
        lambda: BlochPoint([1], 0, 0),
        ShapeError, "Bloch point (x, y, z) must be an array or a regular sequence, got [[1], 0, 0]"),
    "BlochPoint: three numbers": (
        lambda: BlochPoint(*np.eye(3)),
        ShapeError, "Bloch point (x, y, z) must be three numbers, got shape (3, 3)"),
    "BlochPoint: a norm past the bound, not an overflow": (
        lambda: BlochPoint(1e200, 0, 0), DomainError, "Bloch point norm 1e+200 exceeds 1.000000201"),
    "bloch_from_density: a qubit": (lambda: bloch_from_density(mixed(4)), ShapeError,
                                    "Bloch coordinates are defined for qubits only, got dim 4"),
    "alternative_decomposition: a column per component": (
        lambda: alternative_decomposition(spectral_decomposition(pure(2)), np.eye(2)),
        ShapeError, "mixer must have 1 columns, got shape (2, 2)"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal(case, capsys, tmp_path):
    call, gives, message = REFUSALS[case]
    if isinstance(call, tuple):
        argv = []
        for k, entry in enumerate(call):
            if not isinstance(entry, str):
                (path := tmp_path / f"{k}.json").write_text(json.dumps(entry))
                entry = str(path)
            argv.append(entry)
        assert cli.main(argv) == gives
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err
    elif gives is None:
        result = call()
        assert type(result) is type(message) and result == message
    else:
        with pytest.raises(gives) as caught:
            call()
        assert type(caught.value) is gives and message in str(caught.value)


def test_fourier_is_the_discrete_fourier_basis(capsys, tmp_path):
    """``--basis fourier`` reports what a basis file holding the DFT, built here from powers of
    one root of unity, reports, up to rounding, on a screen of four detectors."""
    state, basis = tmp_path / "state.json", tmp_path / "dft.json"
    # A circulant state: the DFT is its eigenbasis, so the Fourier intensities are its spectrum.
    matrix = [[[0.2 * (i == j) + 0.05, 0.0] for j in range(4)] for i in range(4)]
    state.write_text(json.dumps(ONE_SCREEN_OF_FOUR | {"matrix": matrix}))
    omega = np.exp(2j * np.pi / 4)
    dft = np.array([[omega ** (j * k % 4) for k in range(4)] for j in range(4)]) / 2
    basis.write_text(json.dumps({"matrix": [[[z.real, z.imag] for z in row] for row in dft]}))

    def results(source):
        assert cli.main(["transform", str(state), "--screen", "1", "--basis", source, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["results"]

    named, from_file = results("fourier"), results(str(basis))
    assert named.pop("transform") == {"screen": 1, "basis": "fourier"}
    assert from_file.pop("transform") == {"screen": 1, "basis": str(basis)}
    assert named.keys() == from_file.keys() == {"before_intensities", "after_intensities", "equivalent", "degree"}
    for key in named:
        assert named[key] == pytest.approx(from_file[key], abs=1e-12), key
    assert named["after_intensities"] == pytest.approx([0.4, 0.2, 0.2, 0.2], abs=1e-12)

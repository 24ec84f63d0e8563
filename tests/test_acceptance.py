"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed criterion fails its test instead).
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import potentia
from potentia import families, fileio, qlin, tolerances
from potentia.arrangements import (
    ChainLink,
    DetectorBasis,
    Factorization,
    change_detectors,
    complexity_chain_check,
    ea_equivalent,
    make_ea,
    power_intensity,
    refactor,
    restrict,
)
from potentia.cli import _bisect
from potentia.entanglement import (
    Verdict,
    marginal_verdicts,
    min_pt_eigenvalue,
    ppt_criterion,
    schmidt_rank,
    von_neumann_entropy,
    werner,
)
from potentia.bell import chsh_max
from potentia.locc import CPMap, QuantumInstrument, apply_instrument, one_way_local, projective_instrument
from potentia.powers import (
    ISAValuation,
    PowerNode,
    build_graph,
    check_isa_axioms,
    find_additive_binary_valuation,
    isa_from_density,
    reconstruct_density,
)
from potentia.qlin import kron, partial_trace
from potentia.sampling import (
    random_density,
    random_projector,
    random_pure,
    random_unitary,
)
from potentia.states import (
    DensityOperator,
    PureVector,
    abstract_purity,
    alternative_decomposition,
    density_from_vector,
    operational_purity,
    spectral_decomposition,
)

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def announce(number: int, message: str):
    print(f"CRITERION {number:2d} PASS: {message}")


def test_criterion_01_worked_example_detector_change():
    def load_and_transform():
        state = fileio.load_state(SAMPLES / "worked_ea.json")
        ea = make_ea(state.density, state.factorization, state.basis)
        changed = change_detectors(ea, 0, HADAMARD)
        return ea, changed

    load_and_transform()  # warm caches before timing
    start = time.perf_counter()
    ea, changed = load_and_transform()
    elapsed = time.perf_counter() - start

    intensities = changed.intensities()
    assert np.max(np.abs(intensities - 0.25)) <= 1e-10
    assert ea_equivalent(ea, changed)
    assert elapsed < 0.010, f"transform took {elapsed * 1e3:.2f} ms"
    announce(1, f"four 1/4 intensities, equivalent arrangements, {elapsed * 1e3:.2f} ms")


def test_criterion_02_werner_boundaries():
    ppt_boundary = _bisect(lambda p: min_pt_eigenvalue(werner(p), (2, 2)), 0.0, 1.0)
    chsh_boundary = _bisect(lambda p: chsh_max(werner(p)).value - 2.0, 0.0, 1.0)
    assert abs(ppt_boundary - 1 / 3) <= 1e-6
    assert abs(chsh_boundary - 1 / np.sqrt(2)) <= 1e-6

    grid = np.linspace(0.0, 1.0, 1001)
    start = time.perf_counter()
    verdicts = [
        (float(p), ppt_criterion(werner(float(p)), (2, 2)).verdict, chsh_max(werner(float(p))).value)
        for p in grid
    ]
    elapsed = time.perf_counter() - start
    for p, verdict, best in verdicts:
        if 1 / 3 < p <= 1 / np.sqrt(2):
            assert verdict is Verdict.ENTANGLED, f"p={p}"
            assert best <= 2.0 + 1e-7, f"p={p}"
    assert elapsed < 1.0, f"1001-point scan took {elapsed:.3f} s"
    announce(
        2,
        f"boundaries {ppt_boundary:.7f} and {chsh_boundary:.7f}, "
        f"entangled-but-local band verified, scan {elapsed * 1e3:.0f} ms",
    )


def test_criterion_03_purity_schism():
    rho = density_from_vector(PureVector.normalized([1, 1]))
    assert abstract_purity(rho)
    assert not operational_purity(make_ea(rho, Factorization((2,))))
    entropy = von_neumann_entropy(rho)
    assert abs(entropy) <= 1e-12
    announce(3, f"abstract pure, operationally impure, entropy {entropy:.2e} bits")


def test_criterion_04_entropy_identities():
    rng = np.random.default_rng(4)
    for trial in range(10_000):
        dim = int(rng.integers(2, 7))
        if trial % 2 == 0:
            rho = density_from_vector(random_pure(dim, rng))
        else:
            rho = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
        assert (von_neumann_entropy(rho) <= 1e-7) == abstract_purity(rho, 1e-7)

    for _ in range(1000):
        a = random_density(int(rng.integers(2, 4)), rng)
        b = random_density(int(rng.integers(2, 4)), rng)
        joint = DensityOperator(kron(a.matrix, b.matrix))
        gap = abs(
            von_neumann_entropy(joint) - von_neumann_entropy(a) - von_neumann_entropy(b)
        )
        assert gap <= 1e-9

    for dim in range(2, 9):
        entropy = von_neumann_entropy(DensityOperator.maximally_mixed(dim))
        assert abs(entropy - np.log2(dim)) <= 1e-9
    announce(4, "zero-entropy/purity match, additivity, log2(d) plateaus")


def _random_family_graph(rng, dim: int):
    nodes = []
    for b in range(int(rng.integers(1, 3))):
        basis = random_unitary(dim, rng)
        for k in range(dim):
            vec = basis[:, k]
            nodes.append(PowerNode(np.outer(vec, vec.conj()), f"b{b}k{k}"))
        pair = basis[:, :2]
        nodes.append(PowerNode(pair @ pair.conj().T, f"b{b}sum"))
    nodes.append(PowerNode(random_projector(dim, int(rng.integers(1, dim)), rng), "loose"))
    return build_graph(nodes)


def test_criterion_05_isa_axioms_and_reconstruction():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        graph = _random_family_graph(rng, dim)
        rho = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
        assert check_isa_axioms(isa_from_density(rho, graph)).ok

    worst = 0.0
    for dim in (2, 3, 4):
        graph = build_graph(families.tomography_family(dim))
        for _ in range(50):
            rho = random_density(dim, rng, rank=int(rng.integers(1, dim + 1)))
            back = reconstruct_density(isa_from_density(rho, graph))
            worst = max(worst, float(np.max(np.abs(back.matrix - rho.matrix))))
    assert worst <= 1e-7

    ks_graph = build_graph(families.ks18_family())
    assert find_additive_binary_valuation(ks_graph) is None
    intensive = isa_from_density(random_density(4, rng), ks_graph)
    assert check_isa_axioms(intensive).ok
    announce(
        5,
        f"1000 Born valuations pass, roundtrip error {worst:.2e}, "
        "18-ray family uncolorable yet intensively valued",
    )


def test_criterion_06_mixture_non_uniqueness():
    mixed = DensityOperator.maximally_mixed(2)
    first = spectral_decomposition(mixed)
    second = alternative_decomposition(first, HADAMARD)
    overlaps = np.array(
        [
            [abs(np.vdot(a.amplitudes, b.amplitudes)) for b in second.components]
            for a in first.components
        ]
    )
    assert np.all(overlaps < 1.0 - 1e-6)
    for decomposition in (first, second):
        gap = np.max(np.abs(decomposition.reconstruct().matrix - mixed.matrix))
        assert gap <= 1e-10
    announce(6, f"disjoint ensembles (max overlap {overlaps.max():.3f}) rebuild I/2")


def test_criterion_07_criteria_ordering():
    rng = np.random.default_rng(7)
    counts = {"entropy": 0, "majorization": 0, "ppt": 0}
    for _ in range(10_000):
        rho = random_density(4, rng, rank=int(rng.integers(1, 5)))
        by_major, by_entropy = (v.verdict is Verdict.ENTANGLED for v in marginal_verdicts(rho, (2, 2)))
        by_ppt = ppt_criterion(rho, (2, 2)).verdict is Verdict.ENTANGLED
        counts["entropy"] += by_entropy
        counts["majorization"] += by_major
        counts["ppt"] += by_ppt
        assert (not by_entropy) or by_major
        assert (not by_major) or by_ppt

    for _ in range(1000):
        if rng.random() < 0.5:
            vector = PureVector(
                np.kron(random_pure(2, rng).amplitudes, random_pure(2, rng).amplitudes)
            )
        else:
            vector = random_pure(4, rng)
        detected = (
            ppt_criterion(density_from_vector(vector), (2, 2)).verdict is Verdict.ENTANGLED
        )
        assert detected == (schmidt_rank(vector, (2, 2)) > 1)
    announce(
        7,
        "entropy({entropy}) <= majorization({majorization}) <= ppt({ppt}) detections; "
        "pure-state agreement exact".format(**counts),
    )


def test_criterion_08_invariance_suite():
    rng = np.random.default_rng(8)
    layouts = [(2, 2), (2, 3), (3, 2), (2, 2, 2), (3, 3), (2, 2, 3), (4, 3), (6, 6), (36,)]
    for _ in range(1000):
        dims = layouts[int(rng.integers(len(layouts)))]
        f = Factorization(dims)
        rho = random_density(f.degree, rng)
        ea = make_ea(rho, f, DetectorBasis(tuple(random_unitary(d, rng) for d in dims)))

        screen = int(rng.integers(len(dims)))
        changed = change_detectors(ea, screen, random_unitary(dims[screen], rng))
        assert np.max(np.abs(changed.canonical_density().matrix - rho.matrix)) <= 1e-10
        assert abs(float(np.sum(changed.intensities())) - 1.0) <= 1e-9

        flattened = refactor(changed, Factorization((f.degree,)))
        assert np.max(np.abs(flattened.canonical_density().matrix - rho.matrix)) <= 1e-10
        assert abs(float(np.sum(flattened.intensities())) - 1.0) <= 1e-9

        if dims[screen] > 1:
            kept = [tuple(range(d)) for d in dims]
            kept[screen] = tuple(range(dims[screen] - 1))
            lower = restrict(ea, kept)
            report = complexity_chain_check([lower, ea], [ChainLink(tuple(kept))])
            assert report.valid, report.failures
    announce(8, "1000 arrangements: basis/refactor invariance and valid restrict chains")


def test_criterion_09_instrument_layer():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        raw = [
            [
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(int(rng.integers(1, 4)))
            ]
            for _ in range(int(rng.integers(1, 4)))
        ]
        total = sum(k.conj().T @ k for ks in raw for k in ks)
        values, vectors = np.linalg.eigh(total)
        inv_sqrt = vectors @ np.diag(1.0 / np.sqrt(values)) @ vectors.conj().T
        instrument = QuantumInstrument(
            tuple(CPMap(tuple(k @ inv_sqrt for k in ks)) for ks in raw)
        )
        outcomes = apply_instrument(instrument, random_density(dim, rng))
        assert abs(sum(o.probability for o in outcomes) - 1.0) <= 1e-8

    phi = density_from_vector(PureVector.normalized([1, 0, 0, 1]))
    measure = projective_instrument(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    )
    instrument = one_way_local(0, measure, [None, CPMap.identity(2)])
    outcomes = apply_instrument(instrument, phi)
    for outcome, basis_index in zip(outcomes, (0, 1)):
        assert abs(outcome.probability - 0.5) <= 1e-10
        steered = partial_trace(outcome.post_state.matrix, (2, 2), (1,))
        expected = np.zeros((2, 2))
        expected[basis_index, basis_index] = 1.0
        assert np.max(np.abs(steered - expected)) <= 1e-10
    announce(9, "1000 instruments conserve probability; steering branches exact")


GOLDEN_COMMANDS = (
    ("analyze", "samples/werner_05.json", "--format", "json"),
    (
        "transform",
        "samples/worked_ea.json",
        "--screen", "1",
        "--basis", "hadamard",
        "--format", "json",
    ),
    (
        "powers",
        "samples/zero_state.json",
        "--projectors", "samples/qubit_two_bases.json",
        "--format", "json",
    ),
    ("werner", "--scan", "0,1,101", "--format", "json"),
    ("analyze", "samples/paper/spectrum_product_frame.json", "--format", "json"),
    ("analyze", "samples/paper/spectrum_bell_frame.json", "--format", "json"),
    ("witness", "samples/bell_phi_plus.json", "--format", "json"),
)

#: Stored output of each golden command, aligned with GOLDEN_COMMANDS.
GOLDEN_FILES = (
    "analyze_werner_05.json",
    "transform_worked_ea.json",
    "powers_zero_state.json",
    "werner_scan.json",
    "analyze_spectrum_product_frame.json",
    "analyze_spectrum_bell_frame.json",
    "witness_bell_phi_plus.json",
)
GOLDEN_FLOAT_TOL = 1e-12


def test_criterion_10_cli_determinism():
    for command in GOLDEN_COMMANDS:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "potentia.cli", *command],
                cwd=ROOT,
                capture_output=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"nondeterministic output for {command}"
        assert outputs[0]
    announce(10, f"{len(GOLDEN_COMMANDS)} documented commands byte-stable across reruns")


def _golden_mismatches(expected, actual, path="$") -> list[str]:
    """Differences between two parsed reports: floats within
    GOLDEN_FLOAT_TOL absolute, everything else (structure, strings,
    booleans, integers, nulls) exactly."""
    if type(expected) is not type(actual):
        return [f"{path}: {type(expected).__name__} became {type(actual).__name__}"]
    if isinstance(expected, dict):
        if sorted(expected) != sorted(actual):
            return [f"{path}: keys {sorted(expected)} became {sorted(actual)}"]
        return [m for key in expected for m in _golden_mismatches(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} became {len(actual)}"]
        return [m for k, (e, a) in enumerate(zip(expected, actual)) for m in _golden_mismatches(e, a, f"{path}[{k}]")]
    if isinstance(expected, float):
        if not abs(expected - actual) <= GOLDEN_FLOAT_TOL:
            return [f"{path}: {expected!r} became {actual!r}"]
        return []
    return [] if expected == actual else [f"{path}: {expected!r} became {actual!r}"]


@pytest.mark.parametrize("command,golden", zip(GOLDEN_COMMANDS, GOLDEN_FILES), ids=GOLDEN_FILES)
def test_golden_outputs_match_stored_baseline(command, golden):
    proc = subprocess.run(
        [sys.executable, "-m", "potentia.cli", *command],
        cwd=ROOT,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    expected = json.loads((ROOT / "tests" / "golden" / golden).read_text(encoding="utf-8"))
    mismatches = _golden_mismatches(expected, json.loads(proc.stdout))
    assert not mismatches, "\n".join(mismatches[:20])


#: Every export of ``potentia`` and its one use.  ``("command", c)``: running command ``c`` over the
#: samples enters its code.  ``("paper", f)``: ``analyze`` of the ``samples/paper/`` file ``f`` enters it,
#: and it computes a quantity of that claim's row in README.  ``("returned", c)``: an enum whose values
#: ``c``'s reports print.  ``("raised", c)``: an error class some run of ``c`` exits by.
#: ``("library", t)``: no command enters it, and test ``t`` pins it.
REACH = {
    "AxiomReport": ("command", "powers"),
    "BlochPoint": ("command", "analyze"),
    "BranchOutcome": ("command", "instrument"),
    "CPMap": ("command", "instrument"),
    "CapacityError": ("raised", "werner"),
    "ChainLink": ("library", "test_arrangements.py::TestChain::test_worked_chain"),
    "ChainReport": ("library", "test_arrangements.py::TestChain::test_worked_chain"),
    "ChshMax": ("command", "bell"),
    "Context": ("command", "powers"),
    "CorrelationMatrix": ("command", "bell"),
    "DegenerateConditioningError": (
        "library", "test_arrangements.py::TestRestrict::test_zero_overlap_rejected"),
    "DensityOperator": ("command", "analyze"),
    "DetectorBasis": ("command", "transform"),
    "DomainError": ("raised", "werner"),
    "ExperimentalArrangement": ("command", "transform"),
    "Factorization": ("command", "transform"),
    "ISAValuation": ("command", "powers"),
    "MeasurementSetting": ("command", "bell"),
    "MixtureDecomposition": ("library", "test_states.py::TestDecompositions::test_weights_must_sum_to_one"),
    "NoWitnessError": ("raised", "witness"),
    "ParseError": ("raised", "werner"),
    "PotentiaError": ("raised", "werner"),
    "PowerNode": ("command", "powers"),
    "PowersGraph": ("command", "powers"),
    "PureVector": ("command", "analyze"),
    "QuantumInstrument": ("command", "instrument"),
    "ResidualError": ("library", "test_powers.py::TestReconstruction::test_inconsistent_valuation_rejected"),
    "SeparabilityVerdict": ("command", "analyze"),
    "ShapeError": ("raised", "instrument"),
    "UnderdeterminedError": (
        "library", "test_powers.py::TestReconstruction::test_underdetermined_reports_rank"),
    "ValidationError": ("raised", "bell"),
    "Verdict": ("returned", "analyze"),
    "WernerRegion": ("returned", "werner"),
    "WitnessOperator": ("command", "witness"),
    "abstract_purity": ("command", "analyze"),
    "actualization_map": ("command", "powers"),
    "alternative_decomposition": ("library", "test_acceptance.py::test_criterion_06_mixture_non_uniqueness"),
    "apply_instrument": ("command", "instrument"),
    "bloch_from_density": ("command", "analyze"),
    "build_graph": ("command", "powers"),
    "change_detectors": ("command", "transform"),
    "check_isa_axioms": ("command", "powers"),
    "check_witness_on_products": ("command", "witness"),
    "chsh_max": ("paper", "spectrum_bell_frame.json"),
    "chsh_value": ("command", "bell"),
    "commutes": ("command", "powers"),
    "complexity_chain_check": ("library", "test_arrangements.py::TestChain::test_worked_chain"),
    "correlation_matrix": ("command", "bell"),
    "density_from_bloch": ("library", "test_states.py::TestBloch::test_north_pole"),
    "density_from_vector": ("library", "test_acceptance.py::test_criterion_03_purity_schism"),
    "ea_equivalent": ("command", "transform"),
    "entropy_additivity_check": ("library", "test_entanglement.py::TestEntropy::test_additivity_pure"),
    "families": ("library", "test_acceptance.py::test_criterion_05_isa_axioms_and_reconstruction"),
    "find_additive_binary_valuation": (
        "library", "test_acceptance.py::test_criterion_05_isa_axioms_and_reconstruction"),
    "is_valid_instrument": ("command", "instrument"),
    "isa_from_density": ("command", "powers"),
    "kron": ("library", "test_entanglement.py::TestEntropy::test_additivity_value_by_eigenvalue_products"),
    "make_ea": ("command", "analyze"),
    "marginal_verdicts": ("command", "analyze"),
    "maximal_contexts": ("command", "powers"),
    "min_pt_eigenvalue": ("command", "bell"),
    "multiscreen_effect": ("library", "test_arrangements.py::TestMultiscreen::test_worked_state_marginals"),
    "one_way_local": ("library", "test_acceptance.py::test_criterion_09_instrument_layer"),
    "operational_purity": ("command", "analyze"),
    "operational_purity_exists": ("command", "analyze"),
    "partial_trace": ("command", "analyze"),
    "partial_transpose": ("command", "analyze"),
    "power_intensity": ("library", "test_arrangements.py::TestMakeEa::test_pure_product"),
    "ppt_criterion": ("paper", "spectrum_product_frame.json"),
    "projective_distance": ("library", "test_states.py::TestProjectiveDistance::test_orthogonal_pair"),
    "projective_instrument": ("library", "test_acceptance.py::test_criterion_09_instrument_layer"),
    "reconstruct_density": ("library", "test_acceptance.py::test_criterion_05_isa_axioms_and_reconstruction"),
    "refactor": ("command", "transform"),
    "region": ("paper", "spectrum_bell_frame.json"),
    "restrict": ("library", "test_acceptance.py::test_criterion_08_invariance_suite"),
    "sampling": ("library", "test_sampling.py::TestSeededDraws::test_pure_and_unitary"),
    "schmidt": ("command", "analyze"),
    "schmidt_rank": ("library", "test_entanglement.py::TestSchmidt::test_factoring_superposition"),
    "shadow": ("library", "test_states.py::TestShadow::test_on_itself"),
    "spectral_decomposition": ("library", "test_acceptance.py::test_criterion_06_mixture_non_uniqueness"),
    "von_neumann_entropy": ("command", "analyze"),
    "werner": ("library", "test_acceptance.py::test_criterion_02_werner_boundaries"),
    "witness_from_entangled": ("command", "witness"),
}
PUBLIC_NAMES = sorted(REACH)


#: Submodules reachable as attributes of the package after a bare ``import potentia``.
SUBMODULES = (
    "arrangements", "bell", "entanglement", "errors", "families", "locc", "powers", "qlin",
    "sampling", "states",
)


def test_package_exports_are_pinned():
    """The export table, ``potentia.__all__``, is public API: no name may drop silently.
    Each name is the very object its defining module holds, and each submodule resolves."""
    assert sorted(potentia.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(potentia, name)
        if inspect.ismodule(value):
            assert value is importlib.import_module(f"potentia.{name}"), name
        else:
            assert value.__module__.startswith("potentia."), name
            assert value is getattr(importlib.import_module(value.__module__), name), name
    for name in SUBMODULES:
        assert getattr(potentia, name) is importlib.import_module(f"potentia.{name}"), name



def _reach_runs(out_state: Path) -> list[list[str]]:
    """The documented commands, each over every sample it reads, and three refusals, one per exit code."""
    runs = [["werner", "--p", "0.5"], ["werner", "--scan", "0,1,101"], ["werner", "--p", "1.5"],
            ["werner", "--scan", "0,1,100001"], ["werner", "--scan", "0,1"]]
    for path in sorted(SAMPLES.rglob("*.json")):
        document, state = json.loads(path.read_text(encoding="utf-8")), str(path)
        if "matrix" in document:  # a state file; the projector and instrument files are read below
            runs += [
                ["analyze", state], ["transform", state],
                ["transform", state, "--refactor", str(document["dim"])],
                ["transform", state, "--screen", "1", "--basis", "hadamard", "--out-state", str(out_state)],
                ["witness", state], ["bell", state],
                ["powers", state, "--projectors", str(SAMPLES / "qubit_two_bases.json")],
                ["instrument", state, "--instrument", str(SAMPLES / "measure_first_screen.json")],
            ]
    return runs


#: The code of the value base's methods, each entered for the class of the value it runs on.
_VALUE_CODES = {func.__code__ for func in vars(qlin._Value).values() if inspect.isfunction(func)}


def _entered(obj) -> set | None:
    """What a run enters when it uses ``obj``: a function's code, or a class itself, which a method of
    the value base enters on its values, and the code of the functions it defines (not those of enum
    or exception machinery); None for a module, which is entered by any of its functions."""
    if inspect.ismodule(obj):
        return None
    if inspect.isfunction(obj):
        return {obj.__code__}
    found = {obj}
    for value in vars(obj).values():
        func = getattr(value, "__func__", None) or getattr(value, "fget", None)
        func = func or getattr(value, "func", value)  # a method, property or cached property
        if inspect.isfunction(func) and func.__qualname__.startswith(obj.__qualname__ + "."):
            found.add(func.__code__)
    return found


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    """Each run in json and in text under ``sys.setprofile``: per run, the code objects entered, and
    per command, the reports printed and the error classes ``cli.main`` exits by."""
    from potentia import cli

    entered, printed, raised = {}, {}, {}
    for argv in _reach_runs(tmp_path_factory.mktemp("reach") / "state.json"):
        key = tuple(argv[:2])
        codes, errors = entered.setdefault(key, set()), raised.setdefault(argv[0], set())

        def profile(frame, event, arg):
            if event == "call":
                codes.add(frame.f_code)
                if frame.f_code in _VALUE_CODES:
                    codes.add(type(frame.f_locals["self"]))
            elif event == "c_call" and frame.f_code is cli.main.__code__ and "exc" in frame.f_locals:
                errors.add(type(frame.f_locals["exc"]))  # main prints the error it caught

        for form in ("json", "text"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                sys.setprofile(profile)
                try:
                    cli.main([*argv, "--format", form])
                finally:
                    sys.setprofile(None)
            printed[argv[0]] = printed.get(argv[0], "") + out.getvalue()
    return entered, printed, raised


def test_reach_table_rows_hold(reach):
    """Each row of ``REACH`` holds: a command row's command enters the export, a paper row's sample
    does under ``analyze``, and no command enters a library row's export, which its test names."""
    entered, printed, raised = reach
    by_command = {}
    for (command, _), codes in entered.items():
        by_command.setdefault(command, set()).update(codes)
    everything = set().union(*by_command.values())
    wrong = []
    for name, (use, where) in REACH.items():
        obj = getattr(potentia, name)
        own = _entered(obj)

        def enters(codes):
            if own is None:
                return any(getattr(c, "co_filename", None) == obj.__file__ and c.co_name != "<module>"
                           for c in codes)
            return bool(own & codes)

        if use == "command":
            held = enters(by_command[where])
        elif use == "paper":
            held = enters(entered["analyze", str(SAMPLES / "paper" / where)])
        elif use == "returned":
            held = any(member.value in printed[where] for member in obj)
        elif use == "raised":
            held = any(issubclass(error, obj) for error in raised[where])
        else:
            path, *test = where.split("::")
            tree = ast.parse(source := (ROOT / "tests" / path).read_text(encoding="utf-8"))
            for part in test:
                tree = next((n for n in tree.body if getattr(n, "name", None) == part), None)
                if tree is None:
                    break
            named = tree is not None and name in ast.get_source_segment(source, tree)
            held = named and not enters(everything)
        if not held:
            wrong.append(f"{name}: {use} {where}")
    assert not wrong, "reach rows that do not hold:\n" + "\n".join(wrong)

def _fresh(probe: str):
    """The JSON that ``probe`` prints last, run in a fresh interpreter: the test process has
    long imported every module, which would mask what a bare import or one command loads."""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh("import json, sys, potentia; print(json.dumps(sorted(sys.modules)))")
    assert "potentia" in loaded
    assert [m for m in loaded if m.startswith("potentia.") or m.split(".")[0] == "numpy"] == []


def test_star_import_and_dir_expose_every_public_name_and_submodule():
    listed, star, kinds = _fresh(
        "import json, types, potentia\n"
        "listed = dir(potentia)\n"
        f"kinds = [isinstance(getattr(potentia, m), types.ModuleType) for m in {SUBMODULES!r}]\n"
        "from potentia import *\n"
        "print(json.dumps([listed, sorted(globals()), kinds]))"
    )
    assert set(PUBLIC_NAMES) <= set(listed) and set(SUBMODULES) <= set(listed)
    assert set(PUBLIC_NAMES) <= set(star)
    assert all(kinds)


#: What every command loads: the CLI, its errors and tolerances, and the state-file reader.
_COMMAND_BASE = {"cli", "errors", "tolerances", "qlin", "states", "fileio"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["werner", "--p", "0.5"], {"entanglement", "bell"}),
        ([
            "transform", str(ROOT / "samples" / "worked_ea.json"), "--screen", "1",
            "--basis", "hadamard",
        ], {"arrangements"}),
        (["bell", str(ROOT / "samples" / "bell_phi_plus.json")], {"entanglement", "bell"}),
        (["witness", str(ROOT / "samples" / "bell_phi_plus.json")], {"entanglement"}),
        ([
            "powers", str(ROOT / "samples" / "zero_state.json"),
            "--projectors", str(ROOT / "samples" / "qubit_two_bases.json"),
        ], {"powers"}),
        ([
            "instrument", str(ROOT / "samples" / "bell_phi_plus.json"),
            "--instrument", str(ROOT / "samples" / "measure_first_screen.json"),
        ], {"locc"}),
        (["analyze", str(ROOT / "samples" / "werner_05.json")], {"arrangements", "entanglement", "bell"}),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else "+".join(sorted(value)),
)
def test_a_command_loads_only_the_modules_it_calls(argv, extra):
    """The exact ``potentia.*`` modules each subcommand loads: a state file is read with ``qlin``
    and ``states`` alone, and ``arrangements`` is loaded only by the commands that call it."""
    code, loaded = _fresh(
        "import json, sys\n"
        "from potentia.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    assert code == 0
    assert {m.removeprefix("potentia.") for m in loaded if m.startswith("potentia.")} == _COMMAND_BASE | extra


def test_readme_maps_every_paper_sample_to_its_claim():
    """Each file in ``samples/paper/`` has a row in README's "The paper's claims, computed",
    whose command is a golden command and whose golden report is the one stored for it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## The paper's claims, computed", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ") and "samples/paper/" in line]
    goldens = dict(zip(GOLDEN_FILES, GOLDEN_COMMANDS))
    samples = sorted((ROOT / "samples" / "paper").glob("*.json"))
    assert samples
    for sample in samples:
        name = f"samples/paper/{sample.name}"
        row = [line for line in rows if f"`{name}`" in line]
        assert len(row) == 1, f"{name} has {len(row)} rows in README's paper section"
        golden = re.search(r"`tests/golden/([\w.]+)`", row[0]).group(1)
        assert name in goldens[golden], f"{golden} is not the golden report of {name}"
        assert f"`potentia {' '.join(goldens[golden])}`" in row[0]


def test_readme_lists_every_tolerance_with_its_default():
    """README's table of ``--tol`` names is ``Tolerances``' annotated names, with their class defaults."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([0-9.e+-]+) \|", section, flags=re.MULTILINE)
    listed = {name: float(default) for name, default in rows}
    assert listed == {name: getattr(fileio.Tolerances, name) for name in fileio.Tolerances.__annotations__}
    assert len(rows) == len(listed)


def test_readme_lists_every_capacity_cap_with_its_value():
    """README's capacity list is the table of caps in ``tolerances``, with their values; the
    one cap it leaves out, ``FAMILY_SIZE_CAP``, bounds an enumeration and refuses nothing."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("Capacity errors (exit `4`)", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^- `tolerances\.(\w+)` = ([0-9 ]+):", section, flags=re.MULTILINE)
    listed = {name: int(value.replace(" ", "")) for name, value in rows}
    caps = {name for name in vars(tolerances) if name.endswith("_CAP")} - {"FAMILY_SIZE_CAP"}
    assert listed == {name: getattr(tolerances, name) for name in caps}
    assert len(rows) == len(listed)


def test_readme_library_example_states_true_values():
    """Runs README's library example; each line with a comment must evaluate
    to the value the comment states before any colon."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = 0
    for line in code.splitlines():
        statement, _, comment = line.partition("#")
        if not comment:
            exec(statement, namespace)
            continue
        value = eval(statement, namespace)
        stated = ast.literal_eval(comment.split(":", 1)[0].strip())
        if isinstance(stated, list):
            np.testing.assert_allclose(value, stated, atol=1e-12)
        else:
            assert value is None if stated is None else value == stated, line
        checked += 1
    assert checked == 4

"""The four benchmark workloads: seeded inputs, requests and reference checks.

Each workload builds one *round*: a list of request kinds that every round
repeats in a freshly seeded order.  Inputs are generated here with numpy
from the workload seed; the program only ever receives the generated arrays
and files.  Every check compares an output with a reference computed here
with plain numpy or known in closed form, never with potentia's own output
for the same question.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SQRT2 = np.sqrt(2.0)
TSIRELSON = 2.0 * SQRT2
# Inputs whose PPT margin is closer to the verdict threshold than this are
# redrawn, so a verdict never hinges on eigensolver rounding.
VERDICT_MARGIN = 1e-6


@dataclass
class Request:
    """One request kind.  A CLI request has ``args``; an in-process request
    has ``call``.  ``check`` maps the parsed report (CLI) or the call's
    result (in-process) to a list of problems; an empty list is a pass."""

    kind: str
    check: Callable[[object], list[str]]
    args: list[str] = field(default_factory=list)
    call: Callable[[], object] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    #: Nominal seconds per round: a run makes round(seconds / round_s)
    #: rounds, at least one.  Set near the round time on the reference box
    #: (2 cores, OpenBLAS 0.3.31).
    round_s: float
    build: Callable[[np.random.Generator, Path, Path, bool], list[Request]]


# ------------------------------------------------------------------ inputs


def wishart(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly Hermitian, unit-trace Wishart matrix of the given rank."""
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def named_basis(name: str, dim: int) -> np.ndarray:
    if name == "hadamard":
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / SQRT2
    k = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)


def matrix_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def json_matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def write_state(path: Path, m: np.ndarray, dims) -> Path:
    document = {
        "schema_version": "1",
        "dim": m.shape[0],
        "factorization": list(dims),
        "matrix": matrix_json(m),
    }
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def write_projectors(path: Path, rays: list[np.ndarray], labels: list[str]) -> Path:
    mats = [np.outer(v, v.conj()) / np.vdot(v, v).real for v in rays]
    document = {
        "schema_version": "1",
        "dim": len(rays[0]),
        "projectors": [{"label": l, "matrix": matrix_json(p)} for l, p in zip(labels, mats)],
    }
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def read_projectors(path: Path) -> dict[str, np.ndarray]:
    document = json.loads(path.read_text(encoding="utf-8"))
    return {p["label"]: json_matrix(p["matrix"]) for p in document["projectors"]}


def read_matrix(path: Path) -> np.ndarray:
    return json_matrix(json.loads(path.read_text(encoding="utf-8"))["matrix"])


# Cabello's 18 rays in C^4, nine orthogonal tetrads, each ray in two tetrads.
KS18 = (
    "0001 0010 1100 1-00 0100 1010 10-0 1-1- 1--1 0011 1111 010- 1001 100- "
    "01-0 11-1 111- -111"
).split()


def ks18_rays() -> list[np.ndarray]:
    digit = {"0": 0.0, "1": 1.0, "-": -1.0}
    return [np.array([digit[c] for c in ray], dtype=np.complex128) for ray in KS18]


def tomography_rays(dim: int) -> tuple[list[np.ndarray], list[str]]:
    eye = np.eye(dim, dtype=np.complex128)
    rays, labels = list(eye), [f"e{a}" for a in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            rays += [eye[a] + eye[b], eye[a] + 1j * eye[b]]
            labels += [f"re{a}{b}", f"im{a}{b}"]
    return rays, labels


# -------------------------------------------------------------- references


def close(what: str, got, want, tol: float) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    gap = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if gap <= tol else [f"{what}: off by {gap:.3e} (> {tol:g})"]


def expect(what: str, ok: bool) -> list[str]:
    return [] if ok else [what]


def pt_min(m: np.ndarray, dims) -> float:
    a, b = dims
    t = m.reshape(a, b, a, b).transpose(0, 3, 2, 1).reshape(a * b, a * b)
    return float(np.linalg.eigvalsh(t)[0])


def ppt_verdict(margin: float, dims) -> str:
    if margin < -1e-9:
        return "Entangled"
    return "Separable" if tuple(dims) in {(2, 2), (2, 3), (3, 2)} else "Inconclusive"


def chsh_reference(m: np.ndarray) -> float:
    """Horodecki closed form 2 sqrt(s1^2 + s2^2) from the correlation tensor."""
    paulis = (
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    )
    t = np.array([[np.trace(m @ np.kron(a, b)).real for b in paulis] for a in paulis])
    s = np.linalg.svd(t, compute_uv=False)
    return float(2.0 * np.sqrt(s[0] ** 2 + s[1] ** 2))


def local_diagonal(m: np.ndarray, dims, screen: int, v: np.ndarray) -> np.ndarray:
    """Detector intensities after rotating one screen by ``v``."""
    factors = [np.eye(d) for d in dims]
    factors[screen] = v
    u = factors[0]
    for f in factors[1:]:
        u = np.kron(u, f)
    return np.real(np.einsum("ji,jk,ki->i", u.conj(), m, u))


def bipartite_state(dims, rank: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Wishart state whose partial transpose is clearly negative or clearly
    not, with its minimum partial-transpose eigenvalue."""
    while True:
        m = wishart(int(np.prod(dims)), rank, rng)
        margin = pt_min(m, dims)
        if abs(margin) > VERDICT_MARGIN:
            return m, margin


# --------------------------------------------------------------- checks


def check_analyze(m: np.ndarray, dims) -> Callable[[dict], list[str]]:
    spectrum = np.sort(np.linalg.eigvalsh(m))[::-1]
    margin = pt_min(m, dims) if len(dims) == 2 else None
    chsh = chsh_reference(m) if tuple(dims) == (2, 2) else None

    def check(doc):
        r = doc["results"]
        problems = close("spectrum", r["spectrum"], spectrum, 1e-8)
        problems += close("spectrum sum", sum(r["spectrum"]), 1.0, 1e-8)
        problems += close("intensities", r["intensities"], np.real(np.diag(m)), 1e-9)
        problems += close("intensity sum", sum(r["intensities"]), 1.0, 1e-8)
        if margin is not None:
            ppt = r["verdicts"]["ppt"]
            problems += expect(f"ppt verdict {ppt['verdict']}", ppt["verdict"] == ppt_verdict(margin, dims))
            problems += close("ppt evidence", ppt["evidence"], margin, 1e-8)
        if chsh is not None:
            problems += close("chsh_max", r["chsh_max"], chsh, 1e-8)
        return problems

    return check


def check_transform(m: np.ndarray, dims, screen: int, v: np.ndarray, out: Path | None):
    before = np.real(np.diag(m))
    after = local_diagonal(m, dims, screen, v)

    def check(doc):
        r = doc["results"]
        problems = expect("transform not equivalent", r["equivalent"] is True)
        problems += close("before_intensities", r["before_intensities"], before, 1e-9)
        problems += close("after_intensities", r["after_intensities"], after, 1e-8)
        problems += close("after sum", sum(r["after_intensities"]), 1.0, 1e-8)
        if out is not None:
            written = json.loads(out.read_text(encoding="utf-8"))
            problems += close("written state", json_matrix(written["matrix"]), m, 1e-12)
            problems += close("written basis", json_matrix(written["bases"][screen]), v, 1e-12)
            out.unlink()
        return problems

    return check


def check_witness(margin: float):
    def check(doc):
        r = doc["results"]
        problems = close("witness on its state", r["expectation_on_state"], margin, 1e-8)
        problems += expect("witness not negative on its state", r["expectation_on_state"] < 0)
        worst = r["product_check"]["min_expectation"]
        problems += expect(f"witness {worst} < -1e-9 on a product", worst >= -1e-9)
        return problems

    return check


def check_powers(rho: np.ndarray, projectors: dict[str, np.ndarray]):
    born = {label: float(np.trace(rho @ p).real) for label, p in projectors.items()}
    born["I"] = 1.0

    def check(doc):
        r = doc["results"]
        got = dict(r["potentia"])
        problems = expect("node labels", set(got) == set(born))
        if not problems:
            problems += close("potentia", [got[l] for l in born], list(born.values()), 1e-10)
            bits = dict(r["actualization"])
            problems += expect("actualization", all(bits[l] == int(born[l] > 1e-10) for l in born))
        axioms = r["axioms"]
        problems += expect("identity axiom", axioms["identity_ok"] is True)
        problems += expect("additivity violated", axioms["additivity_violations"] == [])
        return problems

    return check


def werner_region(p: float) -> str:
    if p < 1 / 3:
        return "Separable"
    return "Nonlocal" if p > 1 / SQRT2 else "EntangledLocal"


def check_werner_point(p: float):
    def check(doc):
        r = doc["results"]
        problems = expect(f"werner region {r['region']}", r["region"] == werner_region(p))
        problems += close("werner chsh", r["chsh_max"], TSIRELSON * p, 1e-9)
        problems += close("werner pt minimum", r["min_pt_eigenvalue"], (1 - 3 * p) / 4, 1e-9)
        return problems

    return check


def check_werner_scan(doc):
    r = doc["results"]
    problems = close("ppt boundary", r["boundaries"]["ppt"], 1 / 3, 1e-6)
    problems += close("chsh boundary", r["boundaries"]["chsh"], 1 / SQRT2, 1e-6)
    return problems + expect("scan rows", len(r["rows"]) == r["scan"]["steps"])


def check_bell(doc):
    r = doc["results"]
    problems = close("chsh_max(phi+)", r["chsh_max"], TSIRELSON, 1e-9)
    problems += close("chsh at setting", r["chsh_at_setting"], TSIRELSON, 1e-9)
    return problems + expect("phi+ region", r["region"] == "Nonlocal")


def check_instrument(rho: np.ndarray, branches: list[list[np.ndarray]]):
    probabilities = [sum(np.trace(k @ rho @ k.conj().T).real for k in kraus) for kraus in branches]

    def check(doc):
        r = doc["results"]
        problems = expect("instrument invalid", r["valid"] is True)
        got = [b["probability"] for b in r.get("branches", [])]
        problems += close("branch probabilities", got, probabilities, 1e-10)
        return problems + close("probability sum", sum(got), 1.0, 1e-10)

    return check


# ----------------------------------------------------------------- cli_desk


def build_cli_desk(rng, root: Path, tmp: Path, smoke: bool) -> list[Request]:
    samples = root / "samples"
    werner_05 = read_matrix(samples / "werner_05.json")
    phi = read_matrix(samples / "bell_phi_plus.json")
    instrument = json.loads((samples / "measure_first_screen.json").read_text(encoding="utf-8"))
    kraus = [[json_matrix(k) for k in b["kraus"]] for b in instrument["branches"]]
    zero = read_matrix(samples / "zero_state.json")
    worked = read_matrix(samples / "worked_ea.json")

    rho4, _ = bipartite_state((2, 2), 2, rng)
    state4 = write_state(tmp / "dim4.json", rho4, (2, 2))
    ks_file = write_projectors(tmp / "ks18.json", ks18_rays(), [f"k{i}" for i in range(len(KS18))])
    tomo_file = write_projectors(tmp / "tomography4.json", *tomography_rays(4))
    p = float(rng.choice([rng.uniform(0.05, 0.3), rng.uniform(0.36, 0.68), rng.uniform(0.74, 0.97)]))

    def analyze(name, dims, rank):
        m, _ = bipartite_state(dims, rank, rng)
        path = write_state(tmp / f"{name}.json", m, dims)
        return Request(f"analyze_{name}", check_analyze(m, dims), ["analyze", str(path)])

    werner_05_analysis = check_analyze(werner_05, (2, 2))

    def werner_05_check(doc):
        region = doc["results"]["region"]
        return werner_05_analysis(doc) + expect(f"werner 0.5 region {region}", region == "EntangledLocal")

    hadamard = named_basis("hadamard", 2)
    requests = [
        Request("golden_analyze", werner_05_check, ["analyze", "samples/werner_05.json"]),
        Request(
            "golden_transform",
            check_transform(worked, (2, 2), 0, hadamard, None),
            ["transform", "samples/worked_ea.json", "--screen", "1", "--basis", "hadamard"],
        ),
        Request(
            "golden_powers",
            check_powers(zero, read_projectors(samples / "qubit_two_bases.json")),
            ["powers", "samples/zero_state.json", "--projectors", "samples/qubit_two_bases.json"],
        ),
        Request("golden_werner_scan", check_werner_scan, ["werner", "--scan", "0,1,101"]),
        Request(
            "witness_phi_plus",
            check_witness(pt_min(phi, (2, 2))),
            ["witness", "samples/bell_phi_plus.json", "--seed", str(int(rng.integers(1 << 30)))],
        ),
        Request("bell_phi_plus", check_bell, ["bell", "samples/bell_phi_plus.json"]),
        Request(
            "instrument",
            check_instrument(phi, kraus),
            ["instrument", "samples/bell_phi_plus.json", "--instrument", "samples/measure_first_screen.json"],
        ),
        Request("werner_point", check_werner_point(p), ["werner", "--p", repr(p)]),
        Request(
            "powers_ks18",
            check_powers(rho4, read_projectors(ks_file)),
            ["powers", str(state4), "--projectors", str(ks_file)],
        ),
        Request(
            "powers_tomography4",
            check_powers(rho4, read_projectors(tomo_file)),
            ["powers", str(state4), "--projectors", str(tomo_file)],
        ),
        analyze("2x2", (2, 2), 2),
        analyze("2x3", (2, 3), 6),
        analyze("3x3", (3, 3), 1),
    ]
    for request in requests:
        request.args += ["--format", "json"]
    return requests


# --------------------------------------------------------------- state_files


def build_state_files(rng, root: Path, tmp: Path, smoke: bool) -> list[Request]:
    small, large = (16, 32) if smoke else (256, 512)
    requests = []

    def state(name, dims, rank):
        m, margin = bipartite_state(dims, rank, rng)
        return m, margin, write_state(tmp / f"{name}.json", m, dims)

    for name, dims in (("a", (2, small // 2)), ("b", (4, small // 4)), ("c", (2, large // 2))):
        m, _, path = state(name, dims, dims[0] * dims[1])
        requests.append(Request(f"analyze_{dims[0]}x{dims[1]}", check_analyze(m, dims), ["analyze", str(path)]))
        if name == "c":
            continue
        screen, basis = (0, "hadamard") if dims[0] == 2 else (1, "fourier")
        v = named_basis(basis, dims[screen])
        out = tmp / f"{name}_out.json"
        requests.append(
            Request(
                f"transform_{dims[0]}x{dims[1]}",
                check_transform(m, dims, screen, v, out),
                ["transform", str(path), "--screen", str(screen + 1), "--basis", basis, "--out-state", str(out)],
            )
        )
    dims = (2, small // 4)
    m, margin, path = state("w", dims, 1)
    requests.append(Request(f"witness_{dims[0]}x{dims[1]}", check_witness(margin), ["witness", str(path)]))
    requests.append(Request(f"analyze_pure_{dims[0]}x{dims[1]}", check_analyze(m, dims), ["analyze", str(path)]))
    for request in requests:
        request.args += ["--format", "json"]
    return requests


# ------------------------------------------------------- arrangements_scale

LAYOUTS = ((2, 3, 4, 5, 6), (3,) * 6, (4, 4, 6, 6), (2,) * 9, (4,) * 4, (3,) * 5, (6,) * 3)
SMOKE_LAYOUTS = ((2, 3), (2, 2, 2), (3, 2))


def screen_marginal(m: np.ndarray, dims, screen: int) -> np.ndarray:
    n = len(dims)
    t = m.reshape(tuple(dims) * 2)
    rows = list(range(n))
    cols = [k + n if k == screen else k for k in range(n)]
    return np.einsum(t, rows + cols, [screen, screen + n])


def build_arrangements(rng, root: Path, tmp: Path, smoke: bool) -> list[Request]:
    import potentia as P

    requests = []
    for dims in SMOKE_LAYOUTS if smoke else LAYOUTS:
        n = int(np.prod(dims))
        m = wishart(n, n, rng)
        bases = [haar_unitary(d, rng) for d in dims]
        screens = sorted({0, len(dims) // 2, len(dims) - 1})
        changes = {s: haar_unitary(dims[s], rng) for s in screens}
        current = [b @ changes.get(k, np.eye(d)) for k, (b, d) in enumerate(zip(bases, dims))]
        index = [int(rng.integers(d)) for d in dims]
        kept = [list(range(max(1, d // 2))) for d in dims]
        flat = int(np.ravel_multi_index(index, dims))
        column = current[0][:, index[0]]
        for b, i in zip(current[1:], index[1:]):
            column = np.kron(column, b[:, i])
        intensity = float(np.real(np.vdot(column, m @ column)))
        marginals = [
            float(np.real(np.vdot(b[:, i], screen_marginal(m, dims, k) @ b[:, i])))
            for k, (b, i) in enumerate(zip(current, index))
        ]

        def call(dims=dims, m=m, bases=bases, changes=changes, index=index, kept=kept):
            rho = P.DensityOperator(m)
            ea = P.make_ea(rho, P.Factorization(dims), P.DetectorBasis(tuple(bases)))
            changed = ea
            for screen, v in changes.items():
                changed = P.change_detectors(changed, screen, v)
            refactored = P.refactor(changed, P.Factorization(dims[::-1]))
            return {
                "ea": ea,
                "changed": changed,
                "equivalent": P.ea_equivalent(ea, changed),
                "refactored_equivalent": P.ea_equivalent(ea, refactored),
                "restricted": P.restrict(changed, kept),
                "effect": P.multiscreen_effect(changed, index),
            }

        def check(r, flat=flat, intensity=intensity, marginals=marginals, kept=kept):
            problems = expect("not equivalent after detector changes", r["equivalent"] is True)
            problems += expect("not equivalent after refactor", r["refactored_equivalent"] is True)
            for key in ("ea", "changed"):
                problems += close(f"{key} intensity sum", np.trace(r[key].matrix).real, 1.0, 1e-8)
            problems += close("power intensity", r["changed"].matrix[flat, flat].real, intensity, 1e-9)
            problems += close("multiscreen effect", r["effect"], marginals, 1e-9)
            restricted = r["restricted"]
            problems += close("restricted trace", np.trace(restricted.matrix).real, 1.0, 1e-9)
            problems += expect(
                "restricted layout",
                restricted.factorization.screen_dims == tuple(len(k) for k in kept),
            )
            return problems

        requests.append(Request("x".join(map(str, dims)), check, call=call))
    return requests


# ---------------------------------------------------------- powers_families

UNIONS = ((3, 5), (4, 4), (5, 3), (6, 3), (4, 3))
SMOKE_UNIONS = ((3, 3),)


def build_powers(rng, root: Path, tmp: Path, smoke: bool) -> list[Request]:
    import potentia as P
    from potentia import families

    def request(kind, make_nodes, dim, bases, reconstruct, binary_exists):
        """``bases`` lists node-index groups that are complete orthonormal
        bases; an admissible binary valuation marks one node in each."""
        rho = wishart(dim, dim, rng)

        def call():
            graph = P.build_graph(make_nodes())
            valuation = P.isa_from_density(P.DensityOperator(rho), graph)
            return {
                "graph": graph,
                "valuation": valuation,
                "contexts": P.maximal_contexts(graph),
                "axioms": P.check_isa_axioms(valuation),
                "actual": P.actualization_map(valuation),
                "binary": P.find_additive_binary_valuation(graph),
                "rho": P.reconstruct_density(valuation) if reconstruct else None,
            }

        def check(r):
            graph = r["graph"]
            mats = [node.projector for node in graph.nodes]
            born = np.array([np.trace(rho @ p).real for p in mats])
            problems = close("Born values", r["valuation"].potentia, born, 1e-10)
            problems += expect("actualization", bool(np.all(r["actual"] == (born > 1e-10))))
            problems += expect("intensive axioms", r["axioms"].ok)
            for context in r["contexts"]:
                members = context.sorted()
                problems += expect(
                    "context members do not commute",
                    all(
                        np.max(np.abs(mats[a] @ mats[b] - mats[b] @ mats[a])) <= 1e-8
                        for a in members
                        for b in members
                    ),
                )
            binary = r["binary"]
            if not binary_exists:
                problems += expect("KS18 admits a binary valuation", binary is None)
            elif binary is None:
                problems.append("no binary valuation found")
            else:
                problems += expect("identity not 1", binary[graph.identity_index] == 1)
                for group in bases:
                    problems += expect("basis without exactly one 1", sum(binary[i] for i in group) == 1)
            if reconstruct:
                problems += close("reconstructed state", r["rho"].matrix, rho, 1e-8)
            return problems

        return Request(kind, check, call=call)

    requests = [
        request("ks18", lambda: families.ks18_family(), 4, [], False, False),
        request("qubit_mubs", lambda: families.qubit_mub_family(), 2, [(0, 1), (2, 3), (4, 5)], True, True),
    ]
    for dim in (2, 3) if smoke else (3, 4):
        requests.append(
            request(f"tomography{dim}", lambda d=dim: families.tomography_family(d), dim, [tuple(range(dim))], True, True)
        )
    for dim, count in SMOKE_UNIONS if smoke else UNIONS:
        mats, labels, groups = [], [], []
        for b in range(count):
            u = haar_unitary(dim, rng)
            groups.append(tuple(range(len(mats), len(mats) + dim)))
            for k in range(dim):
                mats.append(np.outer(u[:, k], u[:, k].conj()))
                labels.append(f"b{b}r{k}")
            mats.append(mats[groups[-1][0]] + mats[groups[-1][1]])
            labels.append(f"b{b}s01")

        def make_nodes(mats=mats, labels=labels):
            return [P.PowerNode(m, l) for m, l in zip(mats, labels)]

        requests.append(request(f"union_d{dim}_b{count}", make_nodes, dim, groups, False, True))
    return requests


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_desk", False, 5.8, build_cli_desk),
        Workload("state_files", False, 7.5, build_state_files),
        Workload("arrangements_scale", True, 5.0, build_arrangements),
        Workload("powers_families", True, 0.25, build_powers),
    )
}

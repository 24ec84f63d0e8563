"""Command-line front end.

Subcommands: analyze, transform, powers, werner, witness, bell, instrument.
Reports are deterministic: identical inputs and seeds produce byte-identical
output.  Exit codes: 0 success, 2 parse error, 3 validation error,
4 capacity error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__, arrangements, bell, entanglement, fileio, locc, powers, qlin, states
from .arrangements import DetectorBasis, Factorization
from .errors import (
    CapacityError,
    DomainError,
    ParseError,
    PotentiaError,
    ValidationError,
)
from .fileio import Tolerances

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAPACITY = 4

NAMED_BASES = ("computational", "hadamard", "fourier")

#: Refactoring needs detector bases within this of the identity, entrywise.
IDENTITY_TOL = 1e-12
BISECT_TOL = 1e-9
#: Most grid points one ``werner --scan`` evaluates.
SCAN_STEPS_CAP = 100_000


def _digest_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report(command: str, digests: dict, results: dict) -> dict:
    return {
        "tool": "potentia",
        "version": __version__,
        "command": command,
        "input_digest": digests,
        "results": results,
    }


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return "null"
    return str(value)


def render_text(document: dict) -> str:
    """Deterministic line-oriented rendering of a report dictionary."""
    lines: list[str] = []

    def walk(node, prefix: str):
        if isinstance(node, dict):
            for key in sorted(node):
                value = node[key]
                if isinstance(value, (dict, list)):
                    lines.append(f"{prefix}{key}:")
                    walk(value, prefix + "  ")
                else:
                    lines.append(f"{prefix}{key}: {_fmt(value)}")
        elif isinstance(node, list):
            if all(not isinstance(item, (dict, list)) for item in node):
                lines.append(prefix + "[" + ", ".join(_fmt(item) for item in node) + "]")
            else:
                for item in node:
                    lines.append(prefix + "-")
                    walk(item, prefix + "  ")
        else:
            lines.append(prefix + _fmt(node))

    walk(document, "")
    return "\n".join(lines) + "\n"


def _emit(args, report: dict) -> None:
    text = fileio.render_json(report) if args.format == "json" else render_text(report)
    if args.out:
        fileio._write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _assignment(flag: str, what: str, assignment: str) -> tuple[str, float]:
    """``(name, value)`` of a ``flag`` value written ``what=value``; the name is stripped."""
    if "=" not in assignment:
        raise ParseError(f"{flag} expects {what}=value, got {assignment!r}")
    name, _, raw_value = assignment.partition("=")
    try:
        return name.strip(), float(raw_value)
    except ValueError:
        raise ParseError(f"{flag} {name}: {raw_value!r} is not a number")


def _tolerances(args) -> Tolerances:
    tols = Tolerances()
    if args.config:
        raw = fileio._load_json(args.config)[0].get("tolerances", {})
        if not isinstance(raw, dict):
            raise ParseError(f"{args.config}: 'tolerances' must be an object")
        tols = Tolerances.from_config(raw)
    for assignment in args.tol or ():
        tols.override(*_assignment("--tol", "name", assignment))
    return tols


def _float_list(values) -> list[float]:
    return [float(v) for v in np.asarray(values).reshape(-1)]


def _verdict_payload(verdict: entanglement.SeparabilityVerdict) -> dict:
    return {
        "verdict": verdict.verdict.value,
        "criterion": verdict.criterion,
        "evidence": float(verdict.evidence),
    }


# ---------------------------------------------------------------- analyze


def _analysis_results(state: fileio.StateFile, tols: Tolerances) -> dict:
    density = state.density
    ea = arrangements.make_ea(density, state.factorization, state.basis)
    pure = states.abstract_purity(density, tols.purity)
    results: dict = {
        "dim": density.dim,
        "factorization": list(state.factorization.screen_dims),
        "spectrum": _float_list(density.eigenvalues[::-1]),
        "purity": {
            "abstract": pure,
            "operational": bool(np.real(np.diag(ea.matrix)).max() >= 1.0 - tols.purity),
            "operational_exists": states.operational_purity_exists(density, tols.purity),
        },
        "entropy_bits": entanglement.von_neumann_entropy(density),
        "intensities": _float_list(ea.intensities()),
    }
    if state.label:
        results["label"] = state.label
    if density.dim == 2:
        point = states.bloch_from_density(density)
        results["bloch"] = {"x": point.x, "y": point.y, "z": point.z}
    if state.factorization.screens == 2:
        dims = state.factorization.screen_dims
        ppt = entanglement.ppt_criterion(density, dims, tols.verdict)
        majorization, entropy = entanglement._marginal_verdicts(density, dims, tols.verdict)
        results["verdicts"] = {
            "ppt": _verdict_payload(ppt),
            "majorization": _verdict_payload(majorization),
            "entropy": _verdict_payload(entropy),
        }
        if pure:
            # One power step from the column of the largest diagonal entry gives the vector.
            column = density.matrix[:, int(np.argmax(np.real(np.diag(density.matrix))))]
            results["schmidt_coefficients"] = _float_list(
                entanglement.schmidt(states.PureVector.normalized(density.matrix @ column), dims)
            )
        if dims == (2, 2):
            chsh = bell.chsh_max(density).value
            results["chsh_max"] = chsh
            results["region"] = bell._region(ppt, chsh).value
    return results


def cmd_analyze(args, tols: Tolerances) -> dict:
    state = fileio.load_state(args.state, tols)
    return _report("analyze", {"state": state.digest}, _analysis_results(state, tols))


# ---------------------------------------------------------------- transform


def _named_basis(name: str, dim: int) -> np.ndarray:
    if name == "computational":
        return np.eye(dim, dtype=np.complex128)
    if name == "hadamard":
        if dim != 2:
            raise ValidationError(f"hadamard basis is two-dimensional, screen has dim {dim}")
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    if name == "fourier":
        indices = np.arange(dim)
        return np.exp(2j * np.pi * np.outer(indices, indices) / dim) / np.sqrt(dim)
    raise ParseError(f"unknown basis {name!r}; named bases: {', '.join(NAMED_BASES)}")


def _basis_arg(source: str, dim: int) -> tuple[np.ndarray, str | None]:
    """The basis matrix, and the digest of its file when ``source`` names one."""
    if source in NAMED_BASES or not Path(source).exists():
        return _named_basis(source, dim), None
    document, digest = fileio._load_json(source)
    matrix = fileio.matrix_from_json(
        fileio._require(document, "matrix", list, source), f"{source}.matrix"
    )
    if matrix.shape != (dim, dim):
        raise ValidationError(f"{source}: basis shape {matrix.shape} does not match screen dim {dim}")
    return matrix, digest


def cmd_transform(args, tols: Tolerances) -> dict:
    if args.refactor and (args.screen is not None or args.basis):
        raise ParseError("--refactor and --screen/--basis are mutually exclusive")
    if (args.screen is None) != (not args.basis):
        raise ParseError("--basis needs --screen" if args.basis else "--screen needs --basis")
    try:
        dims = tuple(int(part) for part in args.refactor.split(",")) if args.refactor else None
    except ValueError:
        raise ParseError(f"--refactor expects comma-separated integers, got {args.refactor!r}")
    state = fileio.load_state(args.state, tols)
    digests = {"state": state.digest}
    ea = arrangements.make_ea(state.density, state.factorization, state.basis)
    results: dict = {"before_intensities": _float_list(ea.intensities())}

    out_factorization = state.factorization
    out_screens = list(state.basis.screens)
    if args.refactor:
        identity_like = all(
            qlin.max_abs(screen - np.eye(screen.shape[0])) < IDENTITY_TOL for screen in out_screens
        )
        if not identity_like:
            raise ValidationError(
                "refactor of a file with non-computational detector bases cannot be "
                "expressed in the state-file schema; change detectors back first"
            )
        transformed = arrangements.refactor(ea, Factorization(dims))
        out_factorization = transformed.factorization
        out_screens = list(DetectorBasis.computational(out_factorization).screens)
        results["transform"] = {"refactor": list(dims)}
    elif args.screen is not None:
        screen = args.screen - 1
        if not 0 <= screen < state.factorization.screens:
            raise ValidationError(
                f"screen {args.screen} out of range 1..{state.factorization.screens}"
            )
        new_basis, basis_digest = _basis_arg(args.basis, state.factorization.screen_dims[screen])
        if basis_digest:
            digests["basis"] = basis_digest
        transformed = arrangements.change_detectors(ea, screen, new_basis)
        out_screens[screen] = out_screens[screen] @ new_basis
        results["transform"] = {"screen": args.screen, "basis": args.basis}
    else:
        transformed = ea
        results["transform"] = {"identity": True}

    results["after_intensities"] = _float_list(transformed.intensities())
    results["equivalent"] = arrangements.ea_equivalent(ea, transformed, tols.equivalence)
    results["degree"] = transformed.degree

    if args.out_state:
        emit_factorization = state.has_explicit_factorization or bool(args.refactor)
        # Refactored layouts start from computational detectors.
        emit_bases = not args.refactor and (state.has_explicit_bases or args.screen is not None)
        document = fileio.state_document(
            state.density,
            out_factorization if emit_factorization else None,
            DetectorBasis(tuple(out_screens)) if emit_bases else None,
            state.label,
        )
        fileio.dump_state(args.out_state, document)
        results["state_written"] = args.out_state
    return _report("transform", digests, results)


# ---------------------------------------------------------------- powers


def cmd_powers(args, tols: Tolerances) -> dict:
    overrides = [_assignment("--override", "label", pair) for pair in args.override or ()]
    state = fileio.load_state(args.state, tols)
    nodes, projectors_digest = fileio.load_projectors(args.projectors)
    graph = powers.build_graph(nodes)
    valuation = powers.isa_from_density(state.density, graph)
    labels = [node.label for node in graph.nodes]

    if overrides:
        values = np.array(valuation.potentia)
        for key, value in overrides:
            if key in labels:
                values[labels.index(key)] = value
            else:
                try:
                    index = int(key)
                except ValueError:
                    raise ValidationError(f"--override: no node labelled {key!r}")
                if not 0 <= index < len(labels):
                    raise ValidationError(f"--override: node index {index} out of range")
                values[index] = value
        valuation = powers.ISAValuation(graph, values)

    contexts = powers.maximal_contexts(graph)
    report = powers.check_isa_axioms(valuation, tols.axioms)
    actual = powers.actualization_map(valuation, tols.zero)
    results = {
        "dim": graph.dim,
        "nodes": labels,
        "edge_count": len(graph.edges),
        "maximal_contexts": [[labels[i] for i in ctx.sorted()] for ctx in contexts],
        "potentia": [[labels[i], float(v)] for i, v in enumerate(valuation.potentia)],
        "axioms": {
            "identity_ok": report.identity_ok,
            "identity_value": report.identity_value,
            "additivity_violations": [
                {
                    "family": [labels[i] for i in violation.family],
                    "sum_node": labels[violation.sum_node],
                    "member_total": violation.member_total,
                    "sum_value": violation.sum_value,
                }
                for violation in report.additivity_violations
            ],
        },
        "actualization": [[labels[i], int(bit)] for i, bit in enumerate(actual)],
    }
    return _report("powers", {"state": state.digest, "projectors": projectors_digest}, results)


# ---------------------------------------------------------------- werner


def _bisect(func, lo: float, hi: float) -> float | None:
    f_lo, f_hi = func(lo), func(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        return None
    while hi - lo > BISECT_TOL:
        mid = (lo + hi) / 2.0
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return (lo + hi) / 2.0


def _werner_row(p: float, tols: Tolerances) -> dict:
    rho = entanglement.werner(p)
    ppt = entanglement.ppt_criterion(rho, (2, 2), tols.verdict)
    chsh = bell.chsh_max(rho).value
    return {
        "p": p,
        "min_pt_eigenvalue": ppt.evidence,
        "chsh_max": chsh,
        "region": bell._region(ppt, chsh).value,
        "entropy_bits": entanglement.von_neumann_entropy(rho),
    }


def cmd_werner(args, tols: Tolerances) -> dict:
    if args.p is None and not args.scan:
        raise ParseError("werner needs --p or --scan")
    if args.p is not None and args.scan:
        raise ParseError("--p and --scan are mutually exclusive")
    if args.p is not None:
        digest = _digest_text(f"werner p={args.p!r}")
        return _report("werner", {"parameters": digest}, _werner_row(float(args.p), tols))

    parts = args.scan.split(",")
    if len(parts) != 3:
        raise ParseError(f"--scan expects from,to,steps, got {args.scan!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(f"--scan expects numbers, got {args.scan!r}")
    if not (0.0 <= lo < hi <= 1.0):
        raise DomainError(f"scan range [{lo}, {hi}] must lie inside [0, 1]")
    if steps < 2:
        raise DomainError("scan needs at least 2 steps")
    if steps > SCAN_STEPS_CAP:
        raise CapacityError(f"scan of {steps} steps exceeds the cap of {SCAN_STEPS_CAP}")

    grid = np.linspace(lo, hi, steps)
    rows = [_werner_row(float(p), tols) for p in grid]
    ppt_boundary = _bisect(
        lambda p: entanglement.min_pt_eigenvalue(entanglement.werner(p), (2, 2)), lo, hi
    )
    chsh_boundary = _bisect(
        lambda p: bell.chsh_max(entanglement.werner(p)).value - bell.CLASSICAL_BOUND, lo, hi
    )
    results = {
        "scan": {"from": lo, "to": hi, "steps": steps},
        "rows": rows,
        "boundaries": {"ppt": ppt_boundary, "chsh": chsh_boundary},
    }
    digest = _digest_text(f"werner scan={lo!r},{hi!r},{steps}")
    return _report("werner", {"parameters": digest}, results)


# ---------------------------------------------------------------- witness


def cmd_witness(args, tols: Tolerances) -> dict:
    entanglement._require_samples(args.samples)
    state = fileio.load_state(args.state, tols)
    if state.factorization.screens != 2:
        raise ValidationError(
            f"witness construction needs a bipartite factorization, got "
            f"{list(state.factorization.screen_dims)}"
        )
    dims = state.factorization.screen_dims
    witness = entanglement.witness_from_entangled(state.density, dims, tols.verdict)
    worst = entanglement.check_witness_on_products(
        witness, dims, samples=args.samples, seed=args.seed
    )
    results = {
        "dims": list(dims),
        "witness_matrix": fileio.matrix_to_json(witness.matrix),
        "expectation_on_state": witness.expectation(state.density),
        "min_pt_eigenvalue": witness.min_pt_eigenvalue,
        "product_check": {
            "samples": args.samples,
            "seed": args.seed,
            "min_expectation": worst,
        },
    }
    return _report("witness", {"state": state.digest}, results)


# ---------------------------------------------------------------- bell


def cmd_bell(args, tols: Tolerances) -> dict:
    state = fileio.load_state(args.state, tols)
    if state.factorization.screen_dims != (2, 2):
        raise ValidationError(
            f"CHSH analysis needs factorization [2, 2], got {list(state.factorization.screen_dims)}"
        )
    density = state.density
    correlations = bell.correlation_matrix(density)
    best = bell.chsh_max(density)
    ppt = entanglement.ppt_criterion(density, (2, 2), tols.verdict)
    results = {
        "correlation_matrix": [list(map(float, row)) for row in correlations.t],
        "chsh_max": best.value,
        "chsh_at_setting": bell.chsh_value(density, best.setting),
        "setting": {
            "a": _float_list(best.setting.a),
            "a_prime": _float_list(best.setting.a_prime),
            "b": _float_list(best.setting.b),
            "b_prime": _float_list(best.setting.b_prime),
        },
        "region": bell._region(ppt, best.value).value,
    }
    return _report("bell", {"state": state.digest}, results)


# ---------------------------------------------------------------- instrument


def cmd_instrument(args, tols: Tolerances) -> dict:
    state = fileio.load_state(args.state, tols)
    instrument, instrument_digest = fileio.load_instrument(args.instrument)
    valid = locc.is_valid_instrument(instrument)
    results: dict = {"valid": valid, "branch_count": len(instrument.branches)}
    if valid:
        outcomes = locc.apply_instrument(instrument, state.density)
        results["branches"] = [
            {
                "probability": outcome.probability,
                "post_state": (
                    fileio.matrix_to_json(outcome.post_state.matrix)
                    if outcome.post_state is not None
                    else None
                ),
            }
            for outcome in outcomes
        ]
    return _report("instrument", {"state": state.digest, "instrument": instrument_digest}, results)


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override a named tolerance (repeatable)")
    common.add_argument("--config", help="JSON config file with a 'tolerances' object")
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="report format (default text)")
    common.add_argument("--out", help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="potentia",
        description="Analyze quantum states as intensive valuations: purity, "
        "powers graphs, experimental arrangements, entanglement criteria.",
    )
    parser.add_argument("--version", action="version", version=f"potentia {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", parents=[common], help="full state analysis")
    p.add_argument("state", help="state file (JSON)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", parents=[common],
                       help="change detectors or refactor screens")
    p.add_argument("state", help="state file (JSON)")
    p.add_argument("--screen", type=int, help="1-based screen to re-detector")
    p.add_argument("--basis", help="named basis (computational|hadamard|fourier) or JSON file")
    p.add_argument("--refactor", metavar="DIMS", help="comma-separated new screen dims")
    p.add_argument("--out-state", help="write the transformed state file here")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("powers", parents=[common],
                       help="powers-graph valuation and axiom check")
    p.add_argument("state", help="state file (JSON)")
    p.add_argument("--projectors", required=True, help="projector family file (JSON)")
    p.add_argument("--override", action="append", metavar="LABEL=VALUE",
                   help="inject a potentia value before the axiom check (repeatable)")
    p.set_defaults(func=cmd_powers)

    p = sub.add_parser("werner", parents=[common], help="Werner-line classification")
    p.add_argument("--p", type=float, help="single mixing parameter in [0, 1]")
    p.add_argument("--scan", metavar="FROM,TO,STEPS", help="scan the parameter range")
    p.set_defaults(func=cmd_werner)

    p = sub.add_parser("witness", parents=[common],
                       help="entanglement witness from the partial transpose")
    p.add_argument("state", help="state file (JSON)")
    p.add_argument("--samples", type=int, default=10_000,
                   help="product states sampled for the positivity check")
    p.add_argument("--seed", type=int, default=0, help="seed of the product-state sample")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("bell", parents=[common], help="CHSH correlation analysis")
    p.add_argument("state", help="two-qubit state file (JSON)")
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("instrument", parents=[common],
                       help="apply a quantum instrument to a state")
    p.add_argument("state", help="state file (JSON)")
    p.add_argument("--instrument", required=True, help="instrument file (JSON)")
    p.set_defaults(func=cmd_instrument)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args, _tolerances(args))
        _emit(args, report)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (PotentiaError, IndexError, KeyError) as exc:  # validation, domain and shape errors
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

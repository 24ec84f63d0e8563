"""Command-line front end.

Subcommands: analyze, transform, powers, werner, witness, bell, instrument.
On one machine with one BLAS thread count, identical inputs and seeds produce
byte-identical reports; another thread count may move their last digits.
Exit codes: 0 success, 2 parse error, 3 validation error, 4 capacity error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, fileio, qlin
from .errors import CapacityError, DomainError, ParseError, PotentiaError, ValidationError
from .tolerances import (
    BISECT_TOL, CONTEXT_NODE_CAP, SCAN_STEPS_CAP, WITNESS_SAMPLES, Tolerances, require_within,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAPACITY = 4

NAMED_BASES = ("computational", "hadamard", "fourier")


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
    if isinstance(value, str) and not value.isprintable():  # a line break would forge a line
        return json.dumps(value)
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
    if args.out is not None:
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
    tols = fileio.load_tolerances(args.config) if args.config is not None else Tolerances()
    for assignment in args.tol or ():
        tols.override(*_assignment("--tol", "name", assignment))
    return tols


def _float_list(values) -> list[float]:
    return [float(v) for v in np.asarray(values).reshape(-1)]


# ---------------------------------------------------------------- analyze


def _analysis_results(state: fileio.StateFile, tols: Tolerances) -> dict:
    from . import arrangements, entanglement, states

    density = state.density
    ea = arrangements.make_ea(density, state.factorization, state.basis)
    pure = states.abstract_purity(density, tols.purity)
    results: dict = {
        "dim": density.dim,
        "factorization": list(state.factorization.screen_dims),
        "spectrum": _float_list(density.eigenvalues[::-1]),
        "purity": {
            "abstract": pure,
            "operational": states.operational_purity(ea, tols.purity),
            "operational_exists": states.operational_purity_exists(density, tols.purity),
        },
        "entropy_bits": entanglement.von_neumann_entropy(density),
        "intensities": _float_list(ea.intensities()),
    }
    if state.label is not None:
        results["label"] = state.label
    if density.dim == 2:
        point = states.bloch_from_density(density)
        results["bloch"] = {"x": point.x, "y": point.y, "z": point.z}
    if state.factorization.screens == 2:
        dims = state.factorization.screen_dims
        ppt = entanglement.ppt_criterion(density, dims, tols.verdict)
        majorization, entropy = entanglement.marginal_verdicts(density, dims, tols.verdict)
        results["verdicts"] = {
            v.criterion: {"verdict": v.verdict.value, "criterion": v.criterion, "evidence": float(v.evidence)}
            for v in (ppt, majorization, entropy)
        }
        if pure:
            # One power step from the column of the largest diagonal entry gives the vector.
            column = density.matrix[:, int(np.argmax(np.real(np.diag(density.matrix))))]
            results["schmidt_coefficients"] = _float_list(
                entanglement.schmidt(states.PureVector.normalized(density.matrix @ column), dims)
            )
        if dims == (2, 2):
            from . import bell

            chsh = bell.chsh_max(density).value
            results["chsh_max"] = chsh
            results["region"] = bell.region(ppt, chsh).value
    return results


def cmd_analyze(args, tols: Tolerances) -> dict:
    state = fileio.load_state(args.state, tols)
    return _report("analyze", {"state": state.digest}, _analysis_results(state, tols))


# ---------------------------------------------------------------- transform


def _basis_arg(source: str, dim: int) -> tuple[np.ndarray, str | None]:
    """The basis matrix, and the digest of its file when ``source`` is not a named basis."""
    if source == "computational":
        return np.eye(dim, dtype=np.complex128), None
    if source == "hadamard":
        if dim != 2:
            raise ValidationError(f"hadamard basis is two-dimensional, screen has dim {dim}")
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0), None
    if source == "fourier":
        indices = np.arange(dim)
        return np.exp(2j * np.pi * np.outer(indices, indices) / dim) / np.sqrt(dim), None
    return fileio.load_basis(source, dim)


def cmd_transform(args, tols: Tolerances) -> dict:
    from . import arrangements

    if args.refactor is not None and (args.screen is not None or args.basis is not None):
        raise ParseError("--refactor and --screen/--basis are mutually exclusive")
    if (args.screen is None) != (args.basis is None):
        raise ParseError("--screen needs --basis" if args.basis is None else "--basis needs --screen")
    try:
        dims = None if args.refactor is None else tuple(int(part) for part in args.refactor.split(","))
        new_layout = None if dims is None else qlin.Factorization(dims)
    except ValueError:
        raise ParseError(f"--refactor expects comma-separated integers, got {args.refactor!r}")
    except DomainError:
        raise ParseError(f"--refactor expects positive screen dims, got {args.refactor!r}")
    if args.basis not in (None, *NAMED_BASES) and not Path(args.basis).is_file():
        raise ParseError(f"unknown basis {args.basis!r}; named bases: {', '.join(NAMED_BASES)}")
    state = fileio.load_state(args.state, tols)
    digests = {"state": state.digest}
    ea = arrangements.make_ea(state.density, state.factorization, state.basis)
    results: dict = {"before_intensities": _float_list(ea.intensities())}

    if dims is not None:
        transformed = arrangements.refactor(ea, new_layout)
        results["transform"] = {"refactor": list(dims)}
    elif args.screen is not None:
        screen = qlin._count(args.screen, 1, "--screen", state.factorization.screens) - 1
        new_basis, basis_digest = _basis_arg(args.basis, state.factorization.screen_dims[screen])
        if basis_digest:
            digests["basis"] = basis_digest
        transformed = arrangements.change_detectors(ea, screen, new_basis)
        results["transform"] = {"screen": args.screen, "basis": args.basis}
    else:
        transformed = ea
        results["transform"] = {"identity": True}

    results["after_intensities"] = _float_list(transformed.intensities())
    results["equivalent"] = arrangements.ea_equivalent(ea, transformed, tols.equivalence)
    results["degree"] = transformed.degree

    if args.out_state is not None:
        # One merged factor per screen whose detectors are not computational: make_ea and
        # change_detectors store none for an identity basis.
        (_, factors), = arrangements._runs(transformed.steps)
        if dims is not None and factors:
            raise ValidationError(
                "refactor of a file with non-computational detector bases cannot be "
                "expressed in the state-file schema; change detectors back first"
            )
        written = state.has_explicit_factorization or dims is not None
        layout = transformed.factorization if written else None
        basis = None  # refactored layouts start from computational detectors
        if dims is None and (factors or state.basis is not None or args.screen is not None):
            screens = [factors.get(k, np.eye(d)) for k, d in enumerate(transformed.factorization.screen_dims)]
            what = f"--out-state: the file's basis times --screen {args.screen}'s would not load back"
            basis = fileio._validated(what, qlin.DetectorBasis, screens)  # a product is the one new factor
        document = fileio.state_document(state.density, layout, basis, state.label)
        fileio.dump_state(args.out_state, document)
        results["state_written"] = args.out_state
    return _report("transform", digests, results)


# ---------------------------------------------------------------- powers


def cmd_powers(args, tols: Tolerances) -> dict:
    from . import powers

    overrides = [_assignment("--override", "label", pair) for pair in args.override or ()]
    state = fileio.load_state(args.state, tols)
    nodes, projectors_digest = fileio.load_projectors(args.projectors)
    identity = powers._identity_index(nodes)  # len(nodes) if build_graph is to add the identity
    require_within("clique enumeration node count", len(nodes) + (identity == len(nodes)), CONTEXT_NODE_CAP)
    graph = powers.build_graph(nodes, identity)
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
                values[qlin._index(index, len(labels), "--override node index")] = value
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


def cmd_werner(args, tols: Tolerances) -> dict:
    """Rows from one stack of Werner matrices of checked p, trusted as states; ``--p`` is one point.
    The bisections read the rows' columns on stacks of one point."""
    from . import bell, entanglement

    if args.p is not None:
        grid, parameters = np.array([args.p]), f"werner p={args.p!r}"
    else:
        parts = args.scan.split(",")
        if len(parts) != 3:
            raise ParseError(f"--scan expects from,to,steps, got {args.scan!r}")
        try:
            lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"--scan expects numbers, got {args.scan!r}")
        if not (0.0 <= lo < hi <= 1.0):
            raise DomainError(f"scan range [{lo}, {hi}] must satisfy 0 <= from < to <= 1")
        require_within("scan step count", qlin._count(steps, 2, "--scan step count"), SCAN_STEPS_CAP)
        grid, parameters = np.linspace(lo, hi, steps), f"werner scan={lo!r},{hi!r},{steps}"

    def min_pt(stack):
        return np.linalg.eigvalsh(qlin._partial_transpose(stack, (2, 2)))[:, 0]

    def chsh(stack):  # one einsum per state: a batched einsum may sum apart
        return bell._chsh_bound(np.linalg.svd(np.array([bell._correlations(m) for m in stack]))[1])

    stack = entanglement._werner_matrices(grid)
    columns = (grid, min_pt(stack), chsh(stack), entanglement._entropy_bits(np.linalg.eigvalsh(stack)))
    rows = [
        {"p": p, "min_pt_eigenvalue": minimum, "chsh_max": value, "entropy_bits": entropy,
         "region": bell.region(entanglement._ppt_verdict(minimum, (2, 2), tols.verdict), value).value}
        for p, minimum, value, entropy in zip(*(column.tolist() for column in columns))
    ]
    digests = {"parameters": _digest_text(parameters)}
    if args.p is not None:
        return _report("werner", digests, rows[0])

    def at(column, p: float) -> float:
        return column(entanglement._werner_matrices(np.array([p])))[0]

    boundaries = {"ppt": _bisect(lambda p: at(min_pt, p), lo, hi),
                  "chsh": _bisect(lambda p: at(chsh, p) - bell.CLASSICAL_BOUND, lo, hi)}
    results = {"scan": {"from": lo, "to": hi, "steps": steps}, "rows": rows, "boundaries": boundaries}
    return _report("werner", digests, results)


# ---------------------------------------------------------------- witness


def cmd_witness(args, tols: Tolerances) -> dict:
    from . import entanglement

    entanglement._require_samples(args.samples, args.seed)
    state = fileio.load_state(args.state, tols)
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
    from . import bell, entanglement

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
        "setting": {k: _float_list(getattr(best.setting, k)) for k in ("a", "a_prime", "b", "b_prime")},
        "region": bell.region(ppt, best.value).value,
    }
    return _report("bell", {"state": state.digest}, results)


# ---------------------------------------------------------------- instrument


def cmd_instrument(args, tols: Tolerances) -> dict:
    from . import locc

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


class _Parser(argparse.ArgumentParser):
    """Raises ``ParseError`` where argparse would print its usage and exit, so ``main`` reports it."""

    def error(self, message: str):
        raise ParseError(message)


def _path(value: str) -> str:
    if not value:  # Path('') is the working directory, which is no file
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        help="override a named tolerance (repeatable)")
    common.add_argument("--config", type=_path, help="JSON config file with a 'tolerances' object")
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="report format (default text)")
    common.add_argument("--out", type=_path, help="write the report here instead of stdout")

    parser = _Parser(
        prog="potentia",
        description="Analyze quantum states as intensive valuations: purity, "
        "powers graphs, experimental arrangements, entanglement criteria.",
    )
    parser.add_argument("--version", action="version", version=f"potentia {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", parents=[common], help="full state analysis")
    p.add_argument("state", type=_path, help="state file (JSON)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", parents=[common],
                       help="change detectors or refactor screens")
    p.add_argument("state", type=_path, help="state file (JSON)")
    p.add_argument("--screen", type=int, help="1-based screen to re-detector")
    p.add_argument("--basis", help="named basis (computational|hadamard|fourier) or JSON file")
    p.add_argument("--refactor", metavar="DIMS", help="comma-separated new screen dims")
    p.add_argument("--out-state", type=_path, help="write the transformed state file here")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("powers", parents=[common],
                       help="powers-graph valuation and axiom check")
    p.add_argument("state", type=_path, help="state file (JSON)")
    p.add_argument("--projectors", type=_path, required=True, help="projector family file (JSON)")
    p.add_argument("--override", action="append", metavar="LABEL=VALUE",
                   help="inject a potentia value before the axiom check (repeatable)")
    p.set_defaults(func=cmd_powers)

    p = sub.add_parser("werner", parents=[common], help="Werner-line classification")
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("--p", type=float, help="single mixing parameter in [0, 1]")
    one.add_argument("--scan", metavar="FROM,TO,STEPS", help="scan the parameter range")
    p.set_defaults(func=cmd_werner)

    p = sub.add_parser("witness", parents=[common],
                       help="entanglement witness from the partial transpose")
    p.add_argument("state", type=_path, help="state file (JSON)")
    p.add_argument("--samples", type=int, default=WITNESS_SAMPLES,
                   help="product states sampled for the positivity check")
    p.add_argument("--seed", type=int, default=0, help="seed of the product-state sample")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("bell", parents=[common], help="CHSH correlation analysis")
    p.add_argument("state", type=_path, help="two-qubit state file (JSON)")
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("instrument", parents=[common],
                       help="apply a quantum instrument to a state")
    p.add_argument("state", type=_path, help="state file (JSON)")
    p.add_argument("--instrument", type=_path, required=True, help="instrument file (JSON)")
    p.set_defaults(func=cmd_instrument)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args, _tolerances(args))
        _emit(args, report)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:  # a size no cap foresees, such as what a large file's text costs to parse
        print("capacity error: out of memory; the input is too large for this machine", file=sys.stderr)
        return EXIT_CAPACITY
    except (PotentiaError, IndexError, KeyError) as exc:  # validation, domain and shape errors
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""potentia benchmark: one closed-loop client per run.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads are defined in ``workloads.py``.  A run makes round(S / round_s)
rounds of its workload's requests in seeded order, checks every output
against an independent reference, and prints a detailed report line and,
last, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run makes half the rounds, each request once untraced and once traced,
and reports the per-layer metrics of the traced requests plus the tracing
overhead.  The report is also written to ``.bench_out/`` and the spans of a
traced run to ``.bench_out/spans_<workload>_<seed>.jsonl``.  ``--smoke``
runs one round at toy sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
# No round starts once the timed work exceeds 1.3 times the requested time
# or this many seconds, so runs stay within their time budget even on a
# machine much slower than the one round_s was measured on.
MAX_TIMED_S = 110.0
REQUEST_TIMEOUT_S = 120

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import potentia; "
    "print(repr(time.perf_counter() - t))"
)

# Per-layer metrics: spans reported as <name>.self_s and <name>.calls ...
TIMED_SPANS = (
    "cli.import", "cli.emit",
    "fileio.load_state", "fileio.matrix_from_json", "fileio.dump_state",
    "fileio.load_projectors", "fileio.load_instrument",
    "linalg.eig",
    "qlin.herm_eig", "qlin.kron", "qlin.kron_all", "qlin.partial_trace", "qlin.partial_transpose",
    "states.DensityOperator", "states.operational_purity", "states.operational_purity_exists",
    "entanglement.ppt_criterion", "entanglement.majorization_criterion",
    "entanglement.entropy_criterion", "entanglement.von_neumann_entropy",
    "entanglement.witness_from_entangled", "entanglement.check_witness_on_products",
    "arrangements.make_ea", "arrangements.change_detectors", "arrangements.ea_equivalent",
    "arrangements.refactor", "arrangements.restrict", "arrangements.multiscreen_effect",
    "arrangements.ExperimentalArrangement", "arrangements.DetectorBasis",
    "powers.build_graph", "powers.isa_from_density", "powers.orthogonal_families",
    "powers.maximal_contexts", "powers.check_isa_axioms",
    "powers.find_additive_binary_valuation", "powers.reconstruct_density", "powers.PowerNode",
    "families.ks18_family", "families.qubit_mub_family", "families.tomography_family",
    "bell.chsh_max", "locc.apply_instrument",
)
# ... spans reported only as <name>.calls ...
COUNTED_SPANS = ("qlin.commutes", "sampling.random_pure", "bell.correlation_matrix", "locc.CPMap")
# ... and exceptions leaving each of tracer.LAYERS, as <layer>.errors.


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round at toy sizes")
    return parser.parse_args(argv)


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


# ------------------------------------------------------------- machine facts


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(library, symbol):
                function = getattr(library, symbol)
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "potentia").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return "sha256:" + digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_facts(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "source_digest": source_digest(),
        "seed": seed,
    }


# ------------------------------------------------------------------- running


def import_time(env: dict) -> float:
    """``import potentia`` in a fresh interpreter, timed inside it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S, check=True,
    )
    return float(done.stdout)


class Runner:
    """Executes requests and records latency and failures."""

    def __init__(self, env: dict, tmp: Path):
        self.env = env
        self.tmp = tmp
        self.attempted = 0
        self.failures: list[str] = []
        #: While set, CLI requests go through traced_cli.py and in-process
        #: requests record spans on ``recorder``.
        self.traced = False
        self.recorder = None

    def execute(self, request, request_id: str) -> float:
        """Run one request, check its output, return its wall time."""
        self.attempted += 1
        if request.call is None:
            latency, problems = self._cli(request, request_id)
        else:
            latency, problems = self._call(request, request_id)
        if problems:
            self.failures.append(f"{request_id} {request.kind}: {'; '.join(problems)}")
        return latency

    def _cli(self, request, request_id: str):
        argv = [sys.executable, "-m", "potentia.cli", *request.args]
        if self.traced:
            spans = self.tmp / "spans" / f"{request_id}.jsonl"
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), request_id, *request.args]
        start = perf_counter()
        try:
            done = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, timeout=REQUEST_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return perf_counter() - start, [f"no exit within {REQUEST_TIMEOUT_S} s"]
        latency = perf_counter() - start
        if done.returncode != 0:
            return latency, [f"exit code {done.returncode}: {done.stderr.decode(errors='replace')[-300:]}"]
        try:
            document = json.loads(done.stdout)
        except ValueError as exc:
            return latency, [f"stdout is not JSON: {exc}"]
        return latency, self._checked(request, document)

    def _call(self, request, request_id: str):
        if self.traced:
            self.recorder.request = request_id
        start = perf_counter()
        try:
            result = request.call()
        except Exception as exc:  # a failed request is counted, not fatal
            return perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
        finally:
            latency = perf_counter() - start
            if self.recorder is not None:
                self.recorder.request = None
        return latency, self._checked(request, result)

    @staticmethod
    def _checked(request, output) -> list[str]:
        try:
            return request.check(output)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            return [f"output check could not read the output: {type(exc).__name__}: {exc}"]


def run_rounds(runner: Runner, requests, rounds: int, rng, cap_s: float, after_round) -> list[tuple[str, float]]:
    """Closed loop over ``rounds`` seeded permutations; (kind, latency) pairs.
    ``after_round`` runs, untimed, after each round."""
    samples = []
    timed = 0.0
    for r in range(rounds):
        if timed > cap_s:
            break
        for position in rng.permutation(len(requests)):
            latency = runner.execute(requests[position], f"{r}-{position}")
            samples.append((requests[position].kind, latency))
            timed += latency
        after_round()
    return samples


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten requests beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(samples, failed: int, setup: list[float], in_process: bool) -> tuple[dict, dict]:
    latencies = [latency for _, latency in samples]
    percentile, tail_value = tail(latencies)
    # Every round runs each kind once.  Throughput is one round's requests
    # over the sum of the kinds' median latencies, so that a single slow
    # request does not move it, unlike a plain sum of all latencies.
    kind_median = {
        kind: statistics.median(l for k, l in samples if k == kind)
        for kind in sorted({k for k, _ in samples})
    }
    passed = 1.0 - failed / len(latencies)
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "throughput_rps": (passed * len(kind_median) / sum(kind_median.values()), "1/s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "failure_rate": failed / len(latencies),
        "latency_tail_percentile": percentile,
        "requests": len(latencies),
        "setup_samples_s": setup,
        "kind_median_s": kind_median,
        "samples_s": [[kind, latency] for kind, latency in samples],
    }
    return metrics, extra


def per_layer(spans, errors, counters, requests: int, overhead_pct: float) -> dict:
    totals = tracer.layer_totals(spans)
    metrics = {}
    for name in TIMED_SPANS:
        metrics[f"{name}.self_s"] = (totals[name]["self_s"] if name in totals else 0.0, "s")
    for name in (*TIMED_SPANS, *COUNTED_SPANS):
        metrics[f"{name}.calls"] = (totals[name]["calls"] if name in totals else 0, "count")
    eig_calls = metrics["linalg.eig.calls"][0]
    graphs = metrics["powers.build_graph.calls"][0]
    families = metrics["powers.orthogonal_families.calls"][0]
    metrics["linalg.eig.calls_per_request"] = (eig_calls / requests, "count/request")
    metrics["powers.orthogonal_families.calls_per_graph"] = (families / graphs if graphs else 0.0, "count/graph")
    metrics["fileio.bytes_read"] = (counters.get("fileio.bytes_read", 0), "B")
    metrics["fileio.bytes_written"] = (counters.get("fileio.bytes_written", 0), "B")
    for layer in tracer.LAYERS:
        metrics[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def traced_pass(runner: Runner, workload, requests, rounds: int, rng, out: Path, cap_s: float):
    """Each request twice in a row, untraced and traced in alternating order,
    so that the overhead is measured under the same machine conditions.
    In-process, the untraced calls pass through the installed wrappers
    without recording."""
    if workload.in_process:
        runner.recorder = recorder = tracer.Recorder()
        tracer.install(recorder)
    else:
        (runner.tmp / "spans").mkdir()
    timed = {False: 0.0, True: 0.0}
    traced_requests = 0
    for r in range(rounds):
        if timed[True] > cap_s:
            break
        for i, position in enumerate(rng.permutation(len(requests))):
            for traced in (False, True) if (r + i) % 2 == 0 else (True, False):
                runner.traced = traced
                tag = "t" if traced else "u"
                timed[traced] += runner.execute(requests[position], f"{tag}{r}-{position}")
            traced_requests += 1
    runner.traced = False
    if workload.in_process:
        spans, errors, counters = recorder.spans, recorder.errors, recorder.counters
        recorder.dump(out)
    else:
        files = sorted((runner.tmp / "spans").glob("*.jsonl"))
        spans, errors, counters = tracer.load(files)
        with open(out, "w", encoding="utf-8") as handle:
            for path in files:
                handle.write(path.read_text(encoding="utf-8"))
    overhead = 100.0 * (timed[True] - timed[False]) / timed[False]
    return per_layer(spans, errors, counters, traced_requests, overhead), {
        "untraced_s": timed[False],
        "traced_s": timed[True],
        "requests": 2 * traced_requests,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "potentia" / "__init__.py").is_file() or not (ROOT / "samples").is_dir():
        print(f"error: no potentia sources under {ROOT}/src and samples/", file=sys.stderr)
        return 2
    # Pin BLAS threads before numpy is first imported, here and in children.
    os.environ.update({var: str(NPROC) for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        env = child_env(tmp)
        facts = machine_facts(args.seed)
        seed_seq = [args.seed, sorted(workloads.WORKLOADS).index(workload.name)]
        requests = workload.build(np.random.default_rng(seed_seq), ROOT, tmp, args.smoke)
        rounds = 1 if args.smoke else max(1, round(args.seconds / workload.round_s))
        cap_s = min(MAX_TIMED_S, 1.3 * args.seconds)
        runner = Runner(env, tmp)
        # Warm-up, untimed: BLAS thread start-up, bytecode caches, page cache.
        warm = Runner(env, tmp)
        warm.execute(min(requests, key=lambda r: len(r.args)), "warmup")
        report = {"workload": workload.name, "trace": args.trace, "smoke": args.smoke,
                  "seconds": args.seconds, "machine": facts}
        if args.trace:
            rounds = max(1, (rounds + 1) // 2)
            spans_out = out_dir / f"spans_{workload.name}_{args.seed}.jsonl"
            spans_out.unlink(missing_ok=True)
            rng = np.random.default_rng(seed_seq + [1])
            metrics, extra = traced_pass(runner, workload, requests, rounds, rng, spans_out, cap_s)
        else:
            # Set-up is sampled between rounds, so that its median spans the
            # run's machine conditions like the latencies do.
            import_time(env)  # untimed: may write the bytecode caches
            setup = []
            rng = np.random.default_rng(seed_seq + [1])
            samples = run_rounds(runner, requests, rounds, rng, cap_s, lambda: setup.append(import_time(env)))
            while len(setup) < SETUP_SAMPLES:
                setup.append(import_time(env))
            metrics, extra = end_to_end(samples, len(runner.failures), setup, workload.in_process)
        report.update(extra, rounds=rounds, failures=runner.failures, metrics=metrics)
        failed = len(runner.failures)
        result = {
            "correct": failed == 0,
            "attempted": runner.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        text = json.dumps(report)
        (out_dir / f"BENCH_{workload.name}_{args.seed}_trace{args.trace}.json").write_text(text + "\n")
        print(text)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

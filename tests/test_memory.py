"""The memory contract: each command's peak, as ``tracemalloc`` sees it over one in-process run, in
units of one N x N complex128 array (16 N² bytes).  numpy reports its arrays to ``tracemalloc``, so
the counts depend on the code and the input, not on the machine, its load or the BLAS."""

import contextlib
import re
from pathlib import Path
import tracemalloc

import numpy as np
import pytest

# Every module a command loads, imported before any run is traced.
from potentia import arrangements, bell, cli, entanglement, fileio, locc, powers, qlin  # noqa: F401
from potentia.sampling import random_density

ROOT = Path(__file__).resolve().parents[1]

#: The dimension the rows run at: a rank-8 state on (16, 16).
N = 256
#: How far, in N², a traced peak may pass its row's bound before the row fails.
SLACK = 0.25

#: Per command on a text state file: the options after the state path, where ``projectors`` and
#: ``instrument`` name the files below; then a and k of its bound, a N² + k B.  B is the bytes of
#: the largest file the command reads, since files are parsed one at a time and a parse holds the
#: file's text beside its nested lists, 8 N² of them per matrix, which a counts.
MEMORY = {
    "analyze": ((), 9.4, 1.0),
    "transform": (("--screen", "1", "--basis", "fourier"), 9.4, 1.0),
    "witness": (("--samples", "200"), 20.8, 1.0),
    "powers": (("--projectors", "projectors"), 19.4, 1.0),
    "instrument": (("--instrument", "instrument"), 36.9, 1.0),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The rows' files, as ``potentia`` writes them: the state, two complementary projectors, and a
    two-branch projective instrument whose Kraus operators are those projectors, written dense."""
    folder = tmp_path_factory.mktemp("memory")
    rho = random_density(N, np.random.default_rng(20240817), rank=8)
    half = np.diag(np.arange(N) < N // 2).astype(float)
    pair = [fileio.matrix_to_json(p) for p in (half, np.eye(N) - half)]
    documents = {
        "state": fileio.state_document(rho, qlin.Factorization((16, 16))),
        "projectors": {"schema_version": "1", "dim": N,
                       "projectors": [{"label": label, "matrix": m} for label, m in zip("PQ", pair)]},
        "instrument": {"schema_version": "1", "branches": [{"kraus": [m]} for m in pair]},
    }
    paths = {name: folder / f"{name}.json" for name in documents}
    for name, document in documents.items():
        fileio.dump_state(paths[name], document)
    return paths


class _Sink:
    """A stdout that keeps nothing: the report's text is the reader's to hold, not the command's."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("command", list(MEMORY))
def test_each_command_peaks_within_its_row(command, inputs):
    options, a, k = MEMORY[command]
    argv = [command, str(inputs["state"]), *(str(inputs.get(o, o)) for o in options)]
    unit = 16 * N * N
    largest = max(inputs[name].stat().st_size for name in ("state", *options) if name in inputs) / unit
    with contextlib.redirect_stdout(_Sink()):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1] / unit
        finally:
            tracemalloc.stop()
    assert code == 0
    bound = a + k * largest
    assert peak <= bound + SLACK, f"{command} peaked at {peak:.2f} N², above its bound {bound:.2f} N²"


def test_readme_renders_the_memory_table():
    """README's memory table is ``MEMORY``, row for row: each command with its a and its k."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Memory", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| [^|]+ \| ([0-9.]+) \| ([0-9.]+) \|$", section, flags=re.MULTILINE)
    assert {name: (float(a), float(k)) for name, a, k in rows} == {
        name: (a, k) for name, (_, a, k) in MEMORY.items()
    }
    assert len(rows) == len(MEMORY)

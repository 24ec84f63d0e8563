from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

# A failing property prints the ``@reproduce_failure`` line that replays its example.  Under
# CI, Hypothesis' own ``ci`` profile already does, and this one inherits it.
settings.register_profile("potentia", print_blob=True)
settings.load_profile("potentia")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def eigensolve_counter(monkeypatch):
    """Counts calls of ``numpy.linalg.eigvalsh`` during one test, keyed by the
    shape of the input matrix, and of ``numpy.linalg.eigh``, ``svd`` and
    ``cholesky``, keyed by ``("eigh", shape)``, ``("svd", shape)`` and
    ``("cholesky", shape)``."""
    counts: Counter = Counter()
    for name in ("eigvalsh", "eigh", "svd", "cholesky"):
        def counted(a, *args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            counts[np.shape(a) if _name == "eigvalsh" else (_name, np.shape(a))] += 1
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def projector(vec) -> np.ndarray:
    """Rank-one projector onto a (not necessarily normalized) vector."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())

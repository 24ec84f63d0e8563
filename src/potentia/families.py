"""Bundled projector families for powers-graph work.

Includes computational bases, qubit mutually unbiased bases, a tomographic
family spanning the Hermitian operator space (used for reconstruction), and
an 18-ray family in dimension 4 that admits no additive binary valuation
while every Born valuation over it passes the intensive axioms.
"""

from __future__ import annotations

import numpy as np

from .powers import PowerNode
from .qlin import _made, _screen_dims
from .states import PureVector

# 18 rays in C^4 arranged in 9 complete orthogonal tetrads, each ray shared
# by exactly two tetrads; a binary valuation must mark exactly one ray per
# tetrad, which is impossible by parity.
KS18_RAYS: tuple[tuple[int, int, int, int], ...] = (
    (0, 0, 0, 1),
    (0, 0, 1, 0),
    (1, 1, 0, 0),
    (1, -1, 0, 0),
    (0, 1, 0, 0),
    (1, 0, 1, 0),
    (1, 0, -1, 0),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
    (0, 0, 1, 1),
    (1, 1, 1, 1),
    (0, 1, 0, -1),
    (1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, 1, -1, 0),
    (1, 1, -1, 1),
    (1, 1, 1, -1),
    (-1, 1, 1, 1),
)

#: The 9 orthogonal tetrads as indices into KS18_RAYS.
KS18_TETRADS: tuple[tuple[int, int, int, int], ...] = (
    (0, 1, 2, 3),
    (0, 4, 5, 6),
    (7, 8, 2, 9),
    (7, 10, 6, 11),
    (1, 4, 12, 13),
    (8, 10, 13, 14),
    (15, 16, 3, 9),
    (15, 17, 5, 11),
    (16, 17, 12, 14),
)


def ray_projector(ray, label: str) -> PowerNode:
    vec = PureVector.normalized(ray).amplitudes
    _screen_dims((len(vec),))  # |v><v| is a projector by construction: only its size is judged
    return _made(PowerNode, projector=np.outer(vec, vec.conj()), label=label)


def computational_family(dim: int) -> list[PowerNode]:
    """Rank-one projectors onto the standard basis."""
    eye = np.eye(*_screen_dims((dim,)), dtype=np.complex128)
    return [_made(PowerNode, projector=np.outer(e, e), label=f"|{k}><{k}|") for k, e in enumerate(eye)]


def qubit_two_bases() -> list[PowerNode]:
    """Z-basis and X-basis rank-one projectors on the qubit."""
    return computational_family(2) + [
        ray_projector((1, 1), "|+><+|"),
        ray_projector((1, -1), "|-><-|"),
    ]


def qubit_mub_family() -> list[PowerNode]:
    """Three mutually unbiased qubit bases (Z, X, Y)."""
    return qubit_two_bases() + [
        ray_projector((1, 1j), "|+i><+i|"),
        ray_projector((1, -1j), "|-i><-i|"),
    ]


def tomography_family(dim: int) -> list[PowerNode]:
    """dim^2 rank-one projectors spanning the Hermitian operators.

    Standard tomographic rays: the basis states plus (e_a + e_b)/sqrt(2)
    and (e_a + i e_b)/sqrt(2) for every pair a < b.
    """
    nodes = computational_family(dim)
    eye = np.eye(dim, dtype=np.complex128)
    for a in range(dim):
        for b in range(a + 1, dim):
            nodes.append(ray_projector(eye[a] + eye[b], f"re({a},{b})"))
            nodes.append(ray_projector(eye[a] + 1j * eye[b], f"im({a},{b})"))
    return nodes


def ks18_family() -> list[PowerNode]:
    """The 18-ray dimension-4 family with no additive binary valuation."""
    return [
        ray_projector(ray, "r" + "".join({1: "+", 0: "0", -1: "-"}[c] for c in ray))
        for ray in KS18_RAYS
    ]

"""Multi-index enumeration and degree-of-freedom counting for Q_p, P_p, S_p.

The Q family is the full tensor-product space (each degree <= p), P the total
degree space (|i| <= p) and S the serendipity space.  In 2D, S_p is the total
degree space enlarged by the two monomials x1^p x2 and x1 x2^p, which in the
hierarchical (vertex/edge/interior) decomposition means: full edge modes, and
interior bubble modes psi_i1 psi_i2 restricted to i1 + i2 <= p - 2.  The 3D
serendipity space is only represented through that entity decomposition
(vertices, 12 edges, 6 faces, interior); it is not a monomial set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np

__all__ = [
    "MultiIndex",
    "BasisSpec",
    "SerendipityLayout",
    "enumerate_modes",
    "dof_count",
    "serendipity_layout",
    "total_degree_indices",
    "flat_positions",
]

MultiIndex = tuple[int, ...]

_FAMILIES = ("Q", "P", "S")


@dataclass(frozen=True)
class BasisSpec:
    """Basis family selector: dimension, degree and family Q | P | S."""

    dim: int
    p: int
    family: str

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if self.p < 0:
            raise ValueError("degree must be non-negative")
        if self.family == "S" and self.p < 1:
            raise ValueError("serendipity family requires p >= 1")


@dataclass(frozen=True)
class SerendipityLayout:
    """Per-entity mode counts and bubble index sets of the serendipity space."""

    dim: int
    p: int
    vertex_count: int
    edge_count: int
    edge_mode_count: int
    face_count: int
    face_mode_count: int
    face_indices: tuple[MultiIndex, ...]
    interior_indices: tuple[MultiIndex, ...]

    @property
    def total(self) -> int:
        return (self.vertex_count
                + self.edge_count * self.edge_mode_count
                + self.face_count * self.face_mode_count
                + len(self.interior_indices))


def _graded_lex_key(i: MultiIndex):
    return (sum(i), i)


def total_degree_indices(dim: int, degree: int,
                         min_entry: int = 0) -> list[MultiIndex]:
    """All multi-indices with entries >= min_entry and total <= degree."""
    out = [i for i in product(range(min_entry, degree + 1), repeat=dim)
           if sum(i) <= degree]
    out.sort(key=_graded_lex_key)
    return out


def enumerate_modes(spec: BasisSpec) -> list[MultiIndex]:
    """Monomial-degree index set of the space, in graded lexicographic order.

    3D serendipity is rejected here: it is defined through the entity layout
    (see serendipity_layout), not as a monomial set.
    """
    d, p = spec.dim, spec.p
    if spec.family == "Q":
        modes = list(product(range(p + 1), repeat=d))
    elif spec.family == "P":
        modes = total_degree_indices(d, p)
    else:
        if d != 2:
            raise ValueError("3D serendipity has no monomial index set; "
                             "use serendipity_layout")
        extra = {(p, 1), (1, p)}
        modes = list(set(total_degree_indices(2, p)) | extra)
    modes.sort(key=_graded_lex_key)
    return modes


def dof_count(spec: BasisSpec) -> int:
    """Dimension of the space: (p+1)^d for Q, C(p+d, d) for P, census for S."""
    d, p = spec.dim, spec.p
    if spec.family == "Q":
        return (p + 1) ** d
    if spec.family == "P":
        return comb(p + d, d)
    if d == 2:
        return 4 if p == 1 else (p + 1) * (p + 2) // 2 + 2
    edge = 12 * (p - 1) if p >= 2 else 0
    face = 6 * (p - 2) * (p - 3) // 2 if p >= 4 else 0
    interior = (p - 3) * (p - 4) * (p - 5) // 6 if p >= 6 else 0
    return 8 + edge + face + interior


def serendipity_layout(dim: int, p: int) -> SerendipityLayout:
    """Entity decomposition of S_p: vertex/edge/face counts and bubble sets.

    Bubble (boundary-vanishing) products psi_{i1}..psi_{ik} have polynomial
    degree |i| + k, so total degree <= p means pair totals <= p - 2 on faces
    and triple totals <= p - 3 in the 3D interior.
    """
    if p < 1:
        raise ValueError("serendipity layout requires p >= 1")
    if dim == 2:
        interior = tuple(i for i in total_degree_indices(2, p - 2, min_entry=1))
        return SerendipityLayout(
            dim=2, p=p, vertex_count=4, edge_count=4, edge_mode_count=p - 1,
            face_count=0, face_mode_count=0, face_indices=(),
            interior_indices=interior)
    if dim == 3:
        face = tuple(total_degree_indices(2, p - 2, min_entry=1))
        interior = tuple(total_degree_indices(3, p - 3, min_entry=1))
        return SerendipityLayout(
            dim=3, p=p, vertex_count=8, edge_count=12, edge_mode_count=p - 1,
            face_count=6, face_mode_count=len(face), face_indices=face,
            interior_indices=interior)
    raise ValueError("dim must be 2 or 3")


def flat_positions(modes, p: int) -> np.ndarray:
    """Positions of the index tuples ``modes`` in a flattened (p+1)^d tensor."""
    return np.ravel_multi_index(np.array(modes).T, (p + 1,) * len(modes[0]))

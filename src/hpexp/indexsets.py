"""Multi-index enumeration and degree-of-freedom counting for Q_p, P_p, S_p.

The Q family is the full tensor-product space (each degree <= p), P the total
degree space (|i| <= p) and S the serendipity space: the monomials of
superlinear degree <= p (the degree counting only the variables that enter
nonlinearly).  In the hierarchical tensor basis (per axis, slot 0 or 1 a
vertex function and slot m >= 2 the bubble psi_{m-1}) that is one rule: S_p
keeps a slot tuple iff its bubble slots sum to at most p.  Per entity of
dimension j, the bubble psi_{i_1}..psi_{i_j} is kept iff |i| <= p - j
(``bubble_indices``).  In 2D, S_p is also the total degree space enlarged by
x1^p x2 and x1 x2^p; the 3D serendipity space has no such monomial view here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np

__all__ = [
    "MultiIndex",
    "BasisSpec",
    "enumerate_modes",
    "dof_count",
    "bubble_indices",
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

    3D serendipity is rejected here: it is defined through its hierarchical
    slot tuples (see bubble_indices), not as a monomial set.
    """
    d, p = spec.dim, spec.p
    if spec.family == "Q":
        modes = list(product(range(p + 1), repeat=d))
    elif spec.family == "P":
        modes = total_degree_indices(d, p)
    else:
        if d != 2:
            raise ValueError("3D serendipity has no monomial index set; "
                             "its modes are the slot tuples of bubble_indices")
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


def bubble_indices(j: int, p: int, family: str) -> list[MultiIndex]:
    """psi indices (i_1, .., i_j), each >= 1, of the bubble modes that family
    Q or S puts on one j-dimensional entity, in rank order.

    psi_i sits in slot i + 1, so the S rule (bubble slots sum to at most p)
    keeps |i| <= p - j, in graded lexicographic order; Q keeps every
    i_k <= p - 1, in product order.  A vertex (j = 0) has the one index ().
    """
    if family == "Q":
        return list(product(range(1, p), repeat=j))
    if family == "S":
        return total_degree_indices(j, p - j, min_entry=1)
    raise ValueError("bubble families are Q and S")


def flat_positions(modes, p: int) -> np.ndarray:
    """Positions of the index tuples ``modes`` in a flattened (p+1)^d tensor."""
    return np.ravel_multi_index(np.array(modes).T, (p + 1,) * len(modes[0]))

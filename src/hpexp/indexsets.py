"""Multi-index enumeration and degree-of-freedom counting for Q_p, P_p, S_p.

The three families differ only in which multi-indices of per-axis degrees
they keep, and ``degree_mask`` is the one rule: Q keeps an index iff every
entry is <= p, P iff the entries sum to <= p, and S (the serendipity space,
Arnold & Awanou 2011) iff its superlinear degree, the sum of the entries
>= 2, is <= p.  The rule is defined in every dimension.  It serves Legendre
or monomial indices and the slot tuples of the hierarchical tensor basis
alike: per axis, slot 0 or 1 is a linear vertex function and slot m >= 2
the bubble psi_{m-1} of degree m.  Per entity of dimension j, the bubble
psi_{i_1}..psi_{i_j} is kept with its slot tuple i + 1 (``bubble_indices``);
for S that is |i| <= p - j.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

__all__ = [
    "MultiIndex",
    "BasisSpec",
    "enumerate_modes",
    "dof_count",
    "bubble_indices",
    "degree_mask",
    "flat_positions",
]

MultiIndex = tuple[int, ...]

# the largest budget M whose lattice ``bounds.lemma_audit`` enumerates
# exhaustively; kept here, so that the config validator reads it without
# loading ``bounds``, which re-exports it
LEMMA_AUDIT_CAP = 40

_FAMILIES = ("Q", "P", "S")


def _integer(**values) -> None:
    """Raise ValueError unless each named value is an integer (np.int64 is
    one; a bool, read as 0 or 1, and 2.0 are not): the one rule for the
    sizes, dimensions and degrees the layers take."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} = {value!r} must be an integer")


@dataclass(frozen=True)
class BasisSpec:
    """Basis family selector: dimension, degree and family Q | P | S."""

    dim: int
    p: int
    family: str

    def __post_init__(self):
        _integer(dim=self.dim, p=self.p)
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


def degree_mask(shape, family: str, p: int) -> np.ndarray:
    """The indices family Q, P or S keeps at degree p, as a boolean array
    over a tensor of the given shape whose index along each axis is that
    axis's degree: Q keeps every entry <= p, P the entries summing to <= p,
    S the entries >= 2 summing to <= p."""
    degrees = np.indices(shape)
    if family == "Q":
        return (degrees <= p).all(axis=0)
    if family == "P":
        return degrees.sum(axis=0) <= p
    if family == "S":
        return np.where(degrees >= 2, degrees, 0).sum(axis=0) <= p
    raise ValueError(f"family must be one of {_FAMILIES}, got {family!r}")


def enumerate_modes(spec: BasisSpec) -> list[MultiIndex]:
    """Monomial-degree index set of the space, in graded lexicographic order."""
    d, p = spec.dim, spec.p
    kept = np.argwhere(degree_mask((p + 1,) * d, spec.family, p))
    modes = [tuple(m) for m in kept.tolist()]
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

    These are the kept slot tuples whose slots are all >= 2, each slot minus
    one (psi_i sits in slot i + 1): in graded lexicographic order for S, in
    product order for Q.  A vertex (j = 0) has the one index ().
    """
    if family not in ("Q", "S"):
        raise ValueError("bubble families are Q and S")
    slots = np.argwhere(degree_mask((p + 1,) * j, family, p))
    out = [tuple(m) for m in (slots[(slots >= 2).all(axis=1)] - 1).tolist()]
    if family == "S":
        out.sort(key=_graded_lex_key)
    return out


def flat_positions(modes, p: int) -> np.ndarray:
    """Positions of the index tuples ``modes`` in a flattened (p+1)^d tensor."""
    return np.ravel_multi_index(np.array(modes).T, (p + 1,) * len(modes[0]))

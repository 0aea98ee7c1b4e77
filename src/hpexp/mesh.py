"""Axis-aligned box meshes on one half-cell lattice, shared by ``fem`` and
``dgfem``.

A mesh is a set of integer cells on one half-cell lattice: the entity of
code c of cell i is the lattice point 2 i + (0, 2, 1)[c], its dimension is
its number of odd coordinates, and it is on the boundary iff fewer than the
2^(d-j) cells around a j-entity hold it.  ``fem`` numbers its dofs from
this lattice, and ``dgfem`` names its facets by the cells' lattice
positions.  The module imports numpy and ``indexsets`` alone, so a DG run
loads no FEM solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .indexsets import _integer

__all__ = ["Mesh", "mesh_uniform", "mesh_lshape"]


@dataclass
class Mesh:
    """A union of congruent axis-aligned boxes on one half-cell lattice.

    Cell i is the box ``origin + h * (cells[i] + [0, 1]^d)``, and lattice
    point q the point ``origin + h * q / 2``.  The entity with local code c
    of cell i (per axis 0 the lower end, 1 the upper end, 2 the whole axis)
    is the lattice point ``2 cells[i] + (0, 2, 1)[c]``; its dimension is its
    number of odd coordinates.
    """

    dim: int
    h: float                        # element edge length (congruent cubes)
    origin: np.ndarray              # (d,) coordinates of lattice point 0
    cells: np.ndarray               # (ne, d) non-negative integer cell indices
    singular_corner: Optional[np.ndarray] = None

    def __post_init__(self):
        _integer(dim=self.dim)
        cells, d = np.asarray(self.cells), self.dim
        if (cells.ndim != 2 or cells.shape[1] != d or not cells.size
                or not np.issubdtype(cells.dtype, np.integer)):
            raise ValueError(f"cells must be integers of shape (ne, {d}), "
                             f"ne >= 1, not {cells.dtype} {cells.shape}")
        if np.shape(self.origin) != (d,):
            raise ValueError(f"origin must have shape ({d},)")
        # real numbers, not strings or booleans; the chained comparison is
        # False for NaN too
        origin = np.asarray(self.origin)
        if origin.dtype.kind not in "iuf" or not np.isfinite(origin).all():
            raise ValueError(f"origin {self.origin} must hold finite reals")
        h = np.asarray(self.h)
        if h.shape or h.dtype.kind not in "iuf" or not 0 < h < np.inf:
            raise ValueError(f"cell size h = {self.h} must be a finite "
                             f"positive real")
        if cells.min() < 0:
            raise ValueError("cell indices must be non-negative")
        distinct = _unique_rows(cells, cells.max(axis=0) + 1)[0]
        if distinct.shape[0] < cells.shape[0]:
            raise ValueError("cells must be distinct")

    @property
    def n_elements(self) -> int:
        return self.cells.shape[0]

    @property
    def elem_lower(self) -> np.ndarray:
        return self.origin + self.h * self.cells

    @property
    def vertices(self) -> np.ndarray:
        """Vertex coordinates in vertex-dof (lattice) order."""
        return _coords(self, np.argwhere(_lattice(self)[0] == 0))


_HALF = np.array([0, 2, 1])         # lattice offset of local code 0, 1, 2


def _unique_rows(rows: np.ndarray, shape):
    """``np.unique(rows, axis=0, return_inverse=True)`` for rows of
    non-negative integers below ``shape``: the distinct rows in the same
    lexicographic order, and each row's group.  It sorts one 1-D key (the
    row's C-order rank in ``shape``), since the axis form imports
    ``numpy.ma``, 9-21 ms on its first call in a fresh interpreter."""
    keys, group = np.unique(np.ravel_multi_index(tuple(rows.T), shape),
                            return_inverse=True)
    return np.stack(np.unravel_index(keys, shape), axis=-1), group


def _at(points: np.ndarray):
    """Index of lattice points (..., d) into a lattice array."""
    return tuple(points[..., k] for k in range(points.shape[-1]))


def _coords(mesh: Mesh, vertices: np.ndarray) -> np.ndarray:
    """Coordinates of vertex lattice points (..., d)."""
    return mesh.origin + mesh.h * (vertices // 2)


def _lattice(mesh: Mesh):
    """Per point of the mesh's lattice: the dimension j of its entity (-1
    where no cell holds it), and whether the entity is on the boundary,
    that is held by fewer cells than the 2^(d-j) around it."""
    d = mesh.dim
    codes = np.array(list(product(range(3), repeat=d)))
    held = np.zeros(2 * mesh.cells.max(axis=0) + 3, dtype=np.int64)
    np.add.at(held, _at(2 * mesh.cells[:, None] + _HALF[codes]), 1)
    odd = (np.indices(held.shape) % 2).sum(axis=0)
    return np.where(held > 0, odd, -1), (held > 0) & (held < 2 ** (d - odd))


def mesh_uniform(dim: int, n: int, domain=(0.0, 1.0)) -> Mesh:
    """n^d congruent elements on the box (lo, hi)^d, the domain given as
    the one pair (lo, hi).

    The ends must be finite real numbers (not strings or booleans) with
    lo < hi.  All of it is checked before h is computed, so a bad domain
    raises here rather than turning h and every coordinate downstream into
    inf or NaN."""
    _integer(dim=dim, n=n)
    if n < 1:
        raise ValueError("need n >= 1")
    dom = np.asarray(domain)
    if dom.shape != (2,) or dom.dtype.kind not in "iuf":
        raise ValueError(f"domain {domain} must be one (lo, hi) pair of "
                         f"real numbers")
    lo, hi = dom.astype(float)
    # the comparison is False for NaN too
    if not (lo < hi and np.isfinite(dom).all()):
        raise ValueError(f"domain {domain} must have finite ends and lo < hi")
    cells = np.array(list(product(range(n), repeat=dim)))
    return Mesh(dim=dim, h=float((hi - lo) / n), origin=np.full(dim, lo),
                cells=cells)


def mesh_lshape() -> Mesh:
    """The 12-element L-shape (-1,1)^2 minus [0,1) x (-1,0], squares of side 1/2."""
    cells = np.array([c for c in product(range(4), repeat=2)
                      if not (c[0] >= 2 and c[1] < 2)])
    return Mesh(dim=2, h=0.5, origin=np.full(2, -1.0), cells=cells,
                singular_corner=np.zeros(2))

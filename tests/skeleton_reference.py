"""Reference factorizations of the FEM skeleton, for tests only.

``assemble_skeleton`` builds the global sparse skeleton from the element
Schur complements, which ``fem`` never does: it is the reference
the multifrontal is checked against.  ``FACTORIZATIONS`` holds three
backward-stable factorizations of the free skeleton block, each called as
``fem._factor_multifrontal`` is, ``(S_loc, dofmap, free_ids)``, and each
returning an object with ``solve`` and ``nnz``.  The golden net measures its
resolution terms as the spread of the pinned FEM errors across them.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve

from hpexp import fem


def assemble_skeleton(S_loc, skel_dofs, n_skel: int):
    """Sparse sum of the element Schur complements over the skeleton,
    chunked over the elements to bound peak memory."""
    ne, nb = skel_dofs.shape
    S_glob = None
    chunk = max(1, int(2e7 // max(nb * nb, 1)))
    for start in range(0, ne, chunk):
        sl = slice(start, min(start + chunk, ne))
        data = np.broadcast_to(S_loc, (sl.stop - start, nb, nb))
        rows = np.repeat(skel_dofs[sl], nb, axis=1)
        cols = np.tile(skel_dofs[sl], (1, nb))
        part = sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(n_skel, n_skel)).tocsr()
        S_glob = part if S_glob is None else S_glob + part
    # no stored zeros, as after a sum of chunks: the ordering sees one pattern
    S_glob.eliminate_zeros()
    return S_glob


def free_skeleton_matrix(S_loc, dofmap, free_ids) -> sp.csc_matrix:
    """The assembled free block of the skeleton, in CSC form."""
    bl = dofmap.skeleton_local
    S = assemble_skeleton(S_loc, dofmap.cell_dofs[:, bl],
                          dofmap.interior_offset)
    return S[free_ids][:, free_ids].tocsc()


def superlu(S_loc, dofmap, free_ids):
    """SuperLU in symmetric mode: minimum degree on A^T + A, diagonal pivots."""
    return spla.splu(free_skeleton_matrix(S_loc, dofmap, free_ids),
                     permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


class _DenseCholesky:
    def __init__(self, A):
        self.cho = cho_factor(A, lower=True)
        self.nnz = A.shape[0] * (A.shape[0] + 1) // 2

    def solve(self, b):
        return cho_solve(self.cho, b)


def cholesky(S_loc, dofmap, free_ids):
    """Dense Cholesky of the assembled free skeleton block."""
    return _DenseCholesky(
        free_skeleton_matrix(S_loc, dofmap, free_ids).toarray())


FACTORIZATIONS = {"superlu": superlu,
                  "multifrontal": fem._factor_multifrontal,
                  "cholesky": cholesky}

"""Reference factorizations of the FEM skeleton, for tests only.

``assemble_skeleton`` builds the global sparse skeleton from the element
Schur complements, which ``fem`` never does: it is the reference
the multifrontal is checked against.  ``FACTORIZATIONS`` holds three
backward-stable factorizations of the free skeleton block, each called as
``fem._factor_multifrontal`` is, ``(S_loc, dofmap, free_ids)``, and each
returning an object with ``solve`` and ``nnz``.  The golden net measures its
resolution terms as the spread of the pinned FEM errors across them.

``factor_multifrontal_add_at`` is the multifrontal as it was before its
fronts were filled by block slices: the separators placed by
``dissect_skeleton_median`` (the plane nearest ``np.median`` of the dofs'
coordinates) and every front assembled by ``np.add.at`` over full index
arrays.  Its ordering and factors are the ones ``fem._factor_multifrontal``
must reproduce bit for bit.  Its dense kernels are the ones ``fem`` calls:
``hpexp.lapack``'s, from numpy's OpenBLAS, and numpy's ``eigh``.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.linalg import eigh

from hpexp import fem
from hpexp.lapack import dpotrf, dpotrs, dsyrk, dtrsm


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
        self.L = np.array(A, order="F")
        if dpotrf(self.L):
            raise np.linalg.LinAlgError("not positive definite")
        self.nnz = A.shape[0] * (A.shape[0] + 1) // 2

    def solve(self, b):
        x = b.copy()
        dpotrs(self.L, x)
        return x


def cholesky(S_loc, dofmap, free_ids):
    """Dense Cholesky of the assembled free skeleton block."""
    return _DenseCholesky(
        free_skeleton_matrix(S_loc, dofmap, free_ids).toarray())


def dissect_skeleton_median(dofmap, free_ids):
    """``fem._dissect_skeleton`` with the cut plane found by ``np.median``
    and ``np.argmin`` over the candidate planes.  It takes the same leaf
    rule, read from ``fem.LEAF_DOFS`` at the call: a region of at most that
    many free dofs is one separator of all of them, uncut."""
    cells, bl = dofmap.mesh.cells, dofmap.skeleton_local
    half = np.array([0, 2, 1])[np.minimum(
        [dofmap.local_modes[i] for i in bl], 2)]
    coords = np.empty((dofmap.interior_offset, cells.shape[1]), dtype=np.int64)
    coords[dofmap.cell_dofs[:, bl]] = 2 * cells[:, None, :] + half
    coords = coords[free_ids]
    seps, parent = [], []

    def visit(idx, lo, hi):
        if idx.size == 0:
            return -1
        a = int(np.argmax(hi - lo))
        planes = np.arange(lo[a] + 2, hi[a], 2)
        if planes.size == 0:
            raise ValueError("free skeleton dofs left in a one-cell region")
        if idx.size <= fem.LEAF_DOFS:
            seps.append(idx)
            parent.append(-1)
            return len(seps) - 1
        c = coords[idx, a]
        k = planes[np.argmin(np.abs(planes - np.median(c)))]
        upper, lower = hi.copy(), lo.copy()
        upper[a] = lower[a] = k
        kids = (visit(idx[c < k], lo, upper), visit(idx[c > k], lower, hi))
        seps.append(idx[c == k])
        parent.append(-1)
        for kid in kids:
            if kid >= 0:
                parent[kid] = len(seps) - 1
        return len(seps) - 1

    visit(np.arange(free_ids.size), 2 * cells.min(axis=0),
          2 * (cells.max(axis=0) + 1))
    return seps, np.array(parent, dtype=np.int64)


def factor_multifrontal_add_at(S_loc, dofmap, free_ids):
    """``fem._factor_multifrontal`` as it was, on the separators of
    ``dissect_skeleton_median``, with its fronts filled by ``np.add.at``:
    the element Schur complements through one flat index per entry (a
    non-free dof adds 0.0 at entry 0), then each child's whole update matrix,
    upper triangle included.  Same dissection, elimination order, LAPACK
    calls and certificate."""
    seps, parent = dissect_skeleton_median(dofmap, free_ids)
    n, n_nodes = free_ids.size, len(seps)
    sizes = np.array([s.size for s in seps], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    perm = np.concatenate(seps) if seps else np.zeros(0, dtype=np.int64)
    rank = -np.ones(dofmap.interior_offset, dtype=np.int64)
    rank[free_ids[perm]] = np.arange(n)
    ranks = rank[dofmap.cell_dofs[:, dofmap.skeleton_local]]
    first = np.where(ranks >= 0, ranks, n).min(axis=1)
    owned = np.nonzero(first < n)[0]
    node_of = np.repeat(np.arange(n_nodes), sizes)[first[owned]]
    order = np.argsort(node_of, kind="stable")
    elements = np.split(owned[order], np.cumsum(
        np.bincount(node_of, minlength=n_nodes))[:-1])

    where = np.zeros(n, dtype=np.int64)
    pending, fronts = {}, []
    n_nonpos = 0
    for node in range(n_nodes):
        s, e = starts[node], ends[node]
        R = ranks[elements[node]]
        kids = pending.pop(node, [])
        idx = np.unique(np.concatenate([np.arange(s, e), R[R >= 0]]
                                       + [ids for ids, _ in kids]))
        m, k = idx.size, e - s
        where[idx] = np.arange(m)
        free = R >= 0
        pos = np.where(free, where[R], 0)
        F = np.zeros((m, m), order="F")
        flat = F.reshape(-1, order="F")
        np.add.at(flat, (pos[:, :, None] + m * pos[:, None, :]).ravel(),
                  np.where(free[:, :, None] & free[:, None, :], S_loc,
                           0.0).ravel())
        for ids, U in kids:
            loc = where[ids]
            np.add.at(flat, (loc[:, None] + m * loc).ravel(order="F"),
                      U.ravel(order="F"))
        L11 = L21 = None
        U = F[k:, k:]
        if k:
            L11 = np.array(np.tril(F[:k, :k]), order="F")
            if dpotrf(L11) == 0:
                if m > k:
                    L21 = np.array(F[k:, :k], order="F")
                    dtrsm(L11, L21)
                    U = np.array(U, order="F")
                    dsyrk(L21, U)
            else:
                w, V = eigh(F[:k, :k], UPLO="L")
                n_nonpos += int(np.count_nonzero(w <= 0.0))
                if not np.all(np.abs(w) > 0.0):
                    raise fem.IndefiniteSystemError(
                        f"skeleton not SPD: singular pivot block, at least "
                        f"{n_nonpos} non-positive pivot(s) of {n}")
                W = F[k:, :k] @ V
                U = U - (W / w) @ W.T
        fronts.append((s, e, idx[k:], L11, L21))
        if parent[node] >= 0:
            pending.setdefault(parent[node], []).append((idx[k:], U))
    if n_nonpos:
        raise fem.IndefiniteSystemError(
            f"skeleton not SPD: {n_nonpos} non-positive pivot(s) of {n}")
    return fem._Multifrontal(perm, fronts)


FACTORIZATIONS = {"superlu": superlu,
                  "multifrontal": fem._factor_multifrontal,
                  "cholesky": cholesky}

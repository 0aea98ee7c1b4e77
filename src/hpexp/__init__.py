"""p-version approximation on tensor-product elements.

Legendre expansion machinery, L2/H1 projections onto full tensor-product,
total-degree and serendipity spaces, the Gamma-ratio error-bound toolbox, and
conforming/discontinuous Galerkin Poisson solvers for exponential-convergence
experiments under p-refinement.

Every OpenBLAS runs one thread from the import that loads it (see
``hpexp.blas``), in the whole process and over any ``OPENBLAS_NUM_THREADS``
the environment sets: on a 2-core host a second OpenBLAS thread spins between
calls, and the FEM benchmark sweeps took about 1.55x as long with it, also in
stages that make no BLAS call.  Importing the package sets the copies loaded
at that point: numpy's, whose LAPACK ``fem`` calls through ``hpexp.lapack``.
``dgfem``, the only module that imports scipy (its top level, and SuperLU
and the sparse kernels from their compiled files), sets scipy's copy, which
SuperLU links, as it loads it.  Every meta.json records the count in use.

The coefficient layers (``orthopoly``, ``indexsets``, ``functions``,
``expansion``, ``projections``, ``bounds``), ``mesh``, ``harness`` and
``fem`` import numpy alone.  ``harness`` imports the layers of each kind
when a sweep of it first runs, so a fresh run loads and compiles only what
it runs: a projection, lemma or FEM run never loads scipy, a FEM run no
coefficient layer beyond ``orthopoly``, ``indexsets`` and ``functions``,
and a DG run no ``fem`` (it runs on ``mesh``).
"""

from . import blas

__version__ = "0.1.0"

blas.set_threads(1)

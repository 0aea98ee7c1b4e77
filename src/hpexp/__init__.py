"""p-version approximation on tensor-product elements.

Legendre expansion machinery, L2/H1 projections onto full tensor-product,
total-degree and serendipity spaces, the Gamma-ratio error-bound toolbox, and
conforming/discontinuous Galerkin Poisson solvers for exponential-convergence
experiments under p-refinement.

Importing the package sets every loaded OpenBLAS to one thread (see
``hpexp.blas``), in the whole process and over any ``OPENBLAS_NUM_THREADS``
the environment sets: on a 2-core host a second OpenBLAS thread spins between
calls, and the FEM benchmark sweeps took about 1.55x as long with it, also in
stages that make no BLAS call.  Every meta.json records the count in use.
"""

from . import blas

__version__ = "0.1.0"

blas.set_threads(1)

"""The sweeps' named failures, in a module that imports nothing.

``fem`` and ``dgfem`` raise the solvers' numerical failures, and
``projections`` a degree its projection does not admit; each re-exports
its own.  ``harness`` names them in ``SWEEP_ERRORS`` without importing a
solver, the projections or scipy.
"""

from __future__ import annotations

__all__ = ["IndefiniteSystemError", "RefinementError", "IndefiniteSipError",
           "InadmissibleDegreeError"]


class IndefiniteSystemError(RuntimeError):
    """The condensed system is not symmetric positive definite."""


class RefinementError(RuntimeError):
    """Iterative refinement left the relative residual at or above its bound."""


class IndefiniteSipError(RuntimeError):
    """The SIP-DG matrix is not positive definite (the penalty is too small)."""


class InadmissibleDegreeError(ValueError):
    """The projection is not defined at the requested degree."""

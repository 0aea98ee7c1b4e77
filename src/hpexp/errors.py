"""The solvers' named numerical failures, in a module that imports nothing.

``fem`` and ``dgfem`` raise them and re-export them; ``harness`` names them
in ``SWEEP_ERRORS`` without importing either solver or scipy.
"""

from __future__ import annotations

__all__ = ["IndefiniteSystemError", "RefinementError", "IndefiniteSipError"]


class IndefiniteSystemError(RuntimeError):
    """The condensed system is not symmetric positive definite."""


class RefinementError(RuntimeError):
    """Iterative refinement left the relative residual at or above its bound."""


class IndefiniteSipError(RuntimeError):
    """The SIP-DG matrix is not positive definite (the penalty is too small)."""

"""The analytic test functions of the sweeps, in a module that imports numpy
and ``indexsets`` alone.

A ``FunctionOracle`` is a function of d coordinates with the derivatives a
solver needs; ``named_function`` builds the built-in ones.  ``expansion``
expands them into Legendre coefficients, and ``fem`` and ``harness`` read
the sine's source, gradient and Dirichlet data from here without loading
the coefficient layers.  ``expansion`` re-exports both names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .indexsets import _integer

__all__ = ["FunctionOracle", "named_function"]


@dataclass(frozen=True)
class FunctionOracle:
    """A function of d coordinates, with the derivatives a solver needs.

    ``f`` takes d broadcastable coordinate arrays, anywhere in R^d, not only
    on the reference element.  ``gradient`` returns the d partial
    derivatives and ``source`` is -Laplace(u); both are set for the sine,
    whose FEM and DG problems take u, grad u and -Laplace(u) from here.
    """

    dim: int
    f: Callable[..., np.ndarray]
    gradient: Optional[Callable[..., tuple[np.ndarray, ...]]] = None
    source: Optional[Callable[..., np.ndarray]] = None


def named_function(name: str, dim: int, runge_a: float = 0.5) -> FunctionOracle:
    """Built-in analytic test functions: 'sine', 'expsum', 'runge1d-tensor'
    of dim >= 1 coordinates; ``runge_a``, a finite positive real, is the
    Runge function's width."""
    _integer(dim=dim)
    a = np.asarray(runge_a)
    # runge_a must be a real number, not a string or a boolean; the chained
    # comparison is False for NaN too
    if dim < 1 or a.shape or a.dtype.kind not in "iuf" or not 0 < a < np.inf:
        raise ValueError(f"need dim >= 1 and a finite runge_a > 0, not "
                         f"dim = {dim}, runge_a = {runge_a!r}")
    if name == "sine":
        def f(*xs):
            out = np.sin(np.pi * xs[0])
            for x in xs[1:]:
                out = out * np.sin(np.pi * x)
            return out

        # the pinned solver errors fix the operand order: ((pi f_0) f_1) f_2
        # with f_k the cosine factor, and ((d pi^2) s_0) s_1 for -Laplace(u)
        def gradient(*xs):
            outs = []
            for k in range(dim):
                g = np.pi
                for j, x in enumerate(xs):
                    g = g * (np.cos if j == k else np.sin)(np.pi * x)
                outs.append(g)
            return tuple(outs)

        def source(*xs):
            out = dim * np.pi ** 2
            for x in xs:
                out = out * np.sin(np.pi * x)
            return out

        return FunctionOracle(dim=dim, f=f, gradient=gradient, source=source)
    if name == "expsum":
        return FunctionOracle(dim=dim, f=lambda *xs: np.exp(sum(xs)))
    if name == "runge1d-tensor":
        def f(*xs):
            out = 1.0 / (1.0 + (xs[0] / runge_a) ** 2)
            for x in xs[1:]:
                out = out / (1.0 + (x / runge_a) ** 2)
            return out

        return FunctionOracle(dim=dim, f=f)
    raise ValueError(f"unknown function name {name!r}")

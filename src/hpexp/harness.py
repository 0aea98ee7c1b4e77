"""Experiment orchestration: sweeps, slope fits, ratio reports, CSV/JSON output.

``KINDS`` maps each config ``kind`` to its keys (the one declaration of
each, read by the validator and by the CLI's sweep subcommands; a key is
declared only where a workload, an acceptance criterion or a demo sets it),
its records' error keys, its meta and a solver ``solve_one(p) -> (dof, errors,
extra)`` over the layers' stage functions.  ``sweep`` is the one loop over
degrees; ``run_config`` validates a whole config before running any sweep
and writes the files, and its project-sweeps share each distinct reference
expansion; ``run_sweep`` validates and runs one sweep and writes nothing.
Each kind's solver imports the layers it runs when a sweep of it first
runs: ``fem``, ``dgfem`` (which alone imports scipy), ``expansion`` with
``projections``, or ``bounds``.  So a fresh interpreter loads and compiles
only the layers its sweeps use, and the meta reads scipy's version from its
installed metadata file without importing scipy or ``importlib.metadata``.

Slopes of exponential convergence curves are measured on log(error) against
either p or Dof^(1/d).  The headline ``slope`` follows the windowed
convention: the average of the last ``SLOPE_WINDOW`` = 2 segment slopes of
the convergence line, after excluding the round-off plateau (errors at the
``ERROR_FLOOR`` = 1e-12 floor, plus trailing segments whose slope collapses
relative to the curve's own scale).  Window and floor are fixed: every
experiment fits with them.  A full least-squares slope and its r^2 over the
same points are reported alongside.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import time
from dataclasses import dataclass, field
from functools import cache
from math import factorial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

import numpy as np

from . import __version__, blas
from .errors import (InadmissibleDegreeError, IndefiniteSipError,
                     IndefiniteSystemError, RefinementError)
from .functions import named_function
from .indexsets import LEMMA_AUDIT_CAP, BasisSpec, dof_count

if TYPE_CHECKING:
    from .expansion import CoeffTensor

__all__ = [
    "ConvergenceRecord",
    "SlopeFit",
    "Solver",
    "fit_slope",
    "ratio_report",
    "records_to_csv",
    "records_from_csv",
    "write_records",
    "sweep",
    "run_sweep",
    "run_config",
    "ConfigError",
    "OutputError",
    "KINDS",
    "PROJECTION_KINDS",
    "SWEEP_ERRORS",
]

ERROR_FLOOR = 1e-12
# the headline slope of ``fit_slope`` averages this many trailing segments
SLOPE_WINDOW = 2
# a trailing segment of a fit whose slope is below this share of the
# steepest segment is the round-off plateau (``fit_slope``)
PLATEAU_REL = 0.2


@dataclass(frozen=True)
class ConvergenceRecord:
    """One sweep observation: method tag, degree, Dof and an error map."""

    method: str
    p: int
    dim: int
    dof: int
    errors: dict
    extra: dict = field(default_factory=dict)

    def error(self, key: str) -> float:
        return float(self.errors[key])


@dataclass(frozen=True)
class SlopeFit:
    """Fitted exponential slope on log(error) vs p or Dof^(1/d)."""

    slope: float            # windowed: mean of the last two segment slopes
    lsq_slope: float
    r_squared: float
    abscissa: str           # "p" | "dof_root"
    dim: int
    n_points: int


def _abscissa_values(records, abscissa: str) -> np.ndarray:
    if abscissa == "p":
        return np.array([r.p for r in records], dtype=float)
    if abscissa == "dof_root":
        return np.array([r.dof ** (1.0 / r.dim) for r in records])
    raise ValueError("abscissa must be 'p' or 'dof_root'")


def fit_slope(records, abscissa: str = "dof_root",
              error_key: str = "l2") -> SlopeFit:
    """Windowed + least-squares slope of log(error) against the abscissa.

    Records with error <= ``ERROR_FLOOR`` are excluded; trailing segments
    whose slope falls below ``PLATEAU_REL`` times the steepest segment seen
    are treated as the round-off plateau and dropped, and the headline slope
    is the mean of the last ``SLOPE_WINDOW`` segments left.
    """
    recs = [r for r in records if np.isfinite(r.error(error_key))]
    for r in recs:
        if r.error(error_key) < 0:
            raise ValueError("errors must be positive to fit a slope")
    recs = [r for r in recs if r.error(error_key) > ERROR_FLOOR]
    if len(recs) < SLOPE_WINDOW + 1:
        raise ValueError("not enough points above the floor to fit")
    x = _abscissa_values(recs, abscissa)
    y = np.log([r.error(error_key) for r in recs])
    slopes = -(np.diff(y) / np.diff(x))
    while (slopes.size > SLOPE_WINDOW
           and slopes[-1] < PLATEAU_REL * slopes.max()):
        slopes = slopes[:-1]
        x, y = x[:-1], y[:-1]
    win_slope = float(np.mean(slopes[-SLOPE_WINDOW:]))
    A = np.vstack([x, np.ones_like(x)]).T
    (lsq, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = A @ [lsq, intercept] - y
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(slope=win_slope, lsq_slope=float(-lsq), r_squared=r2,
                    abscissa=abscissa, dim=recs[0].dim, n_points=len(x))


def ratio_report(fit_a: SlopeFit, fit_b: SlopeFit) -> dict:
    """Slope ratio a/b with the ideal (d!)^(1/d) target for Dof-root fits."""
    if fit_a.abscissa != fit_b.abscissa:
        raise ValueError("cannot compare fits on different abscissae")
    if fit_a.dim != fit_b.dim:
        # the ideal (d!)^(1/d) is that of one dimension
        raise ValueError("cannot compare fits of different dimensions")
    ratio = fit_a.slope / fit_b.slope
    ideal = factorial(fit_a.dim) ** (1.0 / fit_a.dim) \
        if fit_a.abscissa == "dof_root" else 1.0
    return {"ratio": float(ratio), "ideal": float(ideal),
            "lsq_ratio": float(fit_a.lsq_slope / fit_b.lsq_slope)}


# ---------------------------------------------------------------------------
# Sweeps

# The solvers' named numerical failures and a degree a projection does not
# admit; a sweep records them, and anything else (a plain ValueError too) is
# a bug.  They live in ``errors``, outside the solver and projection
# modules, which a sweep imports only when it runs a solver of theirs.
SWEEP_ERRORS = (IndefiniteSystemError, RefinementError, IndefiniteSipError,
                np.linalg.LinAlgError, InadmissibleDegreeError)


class Solver(NamedTuple):
    """One sweep's per-degree solve and the tags its records carry."""

    method: str
    dim: int
    error_keys: tuple
    solve_one: Callable     # p -> (dof, errors, extra)


def _unsolved(solver: Solver, p: int, extra: dict) -> ConvergenceRecord:
    return ConvergenceRecord(method=solver.method, p=p, dim=solver.dim, dof=-1,
                             errors={k: float("nan") for k in solver.error_keys},
                             extra=extra)


def sweep(solver: Solver, p_list,
          stop_below: Optional[float] = None) -> list[ConvergenceRecord]:
    """One record per degree.  A solve that raises one of ``SWEEP_ERRORS``
    gives NaN errors, dof -1, and ``error_class`` and ``error_message`` in
    ``extra``; the sweep goes on.  Once all errors of a record are below
    ``stop_below``, the later degrees are skipped the same way."""
    out = []
    floored = False
    for p in p_list:
        p = int(p)
        if floored:
            out.append(_unsolved(solver, p, {
                "error_message": "skipped: error already below stop_below"}))
            continue
        try:
            dof, errors, extra = solver.solve_one(p)
        except SWEEP_ERRORS as exc:
            out.append(_unsolved(solver, p, {"error_class": type(exc).__name__,
                                             "error_message": str(exc)}))
            continue
        out.append(ConvergenceRecord(method=solver.method, p=p, dim=solver.dim,
                                     dof=dof, errors=errors, extra=extra))
        floored = (stop_below is not None and bool(errors)
                   and max(errors.values()) < stop_below)
    return out


def _with_p_rate(records: list[ConvergenceRecord]) -> list[ConvergenceRecord]:
    """FEM records: the algebraic rate from each solved degree to the next.

    A pair with an error at or below ``ERROR_FLOOR`` gets none: such an
    error is solver round-off, and so would be its rate."""
    for a, b in zip(records, records[1:]):
        if "error_message" in a.extra or "error_message" in b.extra:
            continue
        ea, eb = a.error("h1_semi"), b.error("h1_semi")
        if np.isfinite(ea) and ea > ERROR_FLOOR and eb > ERROR_FLOOR:
            b.extra["p_rate"] = float(np.log(ea / eb) / np.log(b.p / a.p))
    return records


def _fem_solver(sw: dict, references: Optional[dict] = None):
    from . import fem
    # n is a key of fem-sine alone, so the L-shape gets the default
    prob = fem.fem_problem("lshape" if sw["kind"] == "fem-lshape"
                           else f"sine{sw.get('dim', 2)}d", n=sw.get("n"))
    mesh = prob.make_mesh()
    family = sw["family"]

    def solve_one(p):
        dofmap = fem.build_dofmap(mesh, p, family)
        system = fem.assemble_poisson(mesh, dofmap, prob.source, prob.dirichlet)
        sol = fem.condense_solve(system, dofmap)
        # the system (its dense k_local: 3.6 MB at Q p = 25 in 2D) is not
        # held through the error quadrature
        del system
        # the sine meshes have no singular corner: plain Gauss throughout
        err = fem.h1_error(sol, prob.exact_gradient,
                           graded_at=mesh.singular_corner)
        return (dofmap.n_dof, {"h1_semi": err},
                {"residual": sol.residual_norm,
                 "skeleton_free": sol.skeleton_free,
                 "factor_nnz": sol.factor_nnz})

    return f"fem_{family.lower()}", mesh.dim, sw["p_list"], solve_one


def _dg_solver(sw: dict, references: Optional[dict] = None):
    from . import dgfem
    n, family, gamma = sw.get("n", 8), sw["family"], sw.get("gamma", 10.0)
    # u is the exact solution and the Dirichlet data
    u = named_function("sine", 2)

    def solve_one(p):
        spec = dgfem.DgSpec(family=family, p=p, gamma=gamma)
        system = dgfem.assemble_sip(n, spec, u.source, u.f)
        sol = dgfem.dg_solve(system)
        errors = dgfem.dg_errors(sol, u.f, u.gradient)
        return (sol.coeffs.size, errors,
                {"residual": sol.residual_norm, "factor_nnz": sol.factor_nnz})

    return f"dg_{family.lower()}", 2, sw["p_list"], solve_one


def _projections():
    from . import projections
    return projections


# projection kind -> (projection, family of its Dof count); ``projections``
# is imported on the first call
_PROJECTIONS = {
    "l2q": (lambda u, p: _projections().project_l2(u, "Q", p), "Q"),
    "l2p": (lambda u, p: _projections().project_l2(u, "P", p), "P"),
    "h1q": (lambda u, p: _projections().project_h1_q(u, p), "Q"),
    "h1s": (lambda u, p: _projections().project_h1_s(u, p), "S"),
    "h1p": (lambda u, p: _projections().project_h1_p(u, p), "P"),
}
PROJECTION_KINDS = tuple(_PROJECTIONS)


class _Reference(NamedTuple):
    """A project-sweep's reference expansion and the sweep that built it."""

    u: CoeffTensor
    built_by: str


def _reference_key(sw: dict) -> tuple:
    """The effective (function, dim, p_max, margin) of a project-sweep,
    defaults filled in: sweeps with equal keys measure against the same
    reference expansion."""
    from .expansion import DEFAULT_REFERENCE_MARGIN
    return (sw.get("function", "sine"), sw["dim"], sw["p_max"],
            sw.get("margin", DEFAULT_REFERENCE_MARGIN))


def _reference(sw: dict, references: dict) -> _Reference:
    """The sweep's reference from ``references``, a table keyed by
    ``_reference_key``; on a miss it is built and entered there."""
    from . import expansion
    key = _reference_key(sw)
    if key not in references:
        function, dim, p_max, margin = key
        oracle = named_function(function, dim)
        references[key] = _Reference(
            expansion.reference_expansion(oracle, p_max, margin=margin),
            sw["name"])
    return references[key]


def _projection_solver(sw: dict, references: Optional[dict] = None):
    """Projection errors on the reference element against one overkill
    expansion of the named function, taken from ``references`` (built for
    this sweep alone without one)."""
    from .projections import projection_errors
    dim = sw["dim"]
    project, family = _PROJECTIONS[sw["proj_kind"]]
    u = _reference(sw, {} if references is None else references).u

    def solve_one(p):
        res = project(u, p)
        dof = dof_count(BasisSpec(dim, p, family))
        err = projection_errors(u, res)
        return (dof, {"l2": err.l2, "h1_semi": err.h1_semi},
                {"trusted": err.trusted})

    return (f"proj_{sw['proj_kind']}", dim, range(sw["p_min"], sw["p_max"] + 1),
            solve_one)


def _basis_count_solver(sw: dict, references: Optional[dict] = None):
    dim, family = sw.get("dim", 2), sw.get("family", "Q")
    start = 1 if family == "S" else 0
    return ("basis_count", dim, range(start, sw.get("p_max", 10) + 1),
            lambda p: (dof_count(BasisSpec(dim, p, family)), {}, {}))


# ---------------------------------------------------------------------------
# CSV / JSON persistence


def records_to_csv(records: list[ConvergenceRecord]) -> str:
    """Stable CSV: header + one row per record, 15 significant digits."""
    keys = sorted({k for r in records for k in r.errors})
    extra_keys = sorted({k for r in records for k in r.extra
                         if isinstance(r.extra[k], (int, float))})
    header = ["method", "p", "dim", "dof"] + keys + extra_keys
    lines = [",".join(header)]
    for r in records:
        row = [r.method, str(r.p), str(r.dim), str(r.dof)]
        row += [f"{float(r.errors.get(k, float('nan'))):.14e}" for k in keys]
        row += [f"{float(r.extra[k]):.14e}" if k in r.extra else ""
                for k in extra_keys]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def records_from_csv(text: str) -> list[ConvergenceRecord]:
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("the CSV is empty: no header line")
    header = lines[0][1].split(",")
    fixed = ("method", "p", "dim", "dof")
    error_keys = {k for kind in KINDS.values() for k in kind.error_keys}
    out = []
    for n, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {n} has {len(cells)} cells, the header "
                             f"has {len(header)}")
        row = dict(zip(header, cells))
        errors, extra = {}, {}
        for k in header:
            if k in fixed or row[k] == "":
                continue
            (errors if k in error_keys else extra)[k] = float(row[k])
        out.append(ConvergenceRecord(method=row["method"], p=int(row["p"]),
                                     dim=int(row["dim"]), dof=int(row["dof"]),
                                     errors=errors, extra=extra))
    return out


@cache
def _scipy_version() -> str:
    """The installed scipy's version, read without importing scipy: the
    ``Version:`` line of the ``scipy-*.dist-info/METADATA`` beside the
    package.  ``importlib.metadata`` takes about 60 ms in a fresh
    interpreter (its imports and a scan of every ``sys.path`` entry), and
    is asked only where no such file is found."""
    spec = importlib.util.find_spec("scipy")
    if spec is not None and spec.origin:
        site = Path(spec.origin).parent.parent
        for meta in sorted(site.glob("scipy-*.dist-info/METADATA")):
            for line in meta.read_text(encoding="utf-8").splitlines():
                if line.startswith("Version:"):
                    return line.split(":", 1)[1].strip()
    from importlib.metadata import version
    return version("scipy")


def _environment() -> dict:
    """Versions, CPU count, the BLAS thread variables that are set, and the
    BLAS threads in use: per loaded OpenBLAS, the count it reports (``None``
    with no known BLAS); a run that loaded no DG solver lists numpy's copy
    alone.  Each copy is set to one thread by the import that loads it, over
    any ``OPENBLAS_NUM_THREADS`` listed with the variables."""
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": _scipy_version(), "cpu_count": os.cpu_count(),
            "threads": {k: os.environ[k] for k in threads if k in os.environ},
            "blas_threads": blas.threads()}


class OutputError(OSError):
    """An output directory that cannot be created."""


def _output_dir(path) -> Path:
    """``path``, created with its parents where missing; a path that cannot
    be a directory (it or a parent is a file) raises ``OutputError``
    naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create the output directory {path}: "
                          f"{exc.strerror}") from exc
    return path


def write_records(records, path_prefix, meta: Optional[dict] = None) -> None:
    """Write PREFIX.csv and PREFIX.meta.json; a dotted prefix is kept whole.

    The environment goes into the meta only, so the CSV stays comparable
    across machines.
    """
    prefix = Path(path_prefix)
    _output_dir(prefix.parent)
    Path(f"{prefix}.csv").write_text(records_to_csv(records))
    payload = {"tool": "hpexp", "version": __version__,
               "environment": _environment()}
    payload.update(meta or {})
    Path(f"{prefix}.meta.json").write_text(json.dumps(payload, indent=2,
                                                      default=str) + "\n")


# ---------------------------------------------------------------------------
# Config-driven runs


class ConfigError(ValueError):
    pass


class Key(NamedTuple):
    """One config key of a kind: whether a sweep must give it, its check
    ``ok(value) -> bool`` and the text that describes a valid value, the
    type a command-line value converts with, and the values the command line
    offers (None when the check alone applies)."""

    required: bool
    ok: Callable
    text: str
    type: Callable
    choices: Optional[tuple] = None


def _int(lo: int, hi: Optional[int] = None, required: bool = False) -> Key:
    text = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    return Key(required, lambda v: type(v) is int and lo <= v
               and (hi is None or v <= hi), text, int)


def _number(lo: float) -> Key:
    return Key(False, lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool) and lo < v < float("inf"),
               f"a number in ({lo}, inf)", float)


def _choice(options: tuple, required: bool = False) -> Key:
    return Key(required, lambda v: isinstance(v, str) and v in options,
               f"one of {options}", str, options)


def int_list(text: str) -> list[int]:
    """The integers of a comma separated list: a p_list on the command line."""
    return [int(t) for t in text.split(",")]


_P_LIST = Key(True, lambda v: isinstance(v, list) and bool(v)
              and all(type(p) is int and p >= 1 for p in v)
              and all(a < b for a, b in zip(v, v[1:])),
              "a non-empty, strictly increasing list of integers >= 1",
              int_list)


class Kind(NamedTuple):
    """One config ``kind``: a one-line description, a ``Key`` for each key
    besides name and kind (the config validator and the CLI's subcommand of
    the kind both read them), the records' error keys, a solver mapping a
    sweep, and optionally the run's table of reference expansions (which only
    the project-sweep reads, see ``_reference``), to ``(method, dim, degrees,
    solve_one)`` (none for lemma-audit, whose rows are indexed by two
    budgets), and the extra fields of the meta."""

    help: str
    fields: dict
    error_keys: tuple = ()
    solver: Optional[Callable] = None
    meta: Callable = lambda sw: {}


def _lshape_meta(sw: dict) -> dict:
    """The error quadrature of ``h1_error`` at its defaults: the graded ratio,
    and the layers, points per axis and points per corner element at each
    degree of ``p_list``, in its order."""
    from . import fem
    from .orthopoly import graded_rule
    sigma = fem.GRADED_SIGMA_DEFAULT
    rules = [fem.error_quadrature(p) for p in sw["p_list"]]
    return {"quadrature": {
        "graded_sigma": sigma,
        "graded_layers": [layers for layers, _ in rules],
        "error_rule_order": [order for _, order in rules],
        "corner_points": [
            graded_rule(sigma, layers, order, (-1, -1)).nodes.shape[1]
            * order ** 2 for layers, order in rules]}}


KINDS = {
    "project-sweep": Kind(
        "projection error sweep",
        {"proj_kind": _choice(PROJECTION_KINDS, required=True),
         "dim": _int(2, 3, required=True),
         "p_min": _int(0, required=True), "p_max": _int(0, required=True),
         "function": _choice(("sine", "expsum", "runge1d-tensor")),
         # projection_errors needs the reference 4 degrees above p_max
         "margin": _int(4)},
        ("l2", "h1_semi"), _projection_solver),
    "fem-sine": Kind(
        "sine Poisson benchmark",
        {"family": _choice(("Q", "S"), required=True), "p_list": _P_LIST,
         "dim": _int(2, 3), "n": _int(1)},
        ("h1_semi",), _fem_solver),
    "fem-lshape": Kind(
        "L-shape corner benchmark",
        {"family": _choice(("Q", "S"), required=True), "p_list": _P_LIST},
        ("h1_semi",), _fem_solver, _lshape_meta),
    "dg-sine": Kind(
        "SIP DG sine benchmark",
        {"family": _choice(("Q", "P"), required=True), "p_list": _P_LIST,
         "n": _int(1), "gamma": _number(0.0)},
        ("l2", "broken_h1", "dg_norm"), _dg_solver,
        lambda sw: {"dg_norm_definition":
                    "sqrt(broken_h1^2 + sum_F sigma_F ||[u-u_h]||_F^2)"}),
    "basis-count": Kind(
        "Dof table for one family",
        {"dim": _int(2, 3), "family": _choice(("Q", "P", "S")),
         "p_max": _int(1)},
        (), _basis_count_solver),
    "lemma-audit": Kind(
        "lattice audit of the Gamma bound",
        {"dim": _int(1, 3), "M_max": _int(0, LEMMA_AUDIT_CAP),
         "m_max": _int(0)},
        ("lattice_max", "phi")),
}


def _validate_sweep(i: int, sw) -> None:
    where = f"sweeps[{i}]"
    if not isinstance(sw, dict):
        raise ConfigError(f"{where}: must be an object")
    name = sw.get("name")
    if (not isinstance(name, str) or name in ("", ".", "..") or "\0" in name
            or Path(name).name != name):
        raise ConfigError(f"{where}.name: required plain file name")
    if not isinstance(sw.get("kind"), str) or sw["kind"] not in KINDS:
        raise ConfigError(f"{where}.kind: must be one of {tuple(KINDS)}")
    fields = KINDS[sw["kind"]].fields
    unknown = sorted(sw.keys() - fields.keys() - {"name", "kind"})
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: not a key of kind "
                          f"{sw['kind']!r}")
    for k, key in fields.items():
        if k not in sw:
            if key.required:
                raise ConfigError(f"{where}.{k}: required, {key.text}")
        elif not key.ok(sw[k]):
            raise ConfigError(f"{where}.{k}: must be {key.text}")
    if sw["kind"] == "project-sweep" and sw["p_min"] > sw["p_max"]:
        raise ConfigError(f"{where}.p_min: must not exceed p_max")


def _validated_sweeps(config) -> list[dict]:
    """The sweeps of a config, the root and every sweep checked before any of
    them runs.  A config given as a path is read as UTF-8 JSON; a file that
    cannot be read (missing, a directory, not UTF-8) or parsed is a
    ``ConfigError`` that names the path."""
    if isinstance(config, (str, Path)):
        try:
            config = json.loads(Path(config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {config} as JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    unknown = sorted(config.keys() - {"sweeps"})
    if unknown:
        raise ConfigError(f"{unknown[0]}: not a root key, only sweeps is")
    if "sweeps" not in config or not isinstance(config["sweeps"], list):
        raise ConfigError("sweeps: required list")
    written = {}
    for i, sw in enumerate(config["sweeps"]):
        _validate_sweep(i, sw)
        csv = f"{sw['name']}.csv"
        if csv in written:
            raise ConfigError(f"sweeps[{i}].name: writes {csv} as "
                              f"sweeps[{written[csv]}] does")
        written[csv] = i
    return config["sweeps"]


def _lemma_records(sw: dict) -> list[ConvergenceRecord]:
    """Lattice audits of the Gamma bound; M is stored in ``p``, m in ``dof``."""
    from .bounds import lemma_audit
    dim, out = sw.get("dim", 2), []
    for M in range(sw.get("M_max", 10) + 1):
        for m in range(min(sw.get("m_max", 10), M) + 1):
            rep = lemma_audit(dim, M, m)
            out.append(ConvergenceRecord(
                method="lemma_audit", p=M, dim=dim, dof=m,
                errors={"lattice_max": rep.lattice_max, "phi": rep.phi_value},
                extra={"holds": rep.holds, "argmax_xi": rep.argmax_xi,
                       "argmax_rho": rep.argmax_rho}))
    return out


def _records(sw: dict, stop_below: Optional[float] = None,
             references: Optional[dict] = None) -> list[ConvergenceRecord]:
    kind = KINDS[sw["kind"]]
    if kind.solver is None:
        return _lemma_records(sw)
    method, dim, degrees, solve_one = kind.solver(sw, references)
    records = sweep(Solver(method, dim, kind.error_keys, solve_one), degrees,
                    stop_below)
    return _with_p_rate(records) if sw["kind"].startswith("fem-") else records


def run_sweep(sw: dict, stop_below: Optional[float] = None) -> list[ConvergenceRecord]:
    """Validate one sweep in the config format and run it; writes nothing.
    A project-sweep builds its own reference expansion."""
    _validated_sweeps({"sweeps": [sw]})
    return _records(sw, stop_below)


def run_config(config, out_dir=".") -> dict:
    """Validate and execute a sweep bundle; returns {name: records}.

    The whole config is validated, and ``out_dir`` created, before anything
    runs, so a malformed config produces no partial files and an output
    directory that cannot be created (``OutputError``) fails before any
    sweep.  Project-sweeps with equal ``_reference_key``
    share one reference expansion, with its outer-shell tables: the first of
    them builds it inside its ``seconds``, and it is dropped after the last,
    so the run holds no reference that no later sweep reads.  Each
    project-sweep meta records the reference's degree and builder.
    """
    sweeps = _validated_sweeps(config)
    out_dir = _output_dir(out_dir)
    last_use = {_reference_key(sw): i for i, sw in enumerate(sweeps)
                if sw["kind"] == "project-sweep"}
    references, results = {}, {}
    for i, sw in enumerate(sweeps):
        t0 = time.perf_counter()
        recs = _records(sw, references=references)
        meta = {"sweep": sw, **KINDS[sw["kind"]].meta(sw),
                "seconds": time.perf_counter() - t0}
        if sw["kind"] == "project-sweep":
            key = _reference_key(sw)
            meta["reference"] = {"degree": references[key].u.degrees[0],
                                 "built_by": references[key].built_by}
            if last_use[key] == i:
                del references[key]
        residuals = [r.extra["residual"] for r in recs if "residual" in r.extra]
        if residuals:
            meta["max_solver_residual"] = max(residuals)
        write_records(recs, out_dir / sw["name"], meta)
        results[sw["name"]] = recs
    return results

"""Experiment orchestration: sweeps, slope fits, ratio reports, CSV/JSON output.

Slopes of exponential convergence curves are measured on log(error) against
either p or Dof^(1/d).  The headline ``slope`` follows the windowed
convention: the average of the last two segment slopes of the convergence
line, after excluding the round-off plateau (errors at the 1e-12 floor, plus
trailing segments whose slope collapses relative to the curve's own scale).
A full least-squares slope and its r^2 over the same window are reported
alongside.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, dgfem, fem
from .bounds import lemma_audit
from .expansion import named_function, reference_expansion
from .indexsets import BasisSpec, dof_count
from .projections import (project_h1_p, project_h1_q, project_h1_s, project_l2,
                          projection_errors)

__all__ = [
    "ConvergenceRecord",
    "SlopeFit",
    "fit_slope",
    "ratio_report",
    "records_to_csv",
    "records_from_csv",
    "write_records",
    "project_sweep",
    "basis_count_table",
    "lemma_audit_table",
    "run_config",
    "ConfigError",
    "PROJECTION_KINDS",
]

ERROR_FLOOR = 1e-12
PROJECTION_KINDS = ("l2q", "l2p", "h1q", "h1s", "h1p")


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
    intercept: float
    r_squared: float
    abscissa: str           # "p" | "dof_root"
    dim: int
    n_points: int
    window: int


def _abscissa_values(records, abscissa: str) -> np.ndarray:
    if abscissa == "p":
        return np.array([r.p for r in records], dtype=float)
    if abscissa == "dof_root":
        return np.array([r.dof ** (1.0 / r.dim) for r in records])
    raise ValueError("abscissa must be 'p' or 'dof_root'")


def fit_slope(records, abscissa: str = "dof_root", window: int = 2,
              error_key: str = "l2", floor: float = ERROR_FLOOR,
              plateau_rel: float = 0.2) -> SlopeFit:
    """Windowed + least-squares slope of log(error) against the abscissa.

    Records with error <= floor are excluded; trailing segments whose slope
    falls below ``plateau_rel`` times the steepest segment seen are treated as
    the round-off plateau and dropped.
    """
    recs = [r for r in records if np.isfinite(r.error(error_key))]
    for r in recs:
        if r.error(error_key) < 0:
            raise ValueError("errors must be positive to fit a slope")
    recs = [r for r in recs if r.error(error_key) > floor]
    if len(recs) < window + 1:
        raise ValueError("not enough points above the floor to fit")
    x = _abscissa_values(recs, abscissa)
    y = np.log([r.error(error_key) for r in recs])
    slopes = -(np.diff(y) / np.diff(x))
    while slopes.size > window and slopes[-1] < plateau_rel * slopes.max():
        slopes = slopes[:-1]
        x, y = x[:-1], y[:-1]
    win_slope = float(np.mean(slopes[-window:]))
    A = np.vstack([x, np.ones_like(x)]).T
    (lsq, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = A @ [lsq, intercept] - y
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(slope=win_slope, lsq_slope=float(-lsq),
                    intercept=float(intercept), r_squared=r2,
                    abscissa=abscissa, dim=recs[0].dim, n_points=len(x),
                    window=window)


def ratio_report(fit_a: SlopeFit, fit_b: SlopeFit) -> dict:
    """Slope ratio a/b with the ideal (d!)^(1/d) target for Dof-root fits."""
    if fit_a.abscissa != fit_b.abscissa:
        raise ValueError("cannot compare fits on different abscissae")
    ratio = fit_a.slope / fit_b.slope
    ideal = factorial(fit_a.dim) ** (1.0 / fit_a.dim) \
        if fit_a.abscissa == "dof_root" else 1.0
    return {"ratio": float(ratio), "ideal": float(ideal),
            "gap": float(ideal - ratio),
            "lsq_ratio": float(fit_a.lsq_slope / fit_b.lsq_slope)}


# ---------------------------------------------------------------------------
# Sweeps


def project_sweep(dim: int, kind: str, function: str, p_min: int, p_max: int,
                  margin: int = 20, runge_a: float = 0.5) -> list[ConvergenceRecord]:
    """Projection error sweep on the reference element for one operator kind."""
    if kind not in PROJECTION_KINDS:
        raise ValueError(f"kind must be one of {PROJECTION_KINDS}")
    oracle = named_function(function, dim, runge_a=runge_a)
    u = reference_expansion(oracle, p_max, margin=margin)
    out = []
    for p in range(p_min, p_max + 1):
        try:
            if kind == "l2q":
                res, dof = project_l2(u, "Q", p), (p + 1) ** dim
            elif kind == "l2p":
                res, dof = project_l2(u, "P", p), dof_count(BasisSpec(dim, p, "P"))
            elif kind == "h1q":
                res, dof = project_h1_q(u, p), (p + 1) ** dim
            elif kind == "h1s":
                res, dof = project_h1_s(u, p), dof_count(BasisSpec(dim, p, "S"))
            else:
                res = project_h1_p(u, p)
                dof = dof_count(BasisSpec(dim, p, "P"))
            err = projection_errors(u, res)
            rec = ConvergenceRecord(
                method=f"proj_{kind}", p=p, dim=dim, dof=dof,
                errors={"l2": err.l2, "h1_semi": err.h1_semi},
                extra={"trusted": err.trusted, "function": function})
        except ValueError as exc:
            rec = ConvergenceRecord(method=f"proj_{kind}", p=p, dim=dim, dof=0,
                                    errors={"l2": float("nan"),
                                            "h1_semi": float("nan")},
                                    extra={"skipped": str(exc)})
        out.append(rec)
    return out


def fem_records(raw: list[dict]) -> list[ConvergenceRecord]:
    out = []
    for r in raw:
        extra = {k: r[k] for k in ("p_rate", "residual", "problem",
                                   "error_message") if k in r}
        out.append(ConvergenceRecord(method=r["method"], p=r["p"],
                                     dim=r.get("dim", 2), dof=r["dof"],
                                     errors=r["errors"], extra=extra))
    return out


def basis_count_table(dim: int, family: str, p_max: int) -> list[tuple[int, int]]:
    start = 1 if family == "S" else 0
    return [(p, dof_count(BasisSpec(dim, p, family)))
            for p in range(start, p_max + 1)]


def lemma_audit_table(dim: int, m_max: int, m_small_max: int) -> list[dict]:
    rows = []
    for M in range(0, m_max + 1):
        for m in range(0, min(m_small_max, M) + 1):
            rep = lemma_audit(dim, M, m)
            rows.append({"d": dim, "M": M, "m": m,
                         "lattice_max": rep.lattice_max,
                         "phi": rep.phi_value, "holds": rep.holds,
                         "argmax_xi": rep.argmax_xi,
                         "argmax_rho": rep.argmax_rho})
    return rows


# ---------------------------------------------------------------------------
# CSV / JSON persistence


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.14e}"
    return str(x)


def records_to_csv(records: list[ConvergenceRecord]) -> str:
    """Stable CSV: header + one row per record, 15 significant digits."""
    keys = sorted({k for r in records for k in r.errors})
    extra_keys = sorted({k for r in records for k in r.extra
                         if isinstance(r.extra[k], (int, float))})
    header = ["method", "p", "dim", "dof"] + keys + extra_keys
    lines = [",".join(header)]
    for r in records:
        row = [r.method, str(r.p), str(r.dim), str(r.dof)]
        row += [_fmt(float(r.errors.get(k, float("nan")))) for k in keys]
        row += [_fmt(float(r.extra[k])) if k in r.extra else ""
                for k in extra_keys]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def records_from_csv(text: str) -> list[ConvergenceRecord]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    fixed = ("method", "p", "dim", "dof")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        row = dict(zip(header, cells))
        errors, extra = {}, {}
        for k in header:
            if k in fixed or row[k] == "":
                continue
            (errors if k in ("l2", "h1_semi", "dg_norm", "broken_h1", "lattice_max", "phi")
             else extra)[k] = float(row[k])
        out.append(ConvergenceRecord(method=row["method"], p=int(row["p"]),
                                     dim=int(row["dim"]), dof=int(row["dof"]),
                                     errors=errors, extra=extra))
    return out


def write_records(records, path_prefix, meta: Optional[dict] = None) -> None:
    prefix = Path(path_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    prefix.with_suffix(".csv").write_text(records_to_csv(records))
    payload = {"tool": "hpexp", "version": __version__}
    payload.update(meta or {})
    prefix.with_suffix(".meta.json").write_text(json.dumps(payload, indent=2,
                                                           default=str) + "\n")


# ---------------------------------------------------------------------------
# Config-driven runs


class ConfigError(ValueError):
    pass


_SWEEP_KINDS = ("project-sweep", "fem-sine", "fem-lshape", "dg-sine",
                "basis-count", "lemma-audit")

TABLE1_PRESET = {
    "sweeps": [
        {"name": "table1_fem_s", "kind": "fem-lshape", "family": "S",
         "p_list": [1, 2, 3, 4, 5, 10, 15, 20, 25]},
        {"name": "table1_fem_q", "kind": "fem-lshape", "family": "Q",
         "p_list": [1, 2, 3, 4, 5, 10, 15, 20, 25]},
    ]
}


def _validate_sweep(i: int, sw) -> None:
    where = f"sweeps[{i}]"
    if not isinstance(sw, dict):
        raise ConfigError(f"{where}: must be an object")
    if "name" not in sw or not isinstance(sw["name"], str):
        raise ConfigError(f"{where}.name: required string")
    kind = sw.get("kind")
    if kind not in _SWEEP_KINDS:
        raise ConfigError(f"{where}.kind: must be one of {_SWEEP_KINDS}")
    if kind == "project-sweep":
        if sw.get("proj_kind") not in PROJECTION_KINDS:
            raise ConfigError(f"{where}.proj_kind: must be one of "
                              f"{PROJECTION_KINDS}")
        for k in ("dim", "p_min", "p_max"):
            if not isinstance(sw.get(k), int):
                raise ConfigError(f"{where}.{k}: required integer")
    if kind in ("fem-sine", "fem-lshape", "dg-sine"):
        fams = ("Q", "S") if kind.startswith("fem") else ("Q", "P")
        if sw.get("family") not in fams:
            raise ConfigError(f"{where}.family: must be one of {fams}")
        if not isinstance(sw.get("p_list"), list) or not sw["p_list"]:
            raise ConfigError(f"{where}.p_list: required non-empty list")


def run_config(config, out_dir=".") -> dict:
    """Validate and execute a sweep bundle; returns {name: records}.

    The whole config is validated before anything runs, so a malformed config
    produces no partial files.
    """
    if isinstance(config, (str, Path)):
        try:
            config = json.loads(Path(config).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    if config.get("preset") == "table1":
        config = TABLE1_PRESET
    if "sweeps" not in config or not isinstance(config["sweeps"], list):
        raise ConfigError("sweeps: required list")
    for i, sw in enumerate(config["sweeps"]):
        _validate_sweep(i, sw)

    results = {}
    for sw in config["sweeps"]:
        kind = sw["kind"]
        t0 = time.perf_counter()
        meta = {"sweep": sw}
        if kind == "project-sweep":
            recs = project_sweep(sw["dim"], sw["proj_kind"],
                                 sw.get("function", "sine"),
                                 sw["p_min"], sw["p_max"],
                                 margin=sw.get("margin", 20),
                                 runge_a=sw.get("runge_a", 0.5))
        elif kind == "fem-sine":
            dim = sw.get("dim", 2)
            recs = fem_records(fem.run_p_sweep(
                "sine2d" if dim == 2 else "sine3d", sw["family"],
                sw["p_list"], n=sw.get("n")))
        elif kind == "fem-lshape":
            sigma = sw.get("graded_ratio", fem.GRADED_SIGMA_DEFAULT)
            layers = sw.get("graded_layers")
            meta["quadrature"] = {"graded_sigma": sigma,
                                  "graded_layers": layers if layers is not None
                                  else "max(p, 20)",
                                  "error_rule_order": "max(2p, 12)"}
            recs = fem_records(fem.run_p_sweep(
                "lshape", sw["family"], sw["p_list"],
                graded_layers=layers, graded_sigma=sigma))
        elif kind == "dg-sine":
            meta["dg_norm_definition"] = \
                "sqrt(broken_h1^2 + sum_F sigma_F ||[u-u_h]||_F^2)"
            recs = fem_records(dgfem.run_p_sweep(
                sw.get("n", 8), sw["family"], sw["p_list"],
                gamma=sw.get("gamma", 10.0)))
        elif kind == "basis-count":
            rows = basis_count_table(sw.get("dim", 2), sw.get("family", "Q"),
                                     sw.get("p_max", 10))
            recs = [ConvergenceRecord(method="basis_count", p=p,
                                      dim=sw.get("dim", 2), dof=dof, errors={})
                    for p, dof in rows]
        else:
            rows = lemma_audit_table(sw.get("dim", 2), sw.get("M_max", 10),
                                     sw.get("m_max", 10))
            recs = [ConvergenceRecord(
                method="lemma_audit", p=row["M"], dim=sw.get("dim", 2),
                dof=row["m"],
                errors={"lattice_max": row["lattice_max"], "phi": row["phi"]},
                extra={"holds": row["holds"]}) for row in rows]
        meta["seconds"] = time.perf_counter() - t0
        residuals = [r.extra["residual"] for r in recs if "residual" in r.extra]
        if residuals:
            meta["max_solver_residual"] = max(residuals)
        write_records(recs, Path(out_dir) / sw["name"], meta)
        results[sw["name"]] = recs
    return results

"""Traced replay of a workload: spans around the calls into each layer.

The replay calls the public stage functions of each layer in the order
``fem.run_p_sweep``, ``dgfem.run_p_sweep`` and ``harness.project_sweep`` call
them, and opens a span around each call.  No span lives
inside the library.  The replayed records must equal the untraced
``run_config`` pass bit for bit; ``run.py`` rejects the trace otherwise.

Layers reached only through other layers (``orthopoly``, ``indexsets``) get
no span of their own.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb

import numpy as np

from hpexp import dgfem, fem
from hpexp.bounds import lemma_audit
from hpexp.expansion import named_function, reference_expansion
from hpexp.indexsets import BasisSpec, dof_count
from hpexp.projections import (project_h1_p, project_h1_q, project_h1_s,
                               project_l2, projection_errors)

LAYERS = ("fem", "dgfem", "expansion", "projections", "bounds")

# per-layer metrics: stage span names, and the counts taken from return values
STAGES = ("fem.mesh", "fem.build_dofmap", "fem.assemble_poisson",
          "fem.condense_solve", "fem.h1_error", "dgfem.assemble_sip",
          "dgfem.dg_solve", "dgfem.dg_errors",
          "expansion.reference_expansion", "projections.project",
          "projections.projection_errors", "bounds.lemma_audit")
TOP_DEGREE_STAGES = ("fem.condense_solve", "dgfem.dg_solve")
COUNTS = ("fem.n_dof", "fem.skeleton_free", "fem.skeleton_nnz",
          "dgfem.n_dof", "dgfem.matrix_nnz", "expansion.coeffs",
          "bounds.lattice_pairs")


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        s = {"id": len(self.spans), "name": name,
             "parent": self._open[-1]["id"] if self._open else None,
             "start": time.perf_counter(), "end": None}
        if attrs:
            s["attrs"] = attrs
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        except BaseException as exc:
            s["error"] = type(exc).__name__
            raise
        finally:
            s["end"] = time.perf_counter()
            self._open.pop()


class Replay:
    """Replays the sweeps of one ``run_config`` config under a tracer."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.counts: Counter = Counter()
        self.residual_max = 0.0
        # per record: (sweep, p, cell skeleton dofs, free skeleton mask)
        self.skeletons: list = []

    def run(self, config: dict) -> dict:
        out = {}
        with self.tr.span("workload"):
            for sw in config["sweeps"]:
                with self.tr.span("sweep", sweep=sw["name"]):
                    out[sw["name"]] = getattr(self, _KIND[sw["kind"]])(sw)
        return out

    def _fem(self, sw: dict) -> list[dict]:
        tr, name, family = self.tr, sw["name"], sw["family"]
        if sw["kind"] == "fem-sine":
            problem = "sine2d" if sw.get("dim", 2) == 2 else "sine3d"
            prob = fem.fem_problem(problem, n=sw.get("n"))
            sigma, layers = fem.GRADED_SIGMA_DEFAULT, None
        else:
            prob = fem.fem_problem("lshape")
            sigma = sw.get("graded_ratio", fem.GRADED_SIGMA_DEFAULT)
            layers = sw.get("graded_layers")
        with tr.span("fem.mesh"):
            mesh = prob.make_mesh()
        out = []
        for p in sw["p_list"]:
            rec = {"method": f"fem_{family.lower()}", "p": int(p),
                   "dim": mesh.dim, "dof": -1}
            with tr.span("record", sweep=name, p=int(p)):
                try:
                    with tr.span("fem.build_dofmap"):
                        dm = fem.build_dofmap(mesh, p, family)
                    with tr.span("fem.assemble_poisson"):
                        system = fem.assemble_poisson(mesh, dm, prob.source,
                                                      prob.dirichlet)
                    with tr.span("fem.condense_solve"):
                        sol = fem.condense_solve(system, dm)
                    with tr.span("fem.h1_error"):
                        err = fem.h1_error(
                            sol, prob.exact_gradient,
                            graded_at=mesh.singular_corner if prob.graded
                            else None, sigma=sigma,
                            layers=layers if layers is not None
                            else max(p, 20))
                    rec.update(dof=dm.n_dof, errors={"h1_semi": err})
                    self.counts["fem.n_dof"] += dm.n_dof
                    self.residual_max = max(self.residual_max,
                                            sol.residual_norm)
                    self.skeletons.append(
                        (name, int(p), dm.cell_dofs[:, dm.skeleton_local],
                         ~dm.dirichlet_mask[:dm.interior_offset]))
                except Exception as exc:   # noqa: BLE001 - as run_p_sweep does
                    rec.update(errors={"h1_semi": float("nan")},
                               error_message=str(exc))
            out.append(rec)
        return out

    def _dg(self, sw: dict) -> list[dict]:
        tr, name, family, n = self.tr, sw["name"], sw["family"], sw.get("n", 8)
        # the sine problem of dgfem.run_p_sweep, written out the same way
        f = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        exact_gradient = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                                       np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
        out = []
        for p in sw["p_list"]:
            spec = dgfem.DgSpec(family=family, p=int(p),
                                gamma=sw.get("gamma", 10.0))
            rec = {"method": f"dg_{family.lower()}", "p": int(p), "dim": 2,
                   "dof": n * n * dof_count(BasisSpec(2, int(p), family))}
            with tr.span("record", sweep=name, p=int(p)):
                try:
                    with tr.span("dgfem.assemble_sip"):
                        system = dgfem.assemble_sip(n, spec, f, exact)
                    with tr.span("dgfem.dg_solve"):
                        sol = dgfem.dg_solve(system)
                    with tr.span("dgfem.dg_errors"):
                        rec["errors"] = dgfem.dg_errors(sol, exact,
                                                        exact_gradient)
                    self.counts["dgfem.n_dof"] += system.matrix.shape[0]
                    self.counts["dgfem.matrix_nnz"] += system.matrix.nnz
                except Exception as exc:   # noqa: BLE001 - as run_p_sweep does
                    rec.update(errors={k: float("nan") for k in
                                       ("l2", "broken_h1", "dg_norm")},
                               error_message=str(exc))
            out.append(rec)
        return out

    def _projection(self, sw: dict) -> list[dict]:
        tr, kind, dim = self.tr, sw["proj_kind"], sw["dim"]
        function = sw.get("function", "sine")
        oracle = named_function(function, dim, runge_a=sw.get("runge_a", 0.5))
        with tr.span("expansion.reference_expansion"):
            u = reference_expansion(oracle, sw["p_max"],
                                    margin=sw.get("margin", 20))
        self.counts["expansion.coeffs"] += u.coeffs.size
        out = []
        for p in range(sw["p_min"], sw["p_max"] + 1):
            with tr.span("record", sweep=sw["name"], p=p):
                try:
                    with tr.span("projections.project"):
                        res, family = _PROJECT[kind](u, p)
                    dof = (p + 1) ** dim if family == "Q" \
                        else dof_count(BasisSpec(dim, p, family))
                    with tr.span("projections.projection_errors"):
                        err = projection_errors(u, res)
                    rec = {"method": f"proj_{kind}", "p": p, "dim": dim,
                           "dof": dof,
                           "errors": {"h1_semi": err.h1_semi, "l2": err.l2}}
                except ValueError as exc:
                    rec = {"method": f"proj_{kind}", "p": p, "dim": dim,
                           "dof": 0, "errors": {"h1_semi": float("nan"),
                                                "l2": float("nan")},
                           "skipped": str(exc)}
            out.append(rec)
        return out

    def _lemma(self, sw: dict) -> list[dict]:
        dim = sw.get("dim", 2)
        out = []
        for M in range(0, sw.get("M_max", 10) + 1):
            for m in range(0, min(sw.get("m_max", 10), M) + 1):
                with self.tr.span("record", sweep=sw["name"], p=M, m=m):
                    with self.tr.span("bounds.lemma_audit"):
                        rep = lemma_audit(dim, M, m)
                self.counts["bounds.lattice_pairs"] += \
                    comb(m + dim - 1, dim - 1) * comb(M + dim - 1, dim - 1)
                out.append({"method": "lemma_audit", "p": M, "dim": dim,
                            "dof": m, "holds": rep.holds,
                            "errors": {"lattice_max": rep.lattice_max,
                                       "phi": rep.phi_value}})
        return out


_KIND = {"fem-sine": "_fem", "fem-lshape": "_fem", "dg-sine": "_dg",
         "project-sweep": "_projection", "lemma-audit": "_lemma"}

_PROJECT = {
    "l2q": lambda u, p: (project_l2(u, "Q", p), "Q"),
    "l2p": lambda u, p: (project_l2(u, "P", p), "P"),
    "h1q": lambda u, p: (project_h1_q(u, p), "Q"),
    "h1s": lambda u, p: (project_h1_s(u, p), "S"),
    "h1p": lambda u, p: (project_h1_p(u, p), "P"),
}


def skeleton_nnz(cell_skeleton: np.ndarray, free: np.ndarray) -> int:
    """Entries of the free-skeleton matrix pattern: free pairs sharing a cell."""
    n = free.size
    keys = []
    for row in cell_skeleton:
        f = row[free[row]]
        keys.append((f[:, None] * n + f[None, :]).ravel())
    return int(np.unique(np.concatenate(keys)).size) if keys else 0


def _is_layer(span: dict) -> bool:
    return span["name"].split(".")[0] in LAYERS


def layer_metrics(replay: Replay) -> tuple[dict, dict]:
    """(per-layer metrics, per-(sweep, p) breakdown) from a finished replay."""
    spans = replay.tr.spans
    by_id = {s["id"]: s for s in spans}
    metrics = {f"{stage}.s": 0.0 for stage in STAGES}
    breakdown: dict = defaultdict(lambda: defaultdict(dict))
    top: dict = {}
    fails: Counter = Counter()
    covered = 0.0
    for s in spans:
        if not _is_layer(s):
            continue
        dur = s["end"] - s["start"]
        metrics[f"{s['name']}.s"] += dur
        parent = by_id.get(s["parent"])
        if parent is not None and not _is_layer(parent):
            covered += dur
        if "error" in s:
            fails[(s["name"].split(".")[0], s["error"])] += 1
        if parent is not None and parent["name"] == "record":
            a = parent["attrs"]
            key = f"p={a['p']}" + (f",m={a['m']}" if "m" in a else "")
            row = breakdown[a["sweep"]][key]
            row[f"{s['name']}.s"] = row.get(f"{s['name']}.s", 0.0) + dur
            if s["name"] in TOP_DEGREE_STAGES:
                best = top.get((a["sweep"], s["name"]))
                if best is None or a["p"] >= best[0]:
                    top[(a["sweep"], s["name"])] = (a["p"], dur)
        elif parent is not None and parent["name"] == "sweep":
            row = breakdown[parent["attrs"]["sweep"]]["sweep"]
            row[f"{s['name']}.s"] = row.get(f"{s['name']}.s", 0.0) + dur
    for stage in TOP_DEGREE_STAGES:
        metrics[f"{stage}.top_s"] = sum(d for (_, st), (_, d) in top.items()
                                        if st == stage)
    counts = Counter(replay.counts)
    for sweep, p, cells, free in replay.skeletons:
        nnz = skeleton_nnz(cells, free)
        breakdown[sweep][f"p={p}"].update(
            {"fem.skeleton_free": int(free.sum()), "fem.skeleton_nnz": nnz})
        counts["fem.skeleton_free"] += int(free.sum())
        counts["fem.skeleton_nnz"] += nnz
    metrics.update({name: counts[name] for name in COUNTS})
    metrics["fem.residual_max"] = replay.residual_max
    for layer in LAYERS:
        metrics[f"{layer}.fail"] = sum(n for (lay, _), n in fails.items()
                                       if lay == layer)
    root = spans[0]
    wall = root["end"] - root["start"]
    metrics["trace.wall_s"] = wall
    metrics["trace.coverage"] = covered / wall
    extra = {"fail_by_class": {f"{lay}.{cls}": n
                               for (lay, cls), n in sorted(fails.items())},
             "per_record": {k: dict(v) for k, v in breakdown.items()}}
    return metrics, extra

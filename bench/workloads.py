"""The four sweep workloads, each a config for ``harness.run_config``.

The configs use the same format as ``hpexp run CONFIG``, so the benchmark
runs through the config runner rather than through any one sweep function.
Why each workload exists is written in ``NOTES.md``.
"""

from __future__ import annotations

import copy

P_TABLE1 = [1, 2, 3, 4, 5, 10, 15, 20, 25]

# admissible minimum degree of each projection kind, by dimension
_PROJ_P_MIN = {
    "l2q": {2: 0, 3: 0},
    "l2p": {2: 0, 3: 0},
    "h1q": {2: 1, 3: 1},
    "h1s": {2: 4, 3: 6},
    "h1p": {2: 5, 3: 8},
}
_PROJ_P_MAX = {2: 40, 3: 24}
_PROJ_MARGIN = {"sine": 20, "runge1d-tensor": 30}


def _fem_sine(dim, n, family, p_list):
    return {"name": f"sine{dim}d_{family.lower()}", "kind": "fem-sine",
            "dim": dim, "n": n, "family": family, "p_list": list(p_list)}


def _proj_sweeps():
    out = []
    for function, margin in _PROJ_MARGIN.items():
        for dim, p_max in _PROJ_P_MAX.items():
            for kind, p_min in _PROJ_P_MIN.items():
                out.append({"name": f"proj_{function}_{dim}d_{kind}",
                            "kind": "project-sweep", "proj_kind": kind,
                            "function": function, "dim": dim,
                            "p_min": p_min[dim], "p_max": p_max,
                            "margin": margin})
    return out


WORKLOADS = {
    "fem3d": {"sweeps": [
        _fem_sine(3, 4, "Q", range(2, 9)),
        _fem_sine(3, 4, "S", range(2, 9)),
    ]},
    "fem2d": {"sweeps": [
        {"name": "table1_fem_s", "kind": "fem-lshape", "family": "S",
         "p_list": P_TABLE1},
        {"name": "table1_fem_q", "kind": "fem-lshape", "family": "Q",
         "p_list": P_TABLE1},
        _fem_sine(2, 8, "Q", range(2, 13)),
        _fem_sine(2, 8, "S", range(2, 13)),
    ]},
    "dg": {"sweeps": [
        {"name": "dg_q", "kind": "dg-sine", "n": 8, "gamma": 10.0,
         "family": "Q", "p_list": list(range(2, 11))},
        {"name": "dg_p", "kind": "dg-sine", "n": 8, "gamma": 10.0,
         "family": "P", "p_list": list(range(2, 13))},
    ]},
    "proj": {"sweeps": _proj_sweeps() + [
        {"name": "lemma_audit_3d", "kind": "lemma-audit", "dim": 3,
         "M_max": 30, "m_max": 10},
        {"name": "lemma_audit_2d", "kind": "lemma-audit", "dim": 2,
         "M_max": 40, "m_max": 20},
    ]},
}

# fitted slope ratios (numerator sweep, denominator sweep, error key), on
# the Dof^(1/d) abscissa as in the acceptance criteria
RATIOS = {
    "fem3d": {"fem_s_q_3d": ("sine3d_s", "sine3d_q", "h1_semi")},
    "fem2d": {"fem_s_q_2d": ("sine2d_s", "sine2d_q", "h1_semi")},
    "dg": {"dg_p_q": ("dg_p", "dg_q", "dg_norm")},
    "proj": {f"proj_{fn}_{d}d_l2p_l2q": (f"proj_{fn}_{d}d_l2p",
                                         f"proj_{fn}_{d}d_l2q", "l2")
             for fn in _PROJ_MARGIN for d in _PROJ_P_MAX},
}


def warmup_config(name: str) -> dict:
    """The workload with every sweep cut to its smallest degree."""
    cfg = copy.deepcopy(WORKLOADS[name])
    for sw in cfg["sweeps"]:
        if "p_list" in sw:
            sw["p_list"] = sw["p_list"][:1]
        elif sw["kind"] == "project-sweep":
            sw["p_max"] = sw["p_min"]
        else:
            sw["M_max"] = sw["m_max"] = 0
    return cfg

"""Output check: compare a run's records and slope ratios with stored ones.

The stored outputs in ``golden/`` are what the seed commit of the library
produced.  One *operation* is one ``(sweep, p)`` record, one lemma-audit row
or one fitted slope ratio; each is checked on its own and counts once in
``attempted``.

Rules for an error value ``e`` against its stored value ``g``:

* above the round-off zone: ``|e - g| <= REL_TOL * g + ABS_SLACK``.  The
  absolute slack covers the round-off of a different but equally valid solve
  (see ``NOTES.md``: a symmetric-mode factorization moves a DG error of 3.6e-9
  by 1.4e-15, and others by up to 6e-15);
* in the round-off zone (``g <= FLOOR``, or on the sequence's round-off
  plateau): only ``0 <= e <= PLATEAU_FACTOR * max(g, FLOOR)``.  Values there
  are solver round-off and move by tens of percent under any solver change;
* lemma-audit rows are closed-form Gamma-function values: relative
  ``REL_TOL`` with no slack, and ``holds`` must match.

A fitted slope ratio must agree to ``RATIO_REL_TOL`` relative.  Ratios react
to round-off in the entries next to the plateau (which segments the windowed
fit uses), so this rule catches a change whose errors all pass but whose
fitted ratio moves.
"""

from __future__ import annotations

import math

REL_TOL = 1e-10
ABS_SLACK = 1e-14
FLOOR = 1e-12               # the harness's ERROR_FLOOR
PLATEAU_FACTOR = 10.0
PLATEAU_CEILING = 1e-11     # a sequence whose minimum is above this has no plateau
RATIO_REL_TOL = 2e-3


def plain_record(rec) -> dict:
    """A ``ConvergenceRecord`` as the JSON-ready dict stored in ``golden/``."""
    out = {"method": rec.method, "p": int(rec.p), "dim": int(rec.dim),
           "dof": int(rec.dof),
           "errors": {k: float(v) for k, v in sorted(rec.errors.items())}}
    for key in ("holds", "error_message", "skipped"):
        if key in rec.extra:
            out[key] = rec.extra[key]
    return out


def op_id(sweep: str, rec: dict) -> str:
    if rec["method"] == "lemma_audit":
        return f"{sweep}:M={rec['p']},m={rec['dof']}"
    return f"{sweep}:p={rec['p']}"


def roundoff_zone(values) -> list[bool]:
    """Which entries of one stored error sequence are solver round-off."""
    finite = [v for v in values if math.isfinite(v)]
    low = min(finite) if finite else math.inf
    plateau = PLATEAU_FACTOR * low if low <= PLATEAU_CEILING else 0.0
    return [v <= FLOOR or v <= plateau for v in values]


def _value_ok(e: float, g: float, in_zone: bool, slack: float) -> bool:
    if not math.isfinite(e):
        return False
    if in_zone:
        return 0.0 <= e <= PLATEAU_FACTOR * max(g, FLOOR)
    return abs(e - g) <= REL_TOL * abs(g) + slack


def check_sweep(sweep: str, records: list[dict], stored: list[dict]) -> list:
    """[(op_id, ok, reason)] for one sweep; missing and extra records fail."""
    lemma = bool(stored) and stored[0]["method"] == "lemma_audit"
    zones = {}
    if not lemma:
        for key in stored[0]["errors"] if stored else ():
            zones[key] = roundoff_zone([r["errors"][key] for r in stored])
    by_id = {op_id(sweep, r): r for r in records}
    out = []
    for i, g in enumerate(stored):
        oid = op_id(sweep, g)
        r = by_id.pop(oid, None)
        if r is None:
            out.append((oid, False, "missing"))
            continue
        if "error_message" in r or "skipped" in r:
            out.append((oid, False, r.get("error_message", r.get("skipped"))))
            continue
        bad = [k for k in ("method", "dim", "dof", "holds")
               if r.get(k) != g.get(k)]
        if set(r["errors"]) != set(g["errors"]):
            bad.append("error keys")
        else:
            for key, gv in g["errors"].items():
                zone = False if lemma else zones[key][i]
                if not _value_ok(r["errors"][key], gv, zone,
                                 0.0 if lemma else ABS_SLACK):
                    bad.append(f"{key}={r['errors'][key]!r} (stored {gv!r})")
        out.append((oid, not bad, "; ".join(bad)))
    out += [(oid, False, "not in the stored outputs") for oid in by_id]
    return out


def check_ratio(name: str, value, stored: float):
    ok = value is not None and math.isfinite(value) \
        and abs(value - stored) <= RATIO_REL_TOL * abs(stored)
    return (f"ratio:{name}", ok,
            "" if ok else f"ratio {value!r} (stored {stored!r})")


def check_outputs(records: dict, ratios: dict, golden: dict) -> list:
    """Check every sweep and ratio of a workload; returns [(op_id, ok, why)]."""
    out = []
    for sweep in sorted(golden["records"].keys() | records.keys()):
        out += check_sweep(sweep, records.get(sweep, []),
                           golden["records"].get(sweep, []))
    for name, stored in golden["ratios"].items():
        out.append(check_ratio(name, ratios.get(name), stored))
    return out


def fitted_ratios(records: dict, specs: dict) -> dict:
    """Slope ratios (Dof^(1/d) abscissa) from plain records; None if unfit."""
    from hpexp.harness import ConvergenceRecord, fit_slope, ratio_report
    out = {}
    for name, (num, den, key) in specs.items():
        try:
            fits = [fit_slope([ConvergenceRecord(r["method"], r["p"], r["dim"],
                                                 r["dof"], r["errors"])
                               for r in records[sweep]], error_key=key)
                    for sweep in (num, den)]
            out[name] = ratio_report(*fits)["ratio"]
        except (KeyError, ValueError, ZeroDivisionError):
            out[name] = None
    return out

"""Degrees of freedom of the three families, and why cardinality matters.

The tensor space Q_p has (p+1)^d modes; the total-degree space P_p has
C(p+d, d) ~ p^d/d!; the serendipity space S_p keeps the full vertex/edge
skeleton of Q_p but restricts face and interior bubbles by total degree, so
its count is also ~ p^d/d!.  The d!-factor in cardinality is what turns into
the (d!)^(1/d) slope gain on the Dof^(1/d) axis.
"""

from math import factorial

from hpexp.harness import run_sweep

for d in (2, 3):
    print(f"--- dimension {d}")
    tables = {fam: {r.p: r.dof for r in run_sweep(
        {"name": "counts", "kind": "basis-count", "dim": d, "family": fam,
         "p_max": 30})} for fam in "QPS"}
    print(" p    Q_p      P_p      S_p    S_p*d!/p^d")
    for p in (1, 2, 4, 8, 16, 30):
        q, pp, s = tables["Q"][p], tables["P"][p], tables["S"][p]
        print(f"{p:3d} {q:7d} {pp:8d} {s:8d}     {s * factorial(d) / p ** d:.3f}")

"""Exponential p-convergence of FEM(S) vs FEM(Q) on the sine Poisson problem.

On a fixed mesh with an analytic solution both families converge
exponentially; plotted against Dof^(1/d) the serendipity line is steeper.
The windowed slopes (average of the last two segments above the round-off
floor) give the ratio the theory predicts to approach (d!)^(1/d).
"""

from hpexp.harness import ERROR_FLOOR, fit_slope, ratio_report, run_sweep

for d, pmax in ((2, 12), (3, 12)):
    print(f"--- sine{d}d")
    fits = {}
    for fam in ("S", "Q"):
        recs = run_sweep({"name": "sine", "kind": "fem-sine", "dim": d,
                          "family": fam, "p_list": list(range(2, pmax + 1))},
                         stop_below=ERROR_FLOOR)
        for r in recs:
            e = r.errors["h1_semi"]
            if e == e:   # skip NaN (floored) rows
                print(f"  {fam} p={r.p:2d} dof={r.dof:6d} err={e:.3e}")
        fits[fam] = fit_slope(recs, abscissa="dof_root", error_key="h1_semi")
    rep = ratio_report(fits["S"], fits["Q"])
    print(f"  slope(S)={fits['S'].slope:.4f} slope(Q)={fits['Q'].slope:.4f} "
          f"ratio={rep['ratio']:.4f} (ideal {rep['ideal']:.4f})")

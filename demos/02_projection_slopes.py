"""L2-projection convergence on the reference element: Q_p vs P_p slopes.

Two regimes, both measurable here:

* runge1d-tensor has a finite analyticity radius, so its Legendre
  coefficients decay at a fixed exponential rate; the total-degree shell is
  then flat and the slope ratio vs Dof^(1/d) realizes the theoretical
  (d!)^(1/d) gain (1.414 in 2D, 1.817 in 3D) up to small corrections.

* the product sine is entire: its coefficients decay super-exponentially, the
  balanced modes of the total-degree shell dominate the P_p error, and at
  desk-scale degrees the measured ratio sits well below the ideal.  This is
  the same mechanism that makes the solver experiments (which stop at the
  round-off floor) land near the ideal while the raw projection sweep does
  not.
"""

from hpexp.harness import fit_slope, ratio_report, run_sweep

for function, margin in (("runge1d-tensor", 30), ("sine", 20)):
    print(f"--- function {function}")
    for d, pmax in ((2, 20), (3, 12)):
        fits = {}
        for kind in ("l2q", "l2p"):
            recs = run_sweep({"name": kind, "kind": "project-sweep",
                              "proj_kind": kind, "dim": d,
                              "function": function, "p_min": 2,
                              "p_max": pmax, "margin": margin})
            fits[kind] = fit_slope(recs, abscissa="dof_root", error_key="l2")
        rep = ratio_report(fits["l2p"], fits["l2q"])
        print(f"  d={d}: slope(P)={fits['l2p'].slope:.3f} "
              f"slope(Q)={fits['l2q'].slope:.3f} ratio={rep['ratio']:.3f} "
              f"(ideal {rep['ideal']:.3f})")

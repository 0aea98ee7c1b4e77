"""SIP DG with total-degree vs tensor-product local bases.

Unlike conforming serendipity elements, a DG method can use the bare P_p
basis on quadrilaterals: continuity is enforced weakly, so the local space
needs no skeleton structure.  On the 8x8 sine benchmark both families
converge exponentially in the SIP energy norm; against sqrt(Dof) the P_p
line is steeper by close to sqrt(2).
"""

from hpexp.harness import fit_slope, ratio_report, run_sweep

fits = {}
for fam, pmax in (("Q", 10), ("P", 12)):
    recs = run_sweep({"name": "dg", "kind": "dg-sine", "n": 8, "family": fam,
                      "p_list": list(range(2, pmax + 1))})
    for r in recs:
        print(f"  {fam} p={r.p:2d} dof={r.dof:6d} dg={r.errors['dg_norm']:.3e} "
              f"l2={r.errors['l2']:.3e}")
    fits[fam] = fit_slope(recs, abscissa="dof_root", error_key="dg_norm")
rep = ratio_report(fits["P"], fits["Q"])
print(f"slope(P)={fits['P'].slope:.4f} slope(Q)={fits['Q'].slope:.4f} "
      f"ratio={rep['ratio']:.4f} (ideal {rep['ideal']:.4f})")

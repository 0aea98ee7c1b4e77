"""Auditing the Gamma-ratio machinery behind the error bounds.

Three layers, from the raw constrained-maximization claim to the form the
projection bound actually needs:

1. the lattice audit maximizes F(xi, rho) = prod Gamma(rho_k - xi_k + 1) /
   Gamma(rho_k + xi_k + 1) over integer vectors with |xi| = m, |rho| = M,
   rho >= xi.  The claimed global bound phi(d, M, m) fails on mixed corner
   points (xi concentrated where rho is balanced) - e.g. (d,M,m) = (2,4,2)
   attains 1/24 > 1/36;

2. the per-mode sharp ratio - the exact worst single-mode constant of the
   total-degree L2 bound - stays below phi(d, p+1, s) on the whole grid
   checked here, which is the sufficient condition the bound needs;

3. that check covers every u, not only single modes: the V^s seminorm is
   diagonal in the Legendre modes (a mode i has |u|^2_{V^s} = w_i D_s(i),
   with D_s the sharp ratio's denominator), so error^2 / |u|^2_{V^s} of the
   projection is at most the largest single-mode ratio, with equality on a
   mode.
"""

from hpexp.bounds import lemma_audit, phi, sharp_l2_ratio

print("lattice audit (d=2):")
for M, m in ((2, 2), (3, 2), (4, 2), (6, 3), (8, 4)):
    rep = lemma_audit(2, M, m)
    print(f"  M={M} m={m}: lattice max {rep.lattice_max:.6e} at "
          f"xi={rep.argmax_xi}, rho={rep.argmax_rho}; phi={rep.phi_value:.6e}; "
          f"holds={rep.holds}")

print("\nper-mode sharp ratio vs phi (d=2,3; p<=12; s<=4):")
worst = 0.0
for d in (2, 3):
    for p in range(1, 13):
        for s in range(0, min(p + 1, 4) + 1):
            r = sharp_l2_ratio(d, p, s)["max_ratio"]
            worst = max(worst, r / phi(d, p + 1, s))
print(f"  max ratio/phi over the grid: {worst:.6f} (<= 1 required)")

print("\nthe seminorm is diagonal in the modes, so this maximum bounds "
      "error^2/|u|^2_{V^s} for every u")

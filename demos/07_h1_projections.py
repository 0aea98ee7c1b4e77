"""The constructive H1 projections and the serendipity truncation.

The tensor H1 projection interpolates at the (-1,...,-1) corner and applies
1D projections axis by axis; in the hierarchical representation its interior
content sits in products of the boundary-vanishing antiderivatives psi_j.
The serendipity projection simply drops interior (and 3D face) bubble blocks
whose total degree exceeds p - so the Q-S difference vanishes identically on
the square's boundary (2D) and on the cube's edges (3D), and vertex values
are preserved by every member of the family.
"""

import numpy as np

from hpexp.expansion import evaluate, named_function, reference_expansion
from hpexp.harness import fit_slope, run_sweep
from hpexp.projections import (audit_h1s_bounds, project_h1_q, project_h1_s,
                               projection_errors)

u = reference_expansion(named_function("sine", 2), 16)
p = 8
res_q, res_s = project_h1_q(u, p), project_h1_s(u, p)
eq, es = projection_errors(u, res_q), projection_errors(u, res_s)
print(f"p={p}: |u-pi_Q u|_L2={eq.l2:.3e}  |u-pi_S u|_L2={es.l2:.3e}")

t = np.linspace(-1, 1, 101)
edge = np.stack([t, np.ones_like(t)], axis=1)
diff = evaluate(res_q.projected, edge) - evaluate(res_s.projected, edge)
print(f"max |pi_Q u - pi_S u| on an edge: {np.max(np.abs(diff)):.2e}")

print("\nH1-projection error sweeps (2D sine):")
for kind in ("h1q", "h1s", "h1p"):
    recs = run_sweep({"name": kind, "kind": "project-sweep", "proj_kind": kind,
                      "dim": 2, "p_min": 5, "p_max": 16})
    fit = fit_slope(recs, abscissa="p", error_key="h1_semi")
    print(f"  {kind}: windowed slope vs p = {fit.slope:.3f}, "
          f"r2 = {fit.r_squared:.4f}")

print("\nempirical threshold of the serendipity L2 bound (sine):")
rep = audit_h1s_bounds(u, range(4, 13), norm="l2")
print(f"  bound {rep['kind']} with s={rep['s']} holds from p = "
      f"{rep['smallest_p_holding']}")

"""Compare measured module parameters with their closed forms.

For an almost-bipartite P- and Q-polynomial scheme the two eigenvalue
sequences determine every module intersection number: the class (t, d)
fixes the whole tridiagonal action matrix B(W) and its dual B*(W).  The
oracle decomposition measures the same numbers independently, so the two
routes cross-check each other to floating precision.  Both hold a matrix
as its three bands (c, a, b); `band_gap` is the largest entry of the
difference of two such matrices.
"""

import numpy as np

import terwlab as tw
from terwlab.predictor import band_gap, tridiagonal

np.set_printoptions(precision=6, suppress=True)

scheme = tw.folded_cube(4)
sp = tw.spectral_data(scheme)
ctx = tw.build_context(scheme, sp, x=0)
modules = tw.decompose(ctx)

print("folded 9-cube: measured vs predicted, entrywise")
seen = set()
for mod in modules:
    if (mod.t, mod.d) in seen:
        continue
    seen.add((mod.t, mod.d))
    err_B = band_gap(mod.cab, sp.bands.bands(mod.t, mod.d))
    err_Bs = band_gap(mod.cab_star, sp.bands.bands_star(mod.t, mod.d))
    print(f"  (t={mod.t}, d={mod.d}):  |B - B_pred| = {err_B:.2e}"
          f"   |B* - B*_pred| = {err_Bs:.2e}")

# the prediction for the class of the whole distance partition
print("\npredicted B for (t, d) = (0, D):")
print(tridiagonal(*sp.bands.bands(0, scheme.D)))
print("scheme array c:", sp.pp.c, " a:", sp.pp.a, " b:", sp.pp.b)

# eigenvalues of the predicted matrices are consecutive runs of theta
for (t, d) in [(1, 3), (2, 1)]:
    eig = np.sort(np.linalg.eigvals(tridiagonal(*sp.bands.bands(t, d))).real)
    print(f"\neig B(t={t}, d={d}) = {eig}")
    print(f"theta[{t}..{t + d}]   = {np.sort(sp.theta[t:t + d + 1])}")

# feasibility screens cells that cannot carry a module
for (t, d) in sp.bands.cells:
    if not tw.feasibility(sp, t, d).feasible:
        print(f"\ncell (t={t}, d={d}) infeasible -> multiplicity forced to 0")

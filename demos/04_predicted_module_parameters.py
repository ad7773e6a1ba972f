"""Compare measured module parameters with their closed forms.

For an almost-bipartite P- and Q-polynomial scheme the two eigenvalue
sequences determine every module intersection number: the class (t, d)
fixes the whole tridiagonal action matrix B(W) and its dual B*(W).  The
oracle decomposition measures the same numbers independently, so the two
routes cross-check each other to floating precision.
"""

import numpy as np

import terwlab as tw

np.set_printoptions(precision=6, suppress=True)

scheme = tw.folded_cube(4)
sp = tw.spectral_data(scheme)
ctx = tw.build_context(scheme, sp, x=0)
modules = tw.measure_all(ctx, tw.decompose(ctx, seed=0))

print("folded 9-cube: measured vs predicted, entrywise")
seen = set()
for mod in modules:
    if (mod.t, mod.d) in seen:
        continue
    seen.add((mod.t, mod.d))
    mc = tw.module_class(mod.t, mod.d, sp)
    err_B = np.abs(mod.measured_B - mc.B).max()
    err_Bs = np.abs(mod.measured_Bstar - mc.Bstar).max()
    print(f"  (t={mod.t}, d={mod.d}):  |B - B_pred| = {err_B:.2e}"
          f"   |B* - B*_pred| = {err_Bs:.2e}")

# the prediction for the class of the whole distance partition
mc = tw.module_class(0, scheme.D, sp)
print("\npredicted B for (t, d) = (0, D):")
print(mc.B)
print("scheme array c:", sp.pp.c, " a:", sp.pp.a, " b:", sp.pp.b)

# eigenvalues of the predicted matrices are consecutive runs of theta
for (t, d) in [(1, 3), (2, 1)]:
    mc = tw.module_class(t, d, sp)
    eig = np.sort(np.linalg.eigvals(mc.B).real)
    print(f"\neig B(t={t}, d={d}) = {eig}")
    print(f"theta[{t}..{t + d}]   = {np.sort(sp.theta[t:t + d + 1])}")

# feasibility screens cells that cannot carry a module
for (t, d) in sp.bands.cells:
    report = tw.feasibility(tw.module_class(t, d, sp), sp.theta, sp.theta_star)
    if not report.feasible:
        print(f"\ncell (t={t}, d={d}) infeasible -> multiplicity forced to 0")

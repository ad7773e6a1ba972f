"""Fix a base vertex and inspect the raising/flat/lowering operators.

Distance from the base vertex splits the coordinate space into shells;
the dual idempotents E*_i project onto them, and are the masks
``ctx.dist == i``.  The adjacency matrix splits as
A = R + F + L by whether an edge steps away from, along, or toward the
base vertex, so R, F and L are the entries of A one shell up, on the same
shell and one shell down.  The dual adjacency splits the same way through
the primitive idempotents: in the eigenspace basis it is the matrix N,
and R*, F* and L* are its blocks one eigenspace up, on the same
eigenspace and one eigenspace down.
"""

import numpy as np

import terwlab as tw

scheme = tw.folded_cube(3)
sp = tw.spectral_data(scheme)
ctx = tw.build_context(scheme, sp, x=0)

print(f"folded 7-cube, base vertex {ctx.x}")
print("shell sizes:", np.bincount(ctx.dist), "(= valencies)")

# An edge never skips a shell, so A vanishes between shells more than one
# apart; that is A = R + F + L.  For an almost-bipartite scheme no edge
# stays inside a shell except at the far end, so the flat part F lives
# entirely on the last shell.
D = scheme.D
step = ctx.dist[:, None] - ctx.dist[None, :]
F = ctx.A * (step == 0)
far = ctx.dist == D
far_block = far[:, None] * ctx.A * far[None, :]
print("\n||A - (R + F + L)|| =", np.abs(ctx.A[np.abs(step) > 1]).max(initial=0.0))
print("||F - E*_D A E*_D|| =", np.abs(F - far_block).max())
print("F restricted to inner shells:", np.abs(F[:, ~far]).max())

# Dually, A* never skips an eigenspace: N vanishes off its three block bands.
lab = sp.eigenspace_labels()
dual_step = lab[:, None] - lab[None, :]
print("||A* - (R* + F* + L*)||_F =", np.sqrt(np.sum(ctx.N[np.abs(dual_step) > 1] ** 2)))

# The identity report holds the checks that read the data: the eigenvalue
# relation A E_i = theta_i E_i, both splits, and the collapse of F to the
# far shell.  The exchange rules like R E*_i = E*_{i+1} R hold by the
# construction of R, F and L as masks on dist, so the report leaves them out.
report = tw.verify_operator_identities(ctx)
print(f"\n{len(report.checks)} operator identities, all pass: {report.all_passed}")
for check in report.checks:
    print(f"  {check.name:34s} residual {check.residual:.2e}")

"""Fix a base vertex and inspect the raising/flat/lowering operators.

Distance from the base vertex splits the coordinate space into shells;
the dual idempotents E*_i project onto them, and are the masks
``ctx.dist == i``.  The adjacency matrix splits as
A = R + F + L by whether an edge steps away from, along, or toward the
base vertex, so R, F and L are the entries of A one shell up, on the same
shell and one shell down.  The context holds A as exactly those shell
blocks, never as an n x n matrix.  The dual adjacency splits the same way through
the primitive idempotents: in the eigenspace basis it is the symmetric
matrix N, and R*, F* and L* are its blocks one eigenspace up, on the same
eigenspace and one eigenspace down.  The context holds R*'s blocks of N
and the squared norm of N's far blocks, never N itself.
"""

import numpy as np

import terwlab as tw

scheme = tw.folded_cube(3)
sp = tw.spectral_data(scheme)
ctx = tw.build_context(scheme, sp, x=0)

print(f"folded 7-cube, base vertex {ctx.x}")
print("shell sizes:", np.bincount(ctx.dist), "(= valencies)")

# The blocks: up[s] = A[S_{s+1}, S_s] joins shell s to the next (R, and L
# as its transpose), and flat[s] = A[S_s, S_s] lies inside shell s (F),
# None when no edge does.  An edge never skips a shell, so the blocks hold
# all of A; that is A = R + F + L.  For an almost-bipartite scheme no edge
# stays inside a shell except at the far end, so the flat part F lives
# entirely on the last shell.
D = scheme.D
shells, up, flat, off_band = ctx.blocks
print("\nR blocks (rows x columns):", [B.shape for B in up[:D]])
print("F blocks:", [None if F is None else F.shape for F in flat])
print("||A - (R + F + L)|| =", off_band)
print("edges inside the far shell:", int(flat[D].sum()) // 2)

# Dually, A* never skips an eigenspace: N vanishes off its three block bands.
# ctx.below[i] is R*'s block (i+1, i) of N.  The far blocks (j, i), j > i+1,
# are reduced to their squared Frobenius norm as they are formed, and kept as
# ctx.far2; mirrored above the diagonal, they are the residual.
print("R* blocks (rows x columns):", [B.shape for B in ctx.below])
print("||A* - (R* + F* + L*)||_F =", np.sqrt(2 * ctx.far2))

# The identity report holds the checks that read the data: the eigenvalue
# relation A E_i = theta_i E_i, both splits, and the collapse of F to the
# far shell.  The exchange rules like R E*_i = E*_{i+1} R hold by the
# construction of R, F and L as shell blocks, so the report leaves them out.
report = tw.verify_operator_identities(ctx)
print(f"\n{len(report.checks)} operator identities, all pass: {report.all_passed}")
for check in report.checks:
    print(f"  {check.name:34s} residual {check.residual:.2e}")

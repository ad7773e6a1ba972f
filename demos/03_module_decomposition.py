"""Decompose the standard module into irreducible invariant subspaces.

The algebra generated by A and A* is semisimple, so the coordinate space
is an orthogonal sum of irreducible pieces.  Each piece is classified by
its dual endpoint t (lowest eigenspace it meets) and diameter d (length
of its distance-shell support); for almost-bipartite schemes every piece
is thin, its endpoint is forced to r = D - d, and 2t + d >= D.

The oracle returns its modules as one table: a column per quantity, one
entry per module, sorted by (t, d, r).  ``table[j]`` builds module j as an
object when one is wanted.
"""

import numpy as np

import terwlab as tw
from terwlab.predictor import tridiagonal

scheme = tw.odd_graph(3)
sp = tw.spectral_data(scheme)
ctx = tw.build_context(scheme, sp, x=0)

table = tw.decompose(ctx)
print(f"O_4 standard module: {scheme.n} dimensions ->"
      f" {len(table)} irreducible pieces\n")

# thin: one dimension on each of the d + 1 shells the module meets
print(" t  d  r  dim  thin  count")
for (t, d), count in table.census().items():
    j = np.flatnonzero((table.t == t) & (table.d == d))[0]
    print(f" {t}  {d}  {table.r[j]}   {table.dim[j]}   {table.dim[j] == d + 1}   x{count}")

print(f"\ndimension check: {table.dim.sum()} = {scheme.n}")

# The ladder structure inside each module: norms balance along the rungs
# and consecutive products are strictly positive; the oracle measures both.
print(f"\nlargest norm-balance residual {table.norm_residual.max():.2e},"
      f" all ladder products positive: {table.products_positive.all()}")

mod = table[0]  # the trivial module, the one of diameter D, comes first
c, _, b = mod.cab
print(f"trivial module ladder products b_(i-1) c_i: {np.round(b[:-1] * c[1:], 6).tolist()}")

print("\nmeasured intersection matrix of the trivial module:")
print(tridiagonal(*mod.cab))
print("(equals the scheme's own intersection array)")

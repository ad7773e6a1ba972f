"""Decompose the standard module into irreducible invariant subspaces.

The algebra generated by A and A* is semisimple, so the coordinate space
is an orthogonal sum of irreducible pieces.  Each piece is classified by
its dual endpoint t (lowest eigenspace it meets) and diameter d (length
of its distance-shell support); for almost-bipartite schemes every piece
is thin, its endpoint is forced to r = D - d, and 2t + d >= D.
"""

import terwlab as tw
from terwlab.predictor import tridiagonal

scheme = tw.odd_graph(3)
sp = tw.spectral_data(scheme)
ctx = tw.build_context(scheme, sp, x=0)

modules = tw.decompose(ctx)
print(f"O_4 standard module: {scheme.n} dimensions ->"
      f" {len(modules)} irreducible pieces\n")

# thin: one dimension on each of the d + 1 shells the module meets
print(" t  d  r  dim  thin  count")
for (t, d), count in tw.census(modules).items():
    sample = next(m for m in modules if (m.t, m.d) == (t, d))
    print(f" {t}  {d}  {sample.r}   {sample.dim}   {sample.dim == d + 1}   x{count}")

total = sum(m.dim for m in modules)
print(f"\ndimension check: {total} = {scheme.n}")

# The ladder structure inside one module: norms balance along the rungs
# and consecutive products are strictly positive.
mod = next(m for m in modules if m.d == scheme.D)
ladder = tw.norm_ladder_check(mod)
print(f"\ntrivial module ladder: residuals {ladder.primal_residual:.2e} /"
      f" {ladder.dual_residual:.2e}, products {[round(p, 6) for p in ladder.products]}")

print("\nmeasured intersection matrix of the trivial module:")
print(tridiagonal(*mod.cab))
print("(equals the scheme's own intersection array)")

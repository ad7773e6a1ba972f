"""Solve the multiplicity recurrence and fit the two-parameter model.

Traces of E_t L*^d R*^d E_t evaluate in closed form and also accumulate
module by module, which yields one linear equation per feasible cell.
Walking the cells in order solves for every multiplicity without ever
decomposing the standard module; the oracle then confirms the counts.

Away from the Odd graphs and folded cubes, a pair (q, s) linearizes both
eigenvalue sequences, and the multiplicities of large-diameter classes
become rational expressions in q and s.
"""

import terwlab as tw

for build, name in [(lambda: tw.odd_cycle(4), "C_9"), (lambda: tw.folded_cube(3), "folded 7-cube")]:
    scheme = build()
    sp = tw.spectral_data(scheme)
    table = tw.solve_multiplicities(sp)
    ctx = tw.build_context(scheme, sp, 0)
    observed = tw.census(tw.decompose(ctx))
    print(f"{name}: recurrence {table.nonzero()}")
    print(f"{'':{len(name)}}  oracle     {observed}   match: {table.matches_census(observed)}\n")

# q,s model on C_9 (the folded cubes and Odd graphs are excluded: their
# eigenvalue recurrences sit exactly at the degenerate parameter)
scheme = tw.odd_cycle(4)
sp = tw.spectral_data(scheme)
excl = tw.exclusion_check(sp.pp, scheme.n)
print("C_9 excluded family:", excl.excluded)

params = tw.fit_qs(sp.theta, sp.theta_star, sp.D)
print(f"q = {params.q:.6f}   (|q| = {abs(params.q):.3f}, a 9th root of unity)")
print(f"s = {params.s:.6f}   h = {params.h:.6f}   h* = {params.hstar:.6f}")
print(f"fit residual {params.fit_residual:.2e}")

print("\nclosed-form multiplicities vs the recurrence:")
table = tw.solve_multiplicities(sp)
for (t, d) in sp.bands.cells:
    if d >= sp.D - 3:
        closed = tw.qs_multiplicity(params, t, d)
        print(f"  mult({t}, {d}) = {closed:10.6f}   recurrence {table.mult[(t, d)]}")

# the q,s forms of the module matrices agree with the eigenvalue forms:
# the largest band difference over every cell is the largest entry difference
worst = sp.bands.gap(tw.qs_band_grid(params))
print(f"\nq,s forms vs eigenvalue forms, worst entry difference: {worst:.2e}")

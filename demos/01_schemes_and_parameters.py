"""Build association schemes and read off their classical parameters.

A symmetric association scheme is a partition of ordered vertex pairs
into classes with constant triple counts.  Distance-regular graphs give
the motivating examples: the class of a pair is its graph distance.
"""

import numpy as np

import terwlab as tw

np.set_printoptions(precision=4, suppress=True)

# The 7-cycle: the smallest almost-bipartite instance we care about.
c7 = tw.odd_cycle(3)
print(f"C_7: n = {c7.n}, classes 0..{c7.D}")
print("valencies:", c7.tensor.k)

pp = tw.intersection_array(c7.tensor)
print("intersection array  c =", pp.c, " a =", pp.a, " b =", pp.b)
print("almost-bipartite:", tw.is_almost_bipartite(pp))

# Eigenvalues come from the tridiagonal intersection matrix; multiplicities
# from column orthogonality; Krein parameters from the eigenmatrix Q.
sp = tw.spectral_data(c7)
print("\ntheta  :", sp.theta)
print("theta* :", sp.theta_star)
print("m      :", sp.m)
print("compare: 2 cos(2 pi i / 7) =", 2 * np.cos(2 * np.pi * np.arange(4) / 7))

# The Odd graph O_4 = K(7, 3): vertices are 3-subsets of a 7-set,
# adjacent when disjoint.
o4 = tw.odd_graph(3)
sp4 = tw.spectral_data(o4)
pp4 = sp4.pp
print(f"\nO_4: n = {o4.n}, valency {o4.tensor.k[1]}")
print("intersection array  c =", pp4.c, " a =", pp4.a, " b =", pp4.b)
print("theta  :", sp4.theta)
print("theta* :", sp4.theta_star)

# Both polynomial orderings were detected automatically.  The Q-ordering
# is the one under which the Krein parameters q^h_{1j} form a tridiagonal
# slice; that slice is the dual array (c*, a*, b*), nonnegative as the
# Krein conditions require.
print("\nP-ordering:", sp4.p_ordering, " Q-ordering:", sp4.q_ordering)
ps4 = sp4.ppstar
print("Krein array  c* =", ps4.c, " a* =", ps4.a, " b* =", ps4.b)
print("Krein array is nonnegative:", min(ps4.c.min(), ps4.a.min(), ps4.b.min()) > -1e-8)

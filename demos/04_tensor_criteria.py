"""Tensor spectra for uniform instances: the even-size story.

For a k-uniform edge-signed hypergraph the adjacency and Laplacian data
live in an order-k symmetric tensor.  The library works matrix-free:
`adj_apply` / `lap_apply` contract the tensors against a vector, a
shifted power iteration computes the spectral radius of the underlying
(sign-free) structure, and parity systems decide the H-eigenvalue
criteria that characterize when the signs are removable by switching.
"""

import numpy as np

import hypersign as hs

ex = hs.load_bundled("ex_c3_42")
sex = hs.induced_signed(ex)

# Spectral radius of the structure by the bracketing power method.
radius = hs.nqz_spectral_radius(ex)
print("spectral radius:", radius.rho, f"({radius.iterations} iterations)")
print("final bracket:", (radius.lower, radius.upper))

# -2 is an eigenvalue of the *signed* adjacency tensor, with a complex
# eigenvector — but it is not an H-eigenvalue (no real eigenvector).
x = np.array([1j, 1, 1j, 1, 1j, 1])
print("\ncontracting at x = (i,1,i,1,i,1):", hs.adj_apply(sex, x))
print("equals -2 x^{[k-1]}?  residual =", hs.eigenpair_residual(sex, -2.0, x))
print("-rho an H-eigenvalue?", bool(hs.h_eigen_minus_rho(sex)))
print("odd-bipartite structure?", bool(hs.odd_bipartite(ex)))

# The six-statement battery: for even k, switching equivalence to the
# all-positive structure, two diagonal-similarity identities, the two
# H-eigenvalue criteria and the raw parity system all agree.  The two
# similarities are one exact check of the parity solution: a +-1
# diagonal similarity leaves the diagonal alone, and the diagonal
# (the degrees) is all that the Laplacian adds to the adjacency tensor.
report = hs.theorem_battery_even(sex)
print("\nbattery on the bundled example:", report.values(),
      "-> agree:", report.agree)

# A different signing of the same structure passes all six; note its
# orientation-level balance still fails (the implication only runs one way).
twin = hs.build(6, [
    [(1, -1), (2, -1), (3, 1), (4, 1)],
    [(1, 1), (2, 1), (5, 1), (6, 1)],
    [(3, 1), (4, 1), (5, 1), (6, 1)],
])
signed_twin = hs.induced_signed(twin)
report = hs.theorem_battery_even(signed_twin)
print("twin signing battery:", report.values(), "-> all true:", report.all_true)
print("twin orientation balanced?", bool(hs.incidence_balance(twin)))

cert = report.laplacian_certificate
print("\nLaplacian zero-eigenvector certificate: signs =", cert.signs,
      "residual =", cert.residual)
print("quadratic Laplacian form at the all-ones vector:",
      hs.lap_form(signed_twin, np.ones(6)))

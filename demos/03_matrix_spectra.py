"""Reading balance off matrix spectra.

Three matrices attach to an oriented hypergraph: the incidence matrix M
(edges x vertices, entries the orientations), the signed adjacency
matrix A, and the Laplacian L = D + A, which factors exactly as M^T M.
Balance leaves a spectral fingerprint: the extreme eigenvalue /
singular value of the oriented object reaches the value attained by the
all-positive variant exactly when the orientation is balanced.
"""

import numpy as np

import hypersign as hs

triangle = hs.build(3, [[(1, -1), (2, 1)], [(1, 1), (3, 1)], [(2, 1), (3, 1)]])

m = hs.incidence_matrix(triangle)
a = hs.adjacency_matrix(triangle)
lap = hs.laplacian_matrix(triangle)
print("M =\n", m)
print("A =\n", a)
print("L =\n", lap)
print("L equals M^T M exactly?", np.array_equal(m.T @ m, lap))

print("\nA spectrum:", hs.sym_eigenvalues(a))
print("L spectrum:", hs.sym_eigenvalues(lap))
print("M singular values:", hs.singular_values(m))

# The package bundles the three criteria, their targets (computed on the
# all-positive variant) and the tolerance-based decisions in one report.
suite = hs.spectral_balance_tests(triangle)
structural = bool(hs.incidence_balance(triangle))
print("\nstructural verdict: balanced =", structural)
for report in suite.reports:
    print(f"  {report.criterion}: target={report.target:.6g}"
          f" decision={report.decision} margin={report.margin:.3g}"
          f" [{report.classify(structural)}]")

# On a balanced instance all three decisions flip to True and the
# spectra actually attain their targets.
balanced = hs.build(2, [[(1, 1), (2, -1)]])
suite = hs.spectral_balance_tests(balanced)
print("\nbalanced single edge:")
for report in suite.reports:
    print(f"  {report.criterion}: target={report.target:.6g}"
          f" spectrum={tuple(round(x, 9) for x in report.spectrum)}"
          f" decision={report.decision}")

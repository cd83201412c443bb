"""
Exact arithmetic in the conifold algebra
========================================

Normal forms in the rank-8 basis over C[x, y, z], the center, the Clifford
structure, and the scheme of 2-dimensional trace-zero representations.
"""

from qsing.conifold import (
    ConifoldElement,
    TernaryForm,
    X,
    Y,
    Z,
    clifford_check,
    commutator_element,
    evaluate_at_point,
    is_central,
    multiply,
    trep2_jacobian_rank,
    trep2_sample,
)

# Words in X, Y, Z rewrite into the basis 1, X, Y, Z, XY, XZ, YZ, XYZ with
# polynomial coefficients: squares drop to the center, Z anticommutes.
for word in ("ZX", "YX", "XXYY", "ZYXZ"):
    print(f"{word:>5} -> {ConifoldElement.from_word(word)}")

# The element D = XYZ - YXZ is central but not a polynomial in x, y, z;
# its square is 4(z^2 - xy), which presents the center as the conifold ring.
D = commutator_element()
print("\nD =", D)
print("D central?", is_central(D))
print("D^2 =", multiply(D, D))

# The algebra is the Clifford algebra of a ternary form: the generator
# pairings reproduce the symmetric matrix [[x, z, 0], [z, y, 0], [0, 0, 1]].
print("\nClifford identities hold:",
      all(clifford_check(v, w) for v in (X, Y, Z) for w in (X, Y, Z)))
print("form determinant:", TernaryForm().determinant())

# Two-dimensional trace-zero representations form a smooth 6-dimensional
# scheme: sampled rational points satisfy the equations exactly and the
# Jacobian has rank 3 everywhere.
points = trep2_sample(5, seed=6)
print("\nsampled Jacobian ranks:", [trep2_jacobian_rank(p) for p in points])

# Evaluating a normal form at a sample point is a 2x2 matrix; the same
# answer comes from multiplying the generator images directly.
print("X*Y at the first point:", evaluate_at_point(multiply(X, Y), points[0]))

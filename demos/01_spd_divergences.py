"""
Divergences on the SPD cone
===========================

Covariance descriptors are symmetric positive definite (SPD) matrices, and
distances between them should respect the cone's curved geometry: a plain
Euclidean difference badly distorts neighborhoods.  This demo walks through
the two geometry-aware dissimilarities the library uses, checks the
invariance property that makes them trustworthy, and shows the centroid
routine in action.
"""

import numpy as np

from knncompress.spd import airm, cholesky, jbld, jbld_centroid

rng = np.random.default_rng(0)


def random_spd(d, scale=1.0):
    A = rng.standard_normal((d, d))
    return A @ A.T + scale * d * np.eye(d)


# ---------------------------------------------------------------------------
# Two dissimilarities: the Riemannian distance and its log-det surrogate
# ---------------------------------------------------------------------------
# airm is the geodesic distance on the SPD manifold.  jbld is a symmetric
# log-det divergence that tracks it closely at a fraction of the cost (no
# eigendecomposition, just Cholesky factorizations).

X, Y = random_spd(4), random_spd(4)
print(f"airm(X, Y) = {airm(X, Y):.6f}")
print(f"jbld(X, Y) = {jbld(X, Y):.6f}")
print(f"jbld(X, X) = {jbld(X, X):.2e}   (zero on equal arguments)")

# ---------------------------------------------------------------------------
# Affine invariance
# ---------------------------------------------------------------------------
# Both quantities are unchanged when the underlying feature space is mapped
# through any invertible matrix A.  This is the property that makes them
# meaningful for covariance descriptors: a change of feature basis must not
# change which neighbors are near.

A = rng.standard_normal((4, 4)) + np.eye(4)
print("\nunder X -> A X A', Y -> A Y A':")
print(f"  |jbld shift| = {abs(jbld(A @ X @ A.T, A @ Y @ A.T) - jbld(X, Y)):.2e}")
print(f"  |airm shift| = {abs(airm(A @ X @ A.T, A @ Y @ A.T) - airm(X, Y)):.2e}")

# ---------------------------------------------------------------------------
# The Cholesky parameterization
# ---------------------------------------------------------------------------
# The compressor optimizes prototypes through their upper-triangular Cholesky
# factors B (with B' B = X): any B with a nonzero diagonal reconstructs to an
# SPD matrix, so gradient steps can never leave the cone.

B = cholesky(X)
print(f"\n||B'B - X|| / ||X|| = {np.linalg.norm(B.T @ B - X) / np.linalg.norm(X):.2e}")

# ---------------------------------------------------------------------------
# Centroids under the divergence
# ---------------------------------------------------------------------------
# The class centroid used by the FCNN baseline minimizes the summed jbld to
# its members: the fixed point of X <- [mean_i ((X + X_i)/2)^-1]^-1, sped up
# by Anderson mixing over the last 3 steps.  It stops once a step moves X by
# less than tol (Frobenius) and returns that step's plain image, which is
# SPD.  It lands strictly "between" the members: its objective is at least as
# good as any member's.

members = [random_spd(4) for _ in range(5)]
cen = jbld_centroid(members)
obj = lambda Z: sum(jbld(Z, Mb) for Mb in members)
print(f"\ncentroid objective  : {obj(cen):.6f}")
print(f"best member's value : {min(obj(Mb) for Mb in members):.6f}")

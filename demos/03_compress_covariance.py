"""
Compressing a covariance kNN training set
=========================================

A 1-NN classifier pays for every training member at query time.  This demo
shrinks a synthetic covariance training set to 8% of its size two ways --
plain stratified subsampling and learned synthetic prototypes (SCC) -- and
compares test error and query cost against the full reference set.
"""

import numpy as np

from knncompress.baselines import subsample
from knncompress.datasets import gen_covariance_dataset, stratified_indices
from knncompress.knn import evaluate
from knncompress.scc import SccConfig, scc_compress
from knncompress.spd import jbld

# ---------------------------------------------------------------------------
# A synthetic three-class problem
# ---------------------------------------------------------------------------
# Each class draws 5x5 covariance descriptors from its own Wishart
# distribution; separation controls how far apart the class scale matrices
# sit.  Half the members become the training set, half the test set.

data = gen_covariance_dataset(classes=3, per_class=200, d=5,
                              wishart_dof=8, separation=1.0, seed=0)
rng = np.random.default_rng(0 + 777)
train_idx = stratified_indices(data.labels, len(data) // 2, rng)
test_idx = np.setdiff1d(np.arange(len(data)), train_idx)
train, test = data.subset(train_idx), data.subset(test_idx)
print(f"train: {len(train)} members   test: {len(test)} members")

full = evaluate(test, train, jbld, reps=1)
print(f"\nfull 1-NN reference   error = {full.error_rate:.3f}   "
      f"distance evals = {full.distance_evals}")

# ---------------------------------------------------------------------------
# Baseline: keep a stratified 8% of the training set
# ---------------------------------------------------------------------------

m = round(0.08 * len(train))
sub = train.subset(subsample(train, m, seed=0).indices)
rep = evaluate(test, sub, jbld, reps=1, reference_time=full.wall_time)
print(f"\nsubsample ({m} members)  error = {rep.error_rate:.3f}   "
      f"speedup = {rep.speedup_vs_reference:.1f}x")

# ---------------------------------------------------------------------------
# Learned prototypes: stochastic-neighborhood covariance compression
# ---------------------------------------------------------------------------
# SCC starts from the same stratified subsample but then *moves* the
# prototypes: each one is parameterized by its Cholesky factor (so it stays
# SPD by construction) and conjugate gradient descends a KL objective that
# rewards every training member for having a same-label prototype nearby.

state = scc_compress(train, m, SccConfig(max_iter=100, seed=0))
print(f"\nSCC: KL loss {state.loss_history[0]:.3f} -> "
      f"{state.loss_history[-1]:.3f} over {len(state.loss_history) - 1} "
      "accepted steps")

proto = state.to_dataset(train)
rep = evaluate(test, proto, jbld, reps=1, reference_time=full.wall_time)
print(f"SCC ({m} prototypes)   error = {rep.error_rate:.3f}   "
      f"speedup = {rep.speedup_vs_reference:.1f}x")

# The synthetic prototypes are not training members -- they are new SPD
# matrices placed to preserve the decision boundary, which is why they beat
# the subsample at the same budget.
d_nearest = jbld.matrix(train.members, proto.members[:1]).min()
print(f"\nnearest training member to prototype 0: jbld = {d_nearest:.4f} "
      "(strictly positive: a learned matrix, not a copy)")

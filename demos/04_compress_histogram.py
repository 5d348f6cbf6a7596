"""
Compressing a histogram kNN training set
========================================

Histogram descriptors live on the probability simplex and are compared with
the Sinkhorn distance, a fast entropic relaxation of the earth mover's
distance.  This demo compresses a synthetic histogram training set to 8%
with random-mutation hill climbing (a selection baseline) and with learned
synthetic histograms (SHC), then compares test errors.
"""

import warnings

import numpy as np

from knncompress.baselines import rmhc_reduce
from knncompress.datasets import gen_histogram_dataset, stratified_indices
from knncompress.ot import sinkhorn_matrix, sinkhorn_pairwise
from knncompress.shc import ShcConfig, shc_compress

LAM = 2.0          # entropic regularization strength
TOL = 1e-4         # marginal tolerance for the Sinkhorn solver

# ---------------------------------------------------------------------------
# A synthetic three-class problem on the simplex
# ---------------------------------------------------------------------------
# Each class draws 20-bin histograms from its own Dirichlet distribution;
# the ground metric between bins comes from random bin embeddings, so mass
# moved between "nearby" bins is cheap.

data = gen_histogram_dataset(classes=3, per_class=200, d=20,
                             concentration=5.0, seed=0)
M = data.ground_metric
rng = np.random.default_rng(0 + 777)
train_idx = stratified_indices(data.labels, len(data) // 2, rng)
test_idx = np.setdiff1d(np.arange(len(data)), train_idx)
train, test = data.subset(train_idx), data.subset(test_idx)
print(f"train: {len(train)} members   test: {len(test)} members")


def nn_error(ref_members, ref_labels):
    """1-NN test error; one batched Sinkhorn solve over all test-reference
    pairs."""
    D = sinkhorn_matrix(test.members, ref_members, M, LAM, tol=TOL,
                        max_iter=3000)[0]
    pred = np.asarray(ref_labels)[np.argmin(D, axis=1)]
    return float(np.mean(pred != test.labels))


print(f"\nfull 1-NN reference   error = "
      f"{nn_error(train.members, train.labels):.3f}")

# ---------------------------------------------------------------------------
# Baseline: hill climbing over size-m subsets
# ---------------------------------------------------------------------------
# RMHC keeps a fixed-size subset and greedily swaps members in and out,
# accepting a swap only if the training 1-NN error does not increase.

m = round(0.08 * len(train))
D = sinkhorn_pairwise(train.members, M, LAM, tol=TOL, max_iter=3000)
sel = rmhc_reduce(train, m, D, steps=100, seed=0)
err = nn_error(train.members[sel.indices], train.labels[sel.indices])
print(f"RMHC ({m} members)     error = {err:.3f}")

# ---------------------------------------------------------------------------
# Learned prototypes: stochastic-neighborhood histogram compression
# ---------------------------------------------------------------------------
# SHC starts from the RMHC selection, re-parameterizes each prototype as
# softmax(logits) so it stays on the simplex by construction, and descends
# the same KL-style objective using centered Sinkhorn dual variables as the
# distance gradient.

cfg = ShcConfig(max_iter=40, lam=LAM, rmhc_steps=100, seed=0,
                sinkhorn_tol=TOL, sinkhorn_max_iter=3000)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    state = shc_compress(train, m, config=cfg)
print(f"\nSHC: KL loss {state.loss_history[0]:.3f} -> "
      f"{state.loss_history[-1]:.3f} over {len(state.loss_history) - 1} "
      "accepted steps")

protos = state.prototypes()
err = nn_error(protos, state.labels)
print(f"SHC ({m} prototypes)   error = {err:.3f}")

# Every learned prototype is an exact probability vector: the softmax
# parameterization cannot leave the simplex.
print(f"\nprototype mass check: max |sum - 1| = "
      f"{np.abs(protos.sum(axis=1) - 1).max():.2e}, min entry = "
      f"{protos.min():.2e}")

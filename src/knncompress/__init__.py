"""Compression of kNN training sets of covariance and histogram descriptors.

Covariance descriptors (SPD matrices under the Jensen-Bregman log-det
divergence) and histogram descriptors (simplex vectors under the Sinkhorn
distance) are compressed into small synthetic prototype sets that minimize
a stochastic-neighborhood kNN objective, alongside classic instance
selection baselines and a benchmark harness.
"""

__version__ = "0.1.0"

from .datasets import (
    LabeledDataset,
    bow_histogram,
    covariance_descriptor,
    gen_covariance_dataset,
    gen_histogram_dataset,
    load_dataset,
    save_dataset,
)
from .knn import (
    EvalReport,
    distance_matrix,
    evaluate,
    knn_classify,
    loo_train_error,
)
from .neighborhood import (
    NeighborhoodModel,
    assignment_probs,
    correct_prob,
    gradient_coeffs,
    kl_loss,
)
from .ot import (
    SinkhornSolution,
    emd_exact,
    sinkhorn,
    sinkhorn_barycenter,
    sinkhorn_grad_dual,
)
from .scc import SccConfig, SccState, scc_compress, scc_init, scc_loss_grad
from .shc import (
    ShcConfig,
    ShcState,
    shc_compress,
    shc_init,
    shc_loss_grad,
    softmax_decode,
)
from .spd import (
    airm,
    cholesky,
    jbld,
    jbld_centroid,
    jbld_gradient_chol,
    jbld_matrix,
)
from .baselines import (
    ReducedSet,
    cnn_reduce,
    fcnn_reduce,
    rmhc_reduce,
    rnn_reduce,
    subsample,
)
from .harness import ExperimentPlan, run_experiment, summary_table

__all__ = [
    "LabeledDataset", "bow_histogram", "covariance_descriptor",
    "gen_covariance_dataset", "gen_histogram_dataset", "load_dataset",
    "save_dataset",
    "EvalReport", "distance_matrix", "evaluate", "knn_classify",
    "loo_train_error",
    "NeighborhoodModel", "assignment_probs", "correct_prob",
    "gradient_coeffs", "kl_loss",
    "SinkhornSolution", "emd_exact", "sinkhorn", "sinkhorn_barycenter",
    "sinkhorn_grad_dual",
    "SccConfig", "SccState", "scc_compress", "scc_init", "scc_loss_grad",
    "ShcConfig", "ShcState", "shc_compress", "shc_init", "shc_loss_grad",
    "softmax_decode",
    "airm", "cholesky", "jbld", "jbld_centroid", "jbld_gradient_chol",
    "jbld_matrix",
    "ReducedSet", "cnn_reduce", "fcnn_reduce", "rmhc_reduce", "rnn_reduce",
    "subsample",
    "ExperimentPlan", "run_experiment", "summary_table",
]

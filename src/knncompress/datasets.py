"""Labeled descriptor datasets: construction, synthetic generators, JSON I/O.

A dataset holds either covariance descriptors (SPD matrices) or histogram
descriptors (simplex vectors plus a shared ground metric).  Files are a
single JSON document: header fields, members as row-major numeric arrays,
ground metric inline for the histogram family.
"""
from __future__ import annotations

import copy
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParameters,
    ClassStarved,
    DimensionMismatch,
    EmptyInput,
    InconsistentInput,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSpdInput,
    TooFewFeatures,
    TooFewInputs,
    ValidationError,
)
from .ot import check_ground_metric, check_histograms
from .spd import logdets

COV_JITTER_EPS = 1e-8


@dataclass
class LabeledDataset:
    family: str                      # "covariance" | "histogram"
    dim: int
    members: list[np.ndarray]
    labels: np.ndarray
    ground_metric: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in ("covariance", "histogram"):
            raise ValidationError(f"unknown family {self.family!r}")
        self.labels = np.asarray(self.labels, dtype=int)
        if len(self.members) != len(self.labels):
            raise DimensionMismatch("members and labels length mismatch")
        if (self.labels < 0).any():
            raise ValidationError("labels must be nonnegative integers")
        if self.family == "histogram" and self.ground_metric is None:
            raise ValidationError("histogram datasets need a ground metric")
        # one check over every entry, so the distance kernels can trust it
        if self.members:
            try:
                stack = np.asarray(self.members, dtype=float)
            except ValueError:
                raise DimensionMismatch(
                    "members must be numeric arrays of one shape") from None
            if not np.isfinite(stack).all():
                raise NonFiniteInput("dataset members must be finite")
            shape = (self.dim,) * (1 if self.family == "histogram" else 2)
            if stack.shape[1:] != shape:
                raise DimensionMismatch(
                    f"{self.family} members must have shape {shape}")
            if self.family == "histogram":
                check_histograms(stack)
            elif (np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
                  > 1e-9 * np.abs(stack).max(axis=(1, 2))).any():
                raise InconsistentInput("covariance members must be symmetric")
            else:
                try:  # the kernels' stacked Cholesky and jitter retry
                    logdets(stack)
                except NotPositiveDefinite:
                    raise NotSpdInput("covariance members must be positive "
                                      "definite") from None
        if self.ground_metric is not None:
            check_ground_metric(self.ground_metric, self.dim)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=int)
        out = copy.copy(self)  # members checked when self was built
        out.members = [self.members[i] for i in indices]
        out.labels = self.labels[indices]
        out.metadata = dict(self.metadata)
        return out


def stratified_indices(labels: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Class-stratified sample of m indices without replacement.

    Proportional allocation with largest-remainder rounding and at least one
    prototype per class when m >= #classes.  With m < #classes the smallest
    classes are dropped (ClassStarved warning).
    """
    labels = np.asarray(labels, dtype=int)
    n = len(labels)
    if not 1 <= m <= n:
        raise TooFewInputs(f"cannot sample {m} of {n} points")
    # classes in first-occurrence order, so the draw is invariant to a
    # relabeling of class identities
    classes_sorted, first_idx, counts_sorted = np.unique(
        labels, return_index=True, return_counts=True)
    occ = np.argsort(first_idx)
    classes = classes_sorted[occ]
    counts = counts_sorted[occ]
    C = len(classes)
    pos = np.arange(C)

    if m < C:
        warnings.warn(f"m={m} < {C} classes; dropping smallest classes",
                      ClassStarved)
        order = np.lexsort((pos, -counts))  # largest count first, earlier ties
        alloc = np.zeros(C, dtype=int)
        alloc[order[:m]] = 1
    else:
        quota = m * counts / n
        alloc = np.floor(quota).astype(int)
        alloc = np.minimum(np.maximum(alloc, 1), counts)
        rem = quota - alloc
        order = np.lexsort((pos, -rem))  # largest remainder, earlier ties
        k = 0
        while alloc.sum() < m:
            c = order[k % C]
            if alloc[c] < counts[c]:
                alloc[c] += 1
            k += 1
        order_desc = np.lexsort((pos, -alloc))
        k = 0
        while alloc.sum() > m:
            c = order_desc[k % C]
            if alloc[c] > 1:
                alloc[c] -= 1
            k += 1

    chosen = []
    for ci in range(C):
        if alloc[ci] == 0:
            continue
        idx = np.where(labels == classes[ci])[0]
        chosen.append(rng.choice(idx, size=alloc[ci], replace=False))
    return np.sort(np.concatenate(chosen))


# --- descriptor construction -------------------------------------------------

def covariance_descriptor(features: np.ndarray) -> np.ndarray:
    """Sample covariance (1/(N-1) normalization) of a feature bag, jittered
    onto the strict SPD cone if degenerate."""
    F = np.asarray(features, dtype=float)
    if F.ndim != 2:
        raise DimensionMismatch("features must be (N, d)")
    N, d = F.shape
    if N < 2:
        raise TooFewFeatures("need at least 2 feature vectors")
    mu = F.mean(axis=0)
    Xc = F - mu
    C = Xc.T @ Xc / (N - 1)
    C = 0.5 * (C + C.T)
    try:
        np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        tr = np.trace(C)
        scale = tr / d if tr > 0 else 1.0
        C = C + COV_JITTER_EPS * scale * np.eye(d)
    return C


def bow_histogram(features: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Bag-of-words histogram: nearest-centroid counts normalized to sum 1.

    Euclidean assignment with lowest-index tie-break.
    """
    F = np.asarray(features, dtype=float)
    cb = np.asarray(codebook, dtype=float)
    if F.size == 0 or cb.size == 0:
        raise EmptyInput("empty features or codebook")
    if F.ndim != 2 or cb.ndim != 2 or F.shape[1] != cb.shape[1]:
        raise DimensionMismatch("features and codebook dims disagree")
    d2 = ((F[:, None, :] - cb[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d2, axis=1)
    counts = np.bincount(nearest, minlength=cb.shape[0]).astype(float)
    return counts / counts.sum()


# --- synthetic generators ----------------------------------------------------

def gen_covariance_dataset(classes: int, per_class: int, d: int,
                           wishart_dof: int, separation: float,
                           seed: int) -> LabeledDataset:
    """Wishart-cluster SPD dataset.

    Each class gets a seeded SPD prototype P_c = expm(separation * S_c) with
    S_c a random symmetric direction; members are normalized Wishart draws
    centered on P_c (wishart_dof outer products of N(0, P_c) vectors).
    """
    if classes < 1 or per_class < 1 or d < 1:
        raise BadParameters("classes, per_class, d must be positive")
    if wishart_dof < d:
        raise BadParameters("wishart_dof must be >= d")
    if separation < 0:
        raise BadParameters("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    members, labels = [], []
    for c in range(classes):
        G = rng.standard_normal((d, d))
        S = (G + G.T) / (2.0 * np.sqrt(d))
        w, V = np.linalg.eigh(separation * S)
        P = (V * np.exp(w)) @ V.T
        L = np.linalg.cholesky(0.5 * (P + P.T))
        for _ in range(per_class):
            Z = L @ rng.standard_normal((d, wishart_dof))
            X = Z @ Z.T / wishart_dof
            X = 0.5 * (X + X.T)
            try:
                np.linalg.cholesky(X)
            except np.linalg.LinAlgError:
                X = X + 1e-10 * np.trace(X) / d * np.eye(d)
            members.append(X)
            labels.append(c)
    return LabeledDataset(
        family="covariance", dim=d, members=members, labels=np.array(labels),
        metadata={"name": "wishart-synthetic", "seed": seed,
                  "classes": classes, "per_class": per_class,
                  "wishart_dof": wishart_dof, "separation": separation})


def gen_histogram_dataset(classes: int, per_class: int, d: int,
                          concentration: float, seed: int) -> LabeledDataset:
    """Dirichlet-cluster histogram dataset.

    Each class gets a seeded simplex prototype; members are Dirichlet draws
    with parameter concentration * prototype (mean = prototype, tightening
    as concentration grows).  The ground metric is the Euclidean distance
    between seeded codeword embeddings.
    """
    if classes < 1 or per_class < 1 or d < 2:
        raise BadParameters("classes, per_class must be positive and d >= 2")
    if concentration <= 0:
        raise BadParameters("concentration must be positive")
    rng = np.random.default_rng(seed)
    embed = rng.standard_normal((d, 3))
    diff = embed[:, None, :] - embed[None, :, :]
    M = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(M, 0.0)

    members, labels = [], []
    for c in range(classes):
        proto = rng.dirichlet(np.ones(d))
        alpha = np.maximum(concentration * proto, 1e-3)
        for _ in range(per_class):
            h = rng.dirichlet(alpha)
            h = np.maximum(h, 0.0)
            members.append(h / h.sum())
            labels.append(c)
    return LabeledDataset(
        family="histogram", dim=d, members=members, labels=np.array(labels),
        ground_metric=M,
        metadata={"name": "dirichlet-synthetic", "seed": seed,
                  "classes": classes, "per_class": per_class,
                  "concentration": concentration})


# --- JSON serialization -------------------------------------------------------

def save_dataset(ds: LabeledDataset, path: str) -> None:
    doc = {
        "family": ds.family,
        "dim": ds.dim,
        "n": len(ds),
        "classes": ds.n_classes,
        "metadata": ds.metadata,
        "labels": ds.labels.tolist(),
        "members": [np.asarray(m).ravel().tolist() for m in ds.members],
        "ground_metric": (ds.ground_metric.tolist()
                          if ds.ground_metric is not None else None),
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def _numeric(value, what: str, shape: tuple) -> np.ndarray:
    """value as a float array of the given shape, or ValidationError."""
    try:
        return np.array(value, dtype=float).reshape(shape)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be {' x '.join(map(str, shape))} "
                              "numbers") from None


def load_dataset(path: str) -> LabeledDataset:
    """Read a save_dataset document; a malformed one raises ValidationError."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: a dataset must be a JSON object")
    missing = [k for k in ("family", "dim", "members", "labels")
               if k not in doc]
    if missing:
        raise ValidationError(f"{path}: missing key(s) {', '.join(missing)}")
    family, d = doc["family"], doc["dim"]
    if family not in ("covariance", "histogram"):
        raise ValidationError(f"unknown family {family!r} in {path}")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValidationError(f"{path}: dim must be a positive integer, "
                              f"got {d!r}")
    if not isinstance(doc["members"], list):
        raise ValidationError(f"{path}: members must be a list")
    shape = (d, d) if family == "covariance" else (d,)
    members = list(_numeric(doc["members"], f"{path}: each member",
                            (len(doc["members"]),) + shape))
    try:
        labels = np.asarray(doc["labels"])
    except (ValueError, OverflowError):
        labels = None
    if (labels is None or labels.ndim != 1
            or (labels.size and labels.dtype.kind not in "iu")):
        raise ValidationError(f"{path}: labels must be a list of integers")
    gm = doc.get("ground_metric")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError(f"{path}: metadata must be a JSON object")
    return LabeledDataset(
        family=family,
        dim=d,
        members=members,
        labels=labels.astype(int),
        ground_metric=(_numeric(gm, f"{path}: ground_metric", (d, d))
                       if gm is not None else None),
        metadata=metadata,
    )

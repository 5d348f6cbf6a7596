"""Labeled descriptor datasets: the checked container, synthetic generators,
JSON I/O.

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
    InconsistentInput,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSpdInput,
    TooFewInputs,
    ValidationError,
)
from .neighborhood import check_counts
from .ot import check_ground_metric, check_histograms
from .spd import check_spd


@dataclass
class LabeledDataset:
    """Labeled descriptors; members is kept as one checked float stack,
    (n, dim) histograms or (n, dim, dim) covariances.  Every rule a
    dataset obeys, from a file or from code, is checked here."""
    family: str                      # "covariance" | "histogram"
    dim: int
    members: np.ndarray
    labels: np.ndarray
    ground_metric: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in ("covariance", "histogram"):
            raise ValidationError(f"unknown family {self.family!r}")
        check_counts(1, dim=self.dim)
        self.dim = int(self.dim)  # a numpy integer is no JSON number
        if not isinstance(self.metadata, dict):
            raise ValidationError(f"metadata must be a dict, got "
                                  f"{type(self.metadata).__name__}")
        try:
            labels = np.asarray(self.labels)
        except (ValueError, OverflowError):  # ragged, or beyond int64
            labels = None
        if (labels is None or labels.ndim != 1
                or (labels.size and labels.dtype.kind not in "iu")):
            raise ValidationError("labels must be a list of integers")
        self.labels = labels.astype(int)
        if len(self.members) != len(self.labels):
            raise DimensionMismatch("members and labels length mismatch")
        if (self.labels < 0).any():
            raise ValidationError("labels must be nonnegative integers")
        if self.family == "histogram" and self.ground_metric is None:
            raise ValidationError("histogram datasets need a ground metric")
        # one check over every entry, so the distance kernels can trust it
        shape = (self.dim,) * (1 if self.family == "histogram" else 2)
        try:
            stack = np.asarray(self.members, dtype=float)
        except ValueError:
            raise DimensionMismatch(
                "members must be numeric arrays of one shape") from None
        if not len(stack):
            stack = stack.reshape((0,) + shape)
        if not np.isfinite(stack).all():
            raise NonFiniteInput("dataset members must be finite")
        if stack.shape[1:] != shape:
            raise DimensionMismatch(
                f"{self.family} members must have shape {shape}")
        if self.family == "histogram":
            check_histograms(stack)
        elif (np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
              > 1e-9 * np.abs(stack).max(axis=(1, 2))).any():
            raise InconsistentInput("covariance members must be symmetric")
        else:
            try:  # both Cholesky kernels
                check_spd(stack)
            except NotPositiveDefinite:
                raise NotSpdInput("covariance members must be positive "
                                  "definite") from None
        self.members = stack
        if self.ground_metric is not None:
            self.ground_metric = check_ground_metric(self.ground_metric,
                                                     self.dim)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def n_classes(self) -> int:
        return len(np.unique(self.labels))

    def subset(self, indices) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=int)
        out = copy.copy(self)  # members checked when self was built
        out.members = self.members[indices]
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


# --- synthetic generators ----------------------------------------------------

def gen_covariance_dataset(classes: int, per_class: int, d: int,
                           wishart_dof: int, separation: float,
                           seed: int) -> LabeledDataset:
    """Wishart-cluster SPD dataset.

    Each class gets a seeded SPD prototype P_c = expm(separation * S_c) with
    S_c a random symmetric direction; members are normalized Wishart draws
    centered on P_c (wishart_dof outer products of N(0, P_c) vectors).
    """
    check_counts(1, classes=classes, per_class=per_class, d=d)
    check_counts(seed=seed)
    if wishart_dof < d:
        raise BadParameters("wishart_dof must be >= d")
    if not 0 <= separation < np.inf:  # NaN included
        raise BadParameters("separation must be nonnegative and finite")
    rng = np.random.default_rng(seed)
    members = np.empty((classes, per_class, d, d))
    for c in range(classes):
        G = rng.standard_normal((d, d))
        S = (G + G.T) / (2.0 * np.sqrt(d))
        w, V = np.linalg.eigh(separation * S)
        P = (V * np.exp(w)) @ V.T
        L = np.linalg.cholesky(0.5 * (P + P.T))
        Z = L @ rng.standard_normal((per_class, d, wishart_dof))
        X = Z @ Z.transpose(0, 2, 1) / wishart_dof
        members[c] = 0.5 * (X + X.transpose(0, 2, 1))
    fields = dict(
        family="covariance", dim=d, members=members.reshape(-1, d, d),
        labels=np.repeat(np.arange(classes), per_class),
        metadata={"name": "wishart-synthetic", "seed": seed,
                  "classes": classes, "per_class": per_class,
                  "wishart_dof": wishart_dof, "separation": separation})
    try:
        return LabeledDataset(**fields)
    except NotSpdInput:  # a ridge on the failing members; it draws no numbers
        for x in fields["members"]:
            try:
                check_spd(x[None])
            except NotPositiveDefinite:
                x += 1e-10 * np.trace(x) / d * np.eye(d)
    return LabeledDataset(**fields)


def gen_histogram_dataset(classes: int, per_class: int, d: int,
                          concentration: float, seed: int) -> LabeledDataset:
    """Dirichlet-cluster histogram dataset.

    Each class gets a seeded simplex prototype; members are Dirichlet draws
    with parameter concentration * prototype (mean = prototype, tightening
    as concentration grows).  The ground metric is the Euclidean distance
    between seeded codeword embeddings.
    """
    check_counts(1, classes=classes, per_class=per_class)
    check_counts(2, d=d)
    check_counts(seed=seed)
    if not 0 < concentration < np.inf:  # NaN included
        raise BadParameters("concentration must be positive and finite")
    rng = np.random.default_rng(seed)
    embed = rng.standard_normal((d, 3))
    diff = embed[:, None, :] - embed[None, :, :]
    M = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(M, 0.0)

    members = np.empty((classes, per_class, d))
    for c in range(classes):
        proto = rng.dirichlet(np.ones(d))
        alpha = np.maximum(concentration * proto, 1e-3)
        h = np.maximum(rng.dirichlet(alpha, size=per_class), 0.0)
        members[c] = h / h.sum(axis=1, keepdims=True)
    return LabeledDataset(
        family="histogram", dim=d, members=members.reshape(-1, d),
        labels=np.repeat(np.arange(classes), per_class),
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
        "members": (ds.members.reshape(len(ds), -1).tolist() if len(ds)
                    else []),  # row-major; -1 cannot size an empty row
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
    d = doc["dim"]
    check_counts(1, dim=d)  # before the reshape, which needs it
    if not isinstance(doc["members"], list):
        raise ValidationError(f"{path}: members must be a list")
    shape = (d, d) if doc["family"] == "covariance" else (d,)
    gm = doc.get("ground_metric")
    return LabeledDataset(
        family=doc["family"],
        dim=d,
        members=_numeric(doc["members"], f"{path}: each member",
                         (len(doc["members"]),) + shape),
        labels=doc["labels"],
        ground_metric=(_numeric(gm, f"{path}: ground_metric", (d, d))
                       if gm is not None else None),
        metadata=doc.get("metadata", {}),
    )

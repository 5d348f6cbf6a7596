"""Hypothesis property tests: SPD stacks that the dataset accepts give
well-formed JBLD matrices and SCC runs that fail with a library error or
descend through finite losses to SPD prototypes, histograms that it
accepts give finite, nonnegative Sinkhorn distances and SHC runs that fail
with a library error or descend through finite losses to prototypes on the
simplex, and mutated dataset and plan documents never make the CLI
raise."""
import contextlib
import copy
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from knncompress import cli, ot, spd
from knncompress.datasets import LabeledDataset
from knncompress.errors import KnnCompressError, NotSpdInput, ValidationError
from knncompress.harness import COMPRESSORS
from knncompress.scc import SccConfig, scc_compress, scc_init
from knncompress.shc import ShcConfig, shc_compress

PROPERTY = settings(max_examples=50, deadline=None)


@st.composite
def psd_stacks(draw):
    """(n, d, d) stacks A_i A_i^T + eps I, A_i of rank r <= d, eps >= 0."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    r = draw(st.integers(1, d))
    A = draw(hnp.arrays(float, (n, d, r),
                        elements=st.floats(-4.0, 4.0, width=32)))
    eps = draw(st.just(0.0) | st.floats(1e-12, 1.0))
    return A @ A.transpose(0, 2, 1) + eps * np.eye(d)


@PROPERTY
@given(psd_stacks())
def test_accepted_spd_stack_gives_exact_jbld_matrix(S):
    n, d = S.shape[:2]
    try:
        train = LabeledDataset(family="covariance", dim=d, members=list(S),
                               labels=np.arange(n) % 2)
    except NotSpdInput:
        return
    assert len(scc_init(train, n, 0).factors) == n
    D = spd.jbld_matrix(S, S)
    assert np.isfinite(D).all()
    assert np.array_equal(D, D.T)
    assert np.array_equal(np.diag(D), np.zeros(n))
    assert np.array_equal(D, [[spd.jbld(x, y) for y in S] for x in S])


@PROPERTY
@given(psd_stacks())
def test_accepted_spd_stack_gives_descending_scc_run(S):
    n, d = S.shape[:2]
    try:
        train = LabeledDataset(family="covariance", dim=d, members=S,
                               labels=np.arange(n) % 2)
    except NotSpdInput:
        return
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = scc_compress(train, 2, SccConfig(max_iter=3))
    except KnnCompressError:
        return
    history = np.array(state.loss_history)
    assert np.isfinite(history).all()
    assert (np.diff(history) <= 0).all()
    np.linalg.cholesky(state.prototypes())


@st.composite
def histogram_sets(draw):
    """(n, d) nonnegative rows scaled to mass one, and the (d, d) Euclidean
    distances between d random points in the plane."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    H = draw(hnp.arrays(float, (n, d), elements=st.floats(0.0, 1.0)))
    assume((H.sum(axis=1) > 0).all())
    X = draw(hnp.arrays(float, (d, 2),
                        elements=st.floats(-4.0, 4.0, width=32)))
    M = np.sqrt(((X[:, None] - X[None]) ** 2).sum(axis=2))
    return H / H.sum(axis=1, keepdims=True), M


@PROPERTY
@given(histogram_sets(), st.floats(0.1, 300.0))
def test_accepted_histograms_give_finite_sinkhorn_distances(HM, lam):
    # lam * max M spans both sides of the exp / log domain switch
    H, M = HM
    try:
        train = LabeledDataset(family="histogram", dim=H.shape[1], members=H,
                               labels=np.arange(len(H)) % 2, ground_metric=M)
    except ValidationError:
        return
    D = ot.sinkhorn_matrix(train.members, train.members, M, lam, 1e-6,
                           200)[0]
    assert np.isfinite(D).all()
    assert (D >= 0).all()


@PROPERTY
@given(histogram_sets(), st.floats(0.1, 300.0))
def test_accepted_histograms_give_descending_shc_run(HM, lam):
    H, M = HM
    try:
        train = LabeledDataset(family="histogram", dim=H.shape[1], members=H,
                               labels=np.arange(len(H)) % 2, ground_metric=M)
    except ValidationError:
        return
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = shc_compress(train, 2, ShcConfig(
                max_iter=3, rmhc_steps=0, lam=lam, sinkhorn_max_iter=200))
    except KnnCompressError:
        return
    history = np.array(state.loss_history)
    assert np.isfinite(history).all()
    assert (np.diff(history) <= 0).all()
    P = state.prototypes()
    assert (P >= 0).all()
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Small saved documents of both families, and a scratch directory."""
    root = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for family, argv in (
            ("covariance", ["gen-cov", "--classes", "2", "--per-class", "4",
                            "--dim", "3", "--dof", "6"]),
            ("histogram", ["gen-hist", "--classes", "2", "--per-class", "4",
                           "--dim", "4"])):
        path = str(root / f"{family}.json")
        assert _run(argv + ["--out", path]) == 0
        with open(path) as f:
            docs[family] = (path, json.load(f))
    return root, docs


def _run(argv) -> int:
    """cli.main's exit code, its output and warnings discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main(argv)


@st.composite
def mutations(draw, doc):
    """doc with one key deleted, or one value, list entry or number
    replaced."""
    doc = copy.deepcopy(doc)
    key = draw(st.sampled_from(sorted(doc)))
    op = draw(st.sampled_from(["delete", "replace", "entry", "number"]))
    if op == "delete":
        del doc[key]
        return doc
    if op == "replace" or not isinstance(doc[key], list) or not doc[key]:
        doc[key] = draw(JSON_VALUES)
        return doc
    parent, i = doc[key], draw(st.integers(0, len(doc[key]) - 1))
    if isinstance(parent[i], list) and parent[i] and draw(st.booleans()):
        parent, i = parent[i], draw(st.integers(0, len(parent[i]) - 1))
    if op == "number" and isinstance(parent[i], (int, float)):
        parent[i] = parent[i] * draw(st.floats()) + draw(st.floats())
    else:
        parent[i] = draw(JSON_VALUES)
    return doc


@PROPERTY
@given(data=st.data(), family=st.sampled_from(["covariance", "histogram"]),
       method=st.sampled_from(sorted(COMPRESSORS)))
def test_mutated_document_exits_cleanly(documents, data, family, method):
    root, docs = documents
    good, doc = docs[family]
    bad = str(root / "mutated.json")
    with open(bad, "w") as f:
        json.dump(data.draw(mutations(doc)), f)
    codes = (
        _run(["eval", "--reference", bad, "--test", good]),
        _run(["eval", "--reference", good, "--test", bad]),
        _run(["compress", "--method", method, "--ratio", "0.5",
              "--max-iter", "2", "--rmhc-steps", "5", "--in", bad,
              "--out", str(root / "out.json")]),
    )
    assert set(codes) <= {0, 2, 3}


# one ratio, one seed, a fast method and small iteration counts, so that a
# run on any one mutation of it stays short
SMALL_PLAN = {"ratios": [0.5], "methods": ["subsample"], "seeds": [0], "k": 1,
              "scc_max_iter": 2, "shc_max_iter": 2, "rmhc_steps": 5}


@PROPERTY
@given(data=st.data())
def test_mutated_plan_exits_cleanly(documents, data):
    root, docs = documents
    plan = str(root / "plan.json")
    with open(plan, "w") as f:
        json.dump(data.draw(mutations(SMALL_PLAN)), f)
    assert _run(["bench", "--plan", plan, "--data", docs["covariance"][0],
                 "--out", str(root / "records.jsonl")]) in {0, 2, 3}

"""Shared pytest plumbing: collect acceptance-criterion verdict lines and
print them after the run, outside output capture; shared inputs."""
import numpy as np
import pytest

from knncompress import harness
from knncompress.datasets import gen_histogram_dataset, stratified_indices

VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def hist_tight():
    """perfbench's hist-tight inputs: (queries, reference), 12 test
    histograms and one training histogram per class (d=20), whose 36
    pairs run log-domain Sinkhorn at lambda 200."""
    data = gen_histogram_dataset(3, 200, 20, 5.0, 2)
    train, test = harness.split_dataset(data, 2, test_frac=0.5)
    queries = test.subset(stratified_indices(
        test.labels, 12, np.random.default_rng(2)))
    plan = harness.ExperimentPlan(methods=("subsample",))
    return queries, harness.compress("subsample", train, train.n_classes, 2,
                                     plan)

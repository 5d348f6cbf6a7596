"""The committed BENCH_*.json files at the repository root are well formed.

Each holds `perfbench/run.py --trace 0` output for a parent commit and a
change on every workload that BENCHMARK.json declares, plus the medians
quoted for it.  Only the form is checked, never a wall time: the runs come
from a shared machine.
"""
import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def declared_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_parent_and_change_records_for_every_workload(path):
    with open(path) as f:
        doc = json.load(f)
    for name in declared_workloads():
        for side in ("parent", "change"):
            runs = doc[side]["runs"][name]
            assert runs, f"{side} has no {name} run"
            for run in runs:
                assert isinstance(run["record"], dict)
                assert isinstance(run["result"]["metrics"], dict)
        assert doc["medians"][name]

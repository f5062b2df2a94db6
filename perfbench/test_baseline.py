"""Baseline split of the traced benchmark at the seed commit.

    python3 -m pytest perfbench/test_baseline.py

Each test runs one traced unit of a workload in a fresh process and
checks the counts that the ZK and numeric layers must repeat exactly
while the program's commitment scheme is unchanged.  A change that
commits to less (ROADMAP item 2) is expected to move the demo counts;
update them in the same change and say why.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced(workload: str):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert result["correct"], proc.stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    with open(os.path.join(ROOT, json.loads(detail_line)["detail"]["trace_file"])) as fh:
        return metrics, json.load(fh)


@pytest.fixture(scope="module")
def demo():
    return traced("demo")


@pytest.fixture(scope="module")
def staged_wide():
    return traced("staged-wide")


def test_demo_commitment_counts(demo):
    m, _ = demo
    assert m["zkp.field.merkle_root.calls"] == 6
    assert m["zkp.field.sponge.calls"] == 330
    assert m["zkp.field.permutations"] == 84_130
    assert m["zkp.field.merkle_root.useful_ratio"] == 0.5
    assert m["trace.missing_targets"] == 0


def test_demo_time_is_in_the_field_layer(demo):
    m, _ = demo
    assert m["zkp.field.s"] >= 0.95 * m["trace.pipeline_s"]


def test_staged_wide_bypasses_zk(staged_wide):
    m, _ = staged_wide
    assert m["zkp.field.merkle_root.calls"] == 0
    assert m["zkp.field.sponge.calls"] == 0


def test_staged_wide_certificate_time_is_curvature_obs_artifacts(staged_wide):
    _, trace = staged_wide
    spans = trace["spans"]
    client = {"cli.fisher", "cli.unlearn", "cli.certify"}

    def under_client(i):
        while i >= 0:
            if spans[i]["name"] in client:
                return True
            i = spans[i]["parent"]
        return False

    certificate_s = sum(s["end"] - s["start"] for s in spans if s["name"] in client)
    core_s = sum(
        s["self_s"] for i, s in enumerate(spans)
        if s["name"].split(".")[0] in ("curvature", "obs", "artifacts")
        and under_client(i)
    )
    assert core_s > 0.5 * certificate_s

"""Self-test of the benchmark: seeded inputs, emitted metrics, repeatable counts.

    python3 -m pytest perfbench/tests -q

Runs the benchmark on oracle_levels, its shortest workload: once untraced
and twice traced (about two minutes in all).
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import workloads  # noqa: E402

SEED = 3
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(*args):
    proc = _run("--workload", "oracle_levels", "--seed", str(SEED), "--seconds", "1", *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _signature(reqs):
    return [(r.id, r.cls, r.command, r.flags, json.dumps(r.record, sort_keys=True),
             r.expect_exit) for r in reqs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_lists_repeat_for_equal_seeds(workload):
    for index in range(workloads.MIN_BLOCKS):
        first = _signature(workloads.block(workload, 11, index))
        assert first == _signature(workloads.block(workload, 11, index))
        assert first != _signature(workloads.block(workload, 12, index))
        assert len(first) * workloads.MIN_BLOCKS >= 100


def test_references_match_known_closed_forms():
    canonical = {"d": 1, "coeffs": [1.0, 0.0],
                 "potential": {"kind": "canonical", "a": [2.0, 2.0]}, "twist": 0.0}
    assert reference.volume(canonical) == pytest.approx(math.log(2) + 0.5, rel=1e-15)
    plane = {"d": 2, "coeffs": [1.0, 0.0, 0.0],
             "potential": {"kind": "canonical", "a": [2.0, 2.0, 2.0]}, "twist": 0.0}
    assert reference.volume(plane) == pytest.approx(1.5 * math.log(2) + 1.25, rel=1e-15)


def test_fails_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = _run("--workload", "closed_form", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_end_to_end_metrics_are_emitted():
    result = _result("--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _counts(metrics):
    """The per-layer values that are counts, not times or rates."""
    return {k: v["value"] for k, v in metrics.items()
            if not k.endswith(".self_s") and not k.startswith("trace.")}


def test_traced_counts_repeat_and_expose_rebuilds():
    first = _result("--trace", "1")
    with open(os.path.join(BENCH, "_run", f"trace-oracle_levels-s{SEED}.json")) as fh:
        trace = json.load(fh)
    second = _result("--trace", "1")
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _counts(first["metrics"]) == _counts(second["metrics"])

    # one log_count at level n on the sampled divisor rebuilds the
    # transform once per monomial: n + 1 times
    levels = {r.id: [int(n) for n in r.flags[1].split(",")]
              for index in range(workloads.MIN_BLOCKS)
              for r in workloads.block("oracle_levels", SEED, index)
              if r.cls == "oracle-check.sampled_d1"}
    names = trace["names"]
    spans = trace["spans"]
    children = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append(i)

    def builds(i):
        own = names[spans[i][0]] == "divisor.concave_transform"
        return own + sum(builds(c) for c in children.get(i, []))

    seen = {}
    for i, (name, _, _, _, request) in enumerate(spans):
        if names[name] == "oracle.log_count" and request in levels:
            seen.setdefault(request, []).append(builds(i))
    assert seen and seen.keys() == levels.keys()
    for request, counts in seen.items():
        assert counts == [n + 1 for n in levels[request]]

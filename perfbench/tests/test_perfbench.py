"""Self-test of the benchmark: minimal passes, metric names, and its checks.

Run from the repository root:

    python -m pytest perfbench/tests -q

It takes about a minute, most of it in the traced run's per-layer probes.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))  # job lists are checked in-process

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _minimal(workload, **kwargs):
    """One pass over a short job list, so every workload runs in seconds."""
    seed = workloads.DEFAULT_SEED
    if workload == "ff_oracle":
        kwargs.setdefault("jobs", workloads.ff_oracle_jobs(seed, workloads.ORACLE_CASES[:4]))
    elif workload != "library_session":
        kwargs.setdefault("jobs", workloads.WORKLOADS[workload][0](seed)[:3])
    return run.run_workload(ROOT, workload, seed, 0.0,
                            kwargs.pop("trace", False), **kwargs)


def _assert_metrics(report, names):
    assert list(report["metrics"]) == names
    for name in names:
        metric = report["metrics"][name]
        assert metric["unit"]
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in e2e.items()} == run.END_TO_END_UNITS
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_minimal_pass_reports_every_end_to_end_metric(workload):
    report = _minimal(workload)
    _assert_metrics(report, [m["name"] for m in SPEC["end_to_end"]])
    assert report["failed"] == 0, report["failures"]
    line = run.result_line(report)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1


def test_traced_run_reports_every_per_layer_metric():
    report = _minimal("cli_sweep", trace=True)
    _assert_metrics(report, [m["name"] for m in SPEC["per_layer"]])
    assert report["failed"] == 0, report["failures"]
    assert report["layers"]["busy_s"]["cli"] > 0


def test_wrong_expected_output_raises_failed_ratio():
    jobs = workloads.cli_sweep_jobs(workloads.DEFAULT_SEED)[:3]
    jobs[0].check = lambda code, out, err: (
        [] if out == b"deliberately wrong\n" else ["stdout differs"])
    report = _minimal("cli_sweep", jobs=jobs)
    assert report["failed"] == 1
    assert report["failed_ratio"] == pytest.approx(1 / 3)
    assert run.result_line(report)["correct"] is False


def test_traceback_and_exit_code_count_as_failures():
    job = workloads.Job("betti --space gr:2:3000", "cli",
                        ["betti", "--space", "gr:2:3000"],
                        workloads._no_check, expect_codes=(1, 2))
    traceback = (b"Traceback (most recent call last):\n  ...\n"
                 b"RecursionError: maximum recursion depth exceeded\n")
    assert job.problems(1, b"", traceback)
    assert job.problems(0, b"", b"")
    assert not job.problems(2, b"", b"error: out of range\n")


def test_tail_percentile_has_ten_samples_beyond():
    info = run.tail([float(i) for i in range(1, 41)])
    assert info == {"value": 30.0, "percentile": 75.0, "beyond": 10, "samples": 40}
    assert run.tail([3.0, 1.0])["value"] == 3.0


def test_seed_fixes_the_inputs():
    assert workloads.cli_sweep_argv(5) == workloads.cli_sweep_argv(5)
    assert workloads.cli_sweep_argv(5) != workloads.cli_sweep_argv(6)
    assert len(workloads.cli_sweep_argv(5)) == 40

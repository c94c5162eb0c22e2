"""planemoduli benchmark: cold CLI calls and library sessions, end to end.

Run from the repository root (PYTHONPATH is set for the children):

    python3 perfbench/run.py --workload cli_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Load is a closed loop with one client: the benchmark starts one child
process, waits for it to exit, checks its output, then starts the next.
A job is one child, timed from spawn to exit; its CPU time and peak RSS
come from os.wait4.  A pass runs a workload's job list once.  Set-up
(`setup_s`) is the median of several cold `python -c "import planemoduli"`
runs.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, each a
median over the run's passes.  `--trace 1` is a separate run: one plain
pass, one pass whose children record a span per public call (tracing.py),
and the per-layer probes (child.py layers, plus cold children), and it
reports the per-layer metrics, each layer's busy and self time, and the
tracing overhead.  Every output is checked (workloads.py); a job fails on
an unexpected exit code, a traceback on stderr, or a failed check.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Everything before it is a report for people, and the full
result, with the environment, is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
from dataclasses import dataclass, field
from importlib import metadata
from time import perf_counter

from tracing import layer_times
from workloads import (DEFAULT_SEED, N6_COEFFICIENTS, TRACEBACK,
                       WALL_CANDIDATES, WORKLOADS, Job, kronecker_degree,
                       kronecker_rows_problems, m6_problems, nef_problems,
                       oracle_rows_problems, polynomial_problems,
                       theta_problems)

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: nominal seconds of one pass on a 2-vCPU x86-64 virtual machine; a run makes
#: max(1, round(seconds / nominal)) passes, so the pass count, and with it
#: the sample count behind every percentile, depends on --seconds only.
#: poincare_cold is rounded down to 5 s so that a 20 s run has 16 jobs and
#: its tail percentile lands on a job longer than the 0.2 s Hilbert one.
NOMINAL_PASS_S = {"cli_sweep": 12.5, "poincare_cold": 5.0,
                  "library_session": 7.4, "ff_oracle": 17.5}

#: cold imports timed for setup_s, and for each import probe
SETUP_REPEATS = 7
IMPORT_REPEATS = 5

#: layers whose traced self time is reported as a per-layer metric: the
#: ones every workload's traced pass reaches
TRACED_SELF_LAYERS = ("betti", "exactmath", "process")

#: a run must end within 180 s; children left at this point are killed
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "latency_p50_s": "s", "latency_tail_s": "s",
                    "peak_rss_mb": "MB"}


class JobTimeout(Exception):
    pass


@dataclass
class Outcome:
    """One finished child process."""

    code: int
    out: bytes
    err: bytes
    wall_s: float
    cpu_s: float
    maxrss_mb: float


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    job_walls: dict = field(default_factory=dict)


class Runner:
    """Spawns children one at a time from the repository root."""

    def __init__(self, root: str):
        self.workdir = os.path.join(HERE, "out")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.deadline = perf_counter() + RUN_DEADLINE_S

    def spawn(self, args: list[str]) -> Outcome:
        """Run `python ARGS` to completion; stdout and stderr go to files."""
        out_path = os.path.join(self.workdir, "job.stdout")
        err_path = os.path.join(self.workdir, "job.stderr")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise JobTimeout("the run's time limit is spent")
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                             file_actions=actions)
        live = [True]

        def kill(signum, frame):
            if live[0]:
                os.kill(pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(pid, 0)
            live[0] = False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - start
        if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
            raise JobTimeout(f"killed at the run's time limit: {args}")
        with open(out_path, "rb") as handle:
            out = handle.read()
        with open(err_path, "rb") as handle:
            err = handle.read()
        return Outcome(os.waitstatus_to_exitcode(status), out, err, wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def job_args(self, job: Job, spans: str | None = None, job_id: str = "") -> list[str]:
        if spans is None:
            if job.kind == "cli":
                return ["-m", "planemoduli", *job.args]
            return [CHILD, *job.args]
        traced = [CHILD, "--spans", spans, "--job", job_id]
        if job.kind == "cli":
            return traced + ["cli", *job.args]
        return traced + job.args

    def run_pass(self, jobs: list[Job], tag: str, traced: bool = False) -> PassResult:
        """Run every job once; outputs are checked after the pass is timed."""
        result = PassResult()
        outcomes = []
        start = perf_counter()
        for index, job in enumerate(jobs):
            job_id = f"{tag}-{index}"
            spans = os.path.join(self.workdir, f"spans-{job_id}.json") if traced else None
            outcomes.append((job, job_id, spans, self.spawn(self.job_args(job, spans, job_id))))
        result.wall_s = perf_counter() - start
        for job, job_id, spans, done in outcomes:
            result.attempted += 1
            result.cpu_s += done.cpu_s
            result.peak_rss_mb = max(result.peak_rss_mb, done.maxrss_mb)
            result.latencies.append(done.wall_s)
            result.job_walls[job_id] = done.wall_s
            problems = job.problems(done.code, done.out, done.err)
            if problems:
                result.failures.append({"job": job.label, "problems": problems})
            if spans is not None and os.path.exists(spans):
                with open(spans, encoding="utf-8") as handle:
                    result.traces.append(json.load(handle))
                os.remove(spans)
        return result


# ---------------------------------------------------------------------------
# statistics

def tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With n samples sorted, rank n - 10 has ten beyond it.  With ten or
    fewer samples no percentile qualifies and the maximum is reported,
    marked with beyond = 0.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "samples": n}
    rank = n - 10
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n,
            "beyond": 10, "samples": n}


# ---------------------------------------------------------------------------
# environment

def git_sha(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def environment(root: str, seed: int, passes: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "git_sha": git_sha(root), "seed": seed, "default_seed": DEFAULT_SEED,
            "passes": passes, "clients": 1, "max_children": 1}


# ---------------------------------------------------------------------------
# set-up and per-layer probes

def setup_seconds(runner: Runner) -> list[float]:
    """Cold `import planemoduli` processes, after one untimed warm-up that
    leaves the byte-code caches written."""
    args = ["-c", "import planemoduli"]
    warm = runner.spawn(args)
    if warm.code != 0:
        raise SystemExit("perfbench: `import planemoduli` fails:\n"
                         + warm.err.decode(errors="replace"))
    return [runner.spawn(args).wall_s for _ in range(SETUP_REPEATS)]


def _timed_import(runner: Runner, module: str) -> float:
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    done = runner.spawn(["-c", code])
    if done.code != 0:
        raise SystemExit(f"perfbench: cannot import {module}")
    return float(done.out.decode().strip())


def _probe_json(runner: Runner, args: list[str], failures: list, label: str):
    done = runner.spawn([CHILD, *args])
    if done.code != 0 or TRACEBACK in done.err:
        failures.append({"job": label, "problems": [done.err.decode(errors="replace")[-400:]]})
        return None
    return json.loads(done.out.decode().strip().splitlines()[-1])


def layer_probes(runner: Runner, seed: int) -> tuple[dict, list, int]:
    """Per-layer metrics timed from outside, by calls to public functions."""
    failures: list = []
    metrics: dict[str, float] = {}
    metrics["import.python_s"] = statistics.median(
        runner.spawn(["-c", "pass"]).wall_s for _ in range(IMPORT_REPEATS))
    metrics["import.numpy_s"] = statistics.median(
        _timed_import(runner, "numpy") for _ in range(IMPORT_REPEATS))
    metrics["import.planemoduli_s"] = statistics.median(
        _timed_import(runner, "planemoduli") for _ in range(IMPORT_REPEATS))
    attempted = 4  # the checked probe children: two cold Kronecker, cold M6, layers
    for m, e, f in ((3, 5, 4), (3, 6, 5)):
        res = _probe_json(runner, ["cold", "kronecker", str(m), str(e), str(f)],
                          failures, f"cold kronecker ({m};{e},{f})")
        if res is not None:
            metrics[f"betti.kronecker_poincare.cold_s.{m}-{e}-{f}"] = res["seconds"]
            problems = polynomial_problems(res["coefficients"], kronecker_degree(m, e, f))
            if (m, e, f) == (3, 5, 4) and tuple(res["coefficients"]) != N6_COEFFICIENTS:
                problems.append("N(3;5,4) differs from its printed coefficients")
            if problems:
                failures.append({"job": f"cold kronecker ({m};{e},{f})", "problems": problems})
    res = _probe_json(runner, ["cold", "assemble_m6"], failures, "cold assemble_m6")
    if res is not None:
        metrics["betti.assemble_m6.cold_s"] = res["seconds"]
        if m6_problems(res["coefficients"]):
            failures.append({"job": "cold assemble_m6",
                             "problems": m6_problems(res["coefficients"])})
    res = _probe_json(runner, ["layers", str(seed)], failures, "layer probes")
    if res is not None:
        metrics.update(res["metrics"])
        problems = layer_check_problems(res["checks"])
        problems += [f"{res['metrics'][f'walls.candidates.d{d}']} wall candidates at "
                     f"degree {d}, expected {count}"
                     for d, count in WALL_CANDIDATES.items()
                     if res["metrics"].get(f"walls.candidates.d{d}", count) != count]
        if problems:
            failures.append({"job": "layer probes", "problems": problems})
    return metrics, failures, attempted


def layer_check_problems(checks: dict) -> list[str]:
    found = []
    if not checks["exact_div_roundtrip"]:
        found.append("exact_div does not invert multiplication")
    if not checks["grassmannian_euler"]:
        found.append("Gaussian binomials at q = 1 differ from binomials")
    if not checks["space_palindromic"]:
        found.append("a smooth space has a non-palindromic polynomial")
    # Hilb^n of the plane: Euler characteristic = partitions of n into
    # 3-coloured parts, the coefficient of z^n in prod (1 - z^k)^-3
    series = [1] + [0] * 12
    for k in range(1, 13):
        for _ in range(3):
            for t in range(k, 13):
                series[t] += series[t - k]
    if checks["hilb_euler"] != series:
        found.append("Hilbert scheme Euler characteristics are wrong")
    found += kronecker_rows_problems(checks["kronecker_table"])
    found += m6_problems(checks["m6"]) + oracle_rows_problems(checks["oracle"])
    if checks["locate"] != 6:
        found.append("chamber index of the degree-6 first wall is not 6")
    found += nef_problems(checks["nef"]) + theta_problems(checks["d_in_AL"])
    return found


# ---------------------------------------------------------------------------
# a run

def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def end_to_end(passes: list[PassResult], setup: list[float]) -> tuple[dict, dict]:
    latencies = [x for p in passes for x in p.latencies]
    tail_info = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_info["value"],
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }
    samples = {"setup_s": len(setup), "wall_s": len(passes), "cpu_s": len(passes),
               "latency_p50_s": len(latencies), "latency_tail_s": tail_info,
               "peak_rss_mb": len(passes)}
    return metrics, samples


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool,
                 jobs: list[Job] | None = None) -> dict:
    """One benchmark run; returns the report (see `result_line`).

    `jobs` replaces the workload's job list, for the self-test's minimal
    passes.
    """
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)  # the checks call the package in-process
    runner = Runner(root)
    steal_at_start = steal_seconds()
    build, why = WORKLOADS[workload]
    setup = setup_seconds(runner)
    if jobs is None:
        jobs = build(seed)
    passes = 1 if trace else passes_for(workload, seconds)
    report = {"workload": workload, "why": why, "trace": int(trace),
              "env": environment(root, seed, passes)}
    extra_attempted, extra_failures = 0, []
    if not trace:
        results = [runner.run_pass(jobs, f"p{i}") for i in range(passes)]
        metrics, samples = end_to_end(results, setup)
        report["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                             for k, v in metrics.items()}
        report["samples"] = samples
    else:
        plain = runner.run_pass(jobs, "plain")
        traced = runner.run_pass(jobs, "traced", traced=True)
        results = [plain, traced]
        layers = layer_times(traced.traces, traced.job_walls)
        per_layer, extra_failures, extra_attempted = layer_probes(runner, seed)
        per_layer["trace.overhead_s"] = traced.wall_s - plain.wall_s
        per_layer["trace.spans"] = layers["spans"]
        for layer in TRACED_SELF_LAYERS:
            per_layer[f"trace.self_s.{layer}"] = layers["self_s"][layer]
        report["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                             for k, v in per_layer.items()}
        report["layers"] = {k: layers[k] for k in ("busy_s", "self_s")}
        for kind in ("self", "inclusive"):
            report[f"top_{kind}_s"] = sorted(layers[f"{kind}_s_by_name"].items(),
                                             key=lambda kv: -kv[1])[:8]
        report["untraced_wall_s"] = plain.wall_s
        report["traced_wall_s"] = traced.wall_s
    report["attempted"] = sum(r.attempted for r in results) + extra_attempted
    report["failures"] = [f for r in results for f in r.failures] + extra_failures
    report["failed"] = len(report["failures"])
    report["failed_ratio"] = report["failed"] / report["attempted"]
    steal_at_end = steal_seconds()
    if steal_at_start is not None and steal_at_end is not None:
        # stolen time on a shared host is the main source of run-to-run spread
        report["env"]["host_steal_s"] = steal_at_end - steal_at_start
    return report


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def result_line(report: dict) -> dict:
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["metrics"]}


def print_report(report: dict) -> None:
    env = report["env"]
    print(f"# workload {report['workload']}: {report['why']}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, metric in report["metrics"].items():
        note = ""
        sample = report.get("samples", {}).get(name)
        if isinstance(sample, dict):
            note = (f"  (p{sample['percentile']:.1f} of {sample['samples']} jobs, "
                    f"{sample['beyond']} beyond)")
        elif sample is not None:
            note = f"  (median of {sample})"
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"failed_ratio = {report['failed_ratio']:.4g} "
          f"({report['failed']} of {report['attempted']} jobs failed)")
    if report["trace"]:
        print(f"# traced pass {report['traced_wall_s']:.4f} s, plain pass "
              f"{report['untraced_wall_s']:.4f} s")
        for layer in report["layers"]["busy_s"]:
            print(f"layer {layer}: busy {report['layers']['busy_s'][layer]:.4f} s, "
                  f"self {report['layers']['self_s'][layer]:.4f} s")
        for kind in ("self", "inclusive"):
            for name, seconds in report[f"top_{kind}_s"]:
                share = seconds / report["traced_wall_s"]
                print(f"{kind} {name} = {seconds:.4f} s ({share:.1%} of the traced pass)")
    for failure in report["failures"]:
        print(f"FAILED {failure['job']}: {'; '.join(failure['problems'])}")


def write_result(report: dict, seed: int) -> None:
    path = os.path.join(HERE, "out",
                        f"result-{report['workload']}-seed{seed}-trace{report['trace']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "planemoduli", "__init__.py")):
        print("perfbench: run from the repository root; src/planemoduli is missing",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            report = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        except JobTimeout as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        write_result(report, args.seed)
        print_report(report)
        print(json.dumps(result_line(report)), flush=True)
    for leftover in ("job.stdout", "job.stderr"):
        path = os.path.join(HERE, "out", leftover)
        if os.path.exists(path):
            os.remove(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

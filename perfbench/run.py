"""Benchmark the motivic-kit verifier end to end.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; it imports the library from ``src/``.
Each workload is a seeded list of about a hundred CLI invocations, run
in-process through ``motivic_kit.cli.main`` one after another (a closed
loop with one client), with every output checked by an independent oracle.

The run's own process imports the library, writes the inputs and runs an
untimed warm-up on inputs of its own, once.  Every pass over the list then
runs in a child forked from it that times each task once and exits, so no
input is seen twice in one process and a cache keyed on inputs gains only
from the repeats inside the list itself.  Passes run one after another
until ``--seconds`` have elapsed and at least five are done.

Times are reported at the reference speed.  On a shared host the machine's
speed drifts by up to 2x for minutes at a time (other tenants, turbo
frequency), and best-of-N cannot remove a drift that lasts a whole run.  So
a fixed loop of the benchmark's own code (`probe`) is timed before and after
every task, and each task's wall time is multiplied by ``PROBE_REF_S`` over
the probe's time around it: the program and the probe slow down together,
and the product is the time at the speed at which the probe takes
``PROBE_REF_S``.  The probe never touches the library, so a change to the
program moves the scaled times in the same proportion as the wall times.  The
text lines before the result also give the wall-clock figures.

``setup_s`` is the median over seven fresh interpreters, started at even
intervals through the run, of the time from starting one to the end of
writing its inputs (interpreter start, imports, input generation), divided
by the run's mean probe time over ``PROBE_REF_S``: the speed flips within
a set-up, so probes around each one would add noise, not remove it.
Each task's latency is its median over the passes.  ``tasks_per_s`` is the
task count over the sum of those latencies (throughput at the workload's
mix, one client, oracle checks excluded), and ``task_p50_s`` and
``task_p90_s`` are percentiles over the tasks.  ``peak_rss_mb`` is the
median of the pass processes' ``ru_maxrss``.  With ``--trace 1`` one more
forked pass runs the list with the layer wrappers installed, and the
per-layer metrics are reported instead of the end-to-end ones.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The exit status is 0 only if every task passed its oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import oracles, tracing, workloads  # noqa: E402

MIN_PASSES = 5
SETUPS = 7
# The speed probe: a fixed loop of the benchmark's own pure-Python code,
# timed between tasks.  PROBE_REF_S is its time at full speed on the
# reference machine (2-vCPU Xeon VM at 2.0 GHz, Python 3.11.7).
PROBE_STEPS = 100
PROBE_REF_S = 0.00045
PASS_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_p50_s", "s"),
              ("task_p90_s", "s"), ("peak_rss_mb", "MB"))
TRACE_RATES = (("trace.untraced_tasks_per_s", "1/s"),
               ("trace.traced_tasks_per_s", "1/s"),
               ("trace.overhead_ratio", "ratio"))


class SetupError(RuntimeError):
    """The checkout has no library to benchmark, or a pass process failed."""


def check_checkout():
    if not os.path.isfile(os.path.join(SRC, "motivic_kit", "__init__.py")):
        raise SetupError(f"no motivic_kit package under {SRC}")


def import_library():
    """Import ``motivic_kit.cli`` from this checkout's ``src/``."""
    check_checkout()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("motivic_kit.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"motivic_kit imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def run_task(main, task):
    """One invocation with stdout captured: (seconds, failure reason or "")."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = main(list(task.argv))
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - start, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    return elapsed, oracles.check(task, status, out.getvalue())


def probe():
    """Seconds for the fixed loop: exact fractions and a dict, like the
    library's inner loops, so the two slow down together."""
    start = time.perf_counter()
    total, counts = Fraction(0), {}
    for i in range(1, PROBE_STEPS):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
        counts[i % 13] = counts.get(i % 13, 0) + i
    return time.perf_counter() - start


class Tally:
    """Latencies, speed readings and failures of the tasks run so far.

    The probe runs before the first task and after every task; a task's
    speed reading is the mean of the two probes around it.
    """

    def __init__(self):
        self.latencies = []
        self.probes = []
        self.failures = []
        probe()  # the first call pays for cold caches and page faults
        self.last_probe = probe()

    def run(self, main, task):
        before = self.last_probe
        elapsed, reason = run_task(main, task)
        self.last_probe = probe()
        self.latencies.append(elapsed)
        self.probes.append((before + self.last_probe) / 2)
        if reason:
            self.failures.append((" ".join(task.argv), reason))

    def scaled(self):
        """Each latency at the reference speed."""
        return [t * PROBE_REF_S / p
                for t, p in zip(self.latencies, self.probes)]


def traced_pass(cli, tasks, spans_path):
    """One pass with the wrappers installed; returns (tracer, tally)."""
    tracer = tracing.Tracer()
    tally = Tally()
    tracer.install()
    try:
        main = cli.main
        for i, task in enumerate(tasks):
            tracer.task = i
            tally.run(main, task)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    return tracer, tally


# --- set-ups and passes, each in a process of its own ------------------------

def one_setup(workload, seed):
    """What a fresh process does before its first task: import, write inputs.

    Returns the system-wide monotonic clock at the end, so the parent can
    subtract the moment it started this process.
    """
    import_library()
    workloads.build(workload, seed, os.path.join(OUT, workload, "setup"))
    return time.monotonic()


def spawn_setup(workload, seed):
    """`one_setup` in a fresh interpreter: seconds from spawn to first task."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup"]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SetupError(f"set-up process exited {proc.returncode}")
    return float(lines[-1]) - start


def forked(fn):
    """Run ``fn()`` in a forked child and return its JSON-able result.

    The child starts from the parent's imported, warmed-up interpreter and
    dies after one pass, so whatever a pass caches is gone before the next.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            signal.alarm(PASS_TIMEOUT_S)
            data = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise SetupError(f"pass process ended with wait status {status}")
    return json.loads(data)


def pass_result(tally, metrics=None):
    return {"latencies": tally.scaled(), "wall": tally.latencies,
            "probes": tally.probes, "failures": tally.failures,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "metrics": metrics or {}}


def timed_pass(main, tasks):
    tally = Tally()
    for task in tasks:
        tally.run(main, task)
    return pass_result(tally)


def traced_result(cli, tasks, spans_path):
    tracer, tally = traced_pass(cli, tasks, spans_path)
    return pass_result(tally, tracing.per_layer_metrics(tracer))


# --- a run: set-ups and passes ---------------------------------------------

def per_task(passes, key="latencies"):
    """Median latency of each task over the passes."""
    return [statistics.median(col) for col in zip(*(p[key] for p in passes))]


def slowdown(passes):
    """The run's mean probe time over ``PROBE_REF_S``."""
    return statistics.fmean(p for ps in passes for p in ps["probes"]) \
        / PROBE_REF_S


def end_to_end_metrics(setups, passes):
    lat = per_task(passes)
    values = {
        "setup_s": statistics.median(setups) / slowdown(passes),
        "tasks_per_s": len(lat) / sum(lat),
        "task_p50_s": statistics.median(lat),
        "task_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def run_workload(workload, seed, seconds, trace):
    """Set-ups and timed passes, then a traced pass if asked.

    Returns (result, lines).  This process imports the library, writes the
    inputs and runs the warm-up once; every pass is a child forked from it.
    The set-up processes are spread over the run, so ``setup_s`` samples
    the same stretch of time as the passes.
    """
    check_checkout()
    workdir = os.path.join(OUT, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    cli = import_library()
    tasks = workloads.build(workload, seed, os.path.join(workdir, "inputs"))
    warm = Tally()
    for task in workloads.build_warm_up(workload, seed,
                                        os.path.join(workdir, "warm-up")):
        warm.run(cli.main, task)
    gc.collect()
    gc.freeze()
    setups, passes = [], []
    start = time.monotonic()
    while (len(passes) < MIN_PASSES or len(setups) < SETUPS
           or time.monotonic() - start < seconds):
        if (len(setups) < SETUPS and time.monotonic() - start
                >= len(setups) * seconds / SETUPS):
            setups.append(spawn_setup(workload, seed))
        else:
            passes.append(forked(lambda: timed_pass(cli.main, tasks)))
    n_tasks = len(tasks)
    wall = per_task(passes, "wall")
    lines = [f"workload {workload} seed {seed}: {n_tasks} tasks, "
             f"{len(passes)} passes; wall-clock set-ups "
             + " ".join(f"{w:.4f}" for w in setups) + " s",
             f"wall clock: tasks_per_s {n_tasks / sum(wall):.4f} 1/s, "
             f"task_p50_s {statistics.median(wall):.6f} s; the probe ran "
             f"{slowdown(passes):.3f}x its reference time on average"]
    if trace:
        spans_path = os.path.join(workdir, "spans.csv.gz")
        traced = forked(lambda: traced_result(cli, tasks, spans_path))
        untraced_tps = n_tasks / sum(per_task(passes))
        traced_tps = n_tasks / sum(traced["latencies"])
        metrics = traced["metrics"]
        for (name, unit), value in zip(
                TRACE_RATES, (untraced_tps, traced_tps,
                              untraced_tps / traced_tps)):
            metrics[name] = {"value": value, "unit": unit}
        passes.append(traced)
        lines.append("spans written to " + spans_path)
    else:
        metrics = end_to_end_metrics(setups, passes)
    attempted = len(warm.latencies) + sum(len(p["latencies"]) for p in passes)
    failures = warm.failures + [f for p in passes for f in p["failures"]]
    lines.append(f"fail_ratio {len(failures) / attempted!r} ratio "
                 f"({len(failures)} of {attempted})")
    lines += [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines += [f"FAILED {argv}: {reason}" for argv, reason in failures[:10]]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, lines


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            status = 1
            print(f"workload {workload} exited {proc.returncode}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup:
            print(repr(one_setup(args.workload, args.seed)))
            return 0
        if args.workload == "all":
            return run_all(args)
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

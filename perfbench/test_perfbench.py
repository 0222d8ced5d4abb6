"""Tests of the benchmark itself: inputs, oracles, tracing, exit status."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import oracles, run, tracing, workloads

ROOT = run.ROOT

# One cheap task of each kind, picked from the real workloads.
CHEAP = {
    "galois-fixed": lambda t: t.size_key == (1, 2),
    "verify-mcffe": lambda t: t.size_key == (2, 2),
    "verify-mdffe": lambda t: t.size_key == (2, 2),
    "enumerate-diagrams": lambda t: t.size_key == (2, (2, 2)),
    "verify-monad": lambda t: t.size_key == (1, (2, 2)),
    "aut": lambda t: t.size_key == (6, 2),
    "hocolim": lambda t: t.size_key[0] and len(t.size_key) == 15,
}


@pytest.fixture
def cli():
    return run.import_library()


@pytest.fixture(scope="module")
def cheap_tasks(tmp_path_factory):
    tasks = []
    for w in workloads.WORKLOADS:
        built = workloads.build(w, 3, str(tmp_path_factory.mktemp(w)))
        for kind, pick in CHEAP.items():
            tasks += [t for t in built if t.kind == kind and pick(t)][:1]
    assert sorted(t.kind for t in tasks) == sorted(CHEAP)
    return tasks


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_byte_deterministic(workload, tmp_path):
    a = workloads.build(workload, 11, str(tmp_path / "a"))
    b = workloads.build(workload, 11, str(tmp_path / "b"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [t.argv for t in a] == [
        tuple(x.replace(str(tmp_path / "b"), str(tmp_path / "a")) for x in t.argv)
        for t in b]
    c = workloads.build(workload, 12, str(tmp_path / "c"))
    assert [t.argv for t in c] != [t.argv for t in a]
    assert len(a) >= 100


def _inputs(task):
    """A task's argv with every input path replaced by the file's bytes."""
    return tuple(open(x, "rb").read() if os.path.isfile(x) else x
                 for x in task.argv)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warm_up_inputs_differ_from_every_timed_input(workload, tmp_path):
    timed = workloads.build(workload, 4, str(tmp_path / "timed"))
    warm = workloads.build_warm_up(workload, 4, str(tmp_path / "warm"))
    assert {t.kind for t in warm} == {t.kind for t in timed}
    assert not {_inputs(t) for t in warm} & {_inputs(t) for t in timed}


def _corruptions(kind, text):
    """Wrong outputs derived from a right one."""
    if kind == "enumerate-diagrams":
        lines = text.splitlines()
        yield "\n".join(lines[:-1]).replace("|Aut|=1", "|Aut|=2", 1) \
            + "\n" + lines[-1]
        yield "\n".join(lines[1:-1] + [f"classes: {len(lines) - 2}"])
        return
    data = json.loads(text)
    if kind == "verify-monad":
        row = data["rows"][-1]
        row["aut_order"] = row["wreath"] = row["aut_order"] + 1
    elif kind == "aut":
        data["order"] += 1
    elif kind == "galois-fixed":
        data["fixed_morphisms"] += 1
    elif kind == "verify-mcffe":
        data["morphisms"] += 1
    elif kind == "verify-mdffe":
        data["equalizer_recheck"] += 1
    elif kind == "hocolim":
        data["homology"]["1"] += 1
    yield json.dumps(data)
    yield text[: len(text) // 2]


def test_oracles_accept_right_and_reject_corrupted_output(cli, cheap_tasks):
    for task in cheap_tasks:
        elapsed, reason = run.run_task(cli.main, task)
        assert reason == "", (task.argv, reason)
        text = _capture(cli.main, task)
        assert oracles.check(task, 1, text)
        for bad in _corruptions(task.kind, text):
            assert oracles.check(task, 0, bad), (task.kind, bad)


def _capture(main, task):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(task.argv))
    return out.getvalue()


def test_aut_oracle_rejects_a_non_automorphism():
    task = workloads.Task("aut", (), {"sizes": (3, 2), "maps": [(0, 0, 1)]})
    good = {"order": 2, "degrees": [3, 2], "generators": [
        {"components": [{"values": [1, 0, 2]}, {"values": [0, 1]}]}]}
    assert oracles.check(task, 0, json.dumps(good)) == ""
    good["generators"][0]["components"][0]["values"] = [2, 1, 0]
    assert "not an automorphism" in oracles.check(task, 0, json.dumps(good))


def test_census_identities():
    assert oracles.bounded_partitions(4, 4) == 33
    assert oracles.aut_order((3, 2), [(0, 0, 1)]) == 2
    assert oracles.aut_order((4,), []) == 24


def _bindings():
    out = {}
    for name, module in sys.modules.items():
        if name == "motivic_kit" or name.startswith("motivic_kit."):
            for attr, obj in vars(module).items():
                out[(name, attr)] = obj
                if isinstance(obj, type):
                    for k, v in vars(obj).items():
                        out[(name, attr, k)] = v
    return out


def test_wrappers_are_removed_after_a_traced_run(cli, cheap_tasks, tmp_path):
    before = _bindings()
    tracer, tally = run.traced_pass(cli, cheap_tasks, str(tmp_path / "s.gz"))
    assert not tally.failures
    assert tracer.count("cli.main") == len(cheap_tasks)
    assert tracer.count("qlinalg.matmul") > 0
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert os.path.getsize(tmp_path / "s.gz") > 0


def test_per_layer_counts_repeat_across_traced_runs(cli, cheap_tasks, tmp_path):
    def counts():
        tracer, _ = run.traced_pass(cli, cheap_tasks, str(tmp_path / "s.gz"))
        metrics = tracing.per_layer_metrics(tracer)
        return {k: m["value"] for k, m in metrics.items() if m["unit"] != "s"}
    first = counts()
    assert first == counts()
    for name in ("qlinalg.rank.calls", "finsets.relabel.calls",
                 "artin.check.calls", "galois.matmul.calls",
                 "resolution.equalizer.calls", "monad.assemble.calls",
                 "hypercube.ks.calls"):
        assert first[name] > 0, name
    assert first["artin.checks_per_morphism"] == 2.0


def test_self_times_subtract_child_spans():
    tracer = tracing.Tracer()
    layer = tracer.layer_ids
    tracer.names = ["cli.main", "qlinalg.matmul"]
    tracer.name_layer = [layer["cli"], layer["qlinalg"]]
    for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0),
                                     (1, 0, 5.0, 6.0)):
        tracer.span_name.append(name)
        tracer.span_parent.append(parent)
        tracer.span_task.append(0)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    self_s = tracer.self_times()
    assert self_s["cli"] == 6.0 and self_s["qlinalg"] == 4.0


def test_scaled_times_follow_the_probe():
    """A wall time read while the probe ran twice its reference time counts
    half: it is the time the task would take at the reference speed."""
    tally = run.Tally()
    tally.latencies = [0.02, 0.02]
    tally.probes = [run.PROBE_REF_S, 2 * run.PROBE_REF_S]
    assert tally.scaled() == pytest.approx([0.02, 0.01])
    passes = [{"probes": [run.PROBE_REF_S, 3 * run.PROBE_REF_S]}]
    assert run.slowdown(passes) == pytest.approx(2.0)


def test_a_rank_cache_finds_no_input_of_an_earlier_cube_task(
        cli, tmp_path, monkeypatch):
    """A pass is forked from a process that ran the warm-up, then runs each
    task of the list once.  A memo on `rank` kept across those tasks finds
    at most 1% of the elimination work (tiny matrices such as one edge's
    boundary) done by an earlier task, so on cube a cache on `rank` gains
    only from work repeated inside a task."""
    qlinalg = sys.modules["motivic_kit.qlinalg"]
    original = qlinalg.rank
    first_task, cells, repeated = {}, [0], [0]
    current = [0]

    def rank(a):
        cells[0] += a.rows * a.cols
        if first_task.setdefault(a, current[0]) != current[0]:
            repeated[0] += a.rows * a.cols
        return original(a)

    for name, module in list(sys.modules.items()):
        if (name.startswith("motivic_kit")
                and getattr(module, "rank", None) is original):
            monkeypatch.setattr(module, "rank", rank)
    tasks = (workloads.build_warm_up("cube", 5, str(tmp_path / "warm"))
             + workloads.build("cube", 5, str(tmp_path / "timed"))[:30])
    for i, task in enumerate(tasks):
        current[0] = i
        assert run.run_task(cli.main, task)[1] == ""
    assert cells[0] > 0
    assert repeated[0] <= 0.01 * cells[0]


def _checkout(tmp_path, cli_source=None):
    """A copy of the benchmark, with a stand-in library if one is given."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if cli_source is not None:
        package = tmp_path / "src" / "motivic_kit"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(cli_source)
    return tmp_path


def _bench(checkout, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "descent",
         "--seed", "1", "--trace", "0", *args],
        cwd=checkout, capture_output=True, text=True, timeout=120)


def test_a_wrong_output_makes_the_command_exit_nonzero(tmp_path):
    checkout = _checkout(tmp_path, "def main(argv):\n    print('{}')\n"
                                   "    return 0\n")
    proc = _bench(checkout, "--seconds", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    proc = _bench(_checkout(tmp_path), "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in tracing.PER_LAYER] \
        + list(run.TRACE_RATES)


def test_recorded_task_mix_matches_the_generator(tmp_path):
    with open(os.path.join(ROOT, "perfbench", "meta.json")) as fh:
        meta = json.load(fh)
    for w in workloads.WORKLOADS:
        tasks = workloads.build(w, 0, str(tmp_path / w))
        assert meta["workloads"][w]["task_mix"] == workloads.task_mix(tasks)
        assert meta["workloads"][w]["repeat_share"] == round(
            workloads.repeat_share(tasks), 3)

"""Tests of the benchmark itself: generators, wrappers, summary, refusal.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import run
import tracing
import worker
import workloads
from xmodkit import cli, groups, lifting, xmod

EXPECTED = json.loads((run.BENCH / "expected.json").read_text(encoding="utf-8"))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    a = workloads.build(workload, 5, tmp_path / "a")
    b = workloads.build(workload, 5, tmp_path / "b")
    c = workloads.build(workload, 6, tmp_path / "c")
    assert [op.id for op in a] == [op.id for op in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    if workload != "z4-studies":  # setmaps are not relabeled, only reordered
        assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert sorted(op.id for op in a) == sorted(op.id for op in c)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_expected_file_covers_every_operation(workload, tmp_path):
    ops = workloads.build(workload, 0, tmp_path)
    assert {op.id for op in ops} == set(EXPECTED[workload])
    assert all(entry["source"] for entry in EXPECTED[workload].values())


def test_traced_pass_matches_untraced(tmp_path):
    """Wrappers pass results through: same observed answers and cases."""
    ops = workloads.build("hom-search", 1, tmp_path / "h")
    ops += [op for op in workloads.build("defs-check", 1, tmp_path / "d")
            if op.id in ("pi0", "audit")]
    plain = [op.run() for op in ops]
    originals = (cli.main, groups.search_homs, groups.FiniteGroup.__init__,
                 lifting.search_homs, xmod.check_ternary)
    tracer = tracing.Tracer()
    with tracer:
        assert lifting.search_homs is groups.search_homs is not originals[1]
        traced = []
        for op in ops:
            span = tracer.begin("bench.op")
            traced.append(op.run())
            tracer.end(span)
    assert traced == plain
    assert (cli.main, groups.search_homs, groups.FiniteGroup.__init__,
            lifting.search_homs, xmod.check_ternary) == originals
    roots = [s for s in tracer.spans if s[3] == -1]
    assert len(roots) == len(ops)
    covered = sum(s[2] - s[1] for s in roots)
    assert sum(tracer.self_times()) == pytest.approx(covered, rel=1e-9)
    flat = tracer.per_pass()[0]
    assert flat["cli.command.calls"] == 2
    assert flat["groups.search.solutions"] > 0
    assert flat["defs.parse.sections"] > 0


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return {}, 1


def test_slices_taken_during_an_operation_are_left_out_of_its_time():
    ops = [workloads.Op("busy", "loop", lambda: _busy(0.6)),
           workloads.Op("short", "loop", lambda: _busy(0.001))]
    expected = {"busy": {"answer": {}}, "short": {"answer": {}}}
    (result,) = worker.measure(ops, expected, 0)
    (_, busy, cases, cause), short = result["ops"]
    assert (cases, cause) == (1, None)
    # two or more slices fell inside the 0.6 s loop, and were taken out
    assert 0.6 - 12 * hostspeed.NOMINAL_S < busy < 0.6 - hostspeed.NOMINAL_S / 4
    assert short[1] < 0.01
    assert len(result["ref"]) == 2 and all(t > 0 for t in result["ref"])


def test_timings_are_scaled_to_nominal_host_speed():
    """Operations on a host half as fast as nominal report half their times."""
    nominal = hostspeed.NOMINAL_S
    passes = [{"seconds": 4.0, "ref": [2 * nominal, 2 * nominal, nominal],
               "ops": [("a", 1.0, 3, None), ("b", 3.0, 4, None), ("c", 0.5, 0, None)]}]
    values = run.end_to_end(passes, 0.5, 20.0)
    assert values == {"setup_s": 0.5, "pass_s": pytest.approx(2.5),
                      "slowest_op_s": pytest.approx(1.5), "cases_checked": 7,
                      "peak_rss_mb": 20.0}


def _run_bench(trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "hom-search",
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_summary_prints_every_metric_with_unit(trace, kind):
    lines = _run_bench(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    summary = lines[:-1]
    for metric in SPEC[kind]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.strip().startswith(f"{name} = ")
                   and line.strip().endswith(f" {unit}") for line in summary), name
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}


def test_refuses_a_checkout_without_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "hom-search", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

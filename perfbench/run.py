"""Time-to-verdict benchmark for xmodkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  xmodkit is one client in one
single-threaded process, in a closed loop: each operation is one
verdict-bearing call (a CLI command through ``xmodkit.cli.main`` or a library
call), started after the previous one returned.  A pass runs every operation
of the workload once; passes repeat while another one fits in S seconds, and
there is always at least one.  Every verdict is compared with
``perfbench/expected.json``.

The passes run in a child process (worker.py), whose peak resident memory
is ``peak_rss_mb``.  ``setup_s`` is the median of SETUP_REPEATS fresh
processes running setup_probe.py.  All three timings are rescaled to a
nominal host speed, measured by hostspeed.py's reference slices during the
operations and between set-up processes, so that the host's own drift does
not show as a change of the program; the summary also prints the unscaled
wall times.  With ``--trace 0`` the last stdout line
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the
passes run under tracing.py's wrappers and it reports the per-layer metrics
(medians over passes).  Lines before it are a human summary: every reported
metric with its unit, the pass count and the failures by cause.

Exit code 0 with a result line; otherwise no result line, and code 2 when
the checkout has no xmodkit source.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9


def metric_specs(kind):
    """{name: unit} of BENCHMARK.json's "end_to_end" or "per_layer" list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def time_setup(workload, seed, workdir):
    """Wall times of SETUP_REPEATS fresh set-up processes: the median scaled
    to nominal host speed, each by three host-speed slices just before and
    three just after it, and the unscaled median.

    No timeout: with one, subprocess polls the child in steps of up to 50 ms,
    which would quantize the times it measures."""
    def slices():
        return statistics.fmean(hostspeed.timed_slice() for _ in range(3))

    times, speeds = [], [slices()]
    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload,
                        str(seed), str(workdir / f"probe{i}")], check=True)
        times.append(time.perf_counter() - started)
        speeds.append(slices())
    scaled = (2 * hostspeed.NOMINAL_S * t / (before + after)
              for t, before, after in zip(times, speeds, speeds[1:]))
    return statistics.median(scaled), statistics.median(times)


def remove_workdir(workdir):
    """Delete a run's work files, and .perfbench_work once no run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def scaled_ops(p):
    """One pass's operation times at nominal host speed."""
    return [r[1] * hostspeed.NOMINAL_S / ref for r, ref in zip(p["ops"], p["ref"])]


def end_to_end(passes, setup_s, peak_rss_mb):
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(sum(scaled_ops(p)) for p in passes),
        "slowest_op_s": statistics.median(max(scaled_ops(p)) for p in passes),
        "cases_checked": statistics.median(sum(r[2] for r in p["ops"]) for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }


def summarize(workload, passes, values, units, setup_wall=None):
    """Human summary lines, then the result line's dict."""
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [(r[0], r[3]) for p in passes for r in p["ops"] if r[3]]
    print(f"workload {workload}: {len(passes)} pass(es), {attempted} operations, "
          f"{len(failures)} failed (error_rate {len(failures) / attempted:.4f})")
    if "ref" in passes[0]:
        refs = [t for p in passes for t in p["ref"]]
        print(f"  host speed: reference slice {statistics.median(refs):.4f} s "
              f"(median over operations) against {hostspeed.NOMINAL_S} s nominal")
    print(f"  unscaled wall: pass {statistics.median(p['seconds'] for p in passes):.4f} s, "
          f"slowest op {statistics.median(max(r[1] for r in p['ops']) for p in passes):.4f} s"
          + (f", set-up {setup_wall:.4f} s" if setup_wall is not None else ""))
    causes = {}
    for op_id, cause in failures:
        causes.setdefault(cause, []).append(op_id)
    for cause, ids in sorted(causes.items()):
        print(f"  failed ({cause}): {len(ids)}: {', '.join(sorted(set(ids)))}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    units = metric_specs("per_layer" if args.trace else "end_to_end")
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), args.workload,
             str(args.seed), str(args.seconds), str(args.trace), str(workdir / "run")],
            stdout=subprocess.PIPE, text=True)
        if worker.returncode != 0:  # e.g. 2: no xmodkit source in the checkout
            return worker.returncode
        # the worker is the only child waited for so far
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        result = json.loads(worker.stdout)
        passes = result["passes"]
        setup_wall = None
        if args.trace:
            values = result["layers"]
        else:
            setup_s, setup_wall = time_setup(args.workload, args.seed, workdir)
            values = end_to_end(passes, setup_s, peak_mb)
    finally:
        remove_workdir(workdir)
    print(json.dumps(summarize(args.workload, passes, values, units, setup_wall)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

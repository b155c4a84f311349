"""The workload process: set up, run the timed passes, print them as JSON.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

run.py starts it as a child and reads the child's peak resident memory.  On
Linux a process's peak also counts the memory of the process it was started
from, up to its exec, so the workload cannot run inside run.py, whose own
peak includes whatever started the benchmark.  Prints one JSON line: the
passes and, with TRACE 1, the per-layer metrics.  Exits with code 2 and no
output when the checkout's src/xmodkit cannot be imported.
"""

import bisect
import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_program():
    """Put the checkout's src/ first on the path and import the benchmark
    modules; refuse an xmodkit that does not come from this checkout."""
    src = ROOT / "src"
    if not (src / "xmodkit" / "__init__.py").is_file():
        print(f"perfbench: no xmodkit source under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(BENCH)]
    import xmodkit
    if Path(xmodkit.__file__).resolve().parent != (src / "xmodkit").resolve():
        print(f"perfbench: imported xmodkit from {xmodkit.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def run_op(op, expected, tracer=None):
    """Run one operation; returns (seconds, cases, failure cause or None)."""
    from xmodkit.errors import BudgetExhausted
    if tracer is not None:
        tracer.op = op.id
        span = tracer.begin("bench.op")
    started = time.perf_counter()
    cases, cause = 0, None
    try:
        observed, cases = op.run()
    except BudgetExhausted:
        cause = "budget"
    except Exception as exc:  # any raise is a failed operation, not a crash
        cause = f"raised {type(exc).__name__}"
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.end(span)
    if cause is None and observed != expected["answer"]:
        code = observed.get("exit_code")
        if code == 3:
            cause = "budget"
        elif code != expected["answer"].get("exit_code"):
            cause = "exit code"
        else:
            cause = "verdict or count"
    return elapsed, cases, cause


def measure(ops, expected, seconds, tracer=None):
    """Passes over ``ops`` while another fits in ``seconds``; per-pass results.

    Untraced, the passes run inside a hostspeed.Sampler, and each pass gets
    ``ref``: per operation, the mean time of the slices taken during it, or
    of the slice nearest to it when none fell inside.  The times in ``ops``
    and ``seconds`` leave the slices out."""
    import hostspeed
    sampler = hostspeed.Sampler() if tracer is None else contextlib.nullcontext()
    passes, pass_windows, op_windows = [], [], []
    with sampler:
        started = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.pass_no = len(passes)
            pass_started = time.perf_counter()
            results = []
            for op in ops:
                op_started = time.perf_counter()
                results.append((op.id,) + run_op(op, expected[op.id], tracer))
                op_windows.append((op_started, time.perf_counter()))
            pass_windows.append((pass_started, time.perf_counter()))
            passes.append({"seconds": time.perf_counter() - pass_started,
                           "ops": results})
            typical = statistics.median(p["seconds"] for p in passes)
            if time.perf_counter() - started + typical > seconds:
                break
    if tracer is None:
        samples = sampler.samples or [(time.perf_counter(), hostspeed.timed_slice())]
        _take_out_slices(passes, pass_windows, op_windows, samples)
    return passes


def _take_out_slices(passes, pass_windows, op_windows, samples):
    """Subtract the slices taken during each operation and pass from their
    times, and record each operation's host-speed reference."""
    starts = [t for t, _ in samples]

    def inside(a, b):
        return samples[bisect.bisect_left(starts, a):bisect.bisect_left(starts, b)]

    op_windows = iter(op_windows)
    for p, window in zip(passes, pass_windows):
        p["seconds"] -= sum(d for _, d in inside(*window))
        ops, p["ops"], p["ref"] = p["ops"], [], []
        for (op_id, elapsed, cases, cause), (a, b) in zip(ops, op_windows):
            taken = inside(a, b)
            if not taken:
                middle = (a + b) / 2
                taken = [min(samples, key=lambda s: abs(s[0] - middle))]
            else:
                elapsed -= sum(d for _, d in taken)
            p["ops"].append((op_id, elapsed, cases, cause))
            p["ref"].append(statistics.fmean(d for _, d in taken))


def main(argv):
    workload, seed, seconds, trace, workdir = argv
    load_program()
    import tracing
    import workloads
    if workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    ops = workloads.build(workload, int(seed), workdir)
    layers = None
    if trace == "1":
        with tracing.Tracer() as tracer:
            passes = measure(ops, expected[workload], float(seconds), tracer)
        layers = tracing.layer_metrics(tracer, [m["name"] for m in spec["per_layer"]])
    else:
        passes = measure(ops, expected[workload], float(seconds))
    print(json.dumps({"passes": passes, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

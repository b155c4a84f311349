"""Layer report: end-to-end metrics, traced per-layer breakdown, known defects.

    python3 perfbench/report.py [--seed N] [--workload NAME ...] [--spans FILE]

For each workload it runs ``run.py`` once untraced (one pass, printing every
end-to-end metric with its unit and checking every verdict), then in this
process one untraced and one traced pass over the same inputs.  It prints
per-layer self time, share of the traced pass, calls and counts; the
input/internal split of validation cells; the tracing overhead (traced minus
untraced pass time); whether the traced pass reached the same verdicts and
``cases_checked``; whether the top-level spans' self times add up to the
traced pass; and whether the dominant layers match the predictions below.
It ends with the known-defect rows.  With ``--spans FILE`` it also writes
every span of the traced passes (name, start, end, parent index, pass,
operation id, counts) to FILE as JSON, keyed by workload.
"""

import argparse
import json
import random
import subprocess
import sys
import time

import run
import worker

# Layers predicted to take more than half of each workload's traced pass.
PREDICTIONS = {
    "defs-check": ["words.enumerate", "xmod.ternary"],
    "z4-studies": ["actions.validate", "groups.z4_module"],
    "hom-search": ["groups.search"],
}
ISO_BUDGET = 20_000
ISO_SEEDS = range(8)


def end_to_end(workload, seed):
    """Print run.py's untraced summary of one pass."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=900)
    print("\n".join(proc.stdout.strip().splitlines()[:-1]))


def layer_table(tracer, traced_s):
    """Per-layer rows of the single traced pass, by self time."""
    flat = tracer.per_pass()[0]
    layers = sorted({key.rsplit(".", 1)[0] for key in flat
                     if key.endswith(".self_s")},
                    key=lambda layer: -flat[f"{layer}.self_s"])
    print(f"  {'layer':34s} {'self_s':>9s} {'share':>6s} {'calls':>7s}  counts")
    for layer in layers:
        counts = ", ".join(f"{key.rsplit('.', 1)[1]}={flat[key]:g}"
                           for key in sorted(flat)
                           if key.startswith(layer + ".")
                           and key.rsplit(".", 1)[1] not in ("self_s", "calls"))
        print(f"  {layer:34s} {flat[layer + '.self_s']:9.4f} "
              f"{flat[layer + '.self_s'] / traced_s:6.1%} "
              f"{flat[layer + '.calls']:7g}  {counts}")
    return flat


def workload_report(workload, seed, expected):
    import tracing
    import workloads
    print(f"\n== {workload} (seed {seed})")
    end_to_end(workload, seed)
    workdir = run.ROOT / ".perfbench_work" / f"report-{workload}"
    try:
        ops = workloads.build(workload, seed, workdir)
        plain = worker.measure(ops, expected, 0)[0]
        with tracing.Tracer() as tracer:
            traced = worker.measure(ops, expected, 0, tracer)[0]
    finally:
        run.remove_workdir(workdir)
    flat = layer_table(tracer, traced["seconds"])
    print("  validation cells: actions.validate input "
          f"{flat['actions.validate.cells_input']:g} / internal "
          f"{flat['actions.validate.cells_internal']:g}; groups.table assoc input "
          f"{flat['groups.table.assoc_cells_input']:g} / internal "
          f"{flat['groups.table.assoc_cells_internal']:g}; groups.hom_check input "
          f"{flat['groups.hom_check.cells_input']:g} / internal "
          f"{flat['groups.hom_check.cells_internal']:g}")
    print(f"  tracing overhead: {traced['seconds'] - plain['seconds']:.3f} s "
          f"(untraced pass {plain['seconds']:.3f} s, traced {traced['seconds']:.3f} s)")
    same = ([(r[0], r[3]) for r in plain["ops"]] == [(r[0], r[3]) for r in traced["ops"]]
            and sum(r[2] for r in plain["ops"]) == sum(r[2] for r in traced["ops"]))
    print(f"  traced pass gives the same verdicts and cases_checked: {same}")
    # the bench.op spans are the roots, so all self times partition them
    total = sum(tracer.self_times())
    print(f"  self times of all spans sum to {total:.3f} s of the traced pass "
          f"{traced['seconds']:.3f} s ({total / traced['seconds']:.1%})")
    share = sum(flat.get(f"{layer}.self_s", 0.0)
                for layer in PREDICTIONS[workload]) / traced["seconds"]
    verdict = "matches" if share > 0.5 else "DOES NOT match"
    print(f"  prediction {' + '.join(PREDICTIONS[workload])} > 50%: "
          f"{share:.1%}, {verdict}")
    return flat, tracer.spans


def known_defects(flats):
    print("\n== known defects")
    from xmodkit.errors import BudgetExhausted
    from xmodkit.groups import (
        FiniteGroup, cyclic_group, direct_product, find_isomorphism)
    import workloads
    G = direct_product(workloads.hom_search_groups()["D4xZ4"], cyclic_group(4))[0]
    undecided = []
    for s in ISO_SEEDS:
        rng = random.Random(s)
        a, b = workloads.Relabeled(G, rng), workloads.Relabeled(G, rng)
        started = time.perf_counter()
        try:
            find_isomorphism(FiniteGroup(a.table), FiniteGroup(b.table),
                             budget=ISO_BUDGET)
        except BudgetExhausted:
            undecided.append(s)
        print(f"  order-128 isomorphism D4xZ4xZ4, relabel seed {s}: "
              f"{'UNDECIDED' if s in undecided else 'found'} at {ISO_BUDGET} "
              f"nodes ({time.perf_counter() - started:.2f} s)")
    print(f"  -> {len(undecided)}/{len(ISO_SEEDS)} undecided; kept out of the "
          "timed hom-search workload, whose operations must not fail")
    from xmodkit.defs import parse_definitions
    from xmodkit.lifting import inclusion_extension, projective_section
    statuses = {}
    for s in ISO_SEEDS:
        text = workloads.defs_check_text(random.Random(s))
        mor = parse_definitions(text)["no_section"]
        cert = projective_section(mor, inclusion_extension(mor.tgt))
        statuses.setdefault(cert.status, []).append(s)
    print("  no-section fixture status by relabel seed: "
          + "; ".join(f"{st} at {seeds}" for st, seeds in sorted(statuses.items()))
          + " (the failing step depends on the splitting found first)")
    if "defs-check" in flats:
        f = flats["defs-check"]
        print(f"  xmod.ternary.vacuous_calls = {f['xmod.ternary.vacuous_calls']:g} "
              f"of {f['xmod.ternary.calls']:g} calls at CLI defaults "
              "(only the empty word checked)")
    if "z4-studies" in flats:
        f = flats["z4-studies"]
        print(f"  condp.pipeline.distinct_share = "
              f"{f['condp.pipeline.distinct_share']:.3f} at "
              f"{f['condp.pipeline.calls']:g} calls (repeated kernel work)")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", action="append")
    p.add_argument("--spans", help="write the traced spans to this JSON file")
    args = p.parse_args(argv)
    worker.load_program()
    import workloads
    chosen = args.workload or list(workloads.WORKLOADS)
    expected = json.loads((run.BENCH / "expected.json").read_text(encoding="utf-8"))
    flats, spans = {}, {}
    for w in chosen:
        flats[w], spans[w] = workload_report(w, args.seed, expected[w])
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    known_defects(flats)
    return 0


if __name__ == "__main__":
    sys.exit(main())

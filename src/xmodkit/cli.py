"""Command line interface.

Subcommands:

    xmodkit check FILE    axioms for every [xmod] in FILE (elementwise, word
                          level, ternary), reporting the first witnesses
    xmodkit pi0 FILE      component group per [xmod], both quotient routes
    xmodkit lift FILE     section search for every [morphism] in FILE
    xmodkit condp MODE    exponent-4 studies: z4-pipeline, non-schreier,
                          transfer, preservation
    xmodkit audit         built-in corpus sweep with cross checks

Exit codes: 0 all checks passed, 1 a checked property is falsified or a
searched section provably does not exist, 2 malformed input (a definition
file that is not UTF-8 included) or a stdout closed by its reader, 3 a search
budget ran out before the question was settled, 4 an internal error: an
invariant failed or any other exception escaped, a bug in xmodkit, not in
the input (its traceback goes to stderr).  KeyboardInterrupt and SystemExit
pass through.  Budget exhaustion is never reported as nonexistence.

Every subcommand accepts --json PATH to write a machine-readable report
("-" for stdout), also on exit 2, 3 or 4 (ok false, the error, null results),
a usage error that argparse refuses and an internal error included;
the human summary goes to stdout.  lift and audit, the subcommands that run
budgeted searches, also accept --budget N.

Each command runs with the cyclic garbage collector paused, and the caller's
setting is restored afterwards, on every exit path.  Nothing is lost: dense
tables are tuples of ints, which cannot form a reference cycle, and everything
a command builds is freed by reference counting (the tests pin that no command
leaves an xmodkit object in a cycle).  The collector would only scan every
fresh table row once before untracking it.
"""

import argparse
import functools
import gc
import json
import os
import sys
import time

from . import __version__
from .errors import BudgetExhausted, DefinitionError, GroupError, InvariantBreach
from .defs import load_definitions, nonneg_int
from .xmod import (
    check_axioms, check_axioms_wordlevel, check_ternary, pi0, pi0_comparison,
    pi0_preserves_split_ses,
)
from .sse import is_regular_epi
from .words import check_length
from .lifting import (
    find_xmod_section, inclusion_extension, projective_section,
    pullback_section,
)
from .condp import (
    check_survey_cap, non_schreier_demo, pi0_preservation_suite,
    pipeline_diagram_P, projectivity_survey, theorem_P_transfer_check,
)
from .corpus import (
    axiom_corpus, no_section_fixture, projective_section_corpus,
    pullback_no_section_fixture, pullback_section_corpus, split_ses_corpus,
    sse_morphism_corpus,
)


def _json_safe(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return str(obj)


def _digest(path):
    # imported here: hashlib maps OpenSSL, about 3.6 MB of resident memory
    # that a process which never digests an input file need not pay
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_report(args, results, ok, code, error=None):
    """Write the JSON report to args.json ("-" for stdout); False if it cannot."""
    mode = getattr(args, "mode", None)
    report = {
        "tool": "xmodkit",
        "version": __version__,
        "command": f"{args.command} {mode}" if mode else args.command,
        "ok": ok,
        "exit_code": code,
        "elapsed_seconds": round(time.perf_counter() - args.started, 3),
    }
    if error is not None:
        report["error"] = error
    report["results"] = results
    path = getattr(args, "input", None)
    if path:
        report["input"] = path
        try:
            report["input_sha256"] = _digest(path)
        except OSError:
            pass  # an unreadable input is what the error reports
    if getattr(args, "seed", None) is not None:
        report["seed"] = args.seed
    text = json.dumps(report, indent=2, default=_json_safe)
    if args.json == "-":
        sys.stdout.write(text + "\n")
    else:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"input error: cannot write report {args.json}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return False
        print(f"report written to {args.json}")
    return True


def _emit(args, results, ok):
    """Write the JSON report (if asked) and return the exit code."""
    code = 0 if ok else 1
    if args.json and not _write_report(args, results, ok, code):
        return 2  # bad input, as on every exit-2 path: no verdict
    print(f"VERDICT: {'pass' if ok else 'falsified'}")
    return code


def _first(lst):
    return lst[0] if lst else None


def _ternary_reach(words, max_len, brackets=None):
    """What a ternary check covered, from its count of enumerated words and,
    for a morphism audit, of bracket words.  The empty word is always
    enumerated; checking it and no other word is a vacuous check."""
    nonempty = words - 1
    checked = f"{nonempty} non-empty words"
    if brackets is not None:
        checked += f" and {brackets} brackets"
    vacuous = not nonempty and not brackets
    return f"{checked} at L={max_len}{', vacuous' if vacuous else ''}"


# -- check ------------------------------------------------------------------


def cmd_check(args):
    defs = load_definitions(args.input, check_xmods=False)
    xmods = defs.of_kind("xmod")
    if not xmods:
        raise DefinitionError(f"{args.input}: no [xmod] sections to check")
    results = []
    for name, xm in xmods:
        elem = check_axioms(xm)
        word = check_axioms_wordlevel(xm, args.word_len)
        tern = check_ternary(xm, args.ternary_len) if elem["ok"] else None
        words = word["equivariance_words"] + word["peiffer_words"]
        entry = {
            "name": name,
            "ok": elem["ok"] and word["ok"] and (tern is None or tern["ok"]),
            "elementwise": {
                "ok": elem["ok"],
                "equivariance_violations": len(elem["equivariance_violations"]),
                "peiffer_violations": len(elem["peiffer_violations"]),
                "first_equivariance_witness": _first(elem["equivariance_violations"]),
                "first_peiffer_witness": _first(elem["peiffer_violations"]),
            },
            "wordlevel": {
                "ok": word["ok"],
                "max_len": word["max_len"],
                "words": words,
                "first_violation": _first(word["equivariance_violations"])
                or _first(word["peiffer_violations"]),
                # each law counts the empty word; below L=4 it is the only one
                "nonempty_words": words - 2,
                "vacuous": words == 2,
            },
        }
        if tern is not None:
            entry["ternary"] = {"ok": tern["ok"], "max_len": tern["max_len"],
                                "words": tern["words"],
                                "first_violation": _first(tern["violations"]),
                                "nonempty_words": tern["words"] - 1,
                                "vacuous": tern["words"] == 1}
        results.append(entry)
        state = "ok" if entry["ok"] else "FAILS"
        reach = ("skipped" if tern is None
                 else _ternary_reach(tern["words"], args.ternary_len))
        print(f"check {name}: {state} "
              f"(eq viol {entry['elementwise']['equivariance_violations']}, "
              f"pf viol {entry['elementwise']['peiffer_violations']}, "
              f"{words} words at L={args.word_len}{', vacuous' if words == 2 else ''}, "
              f"ternary {reach})")
    return _emit(args, results, all(r["ok"] for r in results))


# -- pi0 ---------------------------------------------------------------------


def cmd_pi0(args):
    defs = load_definitions(args.input)
    xmods = defs.of_kind("xmod")
    if not xmods:
        raise DefinitionError(f"{args.input}: no [xmod] sections")
    results = []
    for name, xm in xmods:
        Q, _proj = pi0(xm)
        xm.extension  # a total over the cap is bad input (exit 2), not a disagreement
        try:
            pi0_comparison(xm)
            agree = True
        except GroupError:
            agree = False
        results.append({
            "name": name,
            "order": Q.order,
            "commutative": Q.commutative,
            "element_names": list(Q.names),
            "coequalizer_route_agrees": agree,
        })
        print(f"pi0 {name}: order {Q.order}, "
              f"{'abelian' if Q.commutative else 'nonabelian'}, "
              f"coequalizer route {'agrees' if agree else 'DISAGREES'}")
    return _emit(args, results, all(r["coequalizer_route_agrees"] for r in results))


# -- lift ---------------------------------------------------------------------


def cmd_lift(args):
    defs = load_definitions(args.input)
    mors = defs.of_kind("morphism")
    if args.name:
        mors = [(n, m) for n, m in mors if n == args.name]
        if not mors:
            raise DefinitionError(f"{args.input}: no [morphism {args.name}] section")
    if not mors:
        raise DefinitionError(f"{args.input}: no [morphism] sections")
    results = []
    for name, mor in mors:
        if args.algorithm == "projective-section":
            ext = inclusion_extension(mor.tgt, budget=args.budget)
            cert = projective_section(mor, ext, budget=args.budget,
                                      ternary_len=args.ternary_len)
        else:
            cert = pullback_section(mor, budget=args.budget)
        entry = {"morphism": name, "algorithm": args.algorithm,
                 "certificate": cert.to_json()}
        if args.cross_check:
            entry["generic_search_found_section"] = (
                find_xmod_section(mor, budget=args.budget) is not None)
        results.append(entry)
        audit = ""
        if cert.ok and "ternary_words" in cert.detail:
            audit = (" (ternary audit " + _ternary_reach(
                cert.detail["ternary_words"], cert.detail["ternary_len"],
                cert.detail["ternary_brackets"]) + ")")
        print(f"lift {name} [{args.algorithm}]: {cert.status}{audit}")
    ok = all(r["certificate"]["status"] == "success" for r in results)
    return _emit(args, results, ok)


# -- condp ---------------------------------------------------------------------


def _parse_int_list(text, what):
    values = tuple(map(nonneg_int, text.replace(",", " ").split()))
    if None in values:
        raise DefinitionError(f"{what} must be a list of nonnegative integers, got {text!r}")
    return values


def cmd_z4_pipeline(args):
    if args.input:
        defs = load_definitions(args.input)
        jobs = [(n, sm.table, sm.section) for n, sm in defs.of_kind("setmap")]
        if not jobs:
            raise DefinitionError(f"{args.input}: no [setmap] sections")
    else:
        # an empty --map= or --section= is an empty set, refused downstream
        f = (0, 0) if args.map is None else _parse_int_list(args.map, "--map")
        s = (0,) if args.section is None else _parse_int_list(args.section, "--section")
        jobs = [("cli", f, s)]
    rows = []
    for name, f, s in jobs:
        rep = pipeline_diagram_P(list(f), list(s))
        rows.append({"name": name, "map": list(f), "section": list(s),
                     "report": rep})
        mat = rep["materialized"]
        extra = "" if mat is None else f", sections {mat}"
        print(f"pipeline {name}: kernel rank {len(rep['objects']['kernel_flat'])}"
              f", squares ok {all(rep['squares'].values())}{extra}")
    return _emit(args, {"pipelines": rows}, all(r["report"]["ok"] for r in rows))


def cmd_non_schreier(args):
    rep = non_schreier_demo(relabel_seed=args.seed)
    print(f"non-schreier: carrier {rep['carrier_order']}, family {rep['family']}, "
          f"free shape {rep['shape']['free_shape']}")
    return _emit(args, {"demo": rep}, rep["ok"])


def cmd_transfer(args):
    check_survey_cap(args.max_order)  # refused before the sweep runs
    free = {}  # rank -> free module, shared by the sweep and the survey
    rep = theorem_P_transfer_check(seed=args.seed or 0, count=args.count, free=free)
    survey = projectivity_survey(args.max_order, free=free)
    instances = rep.pop("instances")  # last in the report
    results = {"transfer": {**rep, "instances": instances}, "survey": survey}
    print(f"transfer: {rep['count']} instances, {rep['vacuous']} vacuous, "
          f"{rep['oracle_checked']} oracle-checked, "
          f"counterexamples {rep['counterexamples']}")
    print(f"survey: {len(survey)} classes up to order {args.max_order}, "
          f"all agree {all(r['ok'] for r in survey)}")
    return _emit(args, results, rep["ok"] and all(r["ok"] for r in survey))


def cmd_preservation(args):
    rep = pi0_preservation_suite()
    print(f"preservation: split rows {rep['split_rows']['count']} ok, "
          f"left-exactness failures {rep['left_exactness_failures']}")
    return _emit(args, {"preservation": rep}, rep["ok"])


# -- audit ----------------------------------------------------------------------


def cmd_audit(args):
    results = {}
    entries = axiom_corpus()
    agree = all(check_axioms(xm)["ok"] == valid
                == check_axioms_wordlevel(xm, 4)["ok"]
                for _, xm, valid in entries)
    results["axiom_corpus"] = {"entries": len(entries), "checkers_agree": agree}
    print(f"axiom corpus: {len(entries)} entries, checkers agree {agree}")

    terns = [(name, check_ternary(xm, args.ternary_len))
             for name, xm, valid in entries if valid]
    dirty = [name for name, tern in terns if not tern["ok"]]
    nonempty = sum(tern["words"] - 1 for _, tern in terns)
    results["ternary"] = {"max_len": args.ternary_len, "violations": dirty,
                          "nonempty_words": nonempty, "vacuous": not nonempty}
    verdict = (f"violations in {dirty}" if dirty else "clean" if nonempty
               else "vacuous, only the empty word checked")
    print(f"ternary law: {nonempty} non-empty words at L={args.ternary_len} "
          f"over {len(terns)} modules, {verdict}")

    mors = sse_morphism_corpus(budget=args.budget)
    epis = sum(1 for m in mors if is_regular_epi(m))
    results["sse_corpus"] = {"morphisms": len(mors), "regular_epis": epis}
    print(f"same-base corpus: {len(mors)} morphisms, {epis} regular epis, "
          f"carrier/total surjectivity consistent")

    rows = [pi0_preserves_split_ses(s)["ok"] for s in split_ses_corpus()]
    results["split_rows"] = {"count": len(rows), "all_ok": all(rows)}
    print(f"split rows: {len(rows)} rows, pi0 splits preserved {all(rows)}")

    pairs = projective_section_corpus()
    succ = sum(1 for mor, ext in pairs
               if projective_section(mor, ext, budget=args.budget).ok)
    mor0, ext0 = no_section_fixture()
    cert0 = projective_section(mor0, ext0, budget=args.budget)
    generic0 = find_xmod_section(mor0, budget=args.budget)
    results["projective_sections"] = {
        "pairs": len(pairs), "successes": succ,
        "nonexistence_status": cert0.status,
        "generic_search_agrees": generic0 is None,
    }
    print(f"projective sections: {succ}/{len(pairs)} built, "
          f"fixture status {cert0.status!r}, generic search agrees "
          f"{generic0 is None}")

    pb = [pullback_section(m, budget=args.budget).ok
          for m in pullback_section_corpus()]
    fix = pullback_section(pullback_no_section_fixture(), budget=args.budget)
    results["pullback_sections"] = {
        "pairs": len(pb), "successes": sum(pb),
        "nonexistence_status": fix.status,
    }
    print(f"pullback sections: {sum(pb)}/{len(pb)} built, "
          f"fixture status {fix.status!r}")

    ok = (agree and not dirty and all(rows) and succ == len(pairs)
          and cert0.status == "no-equivariant-section" and generic0 is None
          and all(pb) and fix.status == "no-cokernel-section")
    if not args.quick:
        survey = projectivity_survey(budget=args.budget)
        s_ok = all(r["ok"] for r in survey)
        results["survey"] = {"classes": len(survey), "all_agree": s_ok}
        print(f"projectivity survey: {len(survey)} classes, criterion and "
              f"oracle agree {s_ok}")
        ok = ok and s_ok
    return _emit(args, results, ok)


# -- plumbing ---------------------------------------------------------------------


class _UsageError(SystemExit):
    """argparse's exit 2 on a usage error, keeping its message for the --json report."""

    def __init__(self, message):
        super().__init__(2)
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        try:
            super().error(message)  # prints the usage and the message, exits 2
        except SystemExit:
            raise _UsageError(message) from None


def _json_path(argv):
    """argv's --json value as the subcommands read it, or None if it cannot be read."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--json")
    try:
        return pre.parse_known_args(argv)[0].json
    except argparse.ArgumentError:
        return None


@functools.cache  # one parser per process: each one is a web of reference cycles
def build_parser():
    p = _Parser(
        prog="xmodkit",
        description="Finite crossed module toolkit: axiom checks, component "
                    "groups, section lifting, exponent-4 projectivity studies.")
    p.add_argument("--version", action="version", version=f"xmodkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", metavar="PATH",
                        help="write a JSON report to PATH ('-' for stdout)")

    def budget(sp):
        sp.add_argument("--budget", type=int, default=None,
                        help="node budget for backtracking searches")

    sp = sub.add_parser("check", help="verify crossed module axioms")
    sp.add_argument("input", help="definition file")
    sp.add_argument("--word-len", type=int, default=4,
                    help="max word length for the word-level laws (default 4)")
    sp.add_argument("--ternary-len", type=int, default=8,
                    help="max word length for the ternary law (default 8)")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("pi0", help="component group of each crossed module")
    sp.add_argument("input", help="definition file")
    common(sp)
    sp.set_defaults(func=cmd_pi0)

    sp = sub.add_parser("lift", help="search sections of the given morphisms")
    sp.add_argument("input", help="definition file")
    sp.add_argument("--algorithm", choices=("projective-section", "pullback-section"),
                    default="projective-section")
    sp.add_argument("--name", help="only this [morphism] section")
    sp.add_argument("--ternary-len", type=int, default=8,
                    help="audit depth for successful projective sections")
    sp.add_argument("--cross-check", action="store_true",
                    help="also run the generic fiber search")
    common(sp)
    budget(sp)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("condp", help="exponent-4 projectivity studies")
    modes = sp.add_subparsers(dest="mode", required=True)
    sp = modes.add_parser("z4-pipeline", help="the nine-object pipeline diagram")
    sp.add_argument("--input", help="definition file with [setmap] sections")
    sp.add_argument("--map", help="set surjection as integers, e.g. '0,0,1'")
    sp.add_argument("--section", help="section of --map, e.g. '0,2'")
    common(sp)
    sp.set_defaults(func=cmd_z4_pipeline)

    sp = modes.add_parser("non-schreier", help="a relatively projective pair "
                                               "not of free shape")
    sp.add_argument("--seed", type=int, default=None, help="relabel seed")
    common(sp)
    sp.set_defaults(func=cmd_non_schreier)

    sp = modes.add_parser("transfer", help="kernel-transfer sweep and projectivity survey")
    sp.add_argument("--seed", type=int, default=None, help="sweep seed (default 0)")
    sp.add_argument("--count", type=int, default=12,
                    help="transfer sweep size (default 12)")
    sp.add_argument("--max-order", type=int, default=64,
                    help="survey order cap (default 64)")
    common(sp)
    sp.set_defaults(func=cmd_transfer)

    sp = modes.add_parser("preservation", help="cokernel behaviour suite")
    common(sp)
    sp.set_defaults(func=cmd_preservation)

    sp = sub.add_parser("audit", help="run the built-in corpus sweep")
    sp.add_argument("--quick", action="store_true",
                    help="skip the projectivity survey")
    sp.add_argument("--ternary-len", type=int, default=6,
                    help="ternary depth for the corpus sweep (default 6)")
    common(sp)
    budget(sp)
    sp.set_defaults(func=cmd_audit)
    p.commands = tuple(sub.choices)
    return p


def main(argv=None) -> int:
    enabled = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv):
    started, parser = time.perf_counter(), build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        argv = list(sys.argv[1:] if argv is None else argv)
        path = _json_path(argv)
        if path:  # the report of every exit-2 path; the subcommand if argv names one
            command = argv[0] if argv[:1] and argv[0] in parser.commands else None
            _write_report(argparse.Namespace(command=command, json=path, started=started),
                          None, False, 2, error=exc.message)
        raise
    args.started = started
    try:
        # refused up front, so no command or algorithm can ignore a bad number
        for length in (getattr(args, "word_len", 0), getattr(args, "ternary_len", 0)):
            check_length(length)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except (DefinitionError, GroupError) as exc:
        code, error = 2, f"input error: {exc}"
    except BudgetExhausted as exc:
        code, error = 3, f"budget exhausted: {exc}"
    except InvariantBreach as exc:
        code, error = 4, f"internal error: {exc}"
    except BrokenPipeError:  # the reader of stdout is gone, as under `| head -1`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the exit's own flush cannot fail
        os.close(devnull)
        code, error = 2, "output error: stdout was closed"
    except Exception as exc:  # a bug: KeyboardInterrupt and SystemExit pass
        import traceback  # imported here, as only a failing run needs it
        traceback.print_exc()
        code, error = 4, f"internal error: {type(exc).__name__}: {exc}"
    print(error, file=sys.stderr)
    if args.json:
        _write_report(args, None, False, code, error=error)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Spans around xmodkit's layers, recorded from outside the package.

``Tracer.install()`` wraps the functions and constructors listed in
``LAYERS`` and rebinds each wrapped name in every ``xmodkit`` module namespace
that holds it (methods are replaced on their class); ``uninstall()`` puts the
originals back.  A span records its name, start, end, parent span, pass and
operation; spans stay in memory until ``layer_metrics`` reads them.  Counts
come only from call arguments and return values.

Self time of a span is its duration minus the durations of its direct
children.  Children nest strictly inside their parent because the program is
single-threaded and ``search_homs``, a generator, is timed per resume.
"""

import functools
import statistics
import sys
import time
from collections import defaultdict

from xmodkit import actions, cli, condp, corpus, defs, groups, lifting, sse, words, xmod

_now = time.perf_counter


def _len(value):
    return len(value) if isinstance(value, (list, tuple)) else 1


def _hom_cells(args, kwargs):
    source, check = args[1], kwargs.get("check", args[4] if len(args) > 4 else True)
    return source.order ** 2 if check else 0


def _table_counts(args, kwargs):
    n = len(args[1])
    check = kwargs.get("check", args[4] if len(args) > 4 else True)
    assoc = 0
    if check:
        assoc = n ** 3 if n <= groups.ASSOC_EXHAUSTIVE_LIMIT else 20000
    return {"cells": n * n, "assoc_cells": assoc}


def _validate_cells(action):
    a, c = action.actor.order, action.carrier.order
    return {"cells": a * c * c + a * a * c}


# Each layer: (span name, owner, attribute names, counts(args, kwargs, result)).
# The owner is a module (functions) or a class (methods).  Counts whose key
# ends in "cells" of validation work are split by whether defs.parse is an
# ancestor (input) or not (internal).
LAYERS = [
    ("actions.validate", actions.GroupAction, ["_validate"],
     lambda a, k, r: _validate_cells(a[0])),
    ("actions.conjugation_action_on", actions, ["conjugation_action_on"], None),
    ("actions.semidirect_product", actions, ["semidirect_product"],
     lambda a, k, r: {"cells": (a[0].carrier.order * a[0].actor.order) ** 2}),
    ("groups.table", groups.FiniteGroup, ["__init__"],
     lambda a, k, r: _table_counts(a, k)),
    ("groups.z4_module", groups, ["z4_module"],
     lambda a, k, r: {"cells": r.order ** 2}),
    ("groups.enumerate_homs", groups, ["enumerate_homs"], None),
    ("groups.find_isomorphism", groups, ["find_isomorphism"], None),
    ("groups.find_section", groups, ["find_section"], None),
    ("groups.quotient", groups, ["quotient"], None),
    ("groups.normal_subgroups", groups, ["normal_subgroups"], None),
    ("words.enumerate", words,
     ["enumerate_words", "enumerate_cosmash_words", "enumerate_flat_words"],
     lambda a, k, r: {"words": len(r)}),
    ("xmod.ternary", xmod, ["check_ternary"],
     lambda a, k, r: {"words": r["words"], "vacuous_calls": int(r["words"] == 1)}),
    ("xmod.check_axioms", xmod, ["check_axioms"],
     lambda a, k, r: {"pairs": r["pairs_checked"]}),
    ("xmod.wordlevel", xmod, ["check_axioms_wordlevel"],
     lambda a, k, r: {"words": r["equivariance_words"] + r["peiffer_words"]}),
    ("xmod.pi0", xmod, ["pi0"], None),
    ("xmod.pi0_comparison", xmod, ["pi0_comparison"], None),
    ("lifting.projective_section", lifting, ["projective_section"],
     lambda a, k, r: {"base_lifts": r.detail.get("base_lifts", 0),
                      "ternary_words": r.detail.get("ternary_words", 0),
                      "equations": len(r.equations)}),
    ("lifting.pullback_section", lifting, ["pullback_section"], None),
    ("lifting.find_xmod_section", lifting, ["find_xmod_section"], None),
    ("lifting.inclusion_extension", lifting, ["inclusion_extension"], None),
    ("condp.pipeline", condp, ["pipeline_diagram_P"],
     lambda a, k, r: {"kernel_rank": r["sizes"]["kernel_rank"]}),
    ("condp.transfer", condp, ["theorem_P_transfer_check"],
     lambda a, k, r: {"instances": len(r["instances"]),
                      "oracle_checked": r["oracle_checked"]}),
    ("condp.survey", condp, ["projectivity_survey"], None),
    ("condp.oracle", condp, ["lifting_oracle_z4"], None),
    ("condp.non_schreier", condp, ["non_schreier_demo"], None),
    ("condp.preservation", condp, ["pi0_preservation_suite"], None),
    ("sse.is_regular_epi", sse, ["is_regular_epi"], None),
    ("sse.enumerate_sse_morphisms", sse, ["enumerate_sse_morphisms"], None),
    ("corpus.build", corpus,
     ["axiom_corpus", "split_ses_corpus", "sse_morphism_corpus",
      "projective_section_corpus", "pullback_section_corpus",
      "no_section_fixture", "pullback_no_section_fixture"],
     lambda a, k, r: {"entries": _len(r)}),
    ("defs.parse", defs, ["parse_definitions"],
     lambda a, k, r: {"sections": len(r), "bytes": len(a[0].encode("utf-8"))}),
]

_SPLIT = {"actions.validate", "groups.table"}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        # span: [name, start, end, parent index, pass, op id, counts]
        self.spans = []
        self.stack = []
        self.pass_no = 0
        self.op = None
        self.parse_depth = 0
        # (pass, counter name) -> total, for counts recorded without a span
        self.counts = defaultdict(int)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.pass_no, self.op, None])
        self.stack.append(idx)
        return idx

    def end(self, idx, counts=None):
        span = self.spans[idx]
        span[2] = _now()
        span[6] = counts
        self.stack.pop()

    def count(self, key, value):
        self.counts[(self.pass_no, key)] += value

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, counter):
        tracer = self
        split = name in _SPLIT
        parse = name == "defs.parse"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            tracer.parse_depth += parse
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.parse_depth -= parse
                tracer.end(idx)
                raise
            tracer.parse_depth -= parse
            counts = counter(args, kwargs, result) if counter else None
            if split and counts:
                side = "input" if tracer.parse_depth else "internal"
                counts = dict(counts)
                if name == "groups.table":
                    counts[f"assoc_cells_{side}"] = counts.pop("assoc_cells")
                else:
                    counts[f"cells_{side}"] = counts["cells"]
            tracer.end(idx, counts)
            return result

        return wrapper

    def _wrap_search(self, fn):
        tracer = self

        @functools.wraps(fn)
        def search_homs(*args, **kwargs):
            idx = tracer.begin("groups.search")
            try:
                gen = fn(*args, **kwargs)
            finally:
                tracer.end(idx, {"calls_started": 1})
            while True:
                idx = tracer.begin("groups.search")
                try:
                    value = next(gen)
                except StopIteration:
                    tracer.end(idx, {"exhausted": 1})
                    return
                except BaseException:
                    tracer.end(idx)
                    raise
                tracer.end(idx, {"solutions": 1})
                yield value

        return search_homs

    def _wrap_hom_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def __init__(*args, **kwargs):
            cells = _hom_cells(args, kwargs)
            if cells:
                side = "input" if tracer.parse_depth else "internal"
                tracer.count(f"groups.hom_check.cells_{side}", cells)
            return fn(*args, **kwargs)

        return __init__

    def _wrap_cli_main(self, fn):
        tracer = self

        @functools.wraps(fn)
        def main(argv=None):
            idx = tracer.begin("cli.command")
            out = sys.stdout
            before = out.tell() if out.seekable() else 0
            try:
                return fn(argv)
            finally:
                after = out.tell() if out.seekable() else 0
                tracer.end(idx, {"report_bytes": after - before})

        return main

    def _replace(self, owner, attr, orig, wrapper):
        """Rebind ``attr`` on a class, or every xmodkit alias of a function."""
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, orig))
            return
        for mod in [m for n, m in sys.modules.items()
                    if n == "xmodkit" or n.startswith("xmodkit.")]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, owner, attrs, counter in LAYERS:
            for attr in attrs:
                orig = getattr(owner, attr)
                self._replace(owner, attr, orig, self._wrap(name, orig, counter))
        self._replace(groups, "search_homs", groups.search_homs,
                      self._wrap_search(groups.search_homs))
        self._replace(groups.GroupHom, "__init__", groups.GroupHom.__init__,
                      self._wrap_hom_init(groups.GroupHom.__init__))
        self._replace(cli, "main", cli.main, self._wrap_cli_main(cli.main))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Self time of every span, indexed like ``spans``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)]

    def per_pass(self):
        """{pass: {"<layer>.<stat>": value}} with self_s, calls, counts and ratios."""
        out = defaultdict(lambda: defaultdict(float))
        ranks = defaultdict(set)
        for span, self_s in zip(self.spans, self.self_times()):
            name, _, _, _, pass_no, _, counts = span
            flat = out[pass_no]
            flat[f"{name}.self_s"] += self_s
            flat[f"{name}.calls"] += 1
            for key, value in (counts or {}).items():
                flat[f"{name}.{key}"] += value
            if name == "condp.pipeline" and counts:
                ranks[pass_no].add(counts["kernel_rank"])
        for (pass_no, key), value in self.counts.items():
            out[pass_no][key] += value
        for pass_no, flat in out.items():
            # a search call is its first span; later spans are resumes
            flat["groups.search.calls"] = flat["groups.search.calls_started"]
            flat["groups.search.solutions_per_call"] = _ratio(
                flat["groups.search.solutions"], flat["groups.search.calls"])
            flat["words.enumerate.words_per_s"] = _ratio(
                flat["words.enumerate.words"], flat["words.enumerate.self_s"])
            flat["condp.pipeline.distinct_share"] = _ratio(
                len(ranks[pass_no]), flat["condp.pipeline.calls"])
            flat["cli.report.bytes"] = flat["cli.command.report_bytes"]
        return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, names):
    """Median over passes of each ``<layer>.<stat>`` in ``names``."""
    passes = tracer.per_pass().values()
    return {name: statistics.median(flat.get(name, 0.0) for flat in passes)
            for name in names}

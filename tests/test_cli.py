import gc
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from xmodkit import cli, condp, groups, sse
from xmodkit.cli import main
from xmodkit.corpus import axiom_corpus
from xmodkit.defs import parse_definitions, load_definitions, tokenize_names
from xmodkit.errors import DefinitionError, InvariantBreach
from xmodkit.groups import find_isomorphism, symmetric_group, trivial_hom
from xmodkit.lifting import SectionCertificate

from xmod_helpers import wordlevel_reference

SAMPLE = """\
# Klein four group with a distinguished order-2 subgroup
[group V]
elements: e a b ab
table:
  e  a  b  ab
  a  e  ab b
  b  ab e  a
  ab b  a  e

[group S3]
degree: 3
perms: (1 2); (1 2 3)

[group Z2]
elements: 0 1
table:
  0 1
  1 0

[action flip]
actor: Z2
carrier: V
table:
  e a b ab
  e b a ab

[xmod M]
action: flip
boundary: 0 0 0 0

[xmod incl]
group: V
normal: e a

[morphism id]
source: incl
target: incl
fT: e a
fG: e a b ab

[setmap fold]
source: 2
target: 1
map: 0 0
section: 0
"""

VIOLATING = """\
[group S3]
degree: 3
perms: (1 2); (1 2 3)

[action triv]
actor: S3
carrier: S3
trivial: yes

[xmod B]
action: triv
boundary: e (2 3) (1 2) (1 2 3) (1 3 2) (1 3)
"""

NO_SECTION = """\
[group Z4]
elements: 0 1 2 3
table:
  0 1 2 3
  1 2 3 0
  2 3 0 1
  3 0 1 2

[group Z2]
elements: 0 1
table:
  0 1
  1 0

[xmod d4]
group: Z4
normal: 0

[xmod d2]
group: Z2
normal: 0

[morphism mod2]
source: d4
target: d2
fT: 0
fG: 0 1 0 1
"""


@pytest.fixture
def sample(tmp_path):
    p = tmp_path / "sample.defs"
    p.write_text(SAMPLE)
    return str(p)


def test_parse_all_kinds():
    defs = parse_definitions(SAMPLE)
    assert defs.order == ["V", "S3", "Z2", "flip", "M", "incl", "id", "fold"]
    assert [defs.kinds[n] for n in defs.order] == [
        "group", "group", "group", "action", "xmod", "xmod", "morphism", "setmap"]
    assert defs["V"].order == 4
    assert find_isomorphism(defs["S3"], symmetric_group(3)) is not None
    assert defs["incl"].domain().order == 2
    assert defs["fold"].table == (0, 0) and defs["fold"].section == (0,)
    assert len(defs.of_kind("group")) == 3


def test_tokenizer_keeps_parenthesized_names():
    assert tokenize_names("e a (1 2 3) (1 2)(3 4)", 1) == [
        "e", "a", "(1 2 3)", "(1 2)(3 4)"]
    with pytest.raises(DefinitionError, match="line 7"):
        tokenize_names("(1 2", 7)


def _tokenize_by_characters(text):
    """The character loop of tokenize_names, for text without "("."""
    out = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        start = i
        while i < n and not text[i].isspace():
            i += 1
        out.append(text[start:i])
    return out


def test_tokenizer_splits_plain_rows_like_the_character_loop():
    rows = ["", "   ", "e a b", "\te\ta  b\t", "x0\x0bx1\x0cx2\rx3", "a)b c)",
            "u\u00a0v\u2003w\u3000x", "p\x1cq\x1fr\x85s\u2028t", "one"]
    rows += [" ".join(f"x{i}" for i in range(64)), "\t".join(f"x{i}" for i in range(9))]
    for row in rows:
        assert tokenize_names(row, 1) == _tokenize_by_characters(row), repr(row)


def test_parse_errors_carry_line_numbers():
    """Every refusal of the definition parser, matched by line and text."""
    Z2 = "[group Z2]\nelements: e a\ntable:\n  e a\n  a e\n\n"
    Z3 = "[group Z3]\nelements: 0 1 2\ntable:\n  0 1 2\n  1 2 0\n  2 0 1\n\n"
    ACT = Z2 + "[action A]\nactor: Z2\ncarrier: Z2\n"
    XM = ACT + "trivial: yes\n\n[xmod X]\naction: A\n"
    INCL = Z2 + "[xmod X]\ngroup: Z2\nnormal: e a\n\n[morphism m]\nsource: X\ntarget: X\n"
    S3 = "[group S3]\ndegree: 3\nperms: (1 2); (1 2 3)\n\n[xmod X]\ngroup: S3\n"
    SET = "[setmap s]\nsource: 2\ntarget: 1\n"
    cases = [
        ("junk\n", "line 1: content before the first [kind name] header"),
        ("[widget W]\n", "line 1: unknown section kind"),
        ("[group G]\nperms: (1 2)\n", "line 1: [group] section is missing the 'degree' key"),
        ("[xmod X]\naction: nope\nboundary: e\n", "line 2: 'nope' is not defined yet"),
        ("[setmap s]\nsource: 2\ntarget: 2\nmap: 0 0\nsection: 0 1\n",
         "line 5: section is not a section"),
        ("[group G]\nelements: e\ntable:\n  e\n\n[group G]\nelements: e\ntable:\n  e\n",
         "line 6: name 'G' is already defined"),
        ("[group G]\nelements: e\ntable:\n  e\nbogus: 1\n", "line 5: key 'bogus'"),
        ("[group G]\nelements: a b\ntable:\n  a b\n  b c\n",
         "line 5: unknown element name 'c' in table row"),
        ("[group G]\nelements: e (1 2\ntable:\n  e\n",
         "line 2: unbalanced parenthesis in name list"),
        ("[group G]\n  e a\n", "line 2: indented line with no key to attach to"),
        ("[group G]\nelements e\n", "line 2: expected 'key: value', got 'elements e'"),
        ("[group G]\nelements: e\nelements: e\n", "line 3: duplicate key 'elements'"),
        (Z2 + "[xmod X]\naction: Z2\nboundary: e a\n",
         "line 8: 'Z2' is a group, expected a action"),
        ("[group G]\ndegree: 3\nperms: 1 2\n",
         "line 3: cannot read permutation '1 2' (use cycles like (1 2)(3 4))"),
        ("[group G]\ndegree: 3\nperms: (1 4)\n", "line 3: cycle entry '4' is not in 1..3"),
        # integers are ASCII digits: str.isdigit passes '²', which int() refuses
        ("[group G]\ndegree: 3\nperms: (1 ²)\n", "line 3: cycle entry '²' is not in 1..3"),
        ("[group G]\ndegree: ²\nperms: (1 2)\n",
         "line 2: degree must be a positive integer, got '²'"),
        ("[group G]\ndegree: 3\nperms: (1 2 1)\n", "line 3: repeated point in cycle (1 2 1)"),
        ("[group G]\nelements: a a\ntable:\n  a a\n  a a\n",
         "line 2: element names are not distinct"),
        ("[group G]\nelements: e a\ntable:\n  e a\n", "line 3: table has 1 rows, expected 2"),
        ("[group G]\nelements: e a\ntable:\n  e a\n  a\n",
         "line 5: table row has 1 entries, expected 2"),
        ("[group G]\nelements: a b\ntable:\n  a b\n  b b\n",
         "line 3: invalid multiplication table: element 1 has no inverse"),
        # 1*1*1 = e, but row 1 holds no identity
        ("[group G]\nelements: e a b\ntable:\n  e a b\n  a b a\n  b e b\n",
         "line 3: invalid multiplication table: element 1 has no inverse"),
        # the smallest nonassociative loop: a square with identity and inverses
        ("[group L]\nelements: e a b c d\ntable:\n  e a b c d\n  a e c d b\n"
         "  b d e a c\n  c b d e a\n  d c a b e\n",
         "line 3: invalid multiplication table: not associative at (1,1,2)"),
        ("[group G]\ndegree: 0\nperms: (1)\n",
         "line 2: degree must be a positive integer, got '0'"),
        ("[group G]\ndegree: 2\nperms: ;\n", "line 3: no permutations given"),
        # refused before a point list is built
        ("[group G]\ndegree: 1000000000\nperms: (1 2)\n",
         "line 2: degree 1000000000 exceeds the dense-table cap 1024"),
        # a narrowing: this is Z2, which loaded before the degree was capped
        ("[group G]\ndegree: 1100\nperms: (1 2)\n",
         "line 2: degree 1100 exceeds the dense-table cap 1024"),
        # S10 is refused once its closure passes the cap, not after 10! elements
        ("[group G]\ndegree: 10\nperms: (1 2); (1 2 3 4 5 6 7 8 9 10)\n",
         "line 3: perms: order exceeds the dense-table cap 1024"),
        ("[group G]\nelements: e\n",
         "line 1: [group] needs either a table (with elements) or perms (with degree)"),
        (ACT + "trivial: no\n", "line 10: trivial takes 'yes', got 'no'"),
        # a section giving keys of both forms of its kind is refused, not half read
        (Z2 + Z3 + "[action inv]\nactor: Z2\ncarrier: Z3\ntrivial: yes\ntable:\n"
         "  0 1 2\n  0 2 1\n",
         "line 18: [action] section mixes two forms: 'table' cannot go with 'trivial'"),
        (Z2 + Z3 + "[action inv]\nactor: Z2\ncarrier: Z3\ntable:\n  0 1 2\n  0 2 1\n"
         "trivial: yes\n",
         "line 20: [action] section mixes two forms: 'trivial' cannot go with 'table'"),
        ("[group G]\nelements: e a\ntable:\n  e a\n  a e\ndegree: 3\nperms: (1 2 3)\n",
         "line 6: [group] section mixes two forms: 'degree' cannot go with 'elements'"),
        (XM + "boundary: e e\ngroup: Z2\nnormal: e a\n",
         "line 15: [xmod] section mixes two forms: 'group' cannot go with 'action'"),
        (ACT + "table:\n  e a\n",
         "line 10: action table has 1 rows, expected 2 (one per actor element)"),
        (ACT + "table:\n  e a\n  a\n", "line 12: action row has 1 entries, expected 2"),
        (ACT + "table:\n  e a\n  a x\n", "line 12: action row: Z2 has no element named 'x'"),
        (ACT + "table:\n  e a\n  e e\n",
         "line 10: invalid action table: actor element a does not act bijectively"),
        (XM + "boundary: e\n", "line 14: boundary lists 1 images, expected 2"),
        (XM + "boundary: e x\n", "line 14: boundary: Z2 has no element named 'x'"),
        (XM + "boundary: a a\n",
         "line 14: not a crossed module: map does not preserve the identity"),
        (S3 + "normal: e (1 2)\n",
         "line 7: not a normal subgroup: image of the embedding is not a normal subgroup"),
        (S3 + "normal: e zz\n", "line 7: normal: S3 has no element named 'zz'"),
        ("[xmod X]\nboundary: e\n",
         "line 1: [xmod] needs either action+boundary or group+normal"),
        (INCL + "fT: e\nfG: e a\n", "line 14: fT lists 1 images, expected 2"),
        (INCL + "fT: e a\nfG: e x\n", "line 15: fG: Z2 has no element named 'x'"),
        (INCL + "fT: e a\nfG: a a\n",
         "line 15: fG is not a homomorphism: map does not preserve the identity"),
        (INCL + "fT: e a\nfG: e e\n",
         "line 11: not a morphism of crossed modules: boundary square fails at t=a"),
        ("[setmap s]\nsource: -1\n", "line 2: source must be a nonnegative integer, got '-1'"),
        # past 18 digits, refused before int(), which stops at 4300 digits
        ("[setmap s]\nsource: " + "1" * 5000 + "\n",
         "line 2: source must be a nonnegative integer, got '" + "1" * 5000 + "'"),
        # int() reads the Arabic-Indic zero as 0
        (SET + "map: 0 \u0660\nsection: 0\n",
         "line 4: map entries must be nonnegative integers, got '\u0660'"),
        (SET + "map: 0 x\nsection: 0\n",
         "line 4: map entries must be nonnegative integers, got 'x'"),
        (SET + "map: 0\nsection: 0\n", "line 4: map lists 1 values, expected 2"),
        (SET + "map: 0 1\nsection: 0\n", "line 4: map value out of range 0..0"),
        (SET + "map: 0 0\nsection: 0 0\n", "line 5: section lists 2 values, expected 1"),
        (SET + "map: 0 0\nsection: 5\n", "line 5: section value 5 out of range 0..1"),
    ]
    for text, frag in cases:
        with pytest.raises(DefinitionError, match=re.escape(frag)):
            parse_definitions(text)


def test_strict_vs_lenient_xmod_parsing(tmp_path):
    p = tmp_path / "bad.defs"
    p.write_text(VIOLATING)
    with pytest.raises(DefinitionError, match="not a crossed module"):
        load_definitions(str(p))
    defs = load_definitions(str(p), check_xmods=False)
    assert "B" in defs


def test_parser_validates_actions_and_normal_subgroups():
    head = SAMPLE.split("[action flip]")[0]
    translation = "[action bad]\nactor: Z2\ncarrier: V\ntable:\n  e a b ab\n  a e ab b\n"
    with pytest.raises(DefinitionError, match="invalid action table"):
        parse_definitions(head + translation)
    s3 = "[group S3]\ndegree: 3\nperms: (1 2); (1 2 3)\n\n[xmod X]\ngroup: S3\n"
    with pytest.raises(DefinitionError, match="not a normal subgroup: image of the"):
        parse_definitions(s3 + "normal: e (1 2)\n")
    with pytest.raises(DefinitionError, match="not a normal subgroup: subset not closed"):
        parse_definitions(s3 + "normal: e (1 2 3)\n")


def test_check_command_exit_codes(sample, tmp_path, capsys):
    assert main(["check", sample]) == 0
    out = capsys.readouterr().out
    assert "VERDICT: pass" in out and "check M: ok" in out

    bad = tmp_path / "bad.defs"
    bad.write_text(VIOLATING)
    assert main(["check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "VERDICT: falsified" in out and "FAILS" in out

    assert main(["check", str(tmp_path / "missing.defs")]) == 2
    assert "input error" in capsys.readouterr().err

    empty = tmp_path / "empty.defs"
    empty.write_text("[group Z1]\nelements: e\ntable:\n  e\n")
    assert main(["check", str(empty)]) == 2


def test_check_summary_counts_ternary_words(sample, capsys):
    assert main(["check", sample]) == 0
    out = capsys.readouterr().out
    assert ("check M: ok (eq viol 0, pf viol 0, 26 words at L=4, "
            "ternary 0 non-empty words at L=8, vacuous)") in out
    assert main(["check", sample, "--ternary-len", "10"]) == 0
    out = capsys.readouterr().out
    assert "ternary 270 non-empty words at L=10)" in out
    assert "vacuous" not in out


@pytest.mark.parametrize("word_len, reach", [
    (3, [(2, 0, True), (2, 0, True)]),
    (4, [(26, 24, False), (10, 8, False)]),
    (6, [(140, 138, False), (16, 14, False)]),  # as the installed-script step reads
])
def test_check_wordlevel_reach(word_len, reach, sample, tmp_path, capsys):
    """Below L=4 the only binary cosmash word is the empty word, one per law:
    each `wordlevel` entry says vacuous, and so does the summary line.  The
    counts are those of the enumerating reference."""
    rep_path = tmp_path / "w.json"
    assert main(["check", sample, "--word-len", str(word_len), "--json", str(rep_path)]) == 0
    out = capsys.readouterr().out
    words = [r["wordlevel"] for r in json.loads(rep_path.read_text())["results"]]
    assert [(w["words"], w["nonempty_words"], w["vacuous"]) for w in words] == reach
    refs = [wordlevel_reference(xm, word_len)
            for _, xm in load_definitions(sample).of_kind("xmod")]
    assert [n for n, _, _ in reach] == [
        ref["equivariance_words"] + ref["peiffer_words"] for ref in refs]
    assert all(w["ok"] for w in words)
    for (n, _, vacuous), name in zip(reach, ("M", "incl")):
        assert (f"check {name}: ok (eq viol 0, pf viol 0, {n} words at L={word_len}"
                + (", vacuous, " if vacuous else ", ternary ")) in out


def test_check_json_report(sample, tmp_path, capsys):
    rep_path = tmp_path / "report.json"
    assert main(["check", sample, "--json", str(rep_path)]) == 0
    capsys.readouterr()
    rep = json.loads(rep_path.read_text())
    assert rep["tool"] == "xmodkit" and rep["command"] == "check"
    assert rep["ok"] is True and rep["exit_code"] == 0
    assert len(rep["results"]) == 2
    assert rep["results"][0]["name"] == "M"
    assert rep["results"][0]["ternary"]["ok"] is True
    assert [(r["ternary"]["nonempty_words"], r["ternary"]["vacuous"])
            for r in rep["results"]] == [(0, True), (0, True)]
    assert main(["check", sample, "--ternary-len", "10", "--json", str(rep_path)]) == 0
    capsys.readouterr()
    tern = json.loads(rep_path.read_text())["results"][0]["ternary"]
    assert (tern["words"], tern["nonempty_words"], tern["vacuous"]) == (271, 270, False)
    digest = rep["input_sha256"]
    assert len(digest) == 64

    rep2_path = tmp_path / "report2.json"
    assert main(["check", sample, "--json", str(rep2_path)]) == 0
    capsys.readouterr()
    rep2 = json.loads(rep2_path.read_text())
    assert rep2["input_sha256"] == digest
    assert rep2["results"] == rep["results"]


def test_json_report_on_error_exits(sample, tmp_path, capsys):
    rep_path = tmp_path / "budget.json"
    assert main(["audit", "--quick", "--budget", "1", "--json", str(rep_path)]) == 3
    capsys.readouterr()
    rep = json.loads(rep_path.read_text())
    assert rep["command"] == "audit" and rep["ok"] is False
    assert rep["exit_code"] == 3 and rep["results"] is None
    assert rep["error"].startswith("budget exhausted: ")

    bad = tmp_path / "bad_table.defs"
    bad.write_text("[group G]\nelements: a b\ntable:\n  a b\n  b b\n")
    rep_path = tmp_path / "input.json"
    assert main(["check", str(bad), "--json", str(rep_path)]) == 2
    capsys.readouterr()
    rep = json.loads(rep_path.read_text())
    assert rep["command"] == "check" and rep["ok"] is False
    assert rep["exit_code"] == 2 and rep["results"] is None
    assert "invalid multiplication table" in rep["error"]
    assert rep["input"] == str(bad) and len(rep["input_sha256"]) == 64

    missing = str(tmp_path / "missing.defs")
    assert main(["pi0", missing, "--json", str(rep_path)]) == 2
    capsys.readouterr()
    rep = json.loads(rep_path.read_text())
    assert rep["error"].startswith("input error: cannot read")
    assert rep["input"] == missing and "input_sha256" not in rep


def test_pi0_command(sample, capsys):
    assert main(["pi0", sample]) == 0
    out = capsys.readouterr().out
    assert "pi0 M: order 2" in out
    assert "pi0 incl: order 2" in out
    assert "coequalizer route agrees" in out


def test_pi0_refuses_an_over_cap_total_as_input(tmp_path, capsys):
    """S5 in itself needs a 14,400-element semidirect total for the coequalizer
    route: out of scope (exit 2), never reported as a disagreement."""
    head = "[group S5]\ndegree: 5\nperms: (1 2); (1 2 3 4 5)\n"
    names = parse_definitions(head)["S5"].names
    path = tmp_path / "s5.defs"
    path.write_text(head + "\n[xmod all]\ngroup: S5\nnormal: " + " ".join(names) + "\n")
    assert main(["pi0", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: semidirect product order 14400 exceeds cap 1024\n"
    assert "DISAGREES" not in captured.out and "VERDICT" not in captured.out


@pytest.mark.parametrize("argv, code", [
    (["check", "SAMPLE"], 2),
    (["pi0", "MISSING"], 2),
    (["audit", "--quick", "--budget", "0"], 3),
])
def test_unwritable_report_path_is_an_input_error(argv, code, sample, tmp_path, capsys):
    """Exit 2 with one line on stderr, or the exit code an error had already set."""
    report = str(tmp_path / "missing" / "r.json")
    missing = str(tmp_path / "missing.defs")
    argv = [sample if a == "SAMPLE" else missing if a == "MISSING" else a for a in argv]
    assert main(argv + ["--json", report]) == code
    captured = capsys.readouterr()
    assert captured.err.endswith(
        f"input error: cannot write report {report}: No such file or directory\n")
    assert "Traceback" not in captured.err and "VERDICT" not in captured.out


def test_lift_command(sample, tmp_path, capsys):
    assert main(["lift", sample, "--cross-check"]) == 0
    out = capsys.readouterr().out
    assert "lift id [projective-section]: success" in out
    assert ("lift id [projective-section]: success (ternary audit "
            "0 non-empty words and 2 brackets at L=8)") in out

    assert main(["lift", sample, "--algorithm", "pullback-section"]) == 0
    capsys.readouterr()

    nosec = tmp_path / "nosec.defs"
    nosec.write_text(NO_SECTION)
    assert main(["lift", str(nosec), "--algorithm", "pullback-section"]) == 1
    out = capsys.readouterr().out
    assert "no-cokernel-section" in out and "VERDICT: falsified" in out

    assert main(["lift", sample, "--name", "nope"]) == 2
    assert "no [morphism nope]" in capsys.readouterr().err

    assert main(["lift", sample, "--budget", "0"]) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_lift_json_certificate(sample, tmp_path, capsys):
    rep_path = tmp_path / "lift.json"
    assert main(["lift", sample, "--json", str(rep_path)]) == 0
    capsys.readouterr()
    rep = json.loads(rep_path.read_text())
    cert = rep["results"][0]["certificate"]
    assert cert["status"] == "success" and cert["ok"] is True
    assert cert["equations"]["ternary-equivariance"] is True
    assert "section" in cert


# every command the CI runs through the installed script, by kind
CI_COMMANDS = (
    ["check", "SAMPLE"], ["pi0", "SAMPLE"], ["lift", "SAMPLE", "--cross-check"],
    ["lift", "SAMPLE", "--algorithm", "pullback-section", "--cross-check"],
    ["audit", "--quick"], ["condp", "z4-pipeline", "--input", "SAMPLE"],
    ["condp", "z4-pipeline", "--map", "0,0,0", "--section", "0"],  # order 1024
    ["condp", "non-schreier", "--seed", "1"], ["condp", "transfer"],
    ["condp", "preservation"],
)


def _is_json_encoder_closure(obj):
    # with indent set, json.dumps encodes through nested closures that refer
    # to one another: the one reference cycle a command leaves
    return getattr(obj, "__module__", None) == "json.encoder"


def test_commands_leave_no_reference_cycles(sample, capsys):
    """Every command is freed by reference counting, which is what lets
    `main` pause the cyclic collector: run plain it leaves no cycle, and with
    --json it leaves only the JSON encoder's closures, no xmodkit object and
    no large container.  The parser, a web of argparse cycles, is built once
    per process, not once per call."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in CI_COMMANDS:
            argv = [sample if a == "SAMPLE" else a for a in argv]
            assert main(argv + ["--json", "-"]) == 0  # first imports and caches
            gc.collect()
            assert main(argv) == 0
            assert gc.collect() == 0, argv
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                assert main(argv + ["--json", "-"]) == 0
                gc.collect()
            finally:
                gc.set_debug(0)
            garbage, gc.garbage[:] = gc.garbage[:], []
            assert not [o for o in garbage if type(o).__module__.startswith("xmodkit")], argv
            assert not [o for o in garbage if isinstance(o, (tuple, list, dict, set))
                        and len(o) >= 256], argv
            assert all(map(_is_json_encoder_closure, [
                o for o in garbage if isinstance(o, types.FunctionType)])), argv
    finally:
        if was_enabled:
            gc.enable()
    capsys.readouterr()


BAD_TABLE = "[group G]\nelements: a b\ntable:\n  a b\n  b b\n"


def _raising(exc):
    def raise_it(*args):
        raise exc
    return raise_it


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, text, fault, outcome", [
    (["check", "SAMPLE"], None, None, 0),
    (["check", "FILE"], VIOLATING, None, 1),
    (["check", "FILE"], BAD_TABLE, None, 2),
    (["audit", "--quick", "--budget", "6"], None, None, 3),
    (["pi0", "SAMPLE"], None, InvariantBreach("injected"), 4),
    (["check", "SAMPLE", "--bogus"], None, None, SystemExit),
    (["pi0", "SAMPLE"], None, RuntimeError("injected"), 4),
    (["pi0", "SAMPLE"], None, KeyboardInterrupt(), KeyboardInterrupt),
], ids=["exit-0", "exit-1", "exit-2", "exit-3", "exit-4", "usage-error", "crash",
        "interrupt"])
def test_collector_setting_is_restored_on_every_exit_path(
        argv, text, fault, outcome, enabled, sample, tmp_path, monkeypatch, capsys):
    """`main` pauses the cyclic collector and hands back the caller's
    setting, whether it returns or raises."""
    path = tmp_path / "in.defs"
    if text is not None:
        path.write_text(text)
    argv = [sample if a == "SAMPLE" else str(path) if a == "FILE" else a for a in argv]
    if fault is not None:
        monkeypatch.setattr("xmodkit.cli.pi0_comparison", _raising(fault))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def test_condp_command(tmp_path, capsys):
    assert main(["condp", "z4-pipeline"]) == 0
    out = capsys.readouterr().out
    assert "kernel rank 1" in out and "VERDICT: pass" in out

    assert main(["condp", "z4-pipeline", "--map", "0,1,1", "--section", "0,1"]) == 0
    capsys.readouterr()

    maps = tmp_path / "maps.defs"
    maps.write_text("[setmap fold]\nsource: 2\ntarget: 1\nmap: 0 0\nsection: 0\n")
    assert main(["condp", "z4-pipeline", "--input", str(maps)]) == 0
    out = capsys.readouterr().out
    assert "pipeline fold" in out

    assert main(["condp", "preservation"]) == 0
    out = capsys.readouterr().out
    assert "left-exactness failures ['identity-boundary-to-flat']" in out

    assert main(["condp", "z4-pipeline", "--map", "0,9", "--section", "0"]) == 2
    assert "input error" in capsys.readouterr().err


def test_transfer_builds_each_free_module_once(monkeypatch, capsys):
    """The sweep and the survey of one `condp transfer` share free modules."""
    built = []
    real = groups.z4_module

    def recording(n4, n2, label=None):
        M = real(n4, n2, label)  # F6 is refused, over the dense cap
        built.append(label)
        return M

    monkeypatch.setattr(groups, "z4_module", recording)
    assert main(["condp", "transfer", "--seed", "0"]) == 0
    capsys.readouterr()
    free = [label for label in built if label and label.startswith("F")]
    assert sorted(free) == [f"F{n}" for n in range(6)]  # each rank once


def test_audit_quick(tmp_path, capsys):
    rep_path = tmp_path / "audit.json"
    assert main(["audit", "--quick", "--json", str(rep_path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(rep_path.read_text())["results"]["ternary"] == {
        "max_len": 6, "violations": [], "nonempty_words": 0, "vacuous": True}
    assert "axiom corpus: 54 entries, checkers agree True" in out
    assert ("ternary law: 0 non-empty words at L=6 over 48 modules, "
            "vacuous, only the empty word checked") in out
    assert "158 morphisms, 44 regular epis" in out
    assert "projective sections: 24/24" in out
    assert "pullback sections: 12/12" in out
    assert "VERDICT: pass" in out


def _bend(monkeypatch, name, change, when=None, module=cli):
    """Pass a result of module.<name> (cli by default) through change: the
    first call's, or with `when` every call's whose first argument satisfies
    it."""
    real = getattr(module, name)
    calls = []

    def bent(*args, **kwargs):
        out = real(*args, **kwargs)
        hit = when(args[0]) if when else not calls
        calls.append(name)
        return change(out) if hit else out

    monkeypatch.setattr(module, name, bent)


def _bend_on_fixture(monkeypatch, fixture, name, change):
    """Bend cli.<name> only where it is called on the morphism of cli.<fixture>."""
    made = []

    def record(out):
        made.append(out[0] if isinstance(out, tuple) else out)
        return out

    _bend(monkeypatch, fixture, record)
    _bend(monkeypatch, name, change, when=lambda mor: any(mor is m for m in made))


def _not_ok(rep):
    return {**rep, "ok": False}


# one fault per conjunct of audit's ok: (bend, the results field it moves, to)
AUDIT_FAULTS = {
    "checkers-agree": (
        lambda mp: _bend(mp, "check_axioms_wordlevel",
                         lambda rep: {**rep, "ok": not rep["ok"]}),
        ("axiom_corpus", "checkers_agree"), False),
    "ternary-clean": (
        lambda mp: _bend(mp, "check_ternary", _not_ok),
        ("ternary", "violations"),
        [next(name for name, _, valid in axiom_corpus() if valid)]),
    "split-rows": (
        lambda mp: _bend(mp, "pi0_preserves_split_ses", _not_ok),
        ("split_rows", "all_ok"), False),
    "projective-successes": (
        lambda mp: _bend(mp, "projective_section",
                         lambda cert: SectionCertificate("no-lift-of-section", {})),
        ("projective_sections", "successes"), 23),
    "projective-fixture-status": (
        lambda mp: _bend_on_fixture(
            mp, "no_section_fixture", "projective_section",
            lambda cert: SectionCertificate("no-lift-of-section", {})),
        ("projective_sections", "nonexistence_status"), "no-lift-of-section"),
    "generic-search-agrees": (
        lambda mp: _bend(mp, "find_xmod_section", lambda sec: "a section"),
        ("projective_sections", "generic_search_agrees"), False),
    "pullback-successes": (
        lambda mp: _bend(mp, "pullback_section",
                         lambda cert: SectionCertificate("no-cokernel-section", {})),
        ("pullback_sections", "successes"), 11),
    "pullback-fixture-status": (
        lambda mp: _bend_on_fixture(
            mp, "pullback_no_section_fixture", "pullback_section",
            lambda cert: SectionCertificate("no-lift-through-comparison", {})),
        ("pullback_sections", "nonexistence_status"), "no-lift-through-comparison"),
    "survey-agrees": (
        lambda mp: _bend(mp, "projectivity_survey",
                         lambda rows: [_not_ok(rows[0])] + rows[1:]),
        ("survey", "all_agree"), False),
}


@pytest.mark.parametrize("fault", list(AUDIT_FAULTS))
def test_each_audit_subcheck_fails_alone(fault, tmp_path, monkeypatch, capsys):
    """Each conjunct of audit's ok can turn it false on its own: one bent
    routine moves exactly one results field, and audit exits 1."""
    rep_path = tmp_path / "audit.json"
    assert main(["audit", "--json", str(rep_path)]) == 0
    expected = json.loads(rep_path.read_text())["results"]
    bend, (section, field), value = AUDIT_FAULTS[fault]
    assert expected[section][field] != value
    expected[section][field] = value
    bend(monkeypatch)
    assert main(["audit", "--json", str(rep_path)]) == 1
    rep = json.loads(rep_path.read_text())
    assert rep["ok"] is False
    assert rep["results"] == expected
    assert capsys.readouterr().out.endswith("VERDICT: falsified\n")


# one fault per conjunct of each condp mode's ok:
# (argv, bend, the path of the results field it moves, to)
CONDP_FAULTS = {
    "pipeline-row": (
        ["condp", "z4-pipeline"],
        lambda mp: _bend(mp, "split_exact_z4", _not_ok, module=condp),
        ("pipelines", 0, "report", "rows", "X", "ok"), False),
    "non-schreier-shape": (
        ["condp", "non-schreier"],
        # 64 != 16^2 decides the shape alone, so bend the witness itself
        lambda mp: _bend(mp, "free_shape_witness",
                         lambda rep: {**rep, "free_shape": True}, module=condp),
        ("demo", "shape", "free_shape"), True),
    "transfer-sweep": (
        ["condp", "transfer"],
        # a failing instance also counts a counterexample: bend the verdict
        lambda mp: _bend(mp, "theorem_P_transfer_check", _not_ok),
        ("transfer", "ok"), False),
    "transfer-survey": (
        ["condp", "transfer"],
        lambda mp: _bend(mp, "projectivity_survey",
                         lambda rows: [_not_ok(rows[0])] + rows[1:]),
        ("survey", 0, "ok"), False),
    "preservation-split-rows": (
        ["condp", "preservation"],
        lambda mp: _bend(mp, "pi0_preserves_split_ses", _not_ok, module=condp),
        ("preservation", "split_rows", "ok"), False),
}


def _moved(results, path, value):
    """Set the field at `path` to `value`, and each ok flag of a dict above
    it to False: those flags are conjunctions that read the field."""
    node = results
    for key in path[:-1]:
        if isinstance(node, dict) and "ok" in node:
            node["ok"] = False
        node = node[key]
    assert node[path[-1]] != value
    node[path[-1]] = value


@pytest.mark.parametrize("fault", list(CONDP_FAULTS))
def test_each_condp_check_fails_alone(fault, tmp_path, monkeypatch, capsys):
    """Each condp mode's ok can turn false on one fault: one bent routine
    moves exactly one results field (and the ok flags that read it), and the
    mode exits 1 through main."""
    argv, bend, path, value = CONDP_FAULTS[fault]
    rep_path = tmp_path / "condp.json"
    assert main(argv + ["--json", str(rep_path)]) == 0
    expected = json.loads(rep_path.read_text())["results"]
    _moved(expected, path, value)
    bend(monkeypatch)
    assert main(argv + ["--json", str(rep_path)]) == 1
    rep = json.loads(rep_path.read_text())
    assert rep["ok"] is False
    assert rep["results"] == expected
    assert capsys.readouterr().out.endswith("VERDICT: falsified\n")


def test_readme_demo_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    demo = tmp_path / "demo.defs"
    demo.write_text(next(b for b in blocks if "[group V]" in b))
    for argv in (["check", str(demo)], ["pi0", str(demo)],
                 ["lift", str(demo)],
                 ["condp", "z4-pipeline", "--input", str(demo)]):
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_internal_error_exit_code(sample, monkeypatch, capsys):
    def broken(xm):
        raise InvariantBreach("injected")

    monkeypatch.setattr("xmodkit.cli.pi0_comparison", broken)
    assert main(["pi0", sample]) == 4
    assert "internal error: injected" in capsys.readouterr().err


def test_any_other_exception_exits_four_with_its_report(sample, tmp_path, monkeypatch,
                                                        capsys):
    """An exception outside the package's own errors is a bug: exit 4, its
    traceback and then `internal error: <type>: <message>` on stderr, and
    the report still written."""
    monkeypatch.setattr("xmodkit.cli.pi0_comparison", _raising(IndexError("tuple index")))
    rep_path = tmp_path / "rep.json"
    assert main(["pi0", sample, "--json", str(rep_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("IndexError: tuple index\ninternal error: IndexError: tuple index\n")
    rep = json.loads(rep_path.read_text())
    assert (rep["ok"], rep["exit_code"], rep["results"]) == (False, 4, None)
    assert rep["error"] == "internal error: IndexError: tuple index"


def test_non_utf8_definition_file_is_bad_input(tmp_path, capsys):
    """A file that is not UTF-8 exits 2 with its report, naming the file and
    the offset of the first bad byte; a UTF-8 file with CRLF line ends reads
    as with LF."""
    path, rep_path = tmp_path / "latin1.defs", tmp_path / "rep.json"
    path.write_bytes(SAMPLE.encode().replace(b"elements: e a b ab", b"elements: e a b \xe9"))
    offset = path.read_bytes().index(b"\xe9")
    assert main(["check", str(path), "--json", str(rep_path)]) == 2
    error = f"input error: {path} is not UTF-8 text: byte 0xe9 at offset {offset}"
    assert capsys.readouterr().err == error + "\n"
    rep = json.loads(rep_path.read_text())
    assert (rep["ok"], rep["exit_code"], rep["results"], rep["error"]) == (
        False, 2, None, error)
    crlf = tmp_path / "crlf.defs"
    crlf.write_bytes(SAMPLE.replace("\n", "\r\n").encode())
    got, want = load_definitions(str(crlf)), parse_definitions(SAMPLE)
    assert got.order == want.order and got["V"].table == want["V"].table


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_two_without_traceback(unbuffered, tmp_path):
    """`xmodkit audit --quick | head -1` with the reader gone before the
    first line: exit 2, one error line on stderr and no traceback, and the
    --json report still written.  Buffered, the closed pipe shows only
    when stdout is flushed, at the end of the command."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    rep_path = tmp_path / "rep.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "xmodkit.cli", "audit", "--quick", "--json", str(rep_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert err == "output error: stdout was closed\n"
    rep = json.loads(rep_path.read_text())
    assert (rep["ok"], rep["exit_code"], rep["results"], rep["error"]) == (
        False, 2, None, "output error: stdout was closed")


def _total_maps_trivial(monkeypatch):
    # a regular epi onto a nontrivial total group is then not covered there
    real = sse.total_map

    def trivial(mor):
        f = real(mor)
        return trivial_hom(f.source, f.target)
    monkeypatch.setattr(sse, "total_map", trivial)


def _covers_miss_a_generator(monkeypatch):
    # each module handed to the free cover loses its first generator, so the
    # decode spans a proper submodule
    real = condp.free_module_cover

    def bent(M, free=None):
        monkeypatch.setitem(M.__dict__, "generators", M.generators[1:])
        return real(M, free)
    monkeypatch.setattr(condp, "free_module_cover", bent)


@pytest.mark.parametrize("argv, bend, message", [
    (["audit", "--quick"], _total_maps_trivial,
     "carrier and total surjectivity disagree on a same-base morphism"),
    (["condp", "transfer"], _covers_miss_a_generator,
     "generator decode failed to cover the module"),
], ids=["regular-epi-cross-check", "free-cover-decode"])
def test_library_invariants_fire_through_main(argv, bend, message, tmp_path,
                                              monkeypatch, capsys):
    """The internal checks outside the section constructions that a command
    reaches each fire on one injected fault through that command: exit 4,
    the message on stderr, and a report with ok false and no results."""
    bend(monkeypatch)
    rep_path = tmp_path / "rep.json"
    assert main(argv + ["--json", str(rep_path)]) == 4
    assert capsys.readouterr().err == f"internal error: {message}\n"
    rep = json.loads(rep_path.read_text())
    assert (rep["ok"], rep["exit_code"], rep["results"]) == (False, 4, None)
    assert rep["error"] == f"internal error: {message}"


def test_over_cap_max_order_is_refused_before_the_sweep(monkeypatch, capsys):
    monkeypatch.setattr("xmodkit.cli.theorem_P_transfer_check",
                        lambda **kw: pytest.fail("the sweep ran"))
    assert main(["condp", "transfer", "--max-order", "2048"]) == 2
    assert capsys.readouterr().err == (
        "input error: survey order cap 2048 exceeds the dense-table cap 1024\n")


GROUP_ONLY_DEFS = "[group G]\ndegree: 2\nperms: (1 2)\n"
EMPTY_SETMAP_DEFS = "[setmap f]\nsource: 0\ntarget: 0\nmap:\nsection:\n"


@pytest.mark.parametrize("argv, text, message", [
    (["condp", "z4-pipeline", "--map", "0,1", "--section", "1,0"], None,
     "s must be a section of f"),
    (["condp", "z4-pipeline", "--map", "0,x"], None,
     "--map must be a list of nonnegative integers, got '0,x'"),
    # int() reads '0_0' as 0 and the Arabic-Indic zero as 0
    (["condp", "z4-pipeline", "--map", "0_0", "--section", "0"], None,
     "--map must be a list of nonnegative integers, got '0_0'"),
    (["condp", "z4-pipeline", "--map", "\u0660,\u0660"], None,
     "--map must be a list of nonnegative integers, got '\u0660,\u0660'"),
    (["condp", "z4-pipeline", "--input", "FILE"], EMPTY_SETMAP_DEFS,
     "need nonempty index sets"),
    (["condp", "z4-pipeline", "--map=", "--section="], None, "need nonempty index sets"),
    (["condp", "z4-pipeline", "--input", "FILE"], GROUP_ONLY_DEFS,
     "FILE: no [setmap] sections"),
    (["pi0", "FILE"], GROUP_ONLY_DEFS, "FILE: no [xmod] sections"),
    (["lift", "FILE"], GROUP_ONLY_DEFS, "FILE: no [morphism] sections"),
], ids=["not-a-section", "map-not-integers", "map-underscore", "map-arabic-indic",
        "empty-setmap", "empty-map-flags", "no-setmap", "no-xmod", "no-morphism"])
def test_refused_inputs_exit_two(argv, text, message, tmp_path, capsys):
    """Each refusal exits 2 with its message and a JSON error report."""
    path, rep_path = tmp_path / "in.defs", tmp_path / "rep.json"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    error = "input error: " + message.replace("FILE", str(path))
    assert main(argv + ["--json", str(rep_path)]) == 2
    assert capsys.readouterr().err == error + "\n"
    rep = json.loads(rep_path.read_text())
    assert (rep["ok"], rep["exit_code"], rep["results"]) == (False, 2, None)
    assert rep["error"] == error


@pytest.mark.parametrize("argv, fits", [(["audit", "--quick"], 72), (["audit"], 272)])
def test_audit_budget_bounds_every_search(argv, fits, capsys):
    """--budget reaches the same-base corpus, whose largest carrier hom search
    takes 72 nodes, and the survey, whose largest section search takes 272:
    one node less exits 3."""
    assert main(argv + ["--budget", str(fits)]) == 0
    capsys.readouterr()
    assert main(argv + ["--budget", str(fits - 1)]) == 3
    assert capsys.readouterr().err == f"budget exhausted: hom search exceeded {fits - 1} nodes\n"


def test_budget_only_where_searched(sample):
    for argv in (["condp", "non-schreier", "--budget", "1"],
                 ["check", sample, "--budget", "1"],
                 ["pi0", sample, "--budget", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, prog, message", [
    (["check", "SAMPLE", "--bogus"], "xmodkit", "unrecognized arguments: --bogus"),
    (["check", "SAMPLE", "--word-len", "x"], "xmodkit check",
     "argument --word-len: invalid int value: 'x'"),
    (["condp", "nope"], "xmodkit condp",
     "argument mode: invalid choice: 'nope' (choose from 'z4-pipeline', "
     "'non-schreier', 'transfer', 'preservation')"),
], ids=["unknown-flag", "bad-int", "bad-mode"])
def test_usage_error_writes_the_error_report(argv, prog, message, sample, tmp_path, capsys):
    """A usage error keeps argparse's exit 2 and stderr text, and --json gets
    the report every other exit-2 path writes, argparse's message its error."""
    rep_path = tmp_path / "rep.json"
    argv = [sample if a == "SAMPLE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json", str(rep_path)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"usage: {prog} ") and err.endswith(f"\n{prog}: error: {message}\n")
    assert out == f"report written to {rep_path}\n"
    rep = json.loads(rep_path.read_text())
    assert (rep["ok"], rep["exit_code"], rep["results"]) == (False, 2, None)
    assert (rep["command"], rep["error"]) == (argv[0], message)


def test_condp_modes_take_only_the_flags_they_read(capsys):
    """Each condp mode is its own subparser.  Of the 24 mode-flag pairs, the
    7 that a mode reads parse; any other is a usage error through main,
    exit 2, not a value that is checked or ignored."""
    values = {"--input": "x", "--map": "0", "--section": "0", "--seed": "3",
              "--count": "0", "--max-order": "0"}
    reads = {("z4-pipeline", "--input"), ("z4-pipeline", "--map"),
             ("z4-pipeline", "--section"), ("non-schreier", "--seed"),
             ("transfer", "--seed"), ("transfer", "--count"), ("transfer", "--max-order")}
    for mode in ("z4-pipeline", "non-schreier", "transfer", "preservation"):
        for flag, value in values.items():
            argv = ["condp", mode, flag, value]
            if (mode, flag) in reads:
                cli.build_parser().parse_args(argv)
                continue
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(
                f"xmodkit: error: unrecognized arguments: {flag} {value}\n"), argv


def test_usage_error_without_a_readable_json_value_writes_nothing(sample, tmp_path,
                                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for tail in (["--bogus", "--json"], ["--json", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(["check", sample] + tail)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert (out, err.splitlines()[-1]) == (
            "", "xmodkit check: error: argument --json: expected one argument")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sample.defs"]


@pytest.mark.parametrize("argv, message", [
    (["check", "SAMPLE", "--word-len", "-1", "--ternary-len", "-5"],
     "enumeration length -1 is negative"),
    (["check", "SAMPLE", "--ternary-len", "-5"], "enumeration length -5 is negative"),
    (["audit", "--ternary-len", "-3"], "enumeration length -3 is negative"),
    (["condp", "transfer", "--count", "0"], "a sweep of 0 instances"),
    (["condp", "transfer", "--max-order", "0"], "survey order cap 0 is below one"),
    (["audit", "--budget", "-1"], "search budget -1 is negative"),
    (["lift", "SAMPLE", "--algorithm", "pullback-section", "--ternary-len", "-1"],
     "enumeration length -1 is negative"),
    (["check", "SAMPLE", "--word-len", "13"], "enumeration length 13 exceeds cap 12"),
    (["check", "SAMPLE", "--ternary-len", "13"], "enumeration length 13 exceeds cap 12"),
    (["audit", "--quick", "--ternary-len", "13"], "enumeration length 13 exceeds cap 12"),
    (["condp", "transfer", "--max-order", "2048"],
     "survey order cap 2048 exceeds the dense-table cap 1024"),
])
def test_bad_numbers_are_input_errors(argv, message, sample, tmp_path, capsys):
    """Nothing checked on an empty range, and no budget exhaustion below zero."""
    rep_path = tmp_path / "bad.json"
    argv = [sample if a == "SAMPLE" else a for a in argv]
    assert main(argv + ["--json", str(rep_path)]) == 2
    assert message in capsys.readouterr().err
    rep = json.loads(rep_path.read_text())
    assert rep["exit_code"] == 2 and rep["ok"] is False and rep["results"] is None
    assert rep["error"].startswith("input error: ")

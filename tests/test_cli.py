import gc
import json
from pathlib import Path

import pytest

from xmodkit import groups
from xmodkit.cli import main
from xmodkit.defs import parse_definitions, load_definitions, tokenize_names
from xmodkit.errors import DefinitionError, InvariantBreach
from xmodkit.groups import find_isomorphism, symmetric_group

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
    cases = [
        ("junk\n", "line 1"),
        ("[widget W]\n", "line 1: unknown section kind"),
        ("[group G]\nperms: (1 2)\n", "missing the 'degree'"),
        ("[group G]\nelements: a b\ntable:\n  a b\n  b b\n", "line 3"),
        ("[xmod X]\naction: nope\nboundary: e\n", "line 2: 'nope' is not defined yet"),
        ("[group G]\nelements: a a\ntable:\n  a a\n  a a\n", "line 2"),
        ("[setmap s]\nsource: 2\ntarget: 2\nmap: 0 0\nsection: 0 1\n",
         "line 5: section is not a section"),
        ("[group G]\nelements: e\ntable:\n  e\n\n[group G]\nelements: e\ntable:\n  e\n",
         "line 6: name 'G' is already defined"),
        ("[group G]\nelements: e\ntable:\n  e\nbogus: 1\n", "line 5: key 'bogus'"),
        ("[group G]\nelements: a b\ntable:\n  a b\n  b c\n",
         "line 5: unknown element name 'c' in table row"),
    ]
    for text, frag in cases:
        with pytest.raises(DefinitionError, match=frag.replace("[", r"\[")):
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


def test_commands_leave_no_reference_cycles(capsys):
    """Repeated commands are freed by reference counting: the parser, a web
    of argparse cycles, is built once per process, not once per call."""
    main(["condp", "preservation"])
    gc.collect()
    gc.disable()
    try:
        assert main(["condp", "preservation"]) == 0
        assert main(["condp", "non-schreier", "--seed", "1"]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
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


def test_budget_only_where_searched(sample):
    for argv in (["condp", "non-schreier", "--budget", "1"],
                 ["check", sample, "--budget", "1"],
                 ["pi0", sample, "--budget", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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

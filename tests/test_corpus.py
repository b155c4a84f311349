from collections import Counter

from xmodkit.corpus import (
    axiom_corpus, no_section_fixture, projective_section_corpus,
    pullback_no_section_fixture, pullback_section_corpus, split_ses_corpus,
    sse_morphism_corpus, ternary_fixtures,
)
from xmodkit.lifting import find_xmod_section
from xmodkit.sse import is_regular_epi
from xmodkit.xmod import (
    check_axioms, check_axioms_wordlevel, check_ternary, pi0_preserves_split_ses,
)

from xmod_helpers import compose_morphisms


def test_axiom_corpus_shape():
    entries = axiom_corpus()
    assert len(entries) == 54
    names = [n for n, _, _ in entries]
    assert len(set(names)) == 54
    kinds = Counter(n.split(":")[0] for n in names)
    assert kinds == {"normal": 19, "discrete": 11, "module": 8,
                     "conj": 4, "product": 6, "bad": 6}
    # every listed group of interest shows up among the normal inclusions
    for g in ("S3", "S4", "D4", "Q8"):
        assert any(n.startswith(f"normal:{g}:") for n in names)
    assert all(xm.codomain().order <= 36 for _, xm, _ in entries)


def test_axiom_corpus_flags_match_checkers():
    for name, xm, valid in axiom_corpus():
        elem = check_axioms(xm)
        word = check_axioms_wordlevel(xm, 4)
        assert elem["ok"] == valid, name
        assert word["ok"] == valid, name


def test_violation_counts_frozen():
    counts = {}
    for name, xm, valid in axiom_corpus():
        if not valid:
            r = check_axioms(xm)
            counts[name] = (len(r["equivariance_violations"]),
                            len(r["peiffer_violations"]))
    assert counts == {
        "bad:both:S3-id-trivial-action": (18, 18),
        "bad:peiffer:S3-over-1": (0, 18),
        "bad:peiffer:D4-over-1": (0, 24),
        "bad:equivariance:A3-in-S3-trivial-action": (6, 0),
        "bad:equivariance:Z3-in-Z6-inversion": (6, 0),
        "bad:equivariance:V4-in-D4-trivial-action": (8, 0),
    }


def test_violation_witnesses_recompute():
    for name, xm, valid in axiom_corpus():
        if valid:
            continue
        r = check_axioms(xm)
        G, T = xm.codomain(), xm.domain()
        d = xm.boundary.table
        for gname, tname in r["equivariance_violations"]:
            g, t = G.index_of(gname), T.index_of(tname)
            assert d[xm.action.table[g][t]] != G.conj(g, d[t]), name
        for tname, uname in r["peiffer_violations"]:
            t, u = T.index_of(tname), T.index_of(uname)
            assert xm.action.table[d[t]][u] != T.conj(t, u), name


def test_split_ses_corpus():
    rows = split_ses_corpus()
    assert len(rows) == 30
    for s in rows:
        rep = pi0_preserves_split_ses(s)
        assert rep["ok"]


def test_sse_morphism_corpus_counts():
    mors = sse_morphism_corpus()
    assert len(mors) == 158
    assert sum(1 for m in mors if is_regular_epi(m)) == 44


def test_sse_corpus_sections_are_retracts():
    # whenever a corpus epi splits, the found section really is one
    for m in sse_morphism_corpus():
        if not is_regular_epi(m):
            continue
        s = find_xmod_section(m)
        if s is None:
            continue
        rt = compose_morphisms(m, s)
        n = m.tgt.domain().order
        assert rt.fT.table == tuple(range(n))


def test_projective_corpus_shape():
    pairs = projective_section_corpus()
    assert len(pairs) == 24
    for mor, ext in pairs:
        # epi onto the inclusion pair of ext, surjective on both levels
        assert mor.tgt.domain() is ext.k.source
        assert mor.tgt.codomain() is ext.total
        assert mor.fT.is_surjective() and mor.fG.is_surjective()


def test_no_section_fixture_is_a_real_epi():
    mor, ext = no_section_fixture()
    assert mor.fT.is_surjective() and mor.fG.is_surjective()
    assert mor.tgt.domain() is ext.k.source
    assert mor.fT.kernel_elements == frozenset({0, 1})


def test_pullback_corpus_shape():
    mors = pullback_section_corpus()
    assert len(mors) == 12
    for m in mors:
        assert m.src.boundary.is_injective()
        assert m.tgt.boundary.is_injective()
        assert m.fT.is_surjective() and m.fG.is_surjective()
    fix = pullback_no_section_fixture()
    assert fix.fG.is_surjective()


def test_ternary_fixture_fires_and_controls_stay_clean():
    """Conjugation with the trivial boundary: the ternary law fails on S3 at
    L=10, not on the class-2 controls D4 and Q8, and nowhere at L=8."""
    fixtures = {name.rsplit(":", 1)[1]: (xm, fires)
                for name, xm, fires in ternary_fixtures()}
    assert sorted(fixtures) == ["D4", "Q8", "S3"]
    counts = {}
    for label, (xm, fires) in fixtures.items():
        rep = check_ternary(xm, 10)
        counts[label] = (len(rep["violations"]), rep["words"])
        assert rep["ok"] is not fires
        short = check_ternary(xm, 8)
        assert short["words"] == 1 and short["ok"]  # vacuous: the empty word only
    assert counts == {"S3": (1620, 3751), "D4": (0, 10291), "Q8": (0, 10291)}
    axioms = check_axioms(fixtures["S3"][0])
    assert len(axioms["peiffer_violations"]) == 18
    assert axioms["equivariance_violations"] == []

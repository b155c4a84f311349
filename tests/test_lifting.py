import json

import pytest

from xmodkit import lifting
from xmodkit.cli import main
from xmodkit.defs import load_definitions
from xmodkit.errors import GroupError, InvariantBreach
from xmodkit.groups import (
    GroupHom, compose, cyclic_group, dihedral_group, direct_product,
    enumerate_homs, hom, klein_four_group, symmetric_group, z4_module,
)
from xmodkit.actions import semidirect_product, trivial_action
from xmodkit.xmod import (
    CrossedModule, conjugation_xmod, identity_morphism, inclusion_xmod,
    module_xmod, xmod_from_normal_subgroup,
)
from xmodkit.corpus import (
    no_section_fixture, projective_section_corpus, pullback_no_section_fixture,
    pullback_section_corpus,
)
from xmodkit.lifting import (
    FreeXModMorphism, find_xmod_section, hom_bijection_check,
    inclusion_extension, projective_section, pullback_section,
)
from xmodkit.words import (
    FactorSignature, enumerate_words, format_word, in_flat, single,
)

from word_helpers import WordHom

S3 = symmetric_group(3)
Z2 = cyclic_group(2)
Z4 = cyclic_group(4)

PROJ_EQ_KEYS = (
    "coequalizer-formula", "lifting-over-fG", "equivariant-section-of-fT",
    "section-of-fG", "boundary-square", "equivariance-elementwise",
    "ternary-equivariance",
)
PULL_EQ_KEYS = (
    "induced-cokernel-map", "comparison-surjective", "section-of-cokernel-map",
    "pullback-factorization", "section-of-fG", "section-of-fT",
    "boundary-square", "equivariance-elementwise",
)


def a3_inclusion():
    return xmod_from_normal_subgroup(
        S3, {0, S3.index_of("(1 2 3)"), S3.index_of("(1 3 2)")})


def test_inclusion_round_trip():
    xm = a3_inclusion()
    ext = inclusion_extension(xm)
    back = inclusion_xmod(ext.k)
    assert back.domain() is xm.domain()
    assert back.codomain() is xm.codomain()
    assert back.boundary.table == xm.boundary.table
    assert back.action.table == xm.action.table


def test_inclusion_extension_refusals():
    # zero boundary is not injective
    with pytest.raises(GroupError):
        inclusion_extension(module_xmod(trivial_action(Z2, Z2)))
    # Z2 inside Z4: the cokernel projection has no splitting
    with pytest.raises(GroupError, match="does not split"):
        inclusion_extension(xmod_from_normal_subgroup(Z4, {0, 2}))
    # A3 inside S3 with S3 acting trivially: injective, but not conjugation
    a3 = a3_inclusion()
    fixed = CrossedModule._trusted(trivial_action(a3.codomain(), a3.domain()), a3.boundary)
    with pytest.raises(GroupError, match="not conjugation through the boundary"):
        inclusion_extension(fixed)


def test_projective_corpus_certificates():
    pairs = projective_section_corpus()
    assert len(pairs) == 24
    for mor, ext in pairs:
        cert = projective_section(mor, ext)
        assert cert.ok
        assert cert.status == "success"
        assert tuple(cert.equations) == PROJ_EQ_KEYS
        assert all(cert.equations.values())
        assert cert.detail["base_lifts"] == 1
        sec = cert.section
        # genuine section on both levels
        n, m = mor.tgt.domain().order, mor.tgt.codomain().order
        assert tuple(mor.fT.table[sec.fT.table[p]] for p in range(n)) == tuple(range(n))
        assert tuple(mor.fG.table[sec.fG.table[q]] for q in range(m)) == tuple(range(m))


def test_projective_identity_ternary_depths():
    xm = a3_inclusion()
    ext = inclusion_extension(xm)
    c8 = projective_section(identity_morphism(xm), ext)
    assert c8.detail == {"base_lifts": 1, "ternary_len": 8,
                         "ternary_words": 1, "ternary_brackets": 2}
    c10 = projective_section(identity_morphism(xm), ext, ternary_len=10)
    assert c10.ok
    assert c10.detail["ternary_words"] == 601
    assert c10.detail["ternary_brackets"] == 2


def test_no_section_fixture_proven():
    mor, ext = no_section_fixture()
    cert = projective_section(mor, ext)
    assert cert.status == "no-equivariant-section"
    assert not cert.ok
    assert cert.section is None
    assert cert.detail == {"base_lifts": 2}
    rep = cert.to_json()
    assert rep["status"] == "no-equivariant-section" and rep["ok"] is False
    # the generic fiber search agrees that no section exists at all
    assert find_xmod_section(mor) is None


def test_generic_search_finds_corpus_sections():
    found = 0
    for mor, ext in projective_section_corpus()[:6]:
        sec = find_xmod_section(mor)
        assert sec is not None
        n = mor.tgt.domain().order
        assert tuple(mor.fT.table[sec.fT.table[p]] for p in range(n)) == tuple(range(n))
        found += 1
    assert found == 6


def test_projective_section_precondition_errors():
    xm = a3_inclusion()
    ext = inclusion_extension(xm)
    other = conjugation_xmod(S3)
    with pytest.raises(GroupError):
        projective_section(identity_morphism(other), ext)
    # non-surjective carrier level is refused
    sub = xmod_from_normal_subgroup(S3, {0})
    from xmodkit.xmod import XModMorphism
    inc = XModMorphism(sub, xm,
                       GroupHom(sub.domain(), xm.domain(), (0,)),
                       GroupHom(sub.codomain(), xm.codomain(),
                                tuple(range(6))))
    with pytest.raises(GroupError, match="surjective"):
        projective_section(inc, ext)


def test_pullback_corpus_certificates():
    mors = pullback_section_corpus()
    assert len(mors) == 12
    for mor in mors:
        cert = pullback_section(mor)
        assert cert.ok and cert.status == "success"
        assert tuple(cert.equations) == PULL_EQ_KEYS
        assert cert.equations["comparison-surjective"]
        sec = cert.section
        n, m = mor.tgt.domain().order, mor.tgt.codomain().order
        assert tuple(mor.fT.table[sec.fT.table[p]] for p in range(n)) == tuple(range(n))
        assert tuple(mor.fG.table[sec.fG.table[q]] for q in range(m)) == tuple(range(m))


def test_pullback_fixture_proven():
    cert = pullback_section(pullback_no_section_fixture())
    assert cert.status == "no-cokernel-section"
    assert cert.equations == {"induced-cokernel-map": True,
                              "comparison-surjective": True}
    assert cert.detail == {"cokernel_sections": 0}


def test_pullback_rejects_non_inclusions():
    with pytest.raises(GroupError):
        pullback_section(identity_morphism(module_xmod(trivial_action(Z2, Z2))))


def test_free_morphism_values():
    xm = conjugation_xmod(S3)
    inv = S3.index_of("(1 2)")
    f = hom(Z2, S3, {1: inv})
    g = hom(Z2, S3, {1: inv})
    mor = FreeXModMorphism(Z2, xm, f, g)
    sig = FactorSignature((Z2, Z2))
    # base-slot conjugate of a carrier letter evaluates through the action
    for h in range(2):
        for hp in range(2):
            w = single(sig, 0, h) * single(sig, 1, hp) * single(sig, 0, h).inverse()
            assert mor.carrier_value(w) == xm.action.table[g.table[h]][f.table[hp]]
    rep = mor.verify(6)
    assert rep == {"max_len": 6, "flat_words": 6, "square_violations": [],
                   "unit_ok": True, "equivariance_pairs": 6,
                   "equivariance_violations": [], "ok": True}
    assert mor.letter_pair() == (f.table, g.table)


def test_free_morphism_rejections():
    xm = conjugation_xmod(S3)
    inv = S3.index_of("(1 2)")
    f = hom(Z2, S3, {1: inv})
    mor = FreeXModMorphism(Z2, xm, f, f)
    sig = FactorSignature((Z2, Z2))
    with pytest.raises(GroupError, match="flat"):
        mor.carrier_value(single(sig, 0, 1))
    other = FactorSignature((Z4, Z4))
    with pytest.raises(GroupError, match="signature"):
        mor.base_value(single(other, 0, 1))
    with pytest.raises(GroupError):
        FreeXModMorphism(Z4, xm, f, f)
    g_wrong = hom(Z2, Z2, {1: 1})
    with pytest.raises(GroupError):
        FreeXModMorphism(Z2, xm, f, g_wrong)


def test_carrier_value_refuses_a_word_outside_the_kernel(monkeypatch):
    """A flatness test that passes a non-flat word sends its value outside
    the embedded carrier, which carrier_value must catch."""
    xm = conjugation_xmod(S3)
    f = hom(Z2, S3, {1: S3.index_of("(1 2)")})
    mor = FreeXModMorphism(Z2, xm, f, f)
    monkeypatch.setattr(lifting, "in_flat", lambda w: True)
    with pytest.raises(InvariantBreach) as exc:
        mor.carrier_value(single(FactorSignature((Z2, Z2)), 0, 1))
    assert str(exc.value) == "flat word escaped the embedded kernel"


def test_free_morphism_square_compares_two_routes():
    """The base value walks the copairing [g, d f] and the carrier value the
    action, so a boundary that is not equivariant breaks the square: with the
    trivial action of S3 on itself and d the identity, (1 2)(1 3)(1 2) is
    (2 3) in the base, but the carrier value of that word is (1 3)."""
    raw = CrossedModule._trusted(trivial_action(S3, S3), GroupHom(S3, S3, tuple(range(6))))
    f = hom(Z2, S3, {1: S3.index_of("(1 3)")})
    g = hom(Z2, S3, {1: S3.index_of("(1 2)")})
    mor = FreeXModMorphism(Z2, raw, f, g)
    sig = FactorSignature((Z2, Z2))
    w = single(sig, 0, 1) * single(sig, 1, 1) * single(sig, 0, 1).inverse()
    assert mor.base_value(w) == S3.index_of("(2 3)")
    assert mor.carrier_value(w) == S3.index_of("(1 3)")
    base = WordHom(sig, (g, compose(raw.boundary, f)), S3)
    assert all(mor.base_value(v) == base.evaluate(v) for v in enumerate_words(sig, 4))
    rep = mor.verify(4)
    assert format_word(w) in rep["square_violations"]
    assert not rep["ok"]


def test_free_morphism_walk_matches_the_semidirect_total():
    """The free-object evaluator walks each word once, to a pair of T x| G:
    on every word of length <= 3, for every letter pair of the hom-search
    bijection cases and of Z3 into S3, its base value is the copairing
    [g, d f] and its carrier value, on flat words, the value of the slot
    maps (s g, k f) into the semidirect total read back through k."""
    cases = [(cyclic_group(4), conjugation_xmod(dihedral_group(4))),
             (klein_four_group(), conjugation_xmod(S3)),
             (cyclic_group(3), conjugation_xmod(S3))]
    pairs = 0
    for H, xm in cases:
        ext, sig = semidirect_product(xm.action), FactorSignature((H, H))
        words = enumerate_words(sig, 3)
        for g in enumerate_homs(H, xm.codomain()):
            for f in enumerate_homs(H, xm.domain()):
                pairs += 1
                mor = FreeXModMorphism(H, xm, f, g)
                base = WordHom(sig, (g, compose(xm.boundary, f)), xm.codomain())
                total = WordHom(sig, (compose(ext.s, g), compose(ext.k, f)), ext.total)
                for w in words:
                    assert mor.base_value(w) == base.evaluate(w), w
                    if in_flat(w):
                        assert mor.carrier_value(w) == ext.k.preimage[total.evaluate(w)], w
    assert pairs == 64 + 100 + 9


def test_hom_bijection_frozen_counts():
    r = hom_bijection_check(Z2, conjugation_xmod(S3))
    assert r == {"pairs": 16, "round_trips": 16,
                 "distinct_evaluators": 16, "ok": True}
    from xmodkit.groups import dihedral_group
    r2 = hom_bijection_check(Z4, conjugation_xmod(dihedral_group(4)))
    assert r2["pairs"] == 64 and r2["ok"]
    v4 = direct_product(Z2, cyclic_group(2))[0]
    r3 = hom_bijection_check(v4, a3_inclusion())
    assert r3["ok"]


def test_step_iv_refuses_a_formula_that_is_not_a_hom(monkeypatch):
    """A carrier section that is not a hom makes the coequalizer formula a
    non-hom, which step (iv) must catch through GroupHom's row check."""
    ext = semidirect_product(trivial_action(z4_module(1, 0), z4_module(1, 0)))
    real_lifts = lifting.lifts

    def bent_lifts(p, u, **kwargs):
        for table in real_lifts(p, u, **kwargs):
            # (0, 1, 3, 2) fixes the identity but is not additive on Z/4
            yield (0, 1, 3, 2) if u.source is ext.kernel_group else table

    monkeypatch.setattr(lifting, "lifts", bent_lifts)
    with pytest.raises(InvariantBreach,
                       match="section verification failed: coequalizer-formula"):
        projective_section(identity_morphism(inclusion_xmod(ext.k)), ext)


ROTATIONS_DEFS = """\
[group D4]
degree: 4
perms: (1 2 3 4); (1 3)

[xmod rot]
group: D4
normal: e (1 2 3 4) (1 3)(2 4) (1 4 3 2)

[morphism id]
source: rot
target: rot
fT: e (1 2 3 4) (1 3)(2 4) (1 4 3 2)
fG: e (2 4) (1 2)(3 4) (1 2 3 4) (1 3) (1 3)(2 4) (1 4 3 2) (1 4)(2 3)
"""


def _bent_lifts(change):
    """lifting.lifts with each table it yields replaced by
    change(p, u, table), where that returns a table."""
    real = lifting.lifts

    def bent(p, u, **kwargs):
        for table in real(p, u, **kwargs):
            yield change(p, u, table) or table
    return bent


def _carrier_lift_trivial(mor):
    # the carrier section searched over an identity target becomes trivial:
    # equivariant and a hom, so the coequalizer formula passes, but no section
    return {"lifts": _bent_lifts(lambda p, u, table: (
        (p.source.identity,) * u.source.order if u.source is u.target else None))}


def _carrier_lift_not_a_hom(mor):
    # the carrier section sends the half turn to the identity: still
    # equivariant under inversion, but not a hom, so neither is the formula
    return {"lifts": _bent_lifts(lambda p, u, table: (
        tuple(p.source.identity if u.source.elem_orders[q] == 2 else v
              for q, v in enumerate(table)) if u.source is u.target else None))}


def _routes_disagree(mor):
    real = lifting.ternary_routes

    def bent(xm, *maps):
        routes = real(xm, *maps)
        return lambda w: (routes(w)[0], None) if len(w) else routes(w)
    return {"ternary_routes": bent}


def _pullback_is_the_product(mor):
    def product(f, g):
        P, _, _, p1, p2 = direct_product(f.source, g.source)
        return P, p1, p2
    return {"pullback": product}


def _base_section(change):
    """Bend the base-level section, the one lift over a target that is not
    an identity, by change(table)."""
    return {"lifts": _bent_lifts(lambda p, u, table: (
        change(list(table)) if u.source is not u.target else None))}


def _off_carrier(mor):
    outside = min(set(range(mor.src.codomain().order)) - mor.src.boundary.image_elements)
    return _base_section(lambda t: (outside,) * len(t))


def _carrier_images_swapped(mor):
    k = mor.tgt.boundary.table  # r^2 and r^3 swapped: not additive on Z/4

    def swap(t):
        t[k[2]], t[k[3]] = t[k[3]], t[k[2]]
        return tuple(t)
    return _base_section(swap)


def _base_section_trivial(mor):
    return _base_section(lambda t: (mor.src.codomain().identity,) * len(t))


@pytest.mark.parametrize("algorithm, bend, message", [
    ("projective-section", _carrier_lift_not_a_hom,
     "section verification failed: coequalizer-formula"),
    ("projective-section", _carrier_lift_trivial,
     "section verification failed: equivariant-section-of-fT"),
    ("projective-section", _routes_disagree,
     "ternary audit failed on (0:(1 2 3 4) 1:(1 2 3 4) 0:(1 4 3 2) 1:(1 4 3 2) "
     "2:(1 2 3 4) 1:(1 2 3 4) 0:(1 2 3 4) 1:(1 4 3 2) 0:(1 4 3 2) 2:(1 4 3 2))"),
    ("pullback-section", _pullback_is_the_product,
     "comparison into the pullback must be surjective when the carrier map is"),
    ("pullback-section", _off_carrier, "restriction left the embedded carrier"),
    ("pullback-section", _carrier_images_swapped,
     "carrier restriction is not a homomorphism: "
     "not a homomorphism at ((1 2 3 4),(1 2 3 4))"),
    ("pullback-section", _base_section_trivial,
     "section verification failed: pullback-factorization"),
], ids=["projective-coequalizer-formula", "projective-equations",
        "projective-ternary-audit", "pullback-comparison",
        "pullback-restriction-escapes", "pullback-restriction-not-a-hom",
        "pullback-equations"])
def test_section_checks_fire_on_injected_faults(algorithm, bend, message, tmp_path,
                                                monkeypatch, capsys):
    """Each internal check of the two section constructions raises its own
    InvariantBreach on one injected fault, in the library and through
    `lift` (exit 4, ok false).  The rotations of D4 are the carrier, so the
    base is not commutative and the restriction's witness is a real pair."""
    path = tmp_path / "rot.defs"
    path.write_text(ROTATIONS_DEFS)
    [(_, mor)] = load_definitions(str(path)).of_kind("morphism")
    for attr, value in bend(mor).items():
        monkeypatch.setattr(lifting, attr, value)
    with pytest.raises(InvariantBreach) as exc:
        if algorithm == "projective-section":
            projective_section(mor, inclusion_extension(mor.tgt))
        else:
            pullback_section(mor)
    assert str(exc.value) == message
    rep_path = tmp_path / "rep.json"
    code = main(["lift", str(path), "--algorithm", algorithm, "--json", str(rep_path)])
    assert code == 4
    assert capsys.readouterr().err == f"internal error: {message}\n"
    rep = json.loads(rep_path.read_text())
    assert (rep["ok"], rep["exit_code"], rep["results"]) == (False, 4, None)
    assert rep["error"] == f"internal error: {message}"

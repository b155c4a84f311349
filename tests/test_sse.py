import pytest

from xmodkit.errors import BudgetExhausted, GroupError, InvariantBreach
from xmodkit.groups import (
    GroupHom, cyclic_group, hom, identity_hom, normal_subgroups,
    symmetric_group, trivial_group, trivial_hom, z4_module,
)
from xmodkit.actions import trivial_action
from xmodkit.lifting import find_xmod_lift, find_xmod_section
from xmodkit.xmod import (
    CrossedModule, XModMorphism, conjugation_xmod, identity_morphism,
    xmod_from_normal_subgroup,
)
from xmodkit.sse import (
    enumerate_sse_morphisms, free_cover, is_projective_rel, is_regular_epi,
    total_map,
)

from xmod_helpers import compose_morphisms

Z2 = cyclic_group(2)
Z4 = cyclic_group(4)
S3 = symmetric_group(3)
ONE = trivial_group()


def over_point(M):
    """Crossed module with trivial base: a bare commutative group."""
    return CrossedModule(trivial_action(ONE, M), trivial_hom(M, ONE))


MZ4 = over_point(Z4)
MZ2 = over_point(Z2)
MK4 = over_point(z4_module(0, 2))


def over_base(src, tgt, fT):
    """The morphism with carrier map fT and the identity of src's base."""
    return XModMorphism(src, tgt, fT, identity_hom(src.codomain()))


def mod2_epi():
    return over_base(MZ4, MZ2, GroupHom(Z4, Z2, (0, 1, 0, 1)))


def k4_epi():
    K4 = MK4.domain()
    return over_base(MK4, MZ2,
                     GroupHom(K4, Z2, tuple(int(K4.names[x][0]) for x in range(4))))


def test_sse_morphism_validation():
    # wrong base
    nx = xmod_from_normal_subgroup(
        S3, next(ns for ns in normal_subgroups(S3) if len(ns) == 3))
    with pytest.raises(GroupError):
        over_base(nx, MZ2, trivial_hom(nx.domain(), Z2))
    # non-equivariant carrier map over S3: collapse A3 inside the conjugation
    cx = conjugation_xmod(S3)
    with pytest.raises(GroupError):
        over_base(cx, cx, trivial_hom(S3, S3))


def test_enumerate_sse_morphisms():
    nx = xmod_from_normal_subgroup(
        S3, next(ns for ns in normal_subgroups(S3) if len(ns) == 3))
    cx = conjugation_xmod(S3)
    ms = enumerate_sse_morphisms(nx, cx)
    assert len(ms) == 1  # only the inclusion survives over the fixed base
    assert ms[0].fT.is_injective()
    assert len(enumerate_sse_morphisms(MZ4, MZ2)) == 2
    with pytest.raises(GroupError):
        enumerate_sse_morphisms(nx, MZ2)


def test_identity_and_composition():
    i = identity_morphism(MZ4)
    m = mod2_epi()
    c = compose_morphisms(m, i)
    assert c.fT.table == m.fT.table
    with pytest.raises(GroupError):
        compose_morphisms(m, m)


def test_regular_epi_and_total_map():
    assert is_regular_epi(mod2_epi())
    assert is_regular_epi(k4_epi())
    dbl = over_base(MZ2, MZ4, hom(Z2, Z4, {1: 2}))
    assert not is_regular_epi(dbl)
    tm = total_map(mod2_epi())
    assert tm.is_surjective()
    assert tm.source.order == 4 and tm.target.order == 2


def test_regular_epis_are_over_one_base():
    """A morphism whose base map is not the identity of one shared base is
    refused: an inner automorphism of S3 on its conjugation crossed module,
    and the zero morphism from a point-based module into one over S3."""
    cx = conjugation_xmod(S3)
    g = 1
    inner = GroupHom(S3, S3, tuple(S3.conj(g, x) for x in range(6)))
    assert inner.table != tuple(range(6))
    nx = xmod_from_normal_subgroup(
        S3, next(ns for ns in normal_subgroups(S3) if len(ns) == 3))
    for mor in (XModMorphism(cx, cx, inner, inner),
                XModMorphism(MZ2, nx, trivial_hom(Z2, nx.domain()),
                             trivial_hom(ONE, S3))):
        with pytest.raises(GroupError) as exc:
            is_regular_epi(mor)
        assert str(exc.value) == "morphisms over a base need the same base group"


def test_regular_epi_cross_check_fires_on_a_bent_extension(monkeypatch):
    """is_regular_epi compares carrier surjectivity with that of the total
    map; a target extension swapped for one the total map cannot cover (the
    Klein four-group over the point) must raise, not report."""
    src, tgt = over_point(Z4), over_point(Z2)
    mor = over_base(src, tgt, GroupHom(Z4, Z2, (0, 1, 0, 1)))
    assert tgt.extension is tgt.extension  # built once per crossed module
    assert is_regular_epi(mor)
    monkeypatch.setitem(tgt.__dict__, "extension", MK4.extension)
    with pytest.raises(InvariantBreach) as exc:
        is_regular_epi(mor)
    assert str(exc.value) == (
        "carrier and total surjectivity disagree on a same-base morphism")


def test_section_search_outcomes():
    # Z4 -> Z2 has no multiplicative section at all: proven None
    assert find_xmod_section(mod2_epi()) is None
    # K4 -> Z2 splits
    sec = find_xmod_section(k4_epi())
    assert sec is not None
    assert all(k4_epi().fT.table[sec.fT.table[t]] == t for t in range(2))
    # budget exhaustion is an error, not a verdict
    with pytest.raises(BudgetExhausted):
        find_xmod_section(mod2_epi(), budget=0)
    with pytest.raises(GroupError):
        find_xmod_section(over_base(MZ2, MZ4, hom(Z2, Z4, {1: 2})))


def test_section_respects_the_action():
    # over S3: conjugation xmod covered by itself has the identity section
    cx = conjugation_xmod(S3)
    ident = identity_morphism(cx)
    assert is_regular_epi(ident)
    sec = find_xmod_section(ident)
    assert sec is not None and sec.fT.table == tuple(range(6))


def test_find_xmod_lift():
    epi = mod2_epi()
    # lift the identity on Z2: must fail (that would split the epi)
    ms = enumerate_sse_morphisms(MZ2, MZ2)
    ident = next(m for m in ms if m.fT.table == (0, 1))
    assert find_xmod_lift(epi, ident) is None
    # the trivial morphism always lifts
    triv = next(m for m in ms if m.fT.table == (0, 0))
    v = find_xmod_lift(epi, triv)
    assert v is not None and set(v.fT.table) <= {0, 2}
    with pytest.raises(GroupError):
        find_xmod_lift(epi, identity_morphism(MZ4))  # lands in the wrong object


def test_projectivity_reports():
    assert is_projective_rel(MZ4, [mod2_epi()])["ok"]
    rep = is_projective_rel(MZ2, [mod2_epi()])
    assert not rep["ok"]
    assert rep["failed_epi"] == 0 and rep["failed_morphism"] == 1
    rep2 = is_projective_rel(MK4, [k4_epi()])
    assert rep2["ok"]
    with pytest.raises(GroupError):
        is_projective_rel(MZ2, [over_base(MZ2, MZ4, hom(Z2, Z4, {1: 2}))])


def test_free_cover_certificates():
    for xm, rank, nker in ((MZ2, 1, 2), (MZ4, 1, 1), (MK4, 2, 4)):
        cover = free_cover(xm)
        F = cover.src
        # free of the given rank: one Z/4 per generator of the carrier
        assert F.domain().order == 4 ** rank
        assert F.domain().exponent == 4 and F.action.is_trivial()
        assert len(cover.fT.kernel_elements) == nker
        assert cover.tgt is xm and cover.fG == identity_hom(xm.codomain())
        assert is_regular_epi(cover)
        # the boundary of the free object is the composite through the cover
        assert all(F.boundary.table[r] == xm.boundary.table[cover.fT.table[r]]
                   for r in range(F.domain().order))


def test_free_cover_is_projective():
    rep = is_projective_rel(free_cover(MZ2).src, [mod2_epi(), k4_epi()])
    assert rep["ok"]


def test_free_cover_refusals():
    with pytest.raises(GroupError):
        free_cover(conjugation_xmod(S3))  # nonabelian carrier
    with pytest.raises(GroupError):
        free_cover(over_point(cyclic_group(3)))  # exponent 3

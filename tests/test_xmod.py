import random
from functools import cache

import pytest

from xmodkit.actions import GroupAction
from xmodkit.corpus import axiom_corpus, ternary_fixtures
from xmodkit.errors import GroupError
from xmodkit.groups import (
    GroupHom, cyclic_group, identity_hom, klein_four_group, normal_subgroups,
    symmetric_group, trivial_hom,
)
from xmodkit.actions import action_from_function, trivial_action
from xmodkit.xmod import (
    CrossedModule, XModMorphism, XModSplitSES, check_axioms,
    check_axioms_wordlevel, check_ternary,
    conjugation_xmod, discrete_adjunction_check, discrete_xmod,
    enumerate_xmod_morphisms, identity_morphism, module_xmod,
    morphism_witness, peiffer_witness, pi0, pi0_comparison, pi0_map,
    pi0_preserves_split_ses, pi0_via_coequalizer, precrossed_witness,
    product_split_ses, relabel_xmod, xmod_from_normal_subgroup,
    xmod_kernel, xmod_product,
)

from xmod_helpers import compose_morphisms, wordlevel_reference

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
S3 = symmetric_group(3)


def inversion_module():
    act = action_from_function(Z2, Z3, lambda g, x: x if g == 0 else Z3.inv(x))
    return module_xmod(act)


def a3_in_s3():
    a3 = next(ns for ns in normal_subgroups(S3) if len(ns) == 3)
    return xmod_from_normal_subgroup(S3, a3)


def broken_xmod():
    """Trivial action with the identity boundary on S3: both laws fail."""
    return CrossedModule(trivial_action(S3, S3),
                         GroupHom(S3, S3, tuple(range(6))), check=False)


def test_constructor_validates():
    cx = conjugation_xmod(S3)
    assert check_axioms(cx)["ok"]
    with pytest.raises(GroupError, match="equivariance|Peiffer"):
        CrossedModule(trivial_action(S3, S3), GroupHom(S3, S3, tuple(range(6))))
    # mismatched endpoints
    with pytest.raises(GroupError):
        CrossedModule(trivial_action(Z2, Z3), trivial_hom(Z4, Z2))


def test_elementwise_witnesses():
    bad = broken_xmod()
    assert precrossed_witness(bad.action, bad.boundary) is not None
    assert peiffer_witness(bad.action, bad.boundary) is not None
    rep = check_axioms(bad)
    assert not rep["ok"]
    assert len(rep["equivariance_violations"]) == 18
    assert len(rep["peiffer_violations"]) == 18
    good = a3_in_s3()
    assert precrossed_witness(good.action, good.boundary) is None
    assert peiffer_witness(good.action, good.boundary) is None


def test_wordlevel_checks():
    cx = conjugation_xmod(S3)
    rep = check_axioms_wordlevel(cx, 4)
    assert rep["ok"]
    assert rep["equivariance_words"] == 51
    assert rep["peiffer_words"] == 51
    bad = broken_xmod()
    repb = check_axioms_wordlevel(bad, 4)
    assert not repb["ok"]
    assert len(repb["peiffer_violations"]) == 36
    # elementwise-clean implies wordlevel-clean on every fixture here
    for xm in (a3_in_s3(), inversion_module(), discrete_xmod(S3)):
        assert check_axioms_wordlevel(xm, 4)["ok"]


@cache
def _wordlevel_inputs():
    """Every axiom-corpus entry, the ternary fixtures (Peiffer fails), a
    seeded relabeling of every third of them up to |G|*|T| = 144, and seeded
    one-cell corruptions of the action and of the boundary of those with
    |T| > 2 and |G|*|T| <= 36; the boundary of the first is bent at the
    identity, where the empty word fails."""
    entries = [(name, xm) for name, xm, _ in axiom_corpus() + ternary_fixtures()]
    out, rng = list(entries), random.Random(32)
    for name, xm in entries[::3]:
        T, G = xm.domain(), xm.codomain()
        if T.order * G.order > 144:
            continue  # S4 over itself alone would double the time at L=6
        out.append((name + "'", relabel_xmod(xm, rng.sample(range(T.order), T.order),
                                             rng.sample(range(G.order), G.order))))
    small = [(name, xm) for name, xm in entries
             if xm.domain().order > 2 and xm.domain().order * xm.codomain().order <= 36]
    for i, (name, xm) in enumerate(small):
        T, G = xm.domain(), xm.codomain()
        rows = [list(row) for row in xm.action.table]
        row = rows[rng.randrange(G.order)]
        x, y = rng.sample(range(T.order), 2)
        row[x], row[y] = row[y], row[x]
        out.append((name + ":action", CrossedModule(
            GroupAction(G, T, rows, check=False), xm.boundary, check=False)))
        d = list(xm.boundary.table)
        t = T.identity if i == 0 else rng.randrange(T.order)
        d[t] = (d[t] + 1) % G.order
        out.append((name + ":boundary", CrossedModule(
            xm.action, GroupHom._trusted(T, G, tuple(d)), check=False)))
    return out


@pytest.mark.parametrize("max_len", range(8))
def test_wordlevel_walk_matches_the_enumerating_reference(max_len):
    """The depth-first walk of `check_axioms_wordlevel` returns the dict of
    listing every binary cosmash word and evaluating it (`wordlevel_reference`):
    the same counts and the same violations in the same order.  L=7 runs
    where |G|*|T| <= 100.  At L=4 the inputs fire both laws and the empty
    word."""
    inputs = [(name, xm) for name, xm in _wordlevel_inputs()
              if max_len < 7 or xm.domain().order * xm.codomain().order <= 100]
    reps = []
    for name, xm in inputs:
        reps.append(check_axioms_wordlevel(xm, max_len))
        assert reps[-1] == wordlevel_reference(xm, max_len), name
    if max_len == 4:
        eq, pf = ([v for rep in reps for v in rep[f"{law}_violations"]]
                  for law in ("equivariance", "peiffer"))
        assert "()" in eq and len(eq) > 100 and len(pf) > 100


def test_ternary_checks():
    # below length 10 only the empty word exists, so these are sanity passes
    assert check_ternary(conjugation_xmod(S3), 8) == {
        "max_len": 8, "words": 1, "violations": [], "ok": True}
    # at length 10 the enumeration is nonvacuous and still clean
    rep = check_ternary(inversion_module(), 10)
    assert rep["ok"] and rep["words"] == 121
    rep = check_ternary(a3_in_s3(), 10)
    assert rep["ok"] and rep["words"] == 601


def test_pi0_routes_agree():
    nx = a3_in_s3()
    Q, proj = pi0(nx)
    assert Q.order == 2
    Q2, proj2 = pi0_via_coequalizer(nx)
    assert Q2.order == 2
    iso = pi0_comparison(nx)
    assert iso.is_injective() and iso.is_surjective()
    assert pi0(conjugation_xmod(S3))[0].order == 1
    assert pi0(discrete_xmod(S3))[0].order == 6
    assert pi0(inversion_module())[0].order == 2
    assert pi0_comparison(inversion_module()).is_injective()


def test_pi0_refuses_non_normal_image():
    t = S3.index_of("(1 2)")
    raw = CrossedModule(trivial_action(S3, Z2),
                        GroupHom(Z2, S3, (0, t)), check=False)
    with pytest.raises(GroupError, match="not normal"):
        pi0(raw)


def test_morphisms():
    nx = a3_in_s3()
    cx = conjugation_xmod(S3)
    mors = enumerate_xmod_morphisms(nx, cx)
    assert len(mors) == 10
    mx = inversion_module()
    assert len(enumerate_xmod_morphisms(mx, mx)) == 4
    ident = identity_morphism(mx)
    assert compose_morphisms(ident, ident).fT.table == ident.fT.table
    # killing the actor while keeping the carrier breaks equivariance
    idT = GroupHom(Z3, Z3, (0, 1, 2))
    killG = GroupHom(Z2, Z2, (0, 0))
    with pytest.raises(GroupError):
        XModMorphism(mx, mx, idT, killG)
    assert morphism_witness(mx, mx, idT, killG) == ("equivariance", (1, 1))


def test_pi0_map_functoriality():
    nx = a3_in_s3()
    cx = conjugation_xmod(S3)
    incl = enumerate_xmod_morphisms(nx, cx)[0]
    f = pi0_map(incl)
    assert f.target.order == 1
    mx = inversion_module()
    f2 = pi0_map(identity_morphism(mx))
    assert f2.table == tuple(range(2))


def test_product_and_kernel():
    nx = a3_in_s3()
    mx = inversion_module()
    px, inj1, inj2, proj1, proj2 = xmod_product(nx, mx)
    assert check_axioms(px)["ok"]
    assert px.domain().order == 9 and px.codomain().order == 12
    assert pi0(px)[0].order == 4
    kx, incl = xmod_kernel(proj1)
    assert kx.domain().order == mx.domain().order
    assert kx.codomain().order == mx.codomain().order
    assert check_axioms(kx)["ok"]
    # composite kernel -> product -> first factor is trivial
    comp = compose_morphisms(proj1, incl)
    assert set(comp.fT.table) == {nx.domain().identity}


def test_kernel_refusals_on_pairs_that_break_a_law():
    """Each refusal of xmod_kernel fires on an unchecked pair of maps."""
    K4 = klein_four_group()  # 1 = (0,1) and 2 = (1,0), which the swap exchanges
    swap = module_xmod(action_from_function(Z2, K4, lambda g, x: (0, 2, 1, 3)[x] if g else x))
    # fT kills 1, which the swap moves out of its kernel; fG kills the swap
    moved = XModMorphism(swap, module_xmod(trivial_action(Z2, Z2)),
                         GroupHom(K4, Z2, (0, 0, 1, 1)), trivial_hom(Z2, Z2), check=False)
    with pytest.raises(GroupError, match="kernel is not closed under the action"):
        xmod_kernel(moved)
    # fG is injective, so the boundary of the carrier's nontrivial element,
    # which fT kills, leaves the kernel of fG
    cx = conjugation_xmod(Z2)
    escape = XModMorphism(cx, cx, trivial_hom(Z2, Z2), identity_hom(Z2), check=False)
    with pytest.raises(GroupError, match="boundary does not restrict to the kernels"):
        xmod_kernel(escape)


def test_split_ses_and_pi0_preservation():
    nx = a3_in_s3()
    mx = inversion_module()
    s = product_split_ses(nx, mx)
    rep = pi0_preserves_split_ses(s)
    assert rep["ok"]
    # broken: use the wrong section
    px, inj1, inj2, proj1, proj2 = xmod_product(nx, mx)
    with pytest.raises(GroupError):
        XModSplitSES(inj2, proj1, inj2)


def test_discrete_adjunction():
    nx = a3_in_s3()
    rep = discrete_adjunction_check(nx, Z2)
    assert rep["ok"] and rep["morphisms"] == 2
    rep2 = discrete_adjunction_check(conjugation_xmod(S3), Z4)
    assert rep2["ok"] and rep2["morphisms"] == 1
    rep3 = discrete_adjunction_check(inversion_module(), klein_four_group())
    assert rep3["ok"] and rep3["morphisms"] == 4


def test_relabel_determinism_and_validity():
    nx = a3_in_s3()
    permT = [2, 0, 1]
    permG = [3, 1, 4, 0, 5, 2]
    r1 = relabel_xmod(nx, permT, permG)
    r2 = relabel_xmod(nx, permT, permG)
    assert r1.domain().table == r2.domain().table
    assert r1.boundary.table == r2.boundary.table
    assert check_axioms(r1)["ok"]
    assert pi0(r1)[0].order == 2
    with pytest.raises(GroupError):
        relabel_xmod(nx, [0, 0, 1], permG)

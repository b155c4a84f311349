"""The checks that trusted constructions skip, run on their outputs.

The package validates tables where they enter and builds its own results
with check=False when they are correct by theorem.  Each test here rebuilds
such a result with the validating public constructor, so a construction that
stopped being correct would fail the suite rather than pass silently.
"""
import itertools
import random

import pytest

from xmodkit import condp
from xmodkit.actions import (
    GroupAction, SplitExtension, action_from_extension, conjugation_action,
    conjugation_action_on, semidirect_product, trivial_action,
)
from xmodkit.corpus import (
    axiom_corpus, collapse_epi, projective_section_corpus, split_ses_corpus,
)
from xmodkit.errors import GroupError
from xmodkit.groups import (
    FiniteGroup, GroupHom, MAX_ORDER, cyclic_group, dihedral_group,
    free_module_cover, normal_subgroups, quaternion_group, quotient,
    symmetric_group, z4_module, z4_module_classes,
)
from xmodkit.xmod import CrossedModule, relabel_xmod


def _revalidate(action):
    GroupAction(action.actor, action.carrier, action.table)


def _extensions():
    """Every levelwise extension of the split rows, plus the rank-1 pipeline one."""
    out = []
    for ses in split_ses_corpus():
        out += [ses.ext_T, ses.ext_G]
    out.append(semidirect_product(trivial_action(z4_module(1, 0), z4_module(1, 0))))
    return out


def _corpus_actions():
    actions = [xm.action for _, xm, _ in axiom_corpus()]
    for ses in split_ses_corpus():
        actions += [ses.kappa.src.action, ses.pi.src.action, ses.pi.tgt.action]
    for mor, ext in projective_section_corpus():
        actions += [mor.src.action, mor.tgt.action, action_from_extension(ext)]
    unique = {id(a): a for a in actions}
    return list(unique.values())


def test_levelwise_extensions_of_split_rows_are_split():
    for ses in split_ses_corpus():
        for ext in (ses.ext_T, ses.ext_G):
            SplitExtension(ext.k, ext.p, ext.s)


def test_conjugation_actions_through_extensions():
    for ext in _extensions():
        conj = conjugation_action_on(ext.k)
        _revalidate(conj)
        act = action_from_extension(ext)
        _revalidate(act)
        E, k = ext.total, ext.k.table
        for g in range(ext.base.order):
            sg = ext.s.table[g]
            for x in range(ext.kernel_group.order):
                assert k[act.table[g][x]] == E.conj(sg, k[x])


def test_collapse_epi_actions():
    Z2 = cyclic_group(2)
    for ext in _extensions():
        mor = collapse_epi(ext, Z2)
        _revalidate(mor.src.action)
        _revalidate(mor.tgt.action)


def test_semidirect_products_of_corpus_actions():
    actions = _corpus_actions()
    assert len(actions) > 100
    for action in actions:
        ext = semidirect_product(action)
        FiniteGroup(ext.total.table)
        SplitExtension(ext.k, ext.p, ext.s)


def test_quotient_projections():
    for G in (symmetric_group(4), dihedral_group(4), quaternion_group()):
        for elems in normal_subgroups(G):
            Q, proj = quotient(G, elems)
            GroupHom(G, Q, proj.table)


def test_conjugation_action_of_whole_group():
    for G in (symmetric_group(3), dihedral_group(4), quaternion_group(),
              symmetric_group(4)):
        act = conjugation_action(G)
        _revalidate(act)
        assert act.table == tuple(tuple(G.conj(g, x) for x in range(G.order))
                                  for g in range(G.order))


def _z4_reference(n4, n2):
    """Tables and names of (Z/4)^n4 + (Z/2)^n2 from digit tuples."""
    moduli = (4,) * n4 + (2,) * n2
    digits = list(itertools.product(*(range(m) for m in moduli)))
    idx = {d: i for i, d in enumerate(digits)}
    table = tuple(tuple(idx[tuple((a + b) % m for a, b, m in zip(da, db, moduli))]
                        for db in digits) for da in digits)
    names = tuple("".join(map(str, d)) for d in digits) if moduli else ("0",)
    return table, names


@pytest.mark.parametrize("n4, n2", z4_module_classes(256) + [(5, 0)])
def test_z4_module_matches_digit_tuples(n4, n2):
    M = z4_module(n4, n2)
    table, names = _z4_reference(n4, n2)
    assert M.table == table
    assert M.names == names
    assert M.identity == 0
    assert M.label == f"M(4^{n4}.2^{n2})"
    FiniteGroup(M.table)


def test_z4_module_refuses_above_cap():
    with pytest.raises(GroupError, match=f"exceeds cap {MAX_ORDER}"):
        z4_module(5, 1)
    with pytest.raises(GroupError, match=f"exceeds cap {MAX_ORDER}"):
        z4_module(0, 11)


def _revalidate_xmod(xm):
    T = FiniteGroup(xm.domain().table)
    G = FiniteGroup(xm.codomain().table)
    act = GroupAction(G, T, xm.action.table)
    CrossedModule(act, GroupHom(T, G, xm.boundary.table))


def _seeded_relabel(xm, seed):
    rng = random.Random(seed)
    pT = list(range(xm.domain().order))
    pG = list(range(xm.codomain().order))
    rng.shuffle(pT)
    rng.shuffle(pG)
    return relabel_xmod(xm, pT, pG)


def test_relabel_xmod_of_valid_corpus():
    valid = [xm for _, xm, ok in axiom_corpus() if ok]
    assert len(valid) > 30
    for i, xm in enumerate(valid):
        _revalidate_xmod(_seeded_relabel(xm, i))


@pytest.mark.parametrize("seed", [1, 3, 5])
def test_relabel_xmod_of_non_schreier_demo(seed, monkeypatch):
    made = []

    def recording_relabel(*args):
        made.append(relabel_xmod(*args))
        return made[-1]

    monkeypatch.setattr(condp, "relabel_xmod", recording_relabel)
    assert condp.non_schreier_demo(relabel_seed=seed)["relabel_matches"]
    assert [(xm.domain().order, xm.codomain().order) for xm in made] == [(16, 64)]
    _revalidate_xmod(made[0])


@pytest.mark.parametrize("n4, n2", [
    c for c in z4_module_classes(MAX_ORDER) if 4 ** sum(c) <= MAX_ORDER])
def test_free_module_cover_is_a_surjective_hom(n4, n2):
    M = z4_module(n4, n2)
    R, epi = free_module_cover(M)
    assert R.order == 4 ** len(M.generators)
    GroupHom(R, M, epi.table)
    assert epi.is_surjective()

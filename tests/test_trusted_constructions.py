"""The checks that trusted constructions skip, run on their outputs.

The package validates tables where they enter and builds its own results
with check=False when they are correct by theorem.  Each test here rebuilds
such a result with the validating public constructor, so a construction that
stopped being correct would fail the suite rather than pass silently.

The dense tables are built and checked a row at a time.  The per-cell
formulas they replaced are kept here as references, and the row-level
builders and checks must agree with them cell for cell, witness for witness.
"""
import itertools
import random

import pytest

from xmodkit import condp, lifting
from xmodkit.actions import (
    GroupAction, SplitExtension, action_from_extension, action_from_function,
    conjugation_action,
    conjugation_action_on, semidirect_product, trivial_action,
)
from xmodkit.corpus import (
    axiom_corpus, collapse_epi, projective_section_corpus, split_ses_corpus,
    ternary_fixtures,
)
from xmodkit.errors import GroupError, InvariantBreach
from xmodkit.groups import (
    FiniteGroup, GroupHom, MAX_ORDER, _cycle_notation, alternating_group,
    cyclic_group, dihedral_group, direct_product, enumerate_homs,
    free_module_cover, identity_hom, klein_four_group, normal_subgroups,
    quaternion_group, quotient, subgroup, symmetric_group, trivial_group,
    trivial_hom, z4_module, z4_module_classes,
)
from xmodkit.xmod import (
    CrossedModule, check_axioms, equivariance_failures, identity_morphism,
    morphism_witness, pi0, relabel_xmod,
)


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


@pytest.mark.parametrize("n4, n2", z4_module_classes(256) + [(5, 0), (4, 2), (0, 10)])
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


def test_relabeling_keeps_verdicts_and_counts():
    """Relabeled corpus entries keep their axiom verdicts, pi0 and hom counts.

    Section status is left out: the no-section fixture's failing step
    depends on which splitting `inclusion_extension` finds first, a known
    defect, so it is not yet a function of the isomorphism class.
    """
    def outcome(xm, valid):
        rep = check_axioms(xm)
        return (rep["ok"], len(rep["equivariance_violations"]),
                len(rep["peiffer_violations"]),
                pi0(xm)[0].order if valid else None,
                len(enumerate_homs(xm.domain(), xm.codomain())))

    entries = axiom_corpus()
    assert len(entries) == 54  # 162 relabels
    for name, xm, valid in entries:
        before = outcome(xm, valid)
        assert before[0] == valid, name
        for seed in (1, 2, 3):
            assert outcome(_seeded_relabel(xm, seed), valid) == before, (name, seed)


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


def test_projective_section_reads_the_extension_action(monkeypatch):
    """The action of the base on the kernel that `projective_section` reads
    off its target equals the one rebuilt from the extension, on the section
    corpus and on the three kernel-rank-2 pipelines."""
    reads = []
    real = lifting.inclusion_base_action

    def recording(xm, ext):
        reads.append((ext, real(xm, ext)))
        return reads[-1][1]

    pairs = projective_section_corpus()  # built before the recorder goes in
    monkeypatch.setattr(lifting, "inclusion_base_action", recording)
    for epi, ext in pairs:
        assert lifting.projective_section(epi, ext).ok
    for s in ((0,), (1,), (2,)):
        rep = condp.pipeline_diagram_P((0, 0, 0), s)
        assert rep["sizes"]["kernel_rank"] == 2 and rep["ok"]
    # one read per call: the identity and collapse epis of each pipeline
    assert len(reads) == len(pairs) + 6
    for ext, psi in reads:
        assert tuple(psi) == action_from_extension(ext).table


# -- row-level builders and checks against their per-cell references ---------


def _semidirect_reference(action):
    """(x1,g1)(x2,g2) = (x1 g1.x2, g1 g2), one cell at a time."""
    X, G = action.carrier, action.actor
    n, m = X.order, G.order
    table = [[0] * (n * m) for _ in range(n * m)]
    for x1 in range(n):
        for g1 in range(m):
            row = table[x1 * m + g1]
            for x2 in range(n):
                base = X.table[x1][action.table[g1][x2]] * m
                for g2 in range(m):
                    row[x2 * m + g2] = base + G.table[g1][g2]
    return tuple(map(tuple, table))


def _transfer_sweep_actions():
    """Every trivial action the transfer sweep's free and mixed rows can draw."""
    free = [(z4_module(b, 0), z4_module(k, 0)) for b in range(3) for k in range(1, 4)]
    mixed = [(z4_module(b4, b2), z4_module(k4, k2))
             for b4 in range(2) for b2 in range(1, 3)
             for k4 in range(3) for k2 in range(2)]
    return [trivial_action(base, kern) for base, kern in free + mixed]


def test_semidirect_product_matches_per_cell_formula():
    actions = _corpus_actions()
    actions += [xm.action for _, xm, _ in ternary_fixtures()]
    sweep = _transfer_sweep_actions()
    assert max(a.actor.order * a.carrier.order for a in sweep) == MAX_ORDER
    for action in actions + sweep:
        assert semidirect_product(action).total.table == _semidirect_reference(action)


def test_conjugation_action_on_matches_conj():
    embeddings = [ext.k for ext in _extensions()]
    for G in (symmetric_group(4), dihedral_group(4), quaternion_group()):
        embeddings += [subgroup(G, elems)[1] for elems in normal_subgroups(G)]
    for emb in embeddings:
        G, image = emb.target, emb.table
        lookup = {y: h for h, y in enumerate(image)}
        expected = tuple(tuple(lookup[G.conj(g, y)] for y in image)
                         for g in range(G.order))
        assert conjugation_action_on(emb).table == expected


def test_conjugation_action_on_refuses_non_normal_image():
    S3 = symmetric_group(3)
    swap = next(x for x in range(6) if S3.elem_orders[x] == 2)
    _, incl = subgroup(S3, [S3.identity, swap])
    with pytest.raises(GroupError, match="not a normal subgroup"):
        conjugation_action_on(incl)


def _cover_reference(M, R):
    """Each cover element by its digit name, decoded one power at a time."""
    out = []
    for name in R.names:
        acc = M.identity
        for g, ch in zip(M.generators, name):
            acc = M.mul(acc, M.power(g, int(ch)))
        out.append(acc)
    return tuple(out)


def test_free_module_cover_matches_per_element_decode():
    free = {}
    classes = [c for c in z4_module_classes(MAX_ORDER) if 4 ** sum(c) <= MAX_ORDER]
    for n4, n2 in classes:
        M = z4_module(n4, n2)
        R, epi = free_module_cover(M, free)
        assert epi.table == _cover_reference(M, R)
        assert free[len(M.generators)] is R  # shared by later calls
    assert sorted(free) == [0, 1, 2, 3, 4, 5]
    R, _ = free_module_cover(z4_module(1, 0))
    assert R is not free[1]  # without a shared dict, nothing is kept


def test_free_module_cover_refuses_a_non_generating_sequence():
    M = z4_module(1, 1)
    M.__dict__["generators"] = (M.index_of("10"),)  # spans only the Z/4 factor
    with pytest.raises(InvariantBreach) as exc:
        free_module_cover(M)
    assert str(exc.value) == "generator decode failed to cover the module"


def _hom_law_reference(source, target, table):
    """GroupHom's error text from the per-cell hom law, or None."""
    if table[source.identity] != target.identity:
        return "map does not preserve the identity"
    for a in range(source.order):
        for b in range(source.order):
            if table[source.table[a][b]] != target.table[table[a]][table[b]]:
                return f"not a homomorphism at ({source.names[a]},{source.names[b]})"
    return None


def _hom_law_fixtures():
    Z2, Z4, Z6 = cyclic_group(2), cyclic_group(4), cyclic_group(6)
    S3, D4, Q8 = symmetric_group(3), dihedral_group(4), quaternion_group()
    S4 = symmetric_group(4)
    rng = random.Random(5)
    out = [
        (Z4, Z4, (1, 2, 3, 0)),  # moves the identity
        (Z4, Z2, (0, 1, 1, 0)),
        (Z6, Z2, (0, 1, 0, 1, 1, 1)),
        (S3, S3, tuple(S3.inv(x) for x in range(6))),  # inversion
        (D4, Z2, tuple(int(D4.elem_orders[x] == 4) for x in range(8))),
        (S4, S3, (S3.identity,) * 23 + (1,)),
    ]
    for G in (S3, D4, Q8):
        for _ in range(3):
            vals = [G.identity] + [rng.randrange(G.order) for _ in range(G.order - 1)]
            out.append((G, G, tuple(vals)))
    # and maps that are homs, which must pass; swapping i and j in Q8 (so
    # k goes to -k) is an automorphism
    out += [(G, G, identity_hom(G).table) for G in (S3, D4, Q8, S4)]
    out.append((Q8, Q8, (0, 1, 4, 5, 2, 3, 7, 6)))
    out += [(S4, Z2, trivial_hom(S4, Z2).table), (Z6, Z2, (0, 1) * 3)]
    return out


def test_hom_law_error_text_matches_per_cell_loop():
    failures = 0
    for source, target, table in _hom_law_fixtures():
        expected = _hom_law_reference(source, target, table)
        if expected is None:
            GroupHom(source, target, table)
            continue
        failures += 1
        with pytest.raises(GroupError) as exc:
            GroupHom(source, target, table)
        assert str(exc.value) == expected
    assert failures >= 5


def _equivariance_reference(action, boundary):
    G, d = action.actor, boundary.table
    return [(g, t) for g in range(G.order) for t in range(action.carrier.order)
            if d[action.table[g][t]] != G.conj(g, d[t])]


def test_equivariance_failures_match_per_cell_loop():
    entries = axiom_corpus() + ternary_fixtures()
    failing = 0
    for _, xm, _ in entries:
        expected = _equivariance_reference(xm.action, xm.boundary)
        assert list(equivariance_failures(xm.action, xm.boundary)) == expected
        failing += bool(expected)
    assert failing >= 4


def _morphism_reference(src, tgt, fT, fG):
    for t in range(src.domain().order):
        if tgt.boundary.table[fT.table[t]] != fG.table[src.boundary.table[t]]:
            return ("square", t)
    for g in range(src.codomain().order):
        for t in range(src.domain().order):
            if (fT.table[src.action.table[g][t]]
                    != tgt.action.table[fG.table[g]][fT.table[t]]):
                return ("equivariance", (g, t))
    return None


def test_morphism_witness_matches_per_cell_loop():
    found = set()
    morphisms = [mor for mor, _ in projective_section_corpus()]
    # module crossed modules have trivial boundaries, so killing the actor
    # keeps the square and breaks equivariance wherever the action moves
    morphisms += [identity_morphism(xm) for name, xm, _ in axiom_corpus()
                  if name.startswith("module:")]
    for mor in morphisms:
        src, tgt = mor.src, mor.tgt
        T2, G2 = tgt.domain(), tgt.codomain()
        variants = [
            (mor.fT, mor.fG),
            (trivial_hom(src.domain(), T2), mor.fG),
            (mor.fT, trivial_hom(src.codomain(), G2)),
            (GroupHom(src.domain(), T2, mor.fT.table[::-1], check=False), mor.fG),
        ]
        for fT, fG in variants:
            expected = _morphism_reference(src, tgt, fT, fG)
            assert morphism_witness(src, tgt, fT, fG) == expected
            found.add(expected and expected[0])
    assert found == {None, "square", "equivariance"}


def test_commutative_matches_per_cell_loop():
    groups = [symmetric_group(3), dihedral_group(4), quaternion_group(),
              z4_module(2, 1), cyclic_group(1), semidirect_product(
                  trivial_action(z4_module(1, 0), z4_module(2, 0))).total]
    for G in groups:
        t = G.table
        expected = all(t[a][b] == t[b][a] for a in range(G.order) for b in range(a))
        assert G.commutative == expected


def _associativity_reference(t):
    """The first failing triple (a, b, c) of the n^3 loop, or None."""
    rng_n = range(len(t))
    for a in rng_n:
        ta = t[a]
        for b in rng_n:
            tab = t[ta[b]]
            tb = t[b]
            for c in rng_n:
                if tab[c] != ta[tb[c]]:
                    return (a, b, c)
    return None


def _assert_associativity_verdict(table, refused):
    """FiniteGroup refuses the table exactly when `refused`, naming a triple
    that really fails."""
    if not refused:
        FiniteGroup(table)
        return
    with pytest.raises(GroupError, match="not associative at") as exc:
        FiniteGroup(table)
    a, b, c = map(int, str(exc.value).rpartition("(")[2].rstrip(")").split(","))
    assert table[table[a][b]][c] != table[a][table[b][c]], str(exc.value)


def _library_groups_to_order_64():
    Z2, Z4, Q8, D4 = cyclic_group(2), cyclic_group(4), quaternion_group(), dihedral_group(4)
    groups = [trivial_group(), klein_four_group(), Q8]
    groups += [cyclic_group(n) for n in (1, 2, 3, 5, 8, 12, 64)]
    groups += [dihedral_group(n) for n in (3, 4, 5, 8, 16, 32)]
    groups += [symmetric_group(n) for n in range(5)]
    groups += [alternating_group(n) for n in range(6)]
    groups += [z4_module(n4, n2) for n4, n2 in z4_module_classes(64)]
    groups += [direct_product(Q8, Z2)[0], direct_product(D4, Z4)[0],
               direct_product(symmetric_group(4), Z2)[0],
               semidirect_product(action_from_function(
                   Z4, Z4, lambda g, x: (-x) % 4 if g % 2 else x)).total]
    return groups


def _single_swaps(G, rng, count):
    """Tables with two cells of one row swapped, away from the identity, so
    that the identity and the inverses survive and associativity decides."""
    e, n = G.identity, G.order
    out = []
    while len(out) < count:
        r, c1, c2 = (rng.randrange(n) for _ in range(3))
        row = G.table[r]
        if e in (r, c1, c2, row[c1], row[c2]) or c1 == c2:
            continue
        table = [list(x) for x in G.table]
        table[r][c1], table[r][c2] = row[c2], row[c1]
        out.append(tuple(map(tuple, table)))
    return out


def _group_by_loop(G, loop, group_first):
    """G x loop, the law failing only where loop elements meet.  With
    `group_first` the pair (a, b) sits at index b*|G| + a, so the first
    generators found span G x 1, where the law holds; otherwise at a*n + b,
    so the last ones do."""
    m, n = G.order, len(loop)
    pairs = [(a, b) for b in range(n) for a in range(m)]
    if not group_first:
        pairs.sort()
    idx = {p: i for i, p in enumerate(pairs)}
    return tuple(tuple(idx[G.table[a][c], loop[b][d]] for c, d in pairs) for a, b in pairs)


def test_associativity_matches_the_triple_loop():
    rng = random.Random(11)
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))  # smallest nonassociative loop
    tables = [loop] + [
        _group_by_loop(G, loop, group_first) for group_first in (True, False)
        for G in (cyclic_group(2), cyclic_group(4), symmetric_group(3), klein_four_group())]
    groups = _library_groups_to_order_64()
    for G in groups:
        tables.append(G.table)
        if G.order >= 4:
            tables += _single_swaps(G, rng, 3)
    refused = 0
    for table in tables:
        fails = _associativity_reference(table) is not None
        refused += fails
        _assert_associativity_verdict(table, fails)
    assert refused == len(tables) - len(groups)  # every group, and nothing else, passes


def test_associativity_decided_at_order_1024():
    t = [list(row) for row in cyclic_group(1024).table]
    t[5][7], t[5][11] = t[5][11], t[5][7]
    _assert_associativity_verdict(t, True)
    rng = random.Random(5)
    for G in (z4_module(5, 0), z4_module(0, 10)):
        FiniteGroup(G.table)
        _assert_associativity_verdict(_single_swaps(G, rng, 1)[0], True)


def _permutation_reference(perms, degree):
    """from_permutations' table and names, composing per point."""
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(p) for p in perms]
    while frontier:
        new = []
        for p in frontier:
            for q in gens:
                for r in (tuple(p[q[i]] for i in range(degree)),
                          tuple(q[p[i]] for i in range(degree))):
                    if r not in elems:
                        elems.add(r)
                        new.append(r)
        frontier = new
    order = sorted(elems)
    idx = {p: i for i, p in enumerate(order)}
    table = tuple(tuple(idx[tuple(p[q[i]] for i in range(degree))] for q in order)
                  for p in order)
    return table, tuple(_cycle_notation(p) for p in order)


def test_from_permutations_matches_per_point_composition():
    def rot_flip(n):
        return [tuple(range(1, n)) + (0,), tuple((n - i) % n for i in range(n))]

    cases = [([(1, 0, 2, 3), (1, 2, 3, 0)], 4, symmetric_group(4)),
             ([(1, 2, 0, 3), (0, 2, 3, 1)], 4, alternating_group(4)),
             (rot_flip(16), 16, dihedral_group(16)),
             (rot_flip(32), 32, dihedral_group(32))]
    for perms, degree, G in cases:
        table, names = _permutation_reference(perms, degree)
        assert (G.table, G.names) == (table, names), G.label
    for n in range(3):  # degree 0 composes empty tuples
        assert alternating_group(n).order == 1

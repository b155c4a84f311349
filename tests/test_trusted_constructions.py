"""The checks that trusted constructions skip, run on their outputs.

The package validates tables where they enter and builds its own results
unchecked when they are correct by theorem: groups and homs through
`FiniteGroup._trusted` and `GroupHom._trusted`, which skip every entry
check, and actions, extensions and crossed modules with check=False.  Each
test here rebuilds such a result with the validating public constructor, so
a construction that stopped being correct would fail the suite rather than
pass silently.

The dense tables are built and checked a row at a time.  The per-cell
formulas they replaced are kept here as references, and the row-level
builders and checks must agree with them cell for cell, witness for witness.
"""
import itertools
import math
import random
import sys
import tracemalloc

import pytest

from xmodkit import condp, corpus, lifting, xmod
from xmodkit.actions import (
    GroupAction, SplitExtension, action_from_function, conjugation_action,
    conjugation_action_on, core_walker, semidirect_product, trivial_action,
)
from xmodkit.corpus import (
    axiom_corpus, collapse_epi, projective_section_corpus, pullback_section_corpus,
    split_ses_corpus, sse_morphism_corpus, ternary_fixtures,
)
from xmodkit.errors import GroupError, InvariantBreach
from xmodkit.groups import (
    FiniteGroup, GroupHom, MAX_ORDER, _cycle_notation, alternating_group,
    compose, cyclic_group, dihedral_group, direct_product, enumerate_homs, find_isomorphism,
    find_section, first_difference, free_module_cover, gatherer, hom, identity_hom,
    klein_four_group, lifts, normal_closure, normal_subgroups, normality_witness,
    quaternion_group, quotient, subgroup, symmetric_group, trivial_group, trivial_hom,
    z4_module, z4_module_classes, _cosets, _grow, _Rows,
)
from xmodkit.sse import enumerate_sse_morphisms, is_regular_epi, total_map
from xmodkit.words import FactorSignature, single
from xmodkit.xmod import (
    CrossedModule, XModMorphism, check_axioms, check_ternary,
    equivariance_failures, identity_morphism, morphism_witness, peiffer_failures,
    peiffer_witness, pi0, precrossed_witness, relabel_xmod, xmod_product,
)

from action_helpers import action_from_extension, semidirect_route
from word_helpers import commutator, in_ternary_cosmash


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


def test_inclusion_extensions_are_split():
    """`inclusion_extension` builds its extension unchecked; the checked
    constructor accepts every one it returns over the corpora's crossed
    modules, and the rest are refused as non-inclusions or unsplit."""
    xmods = [xm for _, xm, ok in axiom_corpus() if ok]
    xmods += [mor.tgt for mor, _ in projective_section_corpus()]
    xmods += [xm for mor in pullback_section_corpus() for xm in (mor.src, mor.tgt)]
    built = 0
    for xm in {id(xm): xm for xm in xmods}.values():
        try:
            ext = lifting.inclusion_extension(xm)
        except GroupError as exc:
            assert str(exc) in ("inclusion form needs an injective boundary",
                                "cokernel projection of the boundary does not split")
            continue
        SplitExtension(ext.k, ext.p, ext.s)
        built += 1
    assert built == 78


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


def _collapse_epis(monkeypatch):
    """Every `collapse_epi` call of the projective-section corpus, the
    rank-1 and rank-2 pipelines and the non-Schreier demos, as
    (ext, K, morphism) triples."""
    out, real = [], corpus.collapse_epi

    def recording(ext, K):
        out.append((ext, K, real(ext, K)))
        return out[-1][2]

    monkeypatch.setattr(corpus, "collapse_epi", recording)
    monkeypatch.setattr(condp, "collapse_epi", recording)
    projective_section_corpus()
    for f, s in (((0, 0), (0,)), ((0, 0, 0), (0,))):
        assert condp.pipeline_diagram_P(f, s)["materialized"] is not None
    for seed in (None, 1):
        condp.non_schreier_demo(relabel_seed=seed)
    return out


def _recheck_morphism(mor):
    """The checked constructors accept both levels and the pair, and both
    levels are onto."""
    fT, fG = (GroupHom(f.source, f.target, f.table)
              for f in (mor.fT, mor.fG))
    XModMorphism(mor.src, mor.tgt, fT, fG)
    assert len(set(fT.table)) == fT.target.order
    assert len(set(fG.table)) == fG.target.order


def test_collapse_epis_pass_the_morphism_check(monkeypatch):
    """`collapse_epi` builds its morphism unchecked; a one-element bend of
    fG makes the recheck fire."""
    epis = [mor for _, _, mor in _collapse_epis(monkeypatch)]
    assert len(epis) == 16 + 2 + 2 + 4  # the seeded demo also runs relabeled
    assert max(mor.fG.source.order for mor in epis) == MAX_ORDER
    for mor in epis:
        _recheck_morphism(mor)
    rng = random.Random(24)
    for mor in epis:
        fG = mor.fG
        x = rng.randrange(fG.source.order)
        table = fG.table[:x] + (_other(fG.table[x], fG.target.order),) + fG.table[x + 1:]
        bent = XModMorphism(mor.src, mor.tgt, mor.fT,
                            GroupHom._trusted(fG.source, fG.target, table), check=False)
        with pytest.raises(GroupError):
            _recheck_morphism(bent)


def test_collapse_epi_base_map_matches_the_per_element_product(monkeypatch):
    """fG sends e = (q*|K| + k)*|P| + p of the source total to k(q) s(p) in
    the target's own encoding: the table built a block per q matches that
    product taken one element at a time, on every collapse epi up to the
    order-1024 source of the rank-2 pipeline."""
    calls = _collapse_epis(monkeypatch)
    assert max(mor.fG.source.order for _, _, mor in calls) == MAX_ORDER
    for ext, K, mor in calls:
        E, k, s, np = ext.total, ext.k.table, ext.s.table, ext.base.order
        assert mor.fG.table == tuple(E.mul(k[e // np // K.order], s[e % np])
                                     for e in range(mor.fG.source.order))


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
    """Rows are built on first read: a fresh action holds only the rows of
    G's generators, which the normality check read, and every row, read in
    a seeded order, matches G.conj cell by cell, on the library groups to
    order 64 (S3, D4, Q8 and S4 among them) and relabelled copies."""
    rng = random.Random(30)
    library = _library_groups_to_order_64()
    for G in library + [_relabeled(G, seed) for seed, G in enumerate(library)]:
        act = conjugation_action(G)
        assert isinstance(act.table, _Rows) and set(dict.keys(act.table)) == set(G._gens)
        order = rng.sample(range(G.order), G.order)
        assert [act.table[g] for g in order] == [
            tuple(G.conj(g, x) for x in range(G.order)) for g in order], G.label
        assert act.table == tuple(tuple(G.conj(g, x) for x in range(G.order))
                                  for g in range(G.order)), G.label
        _revalidate(act)


def _z4_reference(n4, n2):
    """Tables and names of (Z/4)^n4 + (Z/2)^n2 on mixed-radix ints, first
    digit most significant.  Cell (a, b) is the sum over digit places of
    ((a's digit + b's digit) % modulus) * weight; b runs through the digit
    tuples in index order, as itertools.product yields them, so row a sums,
    cell by cell, the product of each place's m possible values."""
    moduli = (4,) * n4 + (2,) * n2
    weights = [math.prod(moduli[p + 1:]) for p in range(len(moduli))]
    digits = list(itertools.product(*(range(m) for m in moduli)))
    table = tuple(
        tuple(map(sum, itertools.product(*([(d + e) % m * w for e in range(m)]
                                           for d, m, w in zip(da, moduli, weights)))))
        for da in digits)
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


def test_built_tables_read_like_the_tuple_of_their_rows():
    """Products and modules build each row on first read, and read like the
    tuple of every row: == builds and compares every row, not those built
    so far."""
    makers = [lambda: direct_product(symmetric_group(3), cyclic_group(4))[0].table,
              lambda: semidirect_product(action_from_function(
                  cyclic_group(2), cyclic_group(5), lambda g, x: -x % 5 if g else x)).total.table,
              lambda: z4_module(1, 2).table]
    for make in makers:
        ref = tuple(make())
        n = len(ref)
        t = make()
        built = set(dict.keys(t))  # at most the identity's row
        assert len(t) == n and len(built) <= 1
        assert t[3] == ref[3] and t[-1] == ref[-1] and t[-n] == ref[0]
        assert set(dict.keys(t)) == built | {0, 3, n - 1}
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                t[bad]
        with pytest.raises(TypeError, match="read-only"):
            t[1] = ref[1]
        assert list(t) == list(ref)
        t, u = make(), make()
        t[0], u[1]
        assert t == u and t == ref and ref == t and not t != ref
        assert t != list(ref)  # a tuple of rows is no list
        t = make()
        t[0]
        assert t != ref[:-1] + (ref[0],) and ref[:-1] + (ref[0],) != t  # only the last row differs


def test_products_and_modules_build_only_the_rows_they_read():
    """The rank-2 pipeline's order-1024 collapse total builds at most 128 of
    its rows through `collapse_epi` and both section constructions, its
    conjugation action on the order-64 kernel at most 32, and the free cover
    F5 of each five-generator module M at most |M| + 1 through
    `lifting_oracle_z4`: on (Z/2)^5 the search reads the identity's row and
    the rows of all 32 candidates for the first generator, none of order
    two.  Building the rest gives (Z/4)^5 cell for cell, in both tables, as
    the pipeline's actions are trivial and its codes are base-4 digits, and
    the two-gather reference's conjugation rows."""
    Q, P = z4_module(2, 0), z4_module(2, 0)
    ext = semidirect_product(trivial_action(P, Q))
    collapse = collapse_epi(ext, z4_module(1, 0))
    E = collapse.fG.source
    lifting.projective_section(identity_morphism(collapse.tgt), ext)
    lifting.projective_section(collapse, ext)
    assert E.order == MAX_ORDER and len(dict.keys(E.table)) <= 128
    conj = collapse.src.action.table
    assert len(conj) == MAX_ORDER and len(dict.keys(conj)) <= 32
    assert conj == _conjugation_rows_reference(collapse.src.boundary)
    reference = _z4_reference(5, 0)[0]
    assert tuple(E.table) == reference
    for n4 in range(6):
        M, free = z4_module(n4, 5 - n4), {}
        condp.lifting_oracle_z4(M, free)
        assert len(dict.keys(free[5].table)) <= M.order + 1, n4
        assert tuple(free[5].table) == reference


def test_z4_module_refuses_above_cap():
    with pytest.raises(GroupError, match=f"exceeds cap {MAX_ORDER}"):
        z4_module(5, 1)
    with pytest.raises(GroupError, match=f"exceeds cap {MAX_ORDER}"):
        z4_module(0, 11)


@pytest.mark.parametrize("n", [1, 2, 7, 256, 257, 1024])
def test_cyclic_group_matches_per_cell_formula(n):
    """Rows are rotations of one index tuple, so the table and the inverses
    hold exactly n int objects, one per element."""
    G = cyclic_group(n)
    assert G.table == tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    assert G._inv == tuple(-a % n for a in range(n))
    assert len({id(x) for row in G.table + (G._inv,) for x in row}) == n


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


def test_coequalizer_map_is_a_hom_exactly_on_equivariant_entries():
    """pi0_via_coequalizer trusts (t, g) -> d(t) g on T x| G to be a hom, as
    equivariance makes it.  GroupHom's check passes it on every valid corpus
    entry and refuses it on every entry that breaks equivariance."""
    refused = 0
    for name, xm, valid in axiom_corpus():
        total, G, d = xm.extension.total, xm.codomain(), xm.boundary.table
        table = [G.mul(d[e // G.order], e % G.order) for e in range(total.order)]
        if valid:
            GroupHom(total, G, table)
        elif name.startswith(("bad:equivariance:", "bad:both:")):
            with pytest.raises(GroupError, match="not a homomorphism"):
                GroupHom(total, G, table)
            refused += 1
    assert refused == 4


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


def test_audited_bracket_words_are_ternary_cosmash_words(monkeypatch):
    """The bracket words [[e, q], u] over generators that the morphism audit
    builds letter by letter, with no membership test, equal the products of
    single letters through `commutator`, have length 10 and lie in the
    ternary cosmash, on every section of the projective-section corpus and
    of the rank-1 and rank-2 pipelines."""
    words, audits = [], []
    real_routes, real_audit = lifting.ternary_routes, lifting._ternary_morphism_audit

    def recording_routes(xm):
        routes = real_routes(xm)

        def record(w):
            words.append(w)
            return routes(w)
        return record

    def recording_audit(mor, max_len):
        words.clear()
        n, brackets = real_audit(mor, max_len)
        # each audited word goes through the source's routes, then the target's
        audits.append((mor, n, brackets, words[::2]))
        return n, brackets

    pairs = projective_section_corpus()
    monkeypatch.setattr(lifting, "ternary_routes", recording_routes)
    monkeypatch.setattr(lifting, "_ternary_morphism_audit", recording_audit)
    for epi, ext in pairs:
        assert lifting.projective_section(epi, ext).ok
    for f, s in (((0, 0), (0,)), ((0, 0, 0), (0,))):
        assert condp.pipeline_diagram_P(f, s)["materialized"] is not None
    assert len(audits) == len(pairs) + 4
    total = 0
    for mor, n, brackets, audited in audits:
        E, Q = mor.src.codomain(), mor.src.domain()
        sig = FactorSignature((E, Q, Q))
        assert len(audited) == n + brackets
        assert audited[n:] == [
            commutator(commutator(single(sig, 0, e), single(sig, 1, q)), single(sig, 2, u))
            for e in E.generators for q in Q.generators for u in Q.generators]
        for w in audited[n:]:
            assert len(w) == 10 and in_ternary_cosmash(w), w
        total += brackets
    assert total > 0


def test_core_walker_agrees_with_the_semidirect_route(monkeypatch):
    """`ternary_routes` evaluates through `core_walker`, which does not
    check a word's signature: on the axiom corpus every folded word it
    evaluates is over (actor, carrier) of its action and has the same value
    through the semidirect product (`semidirect_route`, which checks the
    signature).  Ternary words run at L=10, the first length with non-empty
    ones, where the carrier has order at most four, and at L=8 elsewhere.
    `check_axioms_wordlevel` walks its words with its own running values,
    not through `core_walker`; the enumerating reference in the tests does,
    and the walk is compared with it.  The walker still refuses a word that
    does not project trivially."""
    seen = []
    real = xmod.core_walker

    def recording(action):
        walk = real(action)

        def record(w):
            seen.append((action, w, walk(w)))
            return seen[-1][2]
        return record

    monkeypatch.setattr(xmod, "core_walker", recording)
    for _, xm, _ in axiom_corpus():
        check_ternary(xm, 10 if xm.domain().order <= 4 else 8)
    assert len(seen) > 40_000
    routes = {}  # by id: every action stays alive in `seen`
    for action, w, value in seen:
        if id(action) not in routes:
            routes[id(action)] = semidirect_route(action)
        assert routes[id(action)](w) == value
    action = seen[-1][0]
    sig = FactorSignature((action.actor, action.carrier))
    with pytest.raises(GroupError, match="does not project trivially"):
        core_walker(action)(single(sig, 0, action.actor.generators[0]))


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
    """A non-normal image is refused when the action is built, with the text
    of the check over every row, also where G's first generator keeps the
    image and only a later one moves it out."""
    S3 = symmetric_group(3)
    swap = next(x for x in range(6) if S3.elem_orders[x] == 2)
    _, incl = subgroup(S3, [S3.identity, swap])
    with pytest.raises(GroupError, match="not a normal subgroup"):
        conjugation_action_on(incl)
    later = 0
    for G in (symmetric_group(4), dihedral_group(8), direct_product(S3, cyclic_group(4))[0]):
        for x in range(G.order):
            N = G.closure([x])
            if normal_closure(G, N) == N:
                continue
            emb = subgroup(G, N)[1]
            expected = _conjugation_rows_reference(emb)
            assert expected == "image of the embedding is not a normal subgroup"
            assert _outcome(conjugation_action_on, emb) == expected
            later += all(G.conj(G._gens[0], y) in N for y in N)
    assert later


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


def _equivariance_reference(action, boundary):
    G, d = action.actor, boundary.table
    return [(g, t) for g in range(G.order) for t in range(action.carrier.order)
            if d[action.table[g][t]] != G.conj(g, d[t])]


def _peiffer_reference(action, boundary):
    T, d = action.carrier, boundary.table
    return [(t, u) for t in range(T.order) for u in range(T.order)
            if action.table[d[t]][u] != T.conj(t, u)]


def test_equivariance_failures_match_per_cell_loop():
    entries = axiom_corpus() + ternary_fixtures()
    failing = 0
    for _, xm, _ in entries:
        expected = _equivariance_reference(xm.action, xm.boundary)
        assert list(equivariance_failures(xm.action, xm.boundary)) == expected
        assert list(peiffer_failures(xm.action, xm.boundary)) == _peiffer_reference(
            xm.action, xm.boundary)
        failing += bool(expected)
    assert failing >= 4


def _endomorphisms(G, rng, count):
    """Up to `count` seeded endomorphisms of G (of order 24 or less), and a
    seeded pick of its automorphisms."""
    if G.order > 24:
        return [], []
    homs = [f.table for f in enumerate_homs(G, G)]
    autos = [f for f in homs if len(set(f)) == G.order]
    return (rng.sample(homs, min(count, len(homs))),
            rng.sample(autos, min(count, len(autos))))


def _law_corruptions(xm, rng):
    """Seeded corruptions of xm that keep an action by automorphisms and a
    hom boundary: the boundary after an endomorphism of the base or before
    one of the carrier, the action read at an endomorphism of the base
    (g -> row a(g)) or carried along an automorphism b of the carrier
    (t -> b(g.b^-1(t))), and the trivial action."""
    T, G, d, act = xm.domain(), xm.codomain(), xm.boundary.table, xm.action.table
    ends_G, _ = _endomorphisms(G, rng, 2)
    ends_T, autos_T = _endomorphisms(T, rng, 2)
    boundaries = [gatherer(d)(a) for a in ends_G] + [gatherer(b)(d) for b in ends_T]
    actions = [[act[a[g]] for g in range(G.order)] for a in ends_G]
    for b in autos_T:
        b_inv = gatherer(sorted(range(T.order), key=b.__getitem__))
        actions.append([gatherer(b_inv(row))(b) for row in act])
    actions.append(trivial_action(G, T).table)
    out = [CrossedModule(xm.action, GroupHom(T, G, table), check=False)
           for table in boundaries]
    return out + [CrossedModule(GroupAction(G, T, table), xm.boundary, check=False)
                  for table in actions]


def test_witnesses_on_generators_match_the_first_per_cell_failure():
    """precrossed_witness and peiffer_witness read only the rows of the
    actor's and the carrier's generators, and give the first failure of the
    per-cell loops, on the corpus crossed modules, seeded relabelings and
    seeded corruptions of both that keep an action and a hom boundary."""
    rng = random.Random(30)
    xmods = [xm for _, xm, _ in axiom_corpus() + ternary_fixtures()]
    xmods += [_seeded_relabel(xm, seed) for seed, xm in enumerate(xmods)]
    cases = list(xmods)
    for xm in xmods:
        cases += _law_corruptions(xm, rng)
    failing = {"equivariance": set(), "peiffer": set()}
    for xm in cases:
        G, T = xm.codomain(), xm.domain()
        expected = next(iter(_equivariance_reference(xm.action, xm.boundary)), None)
        assert precrossed_witness(xm.action, xm.boundary) == expected, xm.label
        if expected is not None:
            failing["equivariance"].add(expected[0] == G._gens[0])
        expected = next(iter(_peiffer_reference(xm.action, xm.boundary)), None)
        assert peiffer_witness(xm.action, xm.boundary) == expected, xm.label
        if expected is not None:
            failing["peiffer"].add(expected[0] == T._gens[0])
    # witnesses at the first generator and at a later one, for both laws
    assert failing == {"equivariance": {True, False}, "peiffer": {True, False}}


def test_witnesses_build_only_generator_rows():
    """On a conjugation action, the witnesses build the rows of the actor's
    generators and of the boundary's values at the carrier's generators."""
    for G in (symmetric_group(4), z4_module(2, 1),
              direct_product(dihedral_group(8), cyclic_group(4))[0]):
        xm = xmod.conjugation_xmod(G)
        assert precrossed_witness(xm.action, xm.boundary) is None
        assert peiffer_witness(xm.action, xm.boundary) is None
        assert set(dict.keys(xm.action.table)) == set(G._gens), G.label


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


# -- inverses, products, subgroups and quotients against per-cell references --


def _inverse_reference(table):
    """FiniteGroup's inverses, or its error text, from one row scan per element."""
    elems = tuple(range(len(table)))
    e = next(x for x in elems if table[x] == elems
             and tuple(row[x] for row in table) == elems)
    inv = []
    for x, row in enumerate(table):
        y = row.index(e) if e in row else None
        if y is None or table[y][x] != e:
            return f"element {x} has no inverse"
        inv.append(y)
    return tuple(inv)


def _relabeled(G, seed, trusted=False):
    """G with its elements renumbered by a seeded permutation, through the
    checked constructor, or with `trusted` through `_trusted`, the identity
    and the inverses carried along the permutation: the checks of the
    relabeled order-1024 groups would slow the suite."""
    n = G.order
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    table = [[0] * n for _ in range(n)]
    names, inverses = [None] * n, [None] * n
    for a in range(n):
        row, new = G.table[a], table[perm[a]]
        for b in range(n):
            new[perm[b]] = perm[row[b]]
        names[perm[a]], inverses[perm[a]] = G.names[a], perm[G._inv[a]]
    if trusted:
        return FiniteGroup._trusted(tuple(map(tuple, table)), perm[G.identity],
                                    tuple(inverses), tuple(names), G.label)
    return FiniteGroup(table, names, label=G.label)


def _groups_to_order_1024():
    """The library groups to order 64 and a seeded relabeling of each, every
    z4_module up to order 1024, Z/1024 and relabeled order-1024 groups."""
    groups = _library_groups_to_order_64()
    groups += [_relabeled(G, seed) for seed, G in enumerate(groups)]
    groups += [z4_module(n4, n2) for n4, n2 in z4_module_classes(MAX_ORDER)]
    Z1024 = cyclic_group(1024)
    groups += [Z1024] + [_relabeled(G, seed, trusted=True) for seed, G in (
        (1, Z1024), (2, z4_module(5, 0)), (3, z4_module(0, 10)))]
    return groups


def _right_closure_gens_reference(G):
    """Each element not yet reached joins the generators, and the subgroup
    grows along right Cayley edges x -> x*s, from every member, until no
    new element appears."""
    t, reached, gens = G.table, {G.identity}, []
    for g in range(G.order):
        if g not in reached:
            gens.append(g)
            frontier = list(reached)
            while frontier:
                x = frontier.pop()
                for s in gens:
                    z = t[x][s]
                    if z not in reached:
                        reached.add(z)
                        frontier.append(z)
    return tuple(gens)


def test_left_walk_gens_match_the_right_closure():
    """`_gens` grows each subgroup by left cosets y*H (`_cosets`), reading
    the generators' and the representatives' rows; both closures give the
    same subgroups, so the same generators."""
    for G in _groups_to_order_1024():
        assert G._gens == _right_closure_gens_reference(G), G.label


def test_trivial_first_level_places_powers_without_reading_their_rows():
    """With H trivial each block of the walk is one power of g: the level
    reads the generator's row alone, and its plan chains g^k = g*g^(k-1)
    with the one check g*g^(n-1) = e."""
    n = 64
    C = direct_product(cyclic_group(n), trivial_group())[0]  # rows built on first read
    members, pos = [C.identity], [None] * n
    pos[C.identity] = 0
    [(g, m, (defines, checks, size))] = _cosets(C.table, members, pos, range(n))
    assert (g, m, size) == (1, 1, n) and members == list(range(n))
    assert defines == [(k, 1, k - 1) for k in range(2, n)]
    assert checks == [(0, 0, 1, n - 1)]
    assert set(dict.keys(C.table)) <= {C.identity, 1}


def test_inverses_match_the_row_scan():
    groups = _groups_to_order_1024()
    for G in groups:
        assert G._inv == _inverse_reference(G.table), G.label
    # one checked order-1024 build: the relabeled (Z/4)^5
    G = groups[-2]
    assert FiniteGroup(G.table, G.names)._inv == _inverse_reference(G.table)


def _within_lines(fn, limit=10_000):
    """fn(), failing once it has run `limit` lines of Python, so that a walk
    that never ends fails the test instead of hanging the suite."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += 1
        if count > limit:
            raise AssertionError(f"still running after {limit} lines")
        return tracer

    sys.settrace(tracer)
    try:
        return fn()
    finally:
        sys.settrace(None)


def _built(table):
    """The inverses of FiniteGroup(table), or the text of its refusal."""
    try:
        return FiniteGroup(table)._inv
    except GroupError as exc:
        return str(exc)


def _identity_cell_moved(G, r):
    """G's table with the identity in row r replaced by r*r, or by r when
    r*r is the identity, so that r or its inverse has no two-sided inverse."""
    table = [list(row) for row in G.table]
    table[r][G.inv(r)] = G.mul(r, r) if G.mul(r, r) != G.identity else r
    return tuple(map(tuple, table))


def test_inverse_errors_match_the_row_scan():
    """A table refused for its inverses gets the row scan's text; one where
    every row holds a two-sided inverse is no group and fails Light's test."""
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))  # smallest nonassociative loop
    # 1^3 = 0, but row 1 holds no identity
    one_sided = ((0, 1, 2), (1, 2, 1), (2, 0, 2))
    # 1*1 = 1, so the powers of 1 never reach the identity, yet every row
    # holds a two-sided inverse
    stuck = ((0, 1, 2), (1, 1, 0), (2, 0, 1))
    stuck_no_inverse = ((0, 1, 2), (1, 1, 2), (2, 2, 0))
    long_cycle = [list(row) for row in cyclic_group(12).table]
    long_cycle[5][1] = 2  # 1, 2, ..., 5, then back to 2
    tables = [loop, one_sided, stuck, stuck_no_inverse, tuple(map(tuple, long_cycle))]
    for G in (symmetric_group(3), dihedral_group(4), quaternion_group(), cyclic_group(8)):
        tables += [_identity_cell_moved(G, r) for r in range(G.order) if r != G.identity]
    refused = 0
    for table in tables:
        expected = _inverse_reference(table)
        got = _within_lines(lambda: _built(table))
        if isinstance(expected, str):
            refused += 1
            assert got == expected, table
        else:
            assert got.startswith("not associative at"), table
    assert refused >= 10
    for table in (loop, stuck, long_cycle):
        assert _within_lines(lambda: _built(table)).startswith("not associative at")


def test_identity_twice_in_a_row_is_refused_as_non_associative():
    """Row 1 holds the identity at 2 and 3.  The scan stops at 2, where
    2*1 != 0, so the table is refused for its inverses before Light's test
    runs, though 3 would be a two-sided inverse of 1."""
    table = ((0, 1, 2, 3), (1, 3, 0, 0), (2, 1, 0, 3), (3, 0, 2, 1))
    assert _inverse_reference(table) == "element 1 has no inverse"
    assert _built(table) == "element 1 has no inverse"
    assert table[1][3] == table[3][1] == 0


def test_walk_places_each_element_once_on_a_table_that_is_not_a_group():
    """a*b = a off the identity's row and column, and a*a = e: every element
    is its own inverse, so only Light's test refuses the table.  Each block
    of the walk meets elements already placed, and placing them again would
    double the members at every level, to 2^63 here."""
    n = 64
    table = tuple(tuple(b if a == 0 else a if b == 0 else 0 if a == b else a
                        for b in range(n)) for a in range(n))
    members, gens = _within_lines(lambda: _grow(table, 0, range(n)), 100_000)
    assert sorted(members) == list(range(n)) and gens == list(range(1, n))
    assert _associativity_reference(table) == (1, 1, 2)
    assert _built(table) == "not associative at (1,1,2)"


def _direct_product_reference(A, B):
    """direct_product's table, names and the tables of i1, i2, p1, p2, per cell."""
    n, m = A.order, B.order
    table = tuple(tuple(A.table[a][a2] * m + B.table[b][b2]
                        for a2 in range(n) for b2 in range(m))
                  for a in range(n) for b in range(m))
    names = tuple(f"({A.names[a]},{B.names[b]})" for a in range(n) for b in range(m))
    homs = (tuple(a * m + B.identity for a in range(n)),
            tuple(A.identity * m + b for b in range(m)),
            tuple(a for a in range(n) for _ in range(m)),
            tuple(b for _ in range(n) for b in range(m)))
    return table, names, homs


def test_direct_products_match_per_cell_formula():
    Z2, Z4, S3, Q8 = cyclic_group(2), cyclic_group(4), symmetric_group(3), quaternion_group()
    factors = [trivial_group(), Z2, S3, Q8, dihedral_group(4), _relabeled(S3, 7),
               _relabeled(Q8, 8)]
    pairs = list(itertools.product(factors, repeat=2))
    pairs += [(z4_module(4, 0), Z4), (Z2, _relabeled(z4_module(4, 1), 9)),
              (cyclic_group(1024), trivial_group()), (symmetric_group(4), S3)]
    for A, B in pairs:
        P, *homs = direct_product(A, B)
        table, names, hom_tables = _direct_product_reference(A, B)
        assert (P.table, P.names, P.label) == (table, names, f"{A.label}x{B.label}")
        assert tuple(f.table for f in homs) == hom_tables
        assert P._inv == _inverse_reference(table)


def test_product_xmod_and_total_map_match_per_cell_formulas():
    """xmod_product's action and boundary and sse.total_map, built from rows
    of pair codes, agree with the per-cell formulas they replaced."""
    valid = [xm for _, xm, ok in axiom_corpus() if ok]
    morphisms = sse_morphism_corpus()
    for a, b in itertools.product(valid[::7], repeat=2):
        if a.extension.total.order * b.extension.total.order > MAX_ORDER:
            continue
        xm, *maps = xmod_product(a, b)
        morphisms += maps  # in and out of the product: two different bases
        mb, nb, na = b.codomain().order, b.domain().order, a.domain().order
        table = []
        for g in range(xm.codomain().order):
            g1, g2 = divmod(g, mb)
            r1, r2 = a.action.table[g1], b.action.table[g2]
            table.append(tuple(r1[t1] * nb + r2[t2]
                               for t1 in range(na) for t2 in range(nb)))
        assert xm.action.table == tuple(table)
        assert xm.boundary.table == tuple(
            a.boundary.table[t1] * mb + b.boundary.table[t2]
            for t1 in range(na) for t2 in range(nb))
    for mor in morphisms:
        m1, m2 = mor.src.codomain().order, mor.tgt.codomain().order
        assert total_map(mor).table == tuple(
            mor.fT.table[e // m1] * m2 + mor.fG.table[e % m1]
            for e in range(mor.src.extension.total.order))


def test_direct_product_refuses_over_cap_before_building():
    M, Z2 = z4_module(5, 0), cyclic_group(2)
    tracemalloc.start()
    try:
        with pytest.raises(GroupError) as exc:
            direct_product(M, Z2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"product order 2048 exceeds cap {MAX_ORDER}"
    assert peak < 1_000_000  # the 2048 x 2048 table alone is 4M cells


def test_semidirect_product_refuses_over_cap_before_building():
    action = trivial_action(z4_module(5, 0), cyclic_group(2))
    tracemalloc.start()
    try:
        with pytest.raises(GroupError) as exc:
            semidirect_product(action)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"semidirect product order 2048 exceeds cap {MAX_ORDER}"
    assert peak < 1_000_000  # the 2048 x 2048 table alone is 4M cells


def _subgroup_reference(G, elems):
    """subgroup's table, names and inclusion, or its error text, per cell."""
    elems = sorted(set(elems))
    es = set(elems)
    if G.identity not in es:
        return "subgroup must contain the identity"
    for a in elems:
        for b in elems:
            if G.table[a][b] not in es:
                return f"subset not closed: {G.names[a]}*{G.names[b]} escapes"
    idx = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(idx[G.table[a][b]] for b in elems) for a in elems)
    return table, tuple(G.names[e] for e in elems), tuple(elems)


def _normality_reference(G, elems):
    """normality_witness by conjugating every element by every g."""
    es = set(elems)
    for g in range(G.order):
        for n in es:
            c = G.conj(g, n)
            if c not in es:
                return (g, n, c)
    return None


def _quotient_reference(G, elems):
    """quotient's table, names and projection, or its error text, per cell."""
    sub = _subgroup_reference(G, elems)
    if isinstance(sub, str):
        return sub
    w = _normality_reference(G, elems)
    if w is not None:
        g, n, c = w
        return (f"subset is not normal: {G.names[g]} conjugates {G.names[n]} "
                f"to {G.names[c]} outside it")
    seen, reps = {}, []
    for g in range(G.order):
        if g not in seen:
            reps.append(g)
            for n in set(elems):
                seen[G.table[g][n]] = len(reps) - 1
    table = tuple(tuple(seen[G.table[a][b]] for b in reps) for a in reps)
    names = tuple("[" + G.names[r] + "]" for r in reps)
    return table, names, tuple(seen[g] for g in range(G.order))


def _quotient_via_subgroup_reference(G, elems):
    """quotient's table, names, projection and label, or its error text, from
    the whole subgroup on elems, which validates closedness, and a coset
    gather per row."""
    try:
        S, incl = subgroup(G, elems)
    except GroupError as exc:
        return str(exc)
    w = _normality_reference(G, elems)
    if w is not None:
        g, n, c = w
        return (f"subset is not normal: {G.names[g]} conjugates {G.names[n]} "
                f"to {G.names[c]} outside it")
    coset_of, coset, reps = gatherer(incl.table), [None] * G.order, []
    for g, row in enumerate(G.table):
        if coset[g] is None:
            for c in coset_of(row):
                coset[c] = len(reps)
            reps.append(g)
    at_reps = gatherer(reps)
    table = tuple(gatherer(at_reps(G.table[a]))(coset) for a in reps)
    names = tuple("[" + G.names[r] + "]" for r in reps)
    return table, names, tuple(coset), f"{G.label}/{S.order}"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GroupError as exc:
        return str(exc)


def _assert_subgroup_and_quotient_match(G, elems):
    expected = _subgroup_reference(G, elems)
    got = _outcome(subgroup, G, elems)
    if isinstance(expected, str):
        assert got == expected
    else:
        S, incl = got
        assert (S.table, S.names, incl.table) == expected
        assert S.label == f"{G.label}_sub{S.order}"
        assert S._inv == _inverse_reference(S.table)
    assert normality_witness(G, elems) == _normality_reference(G, elems)
    expected = _quotient_reference(G, elems)
    via_subgroup = _quotient_via_subgroup_reference(G, elems)
    got = _outcome(quotient, G, elems)
    if isinstance(expected, str):
        assert got == expected == via_subgroup
        return expected
    Q, proj = got
    assert (Q.table, Q.names, proj.table) == expected
    assert (Q.table, Q.names, proj.table, Q.label) == via_subgroup
    assert Q.label == f"{G.label}/{len(set(elems))}"
    assert Q._inv == _inverse_reference(Q.table)
    return None


def test_subgroups_and_quotients_match_per_cell_references():
    rng = random.Random(13)
    S3, Z2 = symmetric_group(3), cyclic_group(2)
    groups = [S3, dihedral_group(4), quaternion_group(), alternating_group(4),
              symmetric_group(4), direct_product(S3, Z2)[0], cyclic_group(12)]
    groups += [_relabeled(G, seed) for seed, G in enumerate(groups)]
    refusals = []
    for G in groups:
        closed = {G.closure((x, y)) for x in range(G.order) for y in range(x, G.order)}
        subsets = sorted(map(sorted, closed))
        for _ in range(12):  # subsets that are not closed, or lack the identity
            subsets.append(rng.sample(range(G.order), rng.randrange(1, G.order)))
        for elems in subsets:
            refusals.append(_assert_subgroup_and_quotient_match(G, elems))
    kinds = {r and r.split(":")[0] for r in refusals}
    assert kinds == {None, "subset not closed", "subset is not normal",
                     "subgroup must contain the identity"}


def test_quotients_of_order_1024_match_per_cell_references():
    M, Z1024 = z4_module(5, 0), cyclic_group(1024)
    doubles = [x for x in range(M.order) if set(M.names[x]) <= {"0", "2"}]
    for G, elems in ((M, doubles), (Z1024, range(0, 1024, 4)),
                     (_relabeled(Z1024, 4, trusted=True), [0, 1])):
        _assert_subgroup_and_quotient_match(G, elems)


# -- laws decided on a generating set against their full loops ----------------
#
# The hom law, a morphism's equivariance, normality of a conjugation image,
# normal closures, commutativity and element orders are decided on
# generators or short walks; the loops they replaced are kept here, and
# verdicts, tables and error texts must agree, witness for witness.


def _elem_orders_reference(G):
    """Each element's order from its own walk of powers."""
    out = []
    for x in range(G.order):
        k, y = 1, x
        while y != G.identity:
            y = G.table[y][x]
            k += 1
        out.append(k)
    return tuple(out)


def test_elem_orders_match_the_per_element_walk():
    for G in _groups_to_order_1024():
        assert G.elem_orders == _elem_orders_reference(G), G.label


def _central_first_products():
    """Nonabelian products whose first generator is central, so that only a
    later pair of generators fails to commute."""
    return [direct_product(symmetric_group(3), cyclic_group(2))[0],
            direct_product(quaternion_group(), cyclic_group(4))[0],
            direct_product(dihedral_group(4), z4_module(2, 0))[0]]


def test_commutative_matches_per_cell_loop():
    """The verdict from generator pairs matches the transpose of the table,
    and on groups to order 64 the loop over every pair."""
    groups = _groups_to_order_1024() + _central_first_products()
    groups.append(semidirect_product(trivial_action(z4_module(1, 0), z4_module(2, 0))).total)
    verdicts = set()
    for G in groups:
        t = G.table
        expected = tuple(zip(*t)) == t
        if G.order <= 64:
            assert expected == all(t[a][b] == t[b][a] for a in range(G.order) for b in range(a))
        assert G.commutative == expected, G.label
        verdicts.add(expected)
    assert verdicts == {True, False}


def _hom_law_rows_reference(source, target, table):
    """GroupHom's error text from the hom law on every row, or None."""
    if table[source.identity] != target.identity:
        return "map does not preserve the identity"
    through_f = gatherer(table)
    for a, row in enumerate(source.table):
        lhs, rhs = gatherer(row)(table), through_f(target.table[table[a]])
        if lhs != rhs:
            b = first_difference(lhs, rhs)
            return f"not a homomorphism at ({source.names[a]},{source.names[b]})"
    return None


def _farthest(G):
    """The last element that the Cayley closure over every element reaches."""
    return _grow(G.table, G.identity, range(G.order))[0][-1]


def _bent(table, x, value):
    """table with the value at x replaced."""
    return tuple(value if i == x else v for i, v in enumerate(table))


def _products_of_non_commuting_maps():
    """(a, b) -> phi(a) psi(b) and psi(b) phi(a) from Z2 x Z2 to S3, phi and
    psi onto two transpositions: each map keeps the law on the rows of one
    factor's generator and breaks it on the other's."""
    V4, S3 = direct_product(cyclic_group(2), cyclic_group(2))[0], symmetric_group(3)
    t1, t2 = [x for x in range(6) if S3.elem_orders[x] == 2][:2]
    pairs = [(t1 if a else S3.identity, t2 if b else S3.identity)
             for a in range(2) for b in range(2)]  # index a*2 + b
    return [(V4, S3, tuple(S3.mul(x, y) for x, y in pairs)),
            (V4, S3, tuple(S3.mul(y, x) for x, y in pairs))]


def test_hom_law_error_text_matches_per_cell_loop():
    """Homs pass; maps bent at the element farthest from the generators, and
    the fixtures, fail with the first (a, b) of the row loop and of the
    per-cell loop."""
    Z2 = cyclic_group(2)
    cases = _hom_law_fixtures() + _products_of_non_commuting_maps()
    for G in _groups_to_order_1024():
        if G.order > 1:
            z = _farthest(G)
            cases += [(G, G, identity_hom(G).table),
                      (G, G, _bent(identity_hom(G).table, z, G.identity)),
                      (G, Z2, _bent(trivial_hom(G, Z2).table, z, 1))]
    failures = 0
    for source, target, table in cases:
        expected = _hom_law_rows_reference(source, target, table)
        if source.order <= 64:
            assert expected == _hom_law_reference(source, target, table)
        got = _outcome(GroupHom, source, target, table)
        if expected is None:
            assert isinstance(got, GroupHom), (source.label, got)
        else:
            assert got == expected, source.label
            failures += 1
    assert failures > 200, failures


def _action_laws_reference(actor, carrier, table):
    """GroupAction's error text from the per-cell action laws, or None."""
    G, X = actor, carrier
    ident_row = tuple(range(X.order))
    if table[G.identity] != ident_row:
        return "identity must act as the identity automorphism"
    mulX = X.table
    for g in range(G.order):
        row = table[g]
        if sorted(row) != list(ident_row):
            return f"actor element {G.names[g]} does not act bijectively"
        for x in range(X.order):
            for y in range(X.order):
                if row[mulX[x][y]] != mulX[row[x]][row[y]]:
                    return f"actor element {G.names[g]} does not act by an automorphism"
    for g in range(G.order):
        for h in range(G.order):
            for x in range(X.order):
                if table[G.mul(g, h)][x] != table[g][table[h][x]]:
                    return "action is not compatible with actor multiplication"
    return None


def _corrupted_rows(table, rng):
    """Four corruptions of one action table, each at random rows and cells:
    a swapped pair in a row, a copied row, an overwritten cell, and a row
    read through a random permutation.  A row mapping is read as the tuple
    of its rows."""
    table = tuple(table)
    m, n = len(table), len(table[0])

    def with_row(g, row):
        return table[:g] + (tuple(row),) + table[g + 1:]

    g, h = rng.randrange(m), rng.randrange(m)
    swapped = list(table[g])
    i, j = rng.randrange(n), rng.randrange(n)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    cell = list(table[g])
    cell[rng.randrange(n)] = rng.randrange(n)
    perm = rng.sample(range(n), n)
    return [with_row(g, swapped), with_row(g, table[h]), with_row(g, cell),
            with_row(g, [table[g][p] for p in perm])]


def _non_commuting_involutions():
    """Z2 x Z2 acting on S3 with (a, b) -> c1^a c2^b and c2^b c1^a, c1 and c2
    conjugation by two transpositions: every row is an automorphism, and each
    table is compatible on the rows of one factor's generator only."""
    V4, S3 = direct_product(cyclic_group(2), cyclic_group(2))[0], symmetric_group(3)
    c1, c2 = [tuple(S3.conj(t, x) for x in range(6))
              for t in range(6) if S3.elem_orders[t] == 2][:2]
    ident = tuple(range(6))
    rows = [(c1 if a else ident, c2 if b else ident) for a in range(2) for b in range(2)]
    return [(V4, S3, tuple(tuple(r1[v] for v in r2) for r1, r2 in rows)),
            (V4, S3, tuple(tuple(r2[v] for v in r1) for r1, r2 in rows))]


def test_action_laws_match_per_cell_loops():
    """GroupAction gives the verdict and error text of the per-cell loops on
    every corpus action, on seeded corruptions of each and on actions that
    break compatibility at one generator only; every kind of error text is
    met."""
    rng = random.Random(18)
    kinds = ("identity must act as the identity automorphism", "does not act bijectively",
             "does not act by an automorphism",
             "action is not compatible with actor multiplication")
    cases = _non_commuting_involutions()
    for action in _corpus_actions():
        cases += [(action.actor, action.carrier, t) for t in [action.table] + [
            t for _ in range(3) for t in _corrupted_rows(action.table, rng)]]
    seen = set()
    for G, X, table in cases:
        expected = _action_laws_reference(G, X, table)
        got = _outcome(GroupAction, G, X, table)
        if expected is None:
            assert isinstance(got, GroupAction), (G.label, X.label, got)
        else:
            assert got == expected, (G.label, X.label)
        seen.add(next((k for k in kinds if expected and expected.endswith(k)), expected))
    assert seen == {None, *kinds}


def _morphism_rows_reference(src, tgt, fT, fG):
    """morphism_witness from the square and then every row of the actor."""
    through_fT = gatherer(fT.table)
    lhs = through_fT(tgt.boundary.table)
    rhs = gatherer(src.boundary.table)(fG.table)
    if lhs != rhs:
        return ("square", first_difference(lhs, rhs))
    for g, frow in enumerate(src.action.table):
        lhs = gatherer(frow)(fT.table)
        rhs = through_fT(tgt.action.table[fG.table[g]])
        if lhs != rhs:
            return ("equivariance", (g, first_difference(lhs, rhs)))
    return None


def _row_swaps(G):
    """The automorphisms of a small G that swap two elements and fix the rest."""
    if G.order > 24:
        return []
    return [f.table for f in enumerate_homs(G, G) if f.is_injective()
            and sum(x != y for x, y in enumerate(f.table)) == 2]


def _swapped_rows(xm, alpha):
    """xm with the action rows of the two elements alpha swaps exchanged; as
    alpha is an automorphism, g -> row alpha(g) is still an action."""
    act = GroupAction(xm.codomain(), xm.domain(),
                      [xm.action.table[a] for a in alpha], check=False)
    return CrossedModule(act, xm.boundary, check=False)


def _sign_modules():
    """V4 acting on z4 modules up to order 1024 by x -> -x when the second
    digit of the actor is 1, as crossed modules with the trivial boundary."""
    V4 = z4_module(0, 2)
    out = []
    for n4, n2 in ((1, 0), (2, 1), (5, 0), (0, 10), (3, 4)):
        M = z4_module(n4, n2)
        rows = [M._inv if V4.names[g][1] == "1" else tuple(range(M.order))
                for g in range(V4.order)]
        act = GroupAction(V4, M, rows, check=False)
        out.append(CrossedModule(act, trivial_hom(M, V4), check=False))
    return out


def test_morphism_witness_matches_per_cell_loop():
    """Morphisms pass; killed, reversed and row-swapped variants fail at the
    first witness of the row loop and of the per-cell loop, on the corpus,
    relabelings and modules up to order 1024.  Module crossed modules have
    trivial boundaries, so killing the actor keeps the square and breaks
    equivariance wherever the action moves."""
    morphisms = [mor for mor, _ in projective_section_corpus()]
    xmods = [xm for _, xm, _ in axiom_corpus()]
    xmods += [_seeded_relabel(xm, seed) for seed, xm in enumerate(xmods)]
    xmods += _sign_modules()
    morphisms += [identity_morphism(xm) for xm in xmods]
    cases = []
    for mor in morphisms:
        src, tgt, fT, fG = mor.src, mor.tgt, mor.fT, mor.fG
        cases += [(src, tgt, fT, fG),
                  (src, tgt, trivial_hom(src.domain(), tgt.domain()), fG),
                  (src, tgt, fT, trivial_hom(src.codomain(), tgt.codomain())),
                  (src, tgt, GroupHom._trusted(src.domain(), tgt.domain(), fT.table[::-1]),
                   fG)]
        cases += [(_swapped_rows(src, alpha), tgt, fT, fG)
                  for alpha in _row_swaps(src.codomain())]
    kinds = set()
    for src, tgt, fT, fG in cases:
        expected = _morphism_rows_reference(src, tgt, fT, fG)
        assert _morphism_reference(src, tgt, fT, fG) == expected
        assert morphism_witness(src, tgt, fT, fG) == expected
        kinds.add(expected and expected[0])
    assert kinds == {None, "square", "equivariance"}


def _conjugation_rows_reference(embedding):
    """conjugation_action_on's table, or its error text, two gathers a row."""
    H, G = embedding.source, embedding.target
    if not embedding.is_injective():
        return "embedding is not injective"
    preimage = [None] * G.order
    for h, y in enumerate(embedding.table):
        preimage[y] = h
    t = G.table
    cols = tuple(zip(*gatherer(embedding.table)(t)))
    table = tuple(gatherer(gatherer(cols[G.inv(g)])(t[g]))(preimage)
                  for g in range(G.order))
    if any(None in row for row in table):
        return "image of the embedding is not a normal subgroup"
    return table


def test_conjugation_rows_match_the_two_gather_reference():
    """Normal images give the reference's rows; subgroups that are not
    normal and maps that are not injective give its error text."""
    embeddings = [ext.k for ext in _extensions()]
    groups = _library_groups_to_order_64()
    groups += [_relabeled(G, seed) for seed, G in enumerate(groups)]
    for G in groups:
        pairs = itertools.combinations_with_replacement(
            range(G.order), 2 if G.order <= 24 else 1)
        embeddings += [subgroup(G, N)[1] for N in {G.closure(p) for p in pairs}]
        embeddings.append(GroupHom(cyclic_group(2), G, (G.identity,) * 2))
    for G in _groups_to_order_1024()[-4:]:
        embeddings += [identity_hom(G), subgroup(G, G.closure([G.order - 1]))[1]]
    outcomes = set()
    for emb in embeddings:
        expected = _conjugation_rows_reference(emb)
        got = _outcome(lambda e: conjugation_action_on(e).table, emb)
        assert got == expected, (emb.target.label, emb.table)
        outcomes.add(expected if isinstance(expected, str) else "rows")
    assert outcomes == {"rows", "embedding is not injective",
                        "image of the embedding is not a normal subgroup"}


def _closure_reference(G, elems):
    """The subgroup generated by elems, grown one element at a time along
    right Cayley edges x -> x*s from every member."""
    reached, frontier = {G.identity}, [G.identity]
    while frontier:
        x = frontier.pop()
        for s in elems:
            z = G.mul(x, s)
            if z not in reached:
                reached.add(z)
                frontier.append(z)
    return reached


def _normal_closure_reference(G, elems):
    """normal_closure by conjugating every element by every g, round by round,
    each round closed without the walk under test."""
    seed = set(elems)
    seed.update(G.conj(g, n) for g in range(G.order) for n in list(seed))
    current = _closure_reference(G, seed)
    while True:
        extra = {G.conj(g, n) for g in range(G.order) for n in current} - current
        if not extra:
            return current
        current = _closure_reference(G, current | extra)


def test_normal_closure_matches_all_pairs_conjugation():
    rng = random.Random(17)
    groups = _library_groups_to_order_64() + _central_first_products()
    groups += [_relabeled(G, seed) for seed, G in enumerate(groups)]
    cases = []
    for G in groups:
        cases += [(G, [])] + [(G, [rng.randrange(G.order)]) for _ in range(3)]
        cases += [(G, rng.sample(range(G.order), min(G.order, 3)))]
    Z1024, M = cyclic_group(1024), z4_module(5, 0)
    cases += [(Z1024, [0, 4]), (_relabeled(Z1024, 6, trusted=True), [5]), (M, [1, M.order - 1])]
    grew = 0
    for G, elems in cases:
        expected = _normal_closure_reference(G, elems)
        assert normal_closure(G, elems) == expected, (G.label, elems)
        grew += expected != G.closure(elems)
    assert grew >= 10


def _lift_along_reference(epi, u):
    """A lift along an epi over a fixed base, without the boundary-square
    pruning: every fibre lift of u's carrier map with the base kept fixed,
    filtered by the morphism check."""
    ident = identity_hom(epi.src.codomain())
    for table in lifts(epi.fT, u.fT):
        v = GroupHom._trusted(u.src.domain(), epi.src.domain(), table)
        if morphism_witness(u.src, epi.src, v, ident) is None:
            return table
    return None


def test_find_xmod_lift_matches_the_unpruned_fibre_search():
    """Along every regular epi of the same-base corpus, every morphism into
    its target from a corpus object over the same base lifts to the same
    carrier table as the unpruned search, with the base fixed, or to None on
    both sides."""
    mors = sse_morphism_corpus()
    objects = list({id(xm): xm for m in mors for xm in (m.src, m.tgt)}.values())
    epis = [m for m in mors if is_regular_epi(m)]
    assert len(objects) == 11 and len(epis) == 44
    outcomes = [0, 0]
    for epi in epis:
        base = epi.tgt.codomain()
        for xm in objects:
            if xm.codomain() is not base:
                continue
            for u in enumerate_sse_morphisms(xm, epi.tgt):
                expected = _lift_along_reference(epi, u)
                v = lifting.find_xmod_lift(epi, u)
                assert (None if v is None else v.fT.table) == expected
                if v is not None:
                    assert v.fG == identity_hom(base)
                outcomes[v is None] += 1
    assert outcomes == [987, 158]  # lifts found, lifts proven absent


# -- trusted builds: the entry checks they skip, run on every output ------------


def _builder():
    """The library function that called a `_trusted` constructor: the first
    frame above the recorder that is not a comprehension or generator."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def _record_trusted(monkeypatch):
    """(groups, homs): every trusted build from here on, with its builder."""
    groups, homs = [], []
    make_group, make_hom = FiniteGroup._trusted.__func__, GroupHom._trusted.__func__

    def record_group(cls, *args):
        groups.append((_builder(), make_group(cls, *args), args))
        return groups[-1][1]

    def record_hom(cls, *args):
        homs.append((_builder(), make_hom(cls, *args)))
        return homs[-1][1]

    monkeypatch.setattr(FiniteGroup, "_trusted", classmethod(record_group))
    monkeypatch.setattr(GroupHom, "_trusted", classmethod(record_hom))
    return groups, homs


def _run_corpora():
    """Every corpus and its section searches, the condp studies at small
    sizes, every z4_module to order 1024, relabeled corpus entries, pi0, and
    each hom search on small groups."""
    valid = [xm for _, xm, ok in axiom_corpus() if ok]
    split_ses_corpus()
    sse_morphism_corpus()
    for epi, ext in projective_section_corpus():
        lifting.projective_section(epi, ext)
    for mor in pullback_section_corpus():
        lifting.pullback_section(mor)
        lifting.find_xmod_section(mor)
    for i, xm in enumerate(valid[:12]):
        pi0(_seeded_relabel(xm, i))
    for c in z4_module_classes(MAX_ORDER):
        z4_module(*c)
    condp.non_schreier_demo(relabel_seed=1)
    condp.pi0_preservation_suite()
    condp.theorem_P_transfer_check(0, 4)
    for f, s in condp.pipeline_pairs(2) + [((0, 0, 0), (1,))]:
        condp.pipeline_diagram_P(f, s)
    small = [symmetric_group(3), dihedral_group(4), quaternion_group(), cyclic_group(4),
             klein_four_group(), alternating_group(4), trivial_group()]
    for G in small:
        find_isomorphism(G, _relabeled(G, 7))
        for H in small[:5]:
            enumerate_homs(G, H)
        for elems in normal_subgroups(G):
            proj = quotient(G, elems)[1]
            find_section(proj)
            compose(proj, subgroup(G, elems)[1])
    hom(small[0], small[0], {1: 1, 2: 2})


_GROUP_BUILDERS = {"subgroup", "quotient", "pullback", "direct_product",
                   "semidirect_product", "z4_module", "cyclic_group",
                   "from_permutations", "trivial_group", "relabel_xmod"}
_HOM_BUILDERS = {
    # the search outputs, and the maps every construction hands out
    "enumerate_homs", "find_section", "find_isomorphism", "hom", "find_xmod_lift",
    "pullback_section", "projective_section", "compose", "identity_hom",
    "trivial_hom", "subgroup", "quotient", "pullback", "direct_product",
    "semidirect_product", "relabel_xmod", "xmod_product", "xmod_kernel",
    "free_module_cover", "collapse_epi"}


@pytest.fixture(scope="module")
def trusted_builds():
    with pytest.MonkeyPatch.context() as mp:
        groups, homs = _record_trusted(mp)
        _run_corpora()
    return groups, homs


def _recheck_group(G, identity, inverses):
    """The public entry checks on G's table and names must pass and find the
    identity and the inverses that G's builder handed over."""
    # products and modules build each row on first read: every row, once read,
    # is a tuple of ints
    assert all(type(row) is tuple and set(map(type, row)) == {int} for row in G.table)
    assert type(G.names) is tuple and all(type(s) is str for s in G.names)
    assert G.order == len(G.table) == len(G.names)
    H = FiniteGroup(G.table, G.names)
    assert (H.identity, H._inv) == (identity, inverses)


def test_every_trusted_group_passes_the_public_checks(trusted_builds):
    groups, _ = trusted_builds
    assert {name for name, _, _ in groups} == _GROUP_BUILDERS
    assert max(G.order for _, G, _ in groups) == MAX_ORDER
    checked = {}
    for name, G, (table, identity, inverses, names, label) in groups:
        assert (G.table, G.identity, G._inv, G.names, G.label) == (
            table, identity, inverses, names, label)
        if id(G) not in checked:
            checked[id(G)] = name
            _recheck_group(G, identity, inverses)
    assert len(checked) > 600


def _other(x, n):
    """An element other than x: in range unless the group has only x."""
    return (x + 1) % max(n, 2)


def test_every_trusted_group_recheck_fires_on_seeded_corruption(trusted_builds):
    """One build per builder, corrupted three ways: one out-of-range cell,
    one wrong inverse entry, a wrong identity."""
    groups, _ = trusted_builds
    first = {}
    for name, G, _ in groups:
        first.setdefault(name, G)
    rng = random.Random(23)
    for name, G in sorted(first.items()):
        n = G.order
        r, c, x = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        table = list(G.table)
        table[r] = table[r][:c] + (n,) + table[r][c + 1:]
        bad_cell = FiniteGroup._trusted(tuple(table), G.identity, G._inv, G.names, G.label)
        with pytest.raises(GroupError, match="not square over 0..n-1"):
            _recheck_group(bad_cell, G.identity, G._inv)
        inverses = G._inv[:x] + (_other(G._inv[x], n),) + G._inv[x + 1:]
        with pytest.raises(AssertionError):
            _recheck_group(G, G.identity, inverses)
        with pytest.raises(AssertionError):
            _recheck_group(G, _other(G.identity, n), G._inv)


def test_every_trusted_hom_passes_the_public_checks(trusted_builds):
    """Range, identity and hom law, on every trusted hom the corpora built,
    and on every table `lifts` yields."""
    _, homs = trusted_builds
    assert {name for name, _ in homs} == _HOM_BUILDERS
    checked = set()
    for _, f in homs:
        if id(f) not in checked:
            checked.add(id(f))
            assert type(f.table) is tuple and len(f.table) == f.source.order
            GroupHom(f.source, f.target, f.table)
    assert len(checked) > 2000
    for ext in _extensions():
        for table in lifts(ext.p, identity_hom(ext.base)):
            GroupHom(ext.base, ext.total, table)


def test_every_trusted_hom_recheck_fires_on_a_corrupted_value(trusted_builds):
    _, homs = trusted_builds
    first = {}
    for name, f in homs:
        first.setdefault(name, f)
    rng = random.Random(29)
    for name, f in sorted(first.items()):
        x = rng.randrange(f.source.order)
        table = f.table[:x] + (f.target.order,) + f.table[x + 1:]
        with pytest.raises(GroupError, match="out-of-range values"):
            GroupHom(f.source, f.target, table)
        if f.target.order > 1:
            e = f.source.identity
            table = f.table[:e] + (_other(f.target.identity, f.target.order),) + f.table[e + 1:]
            with pytest.raises(GroupError, match="does not preserve the identity"):
                GroupHom(f.source, f.target, table)

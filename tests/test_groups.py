import gc
import itertools

import pytest

from xmodkit.actions import action_from_function, semidirect_product
from xmodkit.errors import BudgetExhausted, GroupError
from xmodkit.groups import (
    FiniteGroup, GroupHom, alternating_group, compose, cyclic_group,
    dihedral_group, direct_product, enumerate_homs, find_isomorphism,
    find_section, generating_sequence, hom, identity_hom, is_z4_module,
    kernel, klein_four_group, lifts, normal_closure, normal_subgroups,
    normality_witness, pullback, quaternion_group, quotient, search_homs,
    subgroup, symmetric_group, trivial_group, trivial_hom, z4_module,
    z4_module_classes, _GATHER_FROM, _cosets, _greedy,
)

from group_helpers import find_retraction, is_normal


def test_cyclic_arithmetic():
    Z6 = cyclic_group(6)
    assert Z6.identity == 0
    assert Z6.mul(4, 5) == 3
    assert Z6.inv(1) == 5
    assert Z6.power(1, 10) == 4
    assert Z6.power(1, -1) == 5
    assert Z6.elem_orders == (1, 6, 3, 2, 3, 6)
    assert Z6.exponent == 6
    assert Z6.commutative


def test_stock_group_profiles():
    # (group, order, commutative, sorted element orders)
    cases = [
        (trivial_group(), 1, True, [1]),
        (klein_four_group(), 4, True, [1, 2, 2, 2]),
        (quaternion_group(), 8, False, [1, 2, 4, 4, 4, 4, 4, 4]),
        (dihedral_group(4), 8, False, [1, 2, 2, 2, 2, 2, 4, 4]),
        (symmetric_group(3), 6, False, [1, 2, 2, 2, 3, 3]),
        (alternating_group(4), 12, False, [1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]),
    ]
    for G, order, comm, orders in cases:
        assert G.order == order
        assert G.commutative == comm
        assert sorted(G.elem_orders) == orders


def test_alternating_group_cap():
    assert alternating_group(4).order == 12
    assert alternating_group(5).order == 60
    with pytest.raises(GroupError, match="alternating"):
        alternating_group(6)


def test_symmetric_group_names():
    S3 = symmetric_group(3)
    assert S3.names[0] == "e"
    assert S3.index_of("(1 2 3)") == 3
    assert S3.conj(S3.index_of("(1 2)"), S3.index_of("(1 2 3)")) == S3.index_of("(1 3 2)")


def test_table_validation():
    with pytest.raises(GroupError):
        FiniteGroup(((0, 0), (0, 0)))  # no identity
    with pytest.raises(GroupError, match="element 1 has no inverse"):
        FiniteGroup(((0, 1), (1, 1)))  # row 1 holds no identity
    with pytest.raises(GroupError, match="no identity"):
        FiniteGroup(((0, 1), (0, 1)))  # both rows fix everything, no column does
    with pytest.raises(GroupError, match="element 1 has no inverse"):
        FiniteGroup(((0, 1, 2), (1, 2, 0), (2, 1, 0)))  # 1*2 = 0 but 2*1 = 1
    for bad in (((0, 1), (1,)), ((0, 1), (1, 0, 1)), ((0, 1), (1, 2)),
                ((0, 1), (-1, 0)), ((0,), (0,))):
        with pytest.raises(GroupError, match="not square over 0..n-1"):
            FiniteGroup(bad)
    # one bad cell in an otherwise valid order-8 table, wherever it sits; the
    # range check covers every row, the last one included
    z8 = [list(row) for row in cyclic_group(8).table]
    for r, c, value in ((7, 7, 8), (4, 2, -1), (3, 5, "3")):
        bad = [row[:] for row in z8]
        bad[r][c] = value
        with pytest.raises(GroupError, match="not square over 0..n-1"):
            FiniteGroup(bad)
    # smallest nonassociative loop: identity and inverses exist, law fails
    loop = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(GroupError):
        FiniteGroup(loop)


def test_order_cap():
    with pytest.raises(GroupError):
        cyclic_group(1025)


def test_degenerate_sizes_refused():
    # each would otherwise build a group of the wrong order without complaint
    for n in (-1, 0, 1, 2):
        with pytest.raises(GroupError, match="dihedral group needs n >= 3"):
            dihedral_group(n)
    assert dihedral_group(3).order == 6
    for ranks in ((-1, 0), (0, -1), (2, -1)):
        with pytest.raises(GroupError, match="module ranks must be nonnegative"):
            z4_module(*ranks)
    with pytest.raises(GroupError, match="symmetric group of negative degree"):
        symmetric_group(-1)
    with pytest.raises(GroupError, match="alternating group of negative degree"):
        alternating_group(-1)
    assert symmetric_group(0).order == alternating_group(0).order == 1


def test_generating_sequence_greedy():
    S4 = symmetric_group(4)
    gens = S4.generators
    assert [S4.elem_orders[g] for g in gens] == [4, 4]
    assert len(S4.closure(gens)) == 24
    # deterministic: the same call gives the same tuple
    assert gens == generating_sequence(S4, (S4.identity,))


def _pairwise_closure(G, elems):
    """Reference closure: multiply every known element by every other, both
    ways, until no new element appears."""
    known = {G.identity}
    known.update(elems)
    frontier = list(known)
    t = G.table
    while frontier:
        new = []
        snapshot = list(known)
        for y in frontier:
            for x in snapshot:
                for z in (t[x][y], t[y][x]):
                    if z not in known:
                        known.add(z)
                        new.append(z)
        frontier = new
    return frozenset(known)


def _closure_picks(G, covered):
    """The greedy picks, each closing everything covered so far afresh."""
    seq = []
    known = _pairwise_closure(G, covered)
    while len(known) < G.order:
        best = max((x for x in range(G.order) if x not in known),
                   key=lambda x: (G.elem_orders[x], -x))
        seq.append(best)
        known = _pairwise_closure(G, set(known) | {best})
    return tuple(seq)


def test_closure_matches_pairwise_closure():
    Z2 = cyclic_group(2)
    for G in (symmetric_group(4), direct_product(dihedral_group(4), Z2)[0],
              direct_product(quaternion_group(), Z2)[0]):
        for r in (1, 2):
            for S in itertools.combinations(range(G.order), r):
                assert G.closure(S) == _pairwise_closure(G, S), (G.label, S)


def test_generating_sequence_matches_closure_picks():
    groups = [z4_module(n4, n2) for n4, n2 in z4_module_classes(1024)]
    groups += [symmetric_group(4), alternating_group(5),
               direct_product(dihedral_group(4), cyclic_group(4))[0]]
    for G in groups:
        big = max(range(G.order), key=lambda x: (G.elem_orders[x], x))
        covers = [(G.identity,)]
        if G.order < 1024:  # the closure oracle takes a third of a second there
            covers += [(big,), sorted(_pairwise_closure(G, (big, G.order - 1)))]
        for covered in covers:
            assert generating_sequence(G, covered) == _closure_picks(G, covered)


def test_hom_validation_and_composition():
    Z4 = cyclic_group(4)
    Z2 = cyclic_group(2)
    f = GroupHom(Z4, Z2, (0, 1, 0, 1))
    assert f(3) == 1
    with pytest.raises(GroupError):
        GroupHom(Z4, Z2, (0, 1, 1, 0))
    for values in ((0, -1, 0, 1), (0, 1, 0, Z2.order)):
        with pytest.raises(GroupError, match="out-of-range values"):
            GroupHom(Z4, Z2, values)
    g = hom(Z2, Z4, {1: 2})
    assert g.table == (0, 2)
    assert compose(f, g).table == (0, 0)
    assert identity_hom(Z4).table == (0, 1, 2, 3)
    assert trivial_hom(Z4, Z2).table == (0, 0, 0, 0)
    with pytest.raises(GroupError):
        hom(Z2, Z4, {1: 1})  # order 4 image of an involution
    with pytest.raises(GroupError):
        hom(Z4, Z4, {2: 1})  # 2 does not generate Z4


def test_kernel_image_subgroup():
    S3 = symmetric_group(3)
    Z2 = cyclic_group(2)
    sign = GroupHom(S3, Z2, tuple(0 if S3.elem_orders[x] in (1, 3) else 1
                                  for x in range(6)))
    K, ki = kernel(sign)
    assert K.order == 3
    assert all(sign(ki(x)) == 0 for x in range(3))
    I, ii = subgroup(sign.target, sign.image_elements)
    assert I.order == 2
    with pytest.raises(GroupError):
        subgroup(S3, [0, S3.index_of("(1 2 3)")])  # not closed


def test_normality_and_quotient():
    S4 = symmetric_group(4)
    assert sorted(len(ns) for ns in normal_subgroups(S4)) == [1, 4, 12, 24]
    A4_elems = next(ns for ns in normal_subgroups(S4) if len(ns) == 12)
    Q, proj = quotient(S4, A4_elems)
    assert Q.order == 2
    K4_elems = next(ns for ns in normal_subgroups(S4) if len(ns) == 4)
    Q2, _ = quotient(S4, K4_elems)
    assert find_isomorphism(Q2, symmetric_group(3)) is not None
    # refuse a non-normal subgroup, with a conjugation witness
    S3 = symmetric_group(3)
    two = {0, S3.index_of("(1 2)")}
    assert normality_witness(S3, two) is not None
    assert not is_normal(S3, two)
    with pytest.raises(GroupError, match="not normal"):
        quotient(S3, two)
    assert len(normal_closure(S3, two)) == 6


def test_normal_subgroup_profiles():
    assert sorted(len(ns) for ns in normal_subgroups(dihedral_group(4))) == [1, 2, 4, 4, 4, 8]
    assert sorted(len(ns) for ns in normal_subgroups(quaternion_group())) == [1, 2, 4, 4, 4, 8]
    assert sorted(len(ns) for ns in normal_subgroups(symmetric_group(3))) == [1, 3, 6]


def _normal_subgroups_by_subsets(G):
    """Reference: close every subset of conjugacy classes, keep the normal ones."""
    classes = {frozenset(G.conj(g, x) for g in range(G.order)) for x in range(G.order)}
    found = set()
    for r in range(len(classes) + 1):
        for combo in itertools.combinations(classes, r):
            sub = G.closure(set().union({G.identity}, *combo))
            if is_normal(G, sub):
                found.add(tuple(sorted(sub)))
    return sorted(found, key=lambda s: (len(s), s))


def test_normal_subgroups_match_subsets_of_classes():
    Z2, Z4 = cyclic_group(2), cyclic_group(4)
    Q8, D4, S4 = quaternion_group(), dihedral_group(4), symmetric_group(4)
    Z4sZ4 = semidirect_product(action_from_function(
        Z4, Z4, lambda g, x: (-x) % 4 if g % 2 else x)).total
    for G in (symmetric_group(3), S4, alternating_group(5), symmetric_group(5),
              D4, Q8, dihedral_group(16), direct_product(Q8, Z2)[0],
              direct_product(D4, Z2)[0], direct_product(S4, Z2)[0], Z4sZ4):
        assert normal_subgroups(G) == _normal_subgroups_by_subsets(G), G.label


def test_normal_subgroups_of_elementary_abelian_32():
    # every subgroup is normal: the Gaussian binomials [5,k]_2 sum to 374
    assert len(normal_subgroups(z4_module(0, 5))) == 1 + 31 + 155 + 155 + 31 + 1


def test_direct_product_and_pullback():
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    P, i1, i2, p1, p2 = direct_product(Z2, Z3)
    assert P.order == 6
    assert compose(p1, i1).table == identity_hom(Z2).table
    assert compose(p2, i2).table == identity_hom(Z3).table
    assert compose(p1, i2).table == trivial_hom(Z3, Z2).table
    assert find_isomorphism(cyclic_group(6), P) is not None

    Z4 = cyclic_group(4)
    f = GroupHom(Z4, Z2, (0, 1, 0, 1))
    PB, q1, q2 = pullback(f, f)
    assert PB.order == 8
    assert all(f(q1(x)) == f(q2(x)) for x in range(8))


def _spread(G, H, gens, images):
    """The map on <gens> that sends gens to images, extended along right
    multiplication by BFS; a hom only if the images satisfy the relations."""
    f = {G.identity: H.identity}
    queue = [G.identity]
    for x in queue:
        for s, fs in zip(gens, images):
            z = G.table[x][s]
            if z not in f:
                f[z] = H.table[f[x]][fs]
                queue.append(z)
    return f


def _brute_force_homs(G, H):
    """Every hom G -> H, by trying each tuple of images of G.generators in
    lexicographic order: extend it along right multiplication by BFS and
    keep the table iff GroupHom's full hom-law check accepts it."""
    gens = G.generators
    out = []
    for images in itertools.product(range(H.order), repeat=len(gens)):
        f = _spread(G, H, gens, images)
        table = tuple(f[x] for x in range(G.order))
        try:
            GroupHom(G, H, table)
        except GroupError:
            continue
        out.append(table)
    return out


def test_enumerate_homs_matches_brute_force():
    S3, D4, Q8 = symmetric_group(3), dihedral_group(4), quaternion_group()
    for G, H in ((S3, D4), (D4, S3), (Q8, D4), (D4, Q8),
                 (alternating_group(4), symmetric_group(4))):
        assert ([f.table for f in enumerate_homs(G, H)]
                == _brute_force_homs(G, H)), (G.label, H.label)


def test_hom_counts():
    Z2, Z3, Z4, Z6 = (cyclic_group(n) for n in (2, 3, 4, 6))
    S3 = symmetric_group(3)
    Q8 = quaternion_group()
    assert len(enumerate_homs(Z2, Z4)) == 2
    assert len(enumerate_homs(Z3, Z4)) == 1
    assert len(enumerate_homs(Z4, Z4)) == 4
    assert len(enumerate_homs(Z6, Z4)) == 2
    assert len(enumerate_homs(S3, Z6)) == 2
    assert len(enumerate_homs(Q8, Z2)) == 4
    assert len(enumerate_homs(S3, S3)) == 10
    assert len(enumerate_homs(Q8, Q8)) == 28
    # one cyclic first level of 1024 elements, through the walk and the search
    assert len(enumerate_homs(cyclic_group(1024), Z4)) == 4


def test_aut_counts():
    S3 = symmetric_group(3)
    K4 = klein_four_group()
    assert sum(1 for f in enumerate_homs(S3, S3) if f.is_injective()) == 6
    assert sum(1 for f in enumerate_homs(K4, K4) if f.is_injective()) == 6
    assert sum(1 for f in enumerate_homs(cyclic_group(4), cyclic_group(4))
               if f.is_injective()) == 2


def test_isomorphism_search():
    assert find_isomorphism(dihedral_group(3), symmetric_group(3)) is not None
    assert find_isomorphism(dihedral_group(4), quaternion_group()) is None
    assert find_isomorphism(cyclic_group(4), klein_four_group()) is None
    iso = find_isomorphism(symmetric_group(3), dihedral_group(3))
    assert iso.is_injective() and iso.is_surjective()


def test_search_budget():
    Z4 = cyclic_group(4)
    with pytest.raises(BudgetExhausted):
        list(search_homs(Z4, Z4, lambda g: list(range(4)), budget=1))


def test_search_prescribed():
    Z4 = cyclic_group(4)
    # fixing the image of 2 to 0 leaves exactly the two even-image homs
    homs = list(search_homs(Z4, Z4, lambda g: list(range(4)), prescribed={2: 0}))
    assert [phi[1] for phi in homs] == [0, 2]
    # contradictory prescription yields nothing
    assert list(search_homs(Z4, Z4, lambda g: list(range(4)),
                            prescribed={2: 1})) == []


def test_preimage_inverts_injective_homs():
    """Each image element goes back to its one source element, the rest to None."""
    S4 = symmetric_group(4)
    P, i1, i2, _, _ = direct_product(dihedral_group(4), cyclic_group(4))
    homs = [i1, i2, identity_hom(S4), find_isomorphism(P, P), hom(cyclic_group(2), S4, {1: 1})]
    homs += [subgroup(S4, elems)[1] for elems in normal_subgroups(S4)]
    for f in homs:
        assert [f.preimage[y] for y in f.table] == list(range(f.source.order))
        off = {y for y, x in enumerate(f.preimage) if x is None}
        assert off == set(range(f.target.order)) - f.image_elements


def test_search_budget_edges():
    """The node budgets at which whole searches just fit, pinned: one node
    per candidate tried at a non-prescribed level."""
    src, tgt = z4_module(3, 0), z4_module(1, 1)
    assert len(enumerate_homs(src, tgt, budget=584)) == 512
    with pytest.raises(BudgetExhausted):
        enumerate_homs(src, tgt, budget=583)
    S4 = symmetric_group(4)
    assert len(enumerate_homs(S4, S4, budget=272)) == 58
    with pytest.raises(BudgetExhausted):
        enumerate_homs(S4, S4, budget=271)
    D4xZ4 = direct_product(dihedral_group(4), cyclic_group(4))[0]
    assert find_isomorphism(D4xZ4, D4xZ4, budget=9) is not None
    with pytest.raises(BudgetExhausted):
        find_isomorphism(D4xZ4, D4xZ4, budget=8)


def _oracle_groups():
    """The sources and targets of the search oracle, all of order <= 16;
    (Z2)^3 needs three generators."""
    Z2, Z4 = cyclic_group(2), cyclic_group(4)
    return [Z2, Z4, direct_product(Z4, Z2)[0], symmetric_group(3), dihedral_group(4),
            quaternion_group(), alternating_group(4), z4_module(0, 3)]


def _oracle_pairs():
    """Every pair of oracle groups, then sources with a level whose H has at
    least five elements, so the search fills its cosets by a gather: D6 over
    H = Z6, and D4 x Z2 over its H of order 8 after a level that fills the
    cosets of Z4 element by element."""
    groups = _oracle_groups()
    Z2, Z4, S3, D4 = groups[0], groups[1], groups[3], groups[4]
    D6, D4xZ2 = dihedral_group(6), direct_product(D4, Z2)[0]
    return ([(G, H) for G in groups for H in groups] + [(Z4, direct_product(Z4, Z4)[0])]
            + [(D6, H) for H in (Z2, S3, D4, D6)] + [(D4xZ2, H) for H in (Z4, D4, D4xZ2)])


def test_oracle_sources_reach_both_ways_of_filling_a_coset():
    """The oracle's sources plan levels of both kinds: cosets of an H with
    1 < |H| < _GATHER_FROM, which the search fills one element at a time,
    and cosets of an H with |H| >= _GATHER_FROM, filled by one gather."""
    sizes = set()
    for G in {id(G): G for G, _ in _oracle_pairs()}.values():
        pos = [None] * G.order
        pos[G.identity] = 0
        sizes.update(m for _, m, _ in _cosets(G.table, [G.identity], pos, _greedy(G, ())))
    assert any(1 < m < _GATHER_FROM for m in sizes)
    assert any(m >= _GATHER_FROM for m in sizes)


def _extends(G, H, gens, images):
    """Whether gens -> images extends to a hom from <gens> to H: a checked
    GroupHom on the subgroup decides."""
    S, inc = subgroup(G, G.closure(gens))
    f = _spread(G, H, gens, images)
    try:
        GroupHom(S, H, tuple(f[x] for x in inc.table))
    except GroupError:
        return False
    return True


def _divisible_images(G, H):
    return lambda g: [h for h in range(H.order)
                      if G.elem_orders[g] % H.elem_orders[h] == 0]


def _brute_force_nodes(G, H, cands):
    """The nodes of a search over G.generators: each prefix of images that
    extends to a hom of the subgroup so far tries every candidate of the
    next generator."""
    gens, prefixes, nodes = G.generators, [()], 0
    for i, g in enumerate(gens):
        nodes += len(prefixes) * len(cands(g))
        prefixes = [p + (h,) for p in prefixes for h in cands(g)
                    if _extends(G, H, gens[:i + 1], p + (h,))]
    return nodes


def test_coset_search_matches_checked_brute_force():
    """Over the oracle pairs, hom enumeration and a search that tries every
    image, unpruned by element orders, both equal the checked brute force,
    in order, and fit a node budget of exactly the brute-force node count
    but not one less."""
    for G, H in _oracle_pairs():
        label = (G.label, H.label)
        every = lambda g: range(H.order)
        brute = _brute_force_homs(G, H)
        assert [f.table for f in enumerate_homs(G, H)] == brute, label
        assert list(search_homs(G, H, every)) == brute, label
        nodes = _brute_force_nodes(G, H, _divisible_images(G, H))
        assert len(enumerate_homs(G, H, budget=nodes)) == len(brute), label
        with pytest.raises(BudgetExhausted):
            enumerate_homs(G, H, budget=nodes - 1)
        nodes = _brute_force_nodes(G, H, every)
        assert len(list(search_homs(G, H, every, budget=nodes))) == len(brute), label
        with pytest.raises(BudgetExhausted):
            list(search_homs(G, H, every, budget=nodes - 1))


def test_coset_search_prescribed_images():
    """hom() passes exactly the generator images that extend, and a further
    prescribed element, already reached, must carry its product's image."""
    for G, H in ((symmetric_group(3), dihedral_group(4)),
                 (dihedral_group(4), quaternion_group()),
                 (direct_product(cyclic_group(4), cyclic_group(2))[0], dihedral_group(4))):
        gens = G.generators
        homs = set(_brute_force_homs(G, H))
        product = G.table[gens[0]][gens[1]]
        for images in itertools.product(range(H.order), repeat=len(gens)):
            prescribed = dict(zip(gens, images))
            table = next((t for t in homs if all(t[g] == h for g, h in prescribed.items())),
                         None)
            if table is None:
                with pytest.raises(GroupError, match="images violate a relation"):
                    hom(G, H, prescribed)
                continue
            assert hom(G, H, prescribed).table == table
            prescribed[product] = table[product]
            assert hom(G, H, prescribed).table == table
            prescribed[product] = H.table[table[product]][H.generators[0]]
            with pytest.raises(GroupError, match="images violate a relation"):
                hom(G, H, prescribed)


def test_coset_search_isomorphisms():
    """find_isomorphism returns the first bijective hom of the brute force,
    or None when there is none: Z4 x| Z4 and Q8 x Z2 share their element
    orders and are not isomorphic."""
    groups = _oracle_groups()
    for G in groups:
        for H in groups:
            if G.order != H.order:
                continue
            found = find_isomorphism(G, H)
            first = next((t for t in _brute_force_homs(G, H) if len(set(t)) == G.order),
                         None)
            assert (found and found.table) == first, (G.label, H.label)
            assert found is None or found.is_injective()
    Z2, Z4 = cyclic_group(2), cyclic_group(4)
    Z4sZ4 = semidirect_product(action_from_function(
        Z4, Z4, lambda g, x: (-x) % 4 if g % 2 else x)).total
    Q8xZ2 = direct_product(quaternion_group(), Z2)[0]
    assert sorted(Z4sZ4.elem_orders) == sorted(Q8xZ2.elem_orders)
    assert find_isomorphism(Z4sZ4, Q8xZ2) is None
    assert find_isomorphism(Q8xZ2, Z4sZ4) is None
    for G in (Z4sZ4, Q8xZ2):
        assert find_isomorphism(G, G).is_injective()


def test_coset_search_lifts_with_allow():
    """lifts(p, u, allow=...) lists the homs v with p v = u whose generator
    images pass allow, in brute-force order."""
    p1 = direct_product(cyclic_group(4), cyclic_group(2))[3]
    D4 = dihedral_group(4)
    center = [x for x in range(D4.order)
              if all(D4.table[x][y] == D4.table[y][x] for y in range(D4.order))]
    to_v4 = quotient(D4, center)[1]
    A4 = alternating_group(4)
    to_z3 = quotient(A4, next(N for N in normal_subgroups(A4) if len(N) == 4))[1]
    allows = (None, lambda x, a: a % 2 == 0, lambda x, a: a != x, lambda x, a: False)
    for p, u in ((p1, identity_hom(p1.target)), (to_v4, to_v4), (to_z3, to_z3)):
        X, A = u.source, p.source
        candidates = [t for t in _brute_force_homs(X, A)
                      if all(p.table[t[x]] == u.table[x] for x in range(X.order))]
        for allow in allows:
            expected = [t for t in candidates
                        if allow is None or all(allow(g, t[g]) for g in X.generators)]
            assert list(lifts(p, u, allow=allow)) == expected, (p, allow)


def test_hom_refusals():
    Z2, Z4 = cyclic_group(2), cyclic_group(4)
    with pytest.raises(GroupError, match="identity must map to the identity"):
        hom(Z4, Z4, {0: 1, 1: 1})
    with pytest.raises(GroupError, match="images violate a relation"):
        hom(Z2, Z4, {1: 1})
    with pytest.raises(GroupError, match="images violate a relation"):
        hom(Z4, Z4, {2: 1})  # 2 + 2 = 0 but 1 + 1 = 2
    with pytest.raises(GroupError, match="do not generate the source group"):
        hom(Z4, Z4, {2: 2})
    assert hom(Z4, Z4, {0: 0, 1: 3}).table == (0, 3, 2, 1)
    # prescribed images must be elements: no negative indexing, no IndexError
    for images in ({-1: 1}, {9: 1}, {1: 7}):
        with pytest.raises(GroupError, match="lies outside Z4 -> Z4"):
            hom(Z4, Z4, images)


def test_find_section():
    Z4, Z2 = cyclic_group(4), cyclic_group(2)
    mod2 = GroupHom(Z4, Z2, (0, 1, 0, 1))
    assert find_section(mod2) is None  # Z4 -> Z2 does not split
    D4 = dihedral_group(4)
    rotations = D4.closure([next(y for y in range(8) if D4.elem_orders[y] == 4)])
    rot = GroupHom(D4, Z2, tuple(0 if x in rotations else 1 for x in range(8)))
    s = find_section(rot)
    assert s is not None
    assert all(rot(s(q)) == q for q in range(2))
    # not surjective: no section
    assert find_section(trivial_hom(Z2, Z4)) is None


def test_find_retraction():
    Z4, Z2 = cyclic_group(4), cyclic_group(2)
    double = hom(Z2, Z4, {1: 2})
    assert find_retraction(double) is None  # 2 generates no complement
    K4 = klein_four_group()
    inc = hom(Z2, K4, {1: 1})
    r = find_retraction(inc)
    assert r is not None
    assert all(r(inc(t)) == t for t in range(2))
    assert find_retraction(trivial_hom(Z4, Z2)) is None  # not injective


def test_z4_modules():
    M = z4_module(1, 1)
    assert M.order == 8
    assert M.names == ("00", "01", "10", "11", "20", "21", "30", "31")
    assert M.mul(M.index_of("31"), M.index_of("11")) == M.index_of("00")
    assert is_z4_module(M)
    assert is_z4_module(klein_four_group())
    assert is_z4_module(trivial_group())
    assert not is_z4_module(cyclic_group(3))
    assert not is_z4_module(symmetric_group(3))
    assert not is_z4_module(cyclic_group(8))
    assert len(z4_module_classes(64)) == 16
    assert z4_module_classes(4) == [(0, 0), (0, 1), (0, 2), (1, 0)]


def test_searches_leave_no_reference_cycles():
    """A finished or abandoned hom search is freed by reference counting, so
    the tables it closed over go at once, not at a later cyclic collection."""
    G, H = cyclic_group(4), z4_module(1, 1)
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_homs(G, H)) == 8
        next(search_homs(G, H, lambda g: range(H.order)))
        assert gc.collect() == 0
    finally:
        gc.enable()

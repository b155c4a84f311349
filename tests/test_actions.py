import pytest

from xmodkit.errors import GroupError
from xmodkit.groups import (
    GroupHom, cyclic_group, dihedral_group, find_isomorphism, hom,
    klein_four_group, subgroup, symmetric_group,
)
from xmodkit.actions import (
    GroupAction, SplitExtension, action_from_function, conjugation_action,
    conjugation_action_on, core_walker, semidirect_product, trivial_action,
)

from action_helpers import (
    action_core_consistency, action_from_extension, action_signature,
    extension_iso, semidirect_route,
)
from word_helpers import parse_word

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)


def inversion(actor, carrier):
    return action_from_function(actor, carrier,
                                lambda g, x: x if g == 0 else carrier.inv(x))


def test_action_validation():
    act = inversion(Z2, Z3)
    assert act.table[1][1] == 2
    assert act.table[0][1] == 1
    assert not act.is_trivial()
    assert trivial_action(Z2, Z3).is_trivial()
    assert GroupHom(Z3, Z3, act.table[1]).is_injective()
    # not an automorphism: constant maps
    with pytest.raises(GroupError):
        GroupAction(Z2, Z3, ((0, 1, 2), (0, 0, 0)))
    # bijective but not multiplicative on Z4: swap 1 and 2
    with pytest.raises(GroupError):
        GroupAction(Z2, Z4, (tuple(range(4)), (0, 2, 1, 3)))
    # identity must act trivially
    with pytest.raises(GroupError):
        GroupAction(Z2, Z3, ((0, 2, 1), (0, 1, 2)))
    # incompatible with actor multiplication: order 2 actor, order 4 twist
    act4 = tuple((0, (v * 3) % 4) for v in (0, 1))  # wrong shape on purpose
    with pytest.raises(GroupError):
        GroupAction(Z2, Z4, act4)


def test_semidirect_products_hit_known_groups():
    assert find_isomorphism(semidirect_product(inversion(Z2, Z3)).total,
                            symmetric_group(3)) is not None
    assert find_isomorphism(semidirect_product(inversion(Z2, Z4)).total,
                            dihedral_group(4)) is not None
    assert find_isomorphism(semidirect_product(trivial_action(Z2, Z2)).total,
                            klein_four_group()) is not None


def test_split_extension_validation():
    ext = semidirect_product(inversion(Z2, Z3))
    assert ext.total.order == 6
    assert ext.kernel_group is Z3 and ext.base is Z2
    # break the section: compose with the nonidentity automorphism of the base? Z2
    # has none, so use a wrong constant section instead
    bad_s = GroupHom(Z2, ext.total, (ext.total.identity, ext.total.identity))
    with pytest.raises(GroupError):
        SplitExtension(ext.k, ext.p, bad_s)
    # break the kernel: embed only the identity
    one = cyclic_group(1)
    bad_k = GroupHom(one, ext.total, (ext.total.identity,))
    with pytest.raises(GroupError):
        SplitExtension(bad_k, ext.p, ext.s)


def test_equal_actions_hash_equal_without_building_rows():
    """An action hashes by its two groups, as == compares them first, so a
    conjugation action, whose rows are built on first read, hashes without
    building any, and equal actions hash equal."""
    S4 = symmetric_group(4)
    a, b = conjugation_action(S4), conjugation_action(S4)
    built = set(dict.keys(a.table)), set(dict.keys(b.table))
    assert hash(a) == hash(b)
    assert (set(dict.keys(a.table)), set(dict.keys(b.table))) == built
    plain = GroupAction(S4, S4, tuple(a.table))
    assert a == b == plain and hash(a) == hash(plain)
    assert len({a, b, plain, trivial_action(S4, S4)}) == 2


def test_action_extension_round_trip():
    for act in (inversion(Z2, Z3), inversion(Z2, Z4), trivial_action(Z3, Z4),
                conjugation_action(symmetric_group(3))):
        ext = semidirect_product(act)
        assert action_from_extension(ext) == act


def test_conjugation_action_on_normal_subgroup():
    S3 = symmetric_group(3)
    a3 = sorted(x for x in range(6) if S3.elem_orders[x] in (1, 3))
    A3, incl = subgroup(S3, a3)
    act = conjugation_action_on(incl)
    assert act.actor is S3 and act.carrier is A3
    assert not act.is_trivial()
    # transpositions invert the 3-cycles
    t = S3.index_of("(1 2)")
    for x in range(3):
        assert act.table[t][x] == A3.inv(x)
    # non-normal image refused
    two, incl2 = subgroup(S3, [0, t])
    with pytest.raises(GroupError):
        conjugation_action_on(incl2)


def test_extension_iso_on_hand_built_extension():
    S3 = symmetric_group(3)
    k = hom(Z3, S3, {1: S3.index_of("(1 2 3)")})
    p = GroupHom(S3, Z2, tuple(0 if S3.elem_orders[x] in (1, 3) else 1
                               for x in range(6)))
    s = hom(Z2, S3, {1: S3.index_of("(1 2)")})
    ext = SplitExtension(k, p, s)
    iso = extension_iso(ext)
    assert iso.is_injective() and iso.is_surjective()
    assert iso.target is S3


def test_action_core_frozen_values():
    act = inversion(Z2, Z3)
    sig = action_signature(act)
    # commutator of the actor generator with a carrier element: x^g * x^-1
    w = parse_word(sig, "(0:1 1:1 0:1 1:2)")
    assert core_walker(act)(w) == 1
    assert semidirect_route(act)(w) == 1
    # flat word with a conjugation window: x * (y^g)
    w2 = parse_word(sig, "(1:1 0:1 1:1 0:1)")
    assert core_walker(act)(w2) == Z3.mul(1, 2)
    assert semidirect_route(act)(w2) == 0
    # trivial action: evaluation is plain multiplication of carrier letters
    tr = trivial_action(Z2, Z3)
    assert core_walker(tr)(w2) == 2


def test_action_core_rejects_unbalanced_words():
    act = inversion(Z2, Z3)
    sig = action_signature(act)
    bad = parse_word(sig, "(0:1 1:1)")
    with pytest.raises(GroupError):
        core_walker(act)(bad)
    with pytest.raises(GroupError):
        semidirect_route(act)(bad)
    wrong_sig = parse_word(action_signature(trivial_action(Z2, Z4)), "()")
    with pytest.raises(GroupError):
        semidirect_route(act)(wrong_sig)


def test_action_core_consistency_counts():
    assert action_core_consistency(inversion(Z2, Z3), 6) == 21
    assert action_core_consistency(inversion(Z2, Z4), 5) == 52
    assert action_core_consistency(conjugation_action(symmetric_group(3)), 4) == 281

import gc
import hashlib

import pytest

from xmodkit.corpus import axiom_corpus
from xmodkit.errors import GroupError
from xmodkit.groups import (
    cyclic_group, dihedral_group, hom, subgroup, symmetric_group, trivial_group,
)
from xmodkit.words import (
    FactorSignature, enumerate_cosmash_words, enumerate_flat_words,
    enumerate_words, format_word, in_flat, normalize, single,
)

from word_helpers import (
    WordHom, commutator, empty_word, fold_left, fold_right, fold_word,
    in_binary_cosmash, in_ternary_cosmash, parse_word,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
S3 = symmetric_group(3)
D4 = dihedral_group(4)
ONE = trivial_group()


def naive_members(sig, max_len, keeps):
    """Brute-force oracle: all words from raw letter strings, filter, dedupe."""
    k = len(sig)
    factors = sig.factors
    found = set()

    def gen(prefix, length):
        if len(prefix) == length:
            w = normalize(sig, prefix)
            if len(w.letters) != length:
                return
            for keep in keeps:
                kept = [(s, v) for (s, v) in w.letters if s in keep]
                if normalize(sig, kept).letters:
                    return
            found.add(w.letters)
            return
        for s in range(k):
            if prefix and prefix[-1][0] == s:
                continue
            for v in range(factors[s].order):
                if v != factors[s].identity:
                    gen(prefix + [(s, v)], length)

    for L in range(max_len + 1):
        gen([], L)
    return sorted(found, key=lambda ls: (len(ls), ls))


def test_normalize_rules():
    sig = FactorSignature((Z4, Z3))
    assert normalize(sig, ((0, 0), (1, 0))).letters == ()
    assert normalize(sig, ((0, 1), (0, 3))).letters == ()
    assert normalize(sig, ((0, 1), (0, 1))).letters == ((0, 2),)
    assert normalize(sig, ((0, 1), (1, 2), (1, 1), (0, 3))).letters == ()
    w = normalize(sig, ((0, 1), (1, 2), (0, 3)))
    assert w.letters == ((0, 1), (1, 2), (0, 3))


def test_word_algebra():
    sig = FactorSignature((Z4, Z3))
    u = normalize(sig, ((0, 1), (1, 2)))
    v = normalize(sig, ((1, 1), (0, 3)))
    assert (u * v).letters == ()
    assert u.inverse().letters == ((1, 1), (0, 3))
    assert (u * u.inverse()).letters == ()
    assert u * empty_word(sig) == u
    c = commutator(single(sig, 0, 1), single(sig, 1, 1))
    assert c.letters == ((0, 1), (1, 1), (0, 3), (1, 2))
    with pytest.raises(GroupError):
        u * normalize(FactorSignature((Z3, Z4)), ())


def test_signature_equality_is_structural():
    a = FactorSignature((Z4, Z3))
    b = FactorSignature((Z4, Z3))
    assert a == b and hash(a) == hash(b)
    assert normalize(a, ((0, 1),)) == normalize(b, ((0, 1),))
    assert a != FactorSignature((Z3, Z4))


def test_format_parse_round_trip():
    sig = FactorSignature((Z4, Z3))
    w = normalize(sig, ((0, 1), (1, 2), (0, 3)))
    assert format_word(w) == "(0:1 1:2 0:3)"
    assert parse_word(sig, format_word(w)) == w
    assert parse_word(sig, "()") == empty_word(sig)
    assert parse_word(sig, "(0:1^-1)").letters == ((0, 3),)
    with pytest.raises(GroupError):
        parse_word(sig, "(2:1)")
    with pytest.raises(GroupError):
        parse_word(sig, "(0:9)")
    with pytest.raises(GroupError):
        parse_word(sig, "0:1")


def test_word_hom_evaluation():
    sig = FactorSignature((Z2, Z3))
    f = hom(Z2, S3, {1: S3.index_of("(1 2)")})
    g = hom(Z3, S3, {1: S3.index_of("(1 2 3)")})
    wh = WordHom(sig, (f, g), S3)
    w = normalize(sig, ((0, 1), (1, 1)))
    assert wh.evaluate(w) == S3.mul(f(1), g(1))
    assert wh.evaluate(empty_word(sig)) == S3.identity
    with pytest.raises(GroupError):
        WordHom(sig, (f,), S3)


def test_projection_and_membership():
    sig = FactorSignature((Z2, Z2))
    c = commutator(single(sig, 0, 1), single(sig, 1, 1))
    assert in_binary_cosmash(c)
    assert not in_binary_cosmash(single(sig, 0, 1))
    one = FactorSignature((Z2,))
    assert fold_word(c, one, (None, 0)).letters == ()
    assert fold_word(c, one, (0, None)).letters == ()
    assert in_flat(normalize(sig, ((1, 1),)))
    assert not in_flat(normalize(sig, ((0, 1), (1, 1))))

    tsig = FactorSignature((Z2, Z2, Z2))
    assert in_ternary_cosmash(empty_word(tsig))
    bc = commutator(single(tsig, 0, 1), single(tsig, 1, 1))
    assert not in_ternary_cosmash(bc)  # the 01-projection survives
    with pytest.raises(GroupError):
        in_ternary_cosmash(c)


def test_map_and_fold_words():
    sig = FactorSignature((Z4, Z4))
    w = normalize(sig, ((0, 1), (1, 2), (0, 3)))
    doubled = fold_word(w, sig, (0, 1), (lambda v: (2 * v) % 4, lambda v: v))
    assert doubled.letters == ((0, 2), (1, 2), (0, 2))
    # slot merge is evaluation in the target factor
    one = fold_word(w, FactorSignature((Z4,)), (0, 0))
    assert one.letters == ((0, 2),)
    # deletion
    assert fold_word(w, FactorSignature((Z4,)), (0, None)).letters == ()


def test_fold_left_right_against_evaluation():
    sig3 = FactorSignature((Z4, Z4, Z3))
    wh3 = None
    for w in enumerate_words(sig3, 3):
        f = fold_left(w)
        assert f.sig == FactorSignature((Z4, Z3))
        # evaluation through any hom pair must be unchanged
        a = hom(Z4, S3, {1: S3.index_of("(1 2)")})  # order 2 image kills 4-torsion
        b = hom(Z3, S3, {1: S3.index_of("(1 2 3)")})
        before = WordHom(sig3, (a, a, b), S3).evaluate(w)
        after = WordHom(f.sig, (a, b), S3).evaluate(f)
        assert before == after

    sigR = FactorSignature((Z3, Z4, Z4))
    for w in enumerate_words(sigR, 3):
        f = fold_right(w)
        assert f.sig == FactorSignature((Z3, Z4))
    with pytest.raises(GroupError):
        fold_left(normalize(FactorSignature((Z4, Z3, Z4)), ()))


def test_enumeration_against_naive_oracle():
    cases = [
        (FactorSignature((Z2, Z2)), 4, [{0}, {1}], enumerate_cosmash_words),
        (FactorSignature((Z3, Z4)), 6, [{0}, {1}], enumerate_cosmash_words),
        (FactorSignature((Z2, Z3)), 5, [{0}], enumerate_flat_words),
        (FactorSignature((Z3, Z3)), 4, [], enumerate_words),
        (FactorSignature((Z2, Z2, Z2)), 10, [{0, 1}, {0, 2}, {1, 2}],
         enumerate_cosmash_words),
        (FactorSignature((Z2, Z3, Z2)), 10, [{0, 1}, {0, 2}, {1, 2}],
         enumerate_cosmash_words),
        (FactorSignature((Z3, Z2, Z2)), 10, [{0, 1}, {0, 2}, {1, 2}],
         enumerate_cosmash_words),
        (FactorSignature((Z3, Z2)), 8, [{0}, {1}], enumerate_cosmash_words),
        (FactorSignature((Z3, Z2)), 8, [{0}], enumerate_flat_words),
        # nonabelian factors, where the order of a slot's letters matters
        (FactorSignature((S3, S3)), 6, [{0}, {1}], enumerate_cosmash_words),
        (FactorSignature((S3, D4)), 5, [{0}], enumerate_flat_words),
        (FactorSignature((S3, Z2, Z3)), 4, [], enumerate_words),
        # one slot, and trivial factors, whose slots hold no letter
        (FactorSignature((Z3,)), 3, [], enumerate_words),
        (FactorSignature((Z2, ONE, Z3)), 5, [], enumerate_words),
        (FactorSignature((ONE, S3)), 4, [{0}], enumerate_flat_words),
        (FactorSignature((S3, ONE)), 4, [{0}, {1}], enumerate_cosmash_words),
    ]
    for sig, L, keeps, enum in cases:
        mine = [w.letters for w in enum(sig, L)]
        assert mine == naive_members(sig, L, keeps)
    assert [len(enum(sig, L)) for sig, L, _, enum in cases[-4:]] == [3, 34, 6, 1]


def test_ternary_dfs_merges_that_do_not_cancel():
    """Over (Z3, Z2, Z2) the pruned DFS first merges a letter into a stack top
    without cancelling it at length 11, 48 times; its 81 words there are the
    brute-force filter of all 78,617 reduced words."""
    sig = FactorSignature((Z3, Z2, Z2))
    every = enumerate_words(sig, 11)
    assert len(every) == 78617
    mine = [w.letters for w in enumerate_cosmash_words(sig, 11)]
    assert len(mine) == 81
    assert mine == [w.letters for w in every if in_ternary_cosmash(w)]


@pytest.mark.parametrize("enum", [enumerate_words, enumerate_cosmash_words,
                                  enumerate_flat_words])
def test_enumerators_refuse_bad_arguments(enum):
    sig = FactorSignature((Z3, Z4))
    with pytest.raises(GroupError, match="enumeration length -1 is negative"):
        enum(sig, -1)
    with pytest.raises(GroupError, match="enumeration length 13 exceeds cap 12"):
        enum(sig, 13)
    with pytest.raises(GroupError, match="factors must be groups"):
        FactorSignature((FactorSignature((Z2, Z3)), Z4))


def test_enumeration_frozen_counts():
    assert len(enumerate_cosmash_words(FactorSignature((Z2, Z2)), 4)) == 3
    assert len(enumerate_cosmash_words(FactorSignature((Z3, Z4)), 6)) == 55
    assert len(enumerate_flat_words(FactorSignature((Z2, Z3)), 5)) == 21
    assert len(enumerate_words(FactorSignature((Z3, Z3)), 4)) == 61
    t222 = enumerate_cosmash_words(FactorSignature((Z2, Z2, Z2)), 10)
    assert len(t222) == 31
    assert sorted(set(len(w) for w in t222)) == [0, 10]
    t444 = enumerate_cosmash_words(FactorSignature((Z4, Z4, Z4)), 10)
    assert len(t444) == 811
    assert sorted(set(len(w) for w in t444)) == [0, 10]


def _digest(words):
    return hashlib.sha256(repr([w.letters for w in words]).encode()).hexdigest()[:16]


# (G, T, T) at length 8, (G, T) and (T, T) at length 4: the signatures `check`
# enumerates for each inclusion and conjugation module of the axiom corpus
LIBRARY_DIGESTS = {
    "normal:S3:1": ("b18a48f02566e615", "b18a48f02566e615", "b18a48f02566e615"),
    "normal:S3:3": ("b18a48f02566e615", "7c89ee68aee73799", "1c393bf80c996f78"),
    "normal:S3:6": ("b18a48f02566e615", "73d64c3962257484", "73d64c3962257484"),
    "normal:S4:1": ("b18a48f02566e615", "b18a48f02566e615", "b18a48f02566e615"),
    "normal:S4:4": ("b18a48f02566e615", "87e6256e5ade17d1", "e0df4f84cb054ed7"),
    "normal:S4:12": ("b18a48f02566e615", "cef08183ac218188", "0665704139027853"),
    "normal:S4:24": ("b18a48f02566e615", "54e188f09d3b2f6d", "54e188f09d3b2f6d"),
    "normal:D4:1": ("b18a48f02566e615", "b18a48f02566e615", "b18a48f02566e615"),
    "normal:D4:2": ("b18a48f02566e615", "5af8126dc5632ab9", "f6857b50d5fcbd3f"),
    "normal:D4:4": ("b18a48f02566e615", "dc8af95a88b19321", "e0df4f84cb054ed7"),
    "normal:D4:4.1": ("b18a48f02566e615", "dc8af95a88b19321", "e0df4f84cb054ed7"),
    "normal:D4:4.2": ("b18a48f02566e615", "b746a330f4322dd2", "ae38a9fc1ba1105d"),
    "normal:D4:8": ("b18a48f02566e615", "692ed67c8984eb92", "692ed67c8984eb92"),
    "normal:Q8:1": ("b18a48f02566e615", "b18a48f02566e615", "b18a48f02566e615"),
    "normal:Q8:2": ("b18a48f02566e615", "7d8987c83884322c", "f6857b50d5fcbd3f"),
    "normal:Q8:4": ("b18a48f02566e615", "6e7ffb7e95dd8c00", "1fea044eb53183c4"),
    "normal:Q8:4.1": ("b18a48f02566e615", "6e7ffb7e95dd8c00", "1fea044eb53183c4"),
    "normal:Q8:4.2": ("b18a48f02566e615", "6e7ffb7e95dd8c00", "1fea044eb53183c4"),
    "normal:Q8:8": ("b18a48f02566e615", "0de4be09fcfbcdbd", "0de4be09fcfbcdbd"),
    "conj:S3": ("b18a48f02566e615", "73d64c3962257484", "73d64c3962257484"),
    "conj:D4": ("b18a48f02566e615", "692ed67c8984eb92", "692ed67c8984eb92"),
    "conj:Q8": ("b18a48f02566e615", "0de4be09fcfbcdbd", "0de4be09fcfbcdbd"),
    "conj:Z4": ("b18a48f02566e615", "ae38a9fc1ba1105d", "ae38a9fc1ba1105d"),
}


def test_enumeration_digests_on_library_modules():
    seen = {}
    for name, xm, _valid in axiom_corpus():
        if name.startswith(("normal:", "conj:")):
            G, T = xm.codomain(), xm.domain()
            seen[name] = (
                _digest(enumerate_cosmash_words(FactorSignature((G, T, T)), 8)),
                _digest(enumerate_cosmash_words(FactorSignature((G, T)), 4)),
                _digest(enumerate_cosmash_words(FactorSignature((T, T)), 4)))
    assert seen == LIBRARY_DIGESTS


def test_enumeration_digests_at_length_ten():
    A3 = subgroup(S3, [x for x in range(6) if S3.elem_orders[x] in (1, 3)])[0]
    got = [(len(ws), _digest(ws)) for ws in (
        enumerate_cosmash_words(FactorSignature(fs), 10)
        for fs in ((Z2, Z2, Z2), (Z4, Z4, Z4), (S3, A3, A3), (D4, D4, D4)))]
    assert got == [(31, "073d23cb3fb2482c"), (811, "30351f43a8e8545e"),
                   (601, "0cbeb5f3f3fd8caf"), (10291, "90b0d3fd4902cf51")]


def test_flat_and_plain_enumeration_digests():
    got = [(len(ws), _digest(ws)) for ws in (
        enumerate_flat_words(FactorSignature((Z4, S3)), 7),
        enumerate_flat_words(FactorSignature((S3, Z2)), 8),
        enumerate_words(FactorSignature((Z2, Z3)), 8),
        enumerate_words(FactorSignature((S3, Z3)), 6))]
    assert got == [(8571, "01021424b4289d68"), (417, "880537b357062dfb"),
                   (106, "935645ac150182a6"), (2998, "a17d5bc1a88ef57c")]


def test_ternary_short_lengths_only_empty():
    # no nonempty member below length 10, for any factors
    out = enumerate_cosmash_words(FactorSignature((Z4, Z4, Z4)), 8)
    assert [w.letters for w in out] == [()]


def test_enumerated_words_are_members():
    sig = FactorSignature((Z3, Z4))
    for w in enumerate_cosmash_words(sig, 6):
        assert in_binary_cosmash(w)
    tsig = FactorSignature((Z2, Z2, Z2))
    for w in enumerate_cosmash_words(tsig, 10):
        assert in_ternary_cosmash(w)


def test_enumeration_is_sorted_and_capped():
    sig = FactorSignature((Z3, Z4))
    ws = enumerate_cosmash_words(sig, 6)
    keys = [(len(w.letters), w.letters) for w in ws]
    assert keys == sorted(keys)
    with pytest.raises(GroupError):
        enumerate_words(sig, 13)


def test_enumeration_leaves_no_reference_cycles():
    """The word enumeration is freed by reference counting alone."""
    sig = FactorSignature((Z3, Z2))
    gc.collect()
    gc.disable()
    try:
        assert enumerate_cosmash_words(sig, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()

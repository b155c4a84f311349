"""First solutions of every section search, and every hom table, frozen.

The section tables below reach `lift --json` reports, so a change in the
order in which a search tries candidates must show up here even when every
verdict stays the same.  Each corpus is pinned by a digest of the full list
of tables (None where no section exists); a few small tables are written
out so that a failure is readable.  Hom enumeration, isomorphism and
retraction searches are pinned the same way.
"""
import hashlib
import random

from xmodkit.actions import action_from_function, semidirect_product
from xmodkit.corpus import (
    projective_section_corpus, pullback_section_corpus, sse_morphism_corpus,
)
from xmodkit.groups import (
    FiniteGroup, cyclic_group, dihedral_group, direct_product, enumerate_homs,
    find_isomorphism, find_section, normal_subgroups,
    quaternion_group, quotient, subgroup, symmetric_group, z4_module,
)
from xmodkit.lifting import find_xmod_section, projective_section, pullback_section
from xmodkit.sse import is_regular_epi

from group_helpers import find_retraction


def _tables(s):
    if s is None:
        return None
    if hasattr(s, "fG"):
        return (s.fT.table, s.fG.table)
    return s.table


def _digest(tables):
    return hashlib.sha256(repr(tables).encode()).hexdigest()


def test_find_section_on_normal_quotients():
    found = {}
    for G in (symmetric_group(4), dihedral_group(4), quaternion_group()):
        found[G.label] = [_tables(find_section(quotient(G, N)[1]))
                          for N in normal_subgroups(G) if 1 < len(N) < G.order]
    assert found == {
        "S4": [(0, 1, 2, 3, 4, 5), (0, 1)],
        "D4": [None, (0, 2), (0, 1), (0, 1)],
        "Q8": [None, None, None, None],
    }


def test_find_xmod_section_on_sse_corpus():
    sections = [find_xmod_section(m)
                for m in sse_morphism_corpus() if is_regular_epi(m)]
    # over a fixed base every section keeps the base fixed; pin the carriers
    assert all(s.fG.table == tuple(range(s.fG.source.order))
               for s in sections if s is not None)
    found = [None if s is None else s.fT.table for s in sections]
    assert len(found) == 44 and found.count(None) == 8
    assert found[:6] == [(0,), (0,), (0, 1), (0,), (0, 2), (0, 1)]
    assert _digest(found) == (
        "40bf2fcb312faf6e40171d678baa96f0e07dcd3f41db5c9a1498501258bd9771")


def test_find_xmod_section_on_section_corpora():
    found = [_tables(find_xmod_section(m)) for m, _ in projective_section_corpus()]
    found += [_tables(find_xmod_section(m)) for m in pullback_section_corpus()]
    assert len(found) == 36 and None not in found
    assert found[:2] == [((0, 1), (0, 1, 2, 3)), ((0, 2), (0, 1, 4, 5))]
    assert _digest(found) == (
        "dd89b52a32c19aa3bd4d84484fe009a03120271dbb89a8468cbe9ea1a94d03ef")


def test_certificate_sections_on_section_corpora():
    proj = [_tables(projective_section(m, ext).section)
            for m, ext in projective_section_corpus()]
    assert proj[:2] == [((0, 1), (0, 1, 2, 3)), ((0, 2), (0, 1, 4, 5))]
    assert _digest(proj) == (
        "dc573e1d03eac542900b6272ca51dbeaac0b3fa828917249b9e4d0131da29dc2")
    pb = [_tables(pullback_section(m).section) for m in pullback_section_corpus()]
    assert pb[0] == ((0, 2), (0, 2, 4, 6))
    assert _digest(pb) == (
        "54473aed2fa7632ee7b692d0e9d9f6028a0c54df719df2d88ce11aa3eec0a144")


def _product(*gs):
    P = gs[0]
    for G in gs[1:]:
        P = direct_product(P, G)[0]
    return P


def _z4_by_z4():
    Z4 = cyclic_group(4)
    return semidirect_product(action_from_function(
        Z4, Z4, lambda g, x: (-x) % 4 if g % 2 else x)).total


def _relabeled(G, seed):
    """G on element indices permuted by a seeded shuffle."""
    perm = list(range(G.order))
    random.Random(seed).shuffle(perm)
    inv = [0] * G.order
    for old, new in enumerate(perm):
        inv[new] = old
    return FiniteGroup([[perm[G.table[inv[a]][inv[b]]] for b in range(G.order)]
                        for a in range(G.order)], label=G.label + "'")


def test_enumerate_homs_tables_on_library_pairs():
    Q8, S3, S4 = quaternion_group(), symmetric_group(3), symmetric_group(4)
    pairs = [(Q8, Q8), (S3, S3), (S4, S4), (z4_module(2, 0), z4_module(2, 0)),
             (z4_module(3, 0), z4_module(1, 1)), (z4_module(0, 5), z4_module(0, 2)),
             (z4_module(2, 0), z4_module(3, 0)), (dihedral_group(4), Q8),
             (Q8, dihedral_group(4)), (dihedral_group(6), S3)]
    found = [[f.table for f in enumerate_homs(G, H)] for G, H in pairs]
    assert [len(t) for t in found] == [28, 10, 58, 256, 512, 1024, 4096, 4, 28, 16]
    assert found[1][:3] == [(0, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1), (0, 2, 2, 0, 0, 2)]
    assert _digest(found) == (
        "30fb391941c2e4d4e4e66997c1f0809b4f0886e48c1514c12e4ac31e3dcb6f35")


def test_find_isomorphism_tables_on_library_groups():
    Q8, D4, Z2, Z4 = quaternion_group(), dihedral_group(4), cyclic_group(2), cyclic_group(4)
    groups = [dihedral_group(16), _product(Q8, Z4), _product(D4, Z4),
              _product(Q8, Z4, Z2), _product(D4, D4), dihedral_group(32)]
    found = [find_isomorphism(G, _relabeled(G, 1)).table for G in groups]
    assert _digest(found) == (
        "24e9094b54fc262fca9d617fe20dd4c774757b8cb1736a7aed9626ebcc0a4dfe")
    Z4sZ4 = _z4_by_z4()
    assert find_isomorphism(Z4sZ4, _relabeled(_product(Q8, Z2), 2)) is None
    assert find_isomorphism(_product(Z4sZ4, Z2), _relabeled(_product(Q8, Z2, Z2), 2)) is None


def test_find_retraction_tables_on_normal_inclusions():
    found = []
    for G in (symmetric_group(4), dihedral_group(4), quaternion_group(),
              z4_module(1, 1), _product(symmetric_group(3), cyclic_group(2))):
        for N in normal_subgroups(G):
            r = find_retraction(subgroup(G, N)[1])
            found.append(None if r is None else r.table)
    assert len(found) == 31 and found.count(None) == 14
    assert found[1:3] == [None, None] and found[4] == (0,) * 8
    assert _digest(found) == (
        "7f9b57aceab358c6bc5becdb1feb4dbb59817fbddeaf9f6da12b0c7441b700dc")

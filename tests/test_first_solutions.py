"""First solutions of every section search, frozen.

The section tables below reach `lift --json` reports, so a change in the
order in which a search tries candidates must show up here even when every
verdict stays the same.  Each corpus is pinned by a digest of the full list
of tables (None where no section exists); a few small tables are written
out so that a failure is readable.
"""
import hashlib

from xmodkit.corpus import (
    projective_section_corpus, pullback_section_corpus, sse_morphism_corpus,
)
from xmodkit.groups import (
    dihedral_group, find_section, normal_subgroups, quaternion_group, quotient,
    symmetric_group,
)
from xmodkit.lifting import find_xmod_section, projective_section, pullback_section
from xmodkit.sse import brute_force_section, is_regular_epi


def _tables(s):
    if s is None:
        return None
    if hasattr(s, "fG"):
        return (s.fT.table, s.fG.table)
    if hasattr(s, "fT"):
        return s.fT.table
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


def test_brute_force_section_on_sse_corpus():
    found = [_tables(brute_force_section(m))
             for m in sse_morphism_corpus() if is_regular_epi(m)]
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

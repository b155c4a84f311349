"""Group helpers that only the tests use: a normality predicate and the
retraction search, kept beside the tests that pin their answers."""
from xmodkit.groups import GroupHom, normality_witness, search_homs


def is_normal(G, elems):
    return normality_witness(G, elems) is None


def find_retraction(f, budget=None):
    """A hom r with r(f(t)) = t for all t, or None once the search is exhausted."""
    src, tgt = f.source, f.target
    if not f.is_injective():
        return None
    prescribed = {f.table[t]: t for t in range(src.order)}
    cands = lambda g: range(src.order)
    for table in search_homs(tgt, src, cands, prescribed=prescribed,
                             budget=budget):
        return GroupHom(tgt, src, table)
    return None

"""Independent derivations of the expected answers that have no closed form.

These use only group tables and brute force written here, never the hom
search or normal_subgroups they vouch for.
"""

import itertools
import json

import pytest

import run
import workloads

EXPECTED = json.loads((run.BENCH / "expected.json").read_text(encoding="utf-8"))
LIB = workloads.hom_search_groups()


def _subgroups(G, max_gens=3):
    """Every subgroup generated by at most ``max_gens`` elements."""
    found = set()
    for k in range(max_gens + 1):
        for gens in itertools.combinations(range(G.order), k):
            found.add(frozenset(workloads._closure(G, gens)))
    return found


def _is_normal(G, H):
    return all(G.table[G.table[g][h]][G._inv[g]] in H
               for g in range(G.order) for h in H)


@pytest.mark.parametrize("label", workloads.SECTION_GROUPS)
def test_quotient_and_split_counts(label):
    G = LIB[label]
    subs = _subgroups(G)
    normal = [H for H in subs if _is_normal(G, H) and 1 < len(H) < G.order]
    split = sum(1 for N in normal
                if any(len(H) * len(N) == G.order and len(H & N) == 1
                       for H in subs))
    assert EXPECTED["hom-search"][f"sections:{label}"]["answer"] == {
        "quotients": len(normal), "split": split}


@pytest.mark.parametrize("a, b", workloads.NON_ISO_PAIRS)
def test_non_isomorphic_pairs_differ_in_squares(a, b):
    G, H = LIB[a], LIB[b]
    assert sorted(G.elem_orders) == sorted(H.elem_orders)
    assert G.commutative == H.commutative
    squares = [len({X.table[x][x] for x in range(X.order)}) for X in (G, H)]
    assert squares[0] != squares[1]
    assert EXPECTED["hom-search"][f"iso:{a}~{b}"]["answer"] == {"isomorphic": False}


def test_bijection_pair_counts():
    def homs_from_v4(G):  # commuting pairs of elements of order <= 2
        inv = [x for x in range(G.order) if G.table[x][x] == G.identity]
        return sum(1 for x in inv for y in inv if G.table[x][y] == G.table[y][x])

    def homs_from_cyclic(n, G):  # elements with x^n = 1
        return sum(1 for x in range(G.order) if G.power(x, n) == G.identity)

    counts = {"bijection:Z4>D4": homs_from_cyclic(4, LIB["D4"]) ** 2,
              "bijection:V4>S3": homs_from_v4(LIB["S3"]) ** 2}
    for op_id, pairs in counts.items():
        assert EXPECTED["hom-search"][op_id]["answer"]["pairs"] == pairs

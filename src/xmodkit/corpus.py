"""Deterministic instance corpora shared by the tests and the audit command.

Every builder returns the same instances in the same order on every call, so
frozen expectations stay meaningful.  The corpora favor variety over bulk:
abelian and nonabelian carriers, trivial and faithful actions, split and
non-split quotients, valid crossed modules and known axiom violations.
"""

from itertools import chain

from .groups import (
    GroupHom, cyclic_group, dihedral_group, direct_product, gatherer, identity_hom,
    klein_four_group, normal_subgroups, quaternion_group, subgroup,
    symmetric_group, trivial_group, trivial_hom,
)
from .actions import (
    GroupAction, action_from_function, conjugation_action, semidirect_product,
    trivial_action,
)
from .xmod import (
    CrossedModule, XModMorphism, conjugation_xmod, discrete_xmod,
    identity_morphism, inclusion_xmod, module_xmod, product_split_ses,
    xmod_from_normal_subgroup, xmod_product,
)
from .sse import enumerate_sse_morphisms
from .lifting import inclusion_base_action


def _cyclic_prod(orders, label):
    """Direct product of cyclic groups of the given orders."""
    G = cyclic_group(orders[0], label=label if len(orders) == 1 else None)
    for o in orders[1:]:
        G = direct_product(G, cyclic_group(o), label=label)[0]
    return G


def _inversion_action(actor, carrier, parity):
    """Actor acts on an abelian carrier by inversion through a parity map."""
    return action_from_function(
        actor, carrier,
        lambda g, x: x if parity(g) == 0 else carrier.inv(x))


def axiom_corpus():
    """Labeled crossed modules with their expected validity.

    Returns a list of (name, crossed module, valid) triples.  The invalid
    entries are built with check=False and each breaks a known axiom: two
    break only the Peiffer identity, three break only equivariance, one
    breaks both.
    """
    out = []

    S3 = symmetric_group(3)
    S4 = symmetric_group(4)
    D4 = dihedral_group(4)
    Q8 = quaternion_group()
    for G in (S3, S4, D4, Q8):
        seen = {}
        for elems in normal_subgroups(G):
            xm = xmod_from_normal_subgroup(G, elems)
            base = f"normal:{G.label}:{len(elems)}"
            k = seen.get(base, 0)
            seen[base] = k + 1
            out.append((base + (f".{k}" if k else ""), xm, True))

    K4 = klein_four_group()
    Z = {n: cyclic_group(n) for n in (1, 2, 3, 4, 5, 6)}
    Z2xZ4 = direct_product(Z[2], Z[4])[0]
    for G in (Z[1], Z[2], Z[3], Z[4], Z[5], Z[6], K4, Z2xZ4, S3, D4, Q8):
        out.append((f"discrete:{G.label}", discrete_xmod(G), True))

    swap = action_from_function(Z[2], K4, _k4_swap_fn())
    module_actions = [
        ("module:triv-Z2-Z2", trivial_action(Z[2], cyclic_group(2))),
        ("module:triv-Z3-Z3", trivial_action(Z[3], cyclic_group(3))),
        ("module:triv-Z4-Z2", trivial_action(Z[4], cyclic_group(2))),
        ("module:triv-V4-Z2", trivial_action(K4, cyclic_group(2))),
        ("module:inv-Z2-Z3", _inversion_action(Z[2], cyclic_group(3),
                                               lambda g: g)),
        ("module:inv-Z2-Z4", _inversion_action(Z[2], cyclic_group(4),
                                               lambda g: g)),
        ("module:inv-Z6-Z3", _inversion_action(Z[6], cyclic_group(3),
                                               lambda g: g % 2)),
        ("module:swap-Z2-V4", swap),
    ]
    for name, act in module_actions:
        out.append((name, module_xmod(act), True))

    for G in (S3, D4, Q8, Z[4]):
        out.append((f"conj:{G.label}", conjugation_xmod(G), True))

    a3 = [x for x in range(6) if S3.elem_orders[x] in (1, 3)]
    small_valid = [
        xmod_from_normal_subgroup(S3, a3),
        discrete_xmod(Z[2]),
        module_xmod(trivial_action(Z[2], cyclic_group(2))),
        conjugation_xmod(S3),
    ]
    # (3, 3) would need a 1296-element semidirect total for the coequalizer
    # route, past the dense-table cap, so the biggest product pairs the
    # conjugation entry with a discrete factor instead
    pairs = [(0, 1), (0, 2), (1, 2), (2, 3), (1, 1), (3, 1)]
    for i, j in pairs:
        xm = xmod_product(small_valid[i], small_valid[j])[0]
        out.append((f"product:{xm.label}", xm, True))

    one = trivial_group()
    out.append(("bad:both:S3-id-trivial-action",
                CrossedModule(trivial_action(S3, S3), identity_hom(S3),
                              check=False), False))
    out.append(("bad:peiffer:S3-over-1",
                CrossedModule(trivial_action(one, S3), trivial_hom(S3, one),
                              check=False), False))
    out.append(("bad:peiffer:D4-over-1",
                CrossedModule(trivial_action(one, D4), trivial_hom(D4, one),
                              check=False), False))
    A3sub, A3incl = subgroup(S3, a3)
    out.append(("bad:equivariance:A3-in-S3-trivial-action",
                CrossedModule(trivial_action(S3, A3sub), A3incl,
                              check=False), False))
    Z6, Z3s, incl36 = _z3_in_z6()
    out.append(("bad:equivariance:Z3-in-Z6-inversion",
                CrossedModule(_inversion_action(Z6, Z3s, lambda g: g % 2),
                              incl36, check=False), False))
    V, Vincl = _d4_normal_four(D4, 2)
    out.append(("bad:equivariance:V4-in-D4-trivial-action",
                CrossedModule(trivial_action(D4, V), Vincl,
                              check=False), False))
    return out


def ternary_fixtures():
    """Precrossed modules on which the ternary law can fail, with controls.

    Each group acts on itself by conjugation with the trivial boundary:
    equivariant, but Peiffer fails on every non-commuting pair.  By the
    argument in `xmod.check_ternary`, the bracket words then detect Peiffer
    failures at s in [G, T].  S3 has such failures and fires; D4 and Q8 have
    nilpotency class 2, so every triple commutator is trivial and they stay
    clean.  Returns (name, precrossed module, fires) triples.  Kept out of
    `axiom_corpus`, whose entries and counts are pinned elsewhere.
    """
    out = []
    for G, fires in ((symmetric_group(3), True), (dihedral_group(4), False),
                     (quaternion_group(), False)):
        xm = CrossedModule(conjugation_action(G), trivial_hom(G, G), check=False,
                           label=f"({G.label}=>{G.label},1)")
        out.append((f"ternary:conj-trivial:{G.label}", xm, fires))
    return out


def _z3_in_z6():
    Z6 = cyclic_group(6)
    S, incl = subgroup(Z6, [0, 2, 4])
    return Z6, S, incl


def _d4_normal_four(D4, exponent):
    # exponent 4: the rotations; 2: a Klein subgroup, whose reflections conjugation moves
    for elems in normal_subgroups(D4):
        if len(elems) == 4:
            S, incl = subgroup(D4, elems)
            if S.exponent == exponent:
                return S, incl
    raise AssertionError(f"D4 lost its normal subgroups of exponent {exponent}")


def split_ses_corpus():
    """Product split short exact sequences b -> a x b -> a, 30 of them."""
    S3 = symmetric_group(3)
    Z2 = cyclic_group(2)
    Z3 = cyclic_group(3)
    Z4 = cyclic_group(4)
    K4 = klein_four_group()
    D4 = dihedral_group(4)
    a3 = [x for x in range(6) if S3.elem_orders[x] in (1, 3)]
    pool = [
        xmod_from_normal_subgroup(S3, a3),
        discrete_xmod(Z2),
        discrete_xmod(Z3),
        discrete_xmod(S3),
        module_xmod(trivial_action(Z2, cyclic_group(2))),
        module_xmod(_inversion_action(Z2, cyclic_group(3), lambda g: g)),
        conjugation_xmod(Z4),
        conjugation_xmod(K4),
        conjugation_xmod(S3),
        xmod_from_normal_subgroup(D4, [x for x in range(8)
                                       if D4.elem_orders[x] in (1, 2)
                                       and is_central(D4, x)]),
    ]
    out = []
    for i, a in enumerate(pool):
        for j in (0, 1, 2):
            b = pool[(i + j + 1) % len(pool)]
            if a.codomain().order * b.codomain().order <= 160:
                out.append(product_split_ses(a, b))
    return out


def is_central(G, x):
    return all(G.mul(x, g) == G.mul(g, x) for g in range(G.order))


def sse_morphism_corpus(budget=None):
    """Morphisms over a fixed base, pooled over two bases.  Exhaustive per pair.

    Pool one lives over Z2 with abelian carriers, pool two over S3 with a
    mix of discrete, inclusion, module, and conjugation shapes.  All ordered
    pairs of pool members contribute every morphism between them.  `budget`
    bounds each carrier hom search.
    """
    out = []

    B2 = cyclic_group(2, label="B2")
    Z2xZ4 = direct_product(cyclic_group(2), cyclic_group(4))[0]
    pool1 = [
        discrete_xmod(B2),
        module_xmod(trivial_action(B2, cyclic_group(2))),
        module_xmod(trivial_action(B2, klein_four_group())),
        module_xmod(trivial_action(B2, Z2xZ4)),
        module_xmod(_inversion_action(B2, cyclic_group(4), lambda g: g)),
        xmod_from_normal_subgroup(B2, [0, 1]),
    ]
    for src in pool1:
        for tgt in pool1:
            out.extend(enumerate_sse_morphisms(src, tgt, budget=budget))

    S3 = symmetric_group(3)
    a3 = [x for x in range(6) if S3.elem_orders[x] in (1, 3)]
    sign_inv = _inversion_action(S3, cyclic_group(3),
                                 lambda g: 0 if S3.elem_orders[g] in (1, 3) else 1)
    pool2 = [
        discrete_xmod(S3),
        xmod_from_normal_subgroup(S3, a3),
        conjugation_xmod(S3),
        module_xmod(trivial_action(S3, cyclic_group(2))),
        module_xmod(sign_inv),
    ]
    for src in pool2:
        for tgt in pool2:
            out.extend(enumerate_sse_morphisms(src, tgt, budget=budget))
    return out


# -- section-construction corpora ---------------------------------------------


def collapse_epi(ext, K):
    """Levelwise epi onto the inclusion crossed module of `ext`.

    The source extension has kernel Q x K with the action extended trivially
    on K; the morphism projects K away on both levels.  Q x K -> Q is
    equivariant because K is acted on trivially, so this is always a valid
    crossed-module morphism, and it is levelwise surjective.
    """
    Q, P = ext.kernel_group, ext.base
    tgt = inclusion_xmod(ext.k)
    psi = inclusion_base_action(tgt, ext)
    QK = direct_product(Q, K)[0]
    m = K.order
    act2 = GroupAction(P, QK, [[row[x // m] * m + x % m for x in range(QK.order)]
                               for row in psi], check=False)  # valid, as above
    ext2 = semidirect_product(act2)
    src = inclusion_xmod(ext2.k)
    fT = GroupHom._trusted(QK, Q, tuple(x // m for x in range(QK.order)))
    # the source total is canonically encoded as e = (q*|K| + k)*|P| + p and
    # e goes to k(q) s(p); the target may use any encoding, so go through its
    # own k and s maps: block q is row k(q) read at s, once per element of K
    at_s = gatherer(ext.s.table)
    fG = GroupHom._trusted(ext2.total, ext.total, tuple(chain.from_iterable(
        at_s(ext.total.table[kq]) * m for kq in ext.k.table)))
    return XModMorphism(src, tgt, fT, fG, check=False)  # valid, as above


def projective_section_corpus():
    """(epi, extension) pairs whose four-step section construction must succeed.

    Eight target extensions of different shapes, each hit by its identity and
    by collapse epis with Z2 and Z3 fibers: 24 instances.
    """
    Z2 = cyclic_group(2)
    Z3 = cyclic_group(3)

    exts = []
    exts.append(semidirect_product(trivial_action(cyclic_group(2), cyclic_group(2))))
    exts.append(semidirect_product(trivial_action(cyclic_group(3), cyclic_group(4))))
    exts.append(semidirect_product(_inversion_action(cyclic_group(2), cyclic_group(4),
                                                     lambda g: g)))
    exts.append(semidirect_product(_inversion_action(cyclic_group(2), cyclic_group(3),
                                                     lambda g: g)))
    exts.append(semidirect_product(_k4_rotation_action()))
    exts.append(semidirect_product(trivial_action(cyclic_group(2), klein_four_group())))
    exts.append(semidirect_product(action_from_function(
        cyclic_group(2), klein_four_group(), _k4_swap_fn())))
    exts.append(semidirect_product(trivial_action(cyclic_group(4), cyclic_group(4))))

    out = []
    for ext in exts:
        tgt = inclusion_xmod(ext.k)
        out.append((identity_morphism(tgt), ext))
        out.append((collapse_epi(ext, Z2), ext))
        out.append((collapse_epi(ext, Z3), ext))
    return out


def _k4_swap_fn():
    def fn(g, x):
        if g == 0:
            return x
        return (x % 2) * 2 + x // 2
    return fn


def _k4_rotation_action():
    """Z3 permuting the three involutions of the Klein group cyclically."""
    Z3 = cyclic_group(3)
    K4 = klein_four_group()
    cycle = {0: 0, 1: 2, 2: 3, 3: 1}
    def fn(g, x):
        for _ in range(g):
            x = cycle[x]
        return x
    return action_from_function(Z3, K4, fn)


def no_section_fixture():
    """A levelwise epi with base lifts but no equivariant carrier section.

    The target is Z2 sitting in Z2 x Z2 with the trivial action.  The source
    carrier is the Klein group with the order-two automorphism fixing b and
    swapping a with ab; its two plain sections of the carrier map both move
    under that automorphism, so step two of the section construction is a
    proof of nonexistence.
    """
    P2 = cyclic_group(2, label="P")
    Q2 = cyclic_group(2, label="Q")
    ext_t = semidirect_product(trivial_action(P2, Q2))
    tgt = inclusion_xmod(ext_t.k)

    K4 = klein_four_group()
    C2 = cyclic_group(2, label="C")
    # indices of K4: 0=(0,0), 1=(0,1)=b, 2=(1,0)=a, 3=(1,1)=ab
    sigma = {0: 0, 1: 1, 2: 3, 3: 2}
    act = action_from_function(C2, K4,
                               lambda g, x: x if g == 0 else sigma[x])
    ext_s = semidirect_product(act)
    src = inclusion_xmod(ext_s.k)
    fT = GroupHom(K4, ext_t.kernel_group,
                  tuple(0 if x in (0, 1) else 1 for x in range(4)))
    fG = GroupHom(ext_s.total, ext_t.total,
                  tuple(fT.table[e // 2] * 2 + e % 2
                        for e in range(ext_s.total.order)))
    return XModMorphism(src, tgt, fT, fG), ext_t


def _abelian_collapse_pair(p_orders, c_orders, k_orders):
    """Collapse morphism (P+K in P+C+K) -> (P in P+C) between inclusion pairs."""
    A = _cyclic_prod(p_orders, "P")
    B = _cyclic_prod(c_orders, "C")
    D = _cyclic_prod(k_orders, "K")
    PC, iP, iC, pP, pC = direct_product(A, B)
    tgt = xmod_from_normal_subgroup(PC, sorted(set(iP.table)))
    PCK, iPC, iK, pPC, pK = direct_product(PC, D)
    elems = [e for e in range(PCK.order) if pC.table[pPC.table[e]] == 0]
    src = xmod_from_normal_subgroup(PCK, elems)
    S_s, S_t = src.domain(), tgt.domain()
    fT = GroupHom(S_s, S_t, tuple(tgt.boundary.preimage[pPC.table[src.boundary.table[s]]]
                                  for s in range(S_s.order)))
    return XModMorphism(src, tgt, fT, pPC)


def pullback_section_corpus():
    """Levelwise surjections between inclusion pairs; every one has a section."""
    out = [
        _abelian_collapse_pair((2,), (2,), (2,)),
        _abelian_collapse_pair((4,), (2,), (2,)),
        _abelian_collapse_pair((2,), (4,), (2,)),
        _abelian_collapse_pair((2,), (2,), (4,)),
        _abelian_collapse_pair((4,), (4,), (2,)),
        _abelian_collapse_pair((3,), (3,), (3,)),
        _abelian_collapse_pair((2, 2), (2,), (2,)),
        _abelian_collapse_pair((2,), (3,), (2,)),
        _abelian_collapse_pair((4,), (2,), (4,)),
        _abelian_collapse_pair((2, 2), (3,), (2,)),
    ]
    S3 = symmetric_group(3)
    a3 = [x for x in range(6) if S3.elem_orders[x] in (1, 3)]
    out.append(identity_morphism(xmod_from_normal_subgroup(S3, a3)))
    D4 = dihedral_group(4)
    out.append(identity_morphism(inclusion_xmod(_d4_normal_four(D4, 4)[1])))
    return out


def pullback_no_section_fixture():
    """Discrete Z4 onto discrete Z2: the induced cokernel map has no section."""
    Z4 = cyclic_group(4)
    Z2 = cyclic_group(2)
    src = discrete_xmod(Z4)
    tgt = discrete_xmod(Z2)
    one = src.domain()
    fT = GroupHom(one, tgt.domain(), (0,))
    fG = GroupHom(Z4, Z2, (0, 1, 0, 1))
    return XModMorphism(src, tgt, fT, fG)

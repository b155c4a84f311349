"""Crossed modules of finite groups and their component calculus.

A crossed module is an action of a group G on a group T together with a
boundary hom T -> G satisfying, elementwise,

  equivariance:  d(g.t) = g d(t) g^-1          (precrossed)
  conjugation:   (d t).t' = t t' t^-1          (Peiffer)

Both laws also have word-level forms quantified over cosmash words: the
binary forms, checked at modest length in one walk over word prefixes, and a
ternary form, checked by enumeration, whose two evaluation routes must agree
on every ternary cosmash word.  The
shortest non-empty ternary cosmash word has length 10, so at the default
length 8 the ternary check sees only the empty word and is vacuous; its
"words" count says so.  Non-empty ternary words at short lengths come from
the bracket words [[g, t], t'] of `lifting._ternary_morphism_audit`.
"""

from functools import cached_property

from .errors import GroupError
from .actions import (
    GroupAction, SplitExtension, _conjugates, conjugation_action, conjugation_action_on,
    core_walker, semidirect_product, trivial_action,
)
from .groups import (
    FiniteGroup, GroupHom, _pair_rows, _pair_table, compose, direct_product, enumerate_homs,
    first_difference, gatherer, identity_hom, kernel, normal_closure, quotient,
    subgroup, trivial_group, trivial_hom,
)
from .words import (
    FactorSignature, Word, check_length, enumerate_cosmash_words, format_word,
)


class CrossedModule:
    """Action of codomain() on domain() plus a boundary hom between them."""

    def __init__(self, action: GroupAction, boundary: GroupHom, *, label: str = None):
        if boundary.source is not action.carrier:
            raise GroupError("boundary source must be the action carrier")
        if boundary.target is not action.actor:
            raise GroupError("boundary target must be the acting group")
        w = precrossed_witness(action, boundary)
        if w is not None:
            g, t = w
            raise GroupError(
                f"equivariance fails at (g={action.actor.names[g]}, "
                f"t={action.carrier.names[t]})")
        w = peiffer_witness(action, boundary)
        if w is not None:
            t, u = w
            raise GroupError(
                f"Peiffer law fails at (t={action.carrier.names[t]}, "
                f"t'={action.carrier.names[u]})")
        self.action, self.boundary = action, boundary
        self.label = label or f"({action.carrier.label}->{action.actor.label})"

    @classmethod
    def _trusted(cls, action, boundary, label=None):
        """A crossed module by theorem, or a raw pair for `check_axioms`: the invalid
        `axiom_corpus` entries, `ternary_fixtures`, `parse_definitions(check_xmods=False)`."""
        xm = cls.__new__(cls)
        xm.action, xm.boundary = action, boundary
        xm.label = label or f"({action.carrier.label}->{action.actor.label})"
        return xm

    @cached_property
    def extension(self) -> SplitExtension:
        """T x| G with its kernel embedding, retraction and section, built once."""
        return semidirect_product(self.action)

    @cached_property
    def _pi0(self):
        """The cokernel of the boundary with its projection, built once."""
        return quotient(self.codomain(), sorted(self.boundary.image_elements),
                        label=f"pi0{self.label}")

    def domain(self) -> FiniteGroup:
        return self.action.carrier

    def codomain(self) -> FiniteGroup:
        return self.action.actor

    def __repr__(self):
        return f"<CrossedModule {self.label}>"


def equivariance_failures(action: GroupAction, boundary: GroupHom, gs=None):
    """Every (g, t) with d(g.t) != g d(t) g^-1, over g in gs (every element
    by default) and then t, in index order.

    Compared a row of g at a time; only a row that differs is searched.
    """
    G, d = action.actor, boundary.table
    conj = _conjugates(G.table, G._inv, d)  # g -> g d(t) g^-1 for every t
    for g in range(G.order) if gs is None else gs:
        lhs, rhs = gatherer(action.table[g])(d), conj(g)
        if lhs != rhs:
            yield from ((g, t) for t, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def peiffer_failures(action: GroupAction, boundary: GroupHom, ts=None):
    """Every (t, t') with (d t).t' != t t' t^-1, over t in ts (every element
    by default) and then t', in index order.

    Compared a row of t at a time; only a row that differs is searched.
    """
    T, d = action.carrier, boundary.table
    conj = _conjugates(T.table, T._inv, range(T.order))  # t -> t t' t^-1 for every t'
    for t in range(T.order) if ts is None else ts:
        lhs, rhs = action.table[d[t]], conj(t)
        if lhs != rhs:
            yield from ((t, u) for u, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def precrossed_witness(action: GroupAction, boundary: GroupHom):
    """First (g, t) with d(g.t) != g d(t) g^-1, or None.

    Decided on the rows of the actor's `_gens`: with d a hom and the action
    an action, as for every validated or trusted input, the g where
    equivariance holds form a subgroup, so the first generator that fails is
    the first element that fails."""
    return next(equivariance_failures(action, boundary, action.actor._gens), None)


def peiffer_witness(action: GroupAction, boundary: GroupHom):
    """First (t, t') with (d t).t' != t t' t^-1, or None.

    Decided on the rows of the carrier's `_gens`: with d a hom and the action
    an action by automorphisms, the t where the law holds for every t' form
    a subgroup, so the first generator that fails is the first element that
    fails."""
    return next(peiffer_failures(action, boundary, action.carrier._gens), None)


def check_axioms(xm: CrossedModule) -> dict:
    """Elementwise audit over all pairs; collects every violation."""
    G, T = xm.codomain(), xm.domain()
    pre = [(G.names[g], T.names[t])
           for g, t in equivariance_failures(xm.action, xm.boundary)]
    pf = [(T.names[t], T.names[u])
          for t, u in peiffer_failures(xm.action, xm.boundary)]
    return {
        "equivariance_violations": pre,
        "peiffer_violations": pf,
        "pairs_checked": G.order * T.order + T.order * T.order,
        "ok": not pre and not pf,
    }


def check_axioms_wordlevel(xm: CrossedModule, max_len: int = 4) -> dict:
    """Both laws quantified over binary cosmash words up to max_len.

    Each law takes the cosmash words over (actor, carrier) of an action and
    compares the core evaluation, sent through one map, with the straight
    evaluation through a pair of slot maps.  Equivariance: xm's action, the
    core value through d, the slots through (id, d) into G.  Peiffer: T acting
    on T through the boundary, t.u = (d t).u, the core value as it is, the
    slots multiplied in T.

    The words are walked, not listed (`_binary_law_walk`), in the length-lex
    order of `enumerate_cosmash_words`, so counts and violations come out as
    enumeration would give them.  Below length 4 the only binary cosmash word
    is the empty word, so each count is 1 and the check is vacuous.
    """
    check_length(max_len)
    G, T = xm.codomain(), xm.domain()
    d, ids = xm.boundary.table, tuple(range(T.order))
    out, viol = {"max_len": max_len}, {}
    for law, sig, act, on_core, maps, target in (
            ("equivariance", FactorSignature((G, T)), xm.action.table, d,
             (tuple(range(G.order)), d), G),
            ("peiffer", FactorSignature((T, T)), gatherer(d)(xm.action.table), ids,
             (ids, ids), T)):
        out[f"{law}_words"], viol[f"{law}_violations"] = _binary_law_walk(
            sig, act, on_core, maps, target, max_len)
    out.update(viol)
    out["ok"] = not any(viol.values())
    return out


def _binary_law_walk(sig, act, on_core, maps, target, max_len):
    """(count, formatted violations) of one word-level law, in length-lex order.

    sig is (actor A, carrier X) of the action table act; a word w fails when
    on_core[core(w)] differs from the product of maps[slot][value] over its
    letters, multiplied in target.  A reduced binary cosmash word
    alternates its slots and each slot's letters multiply to the identity,
    so its length n >= 4 and first slot fix its slot pattern, and its last
    two letters, one per slot, invert their slots' running products (no word
    when such a product is the identity).  A depth-first walk over the free
    prefixes, values increasing, carries the actor prefix a, the core value
    r (r = r * a.v, as in `core_walker`), the straight value and the
    carrier's running product, and closes each prefix of length >= 2 inline:
    first the slot other than its last letter's, then that one.  Prefixes of
    length k close to words of length k + 2, bucketed by length and first
    slot, so no sort is needed.
    """
    A, X = sig.factors
    mA, mX, act_one = A.table, X.table, act[A.identity]
    one, x1, a_inv, x_inv = A.identity, X.identity, A._inv, X._inv
    (m0, m1), mT = maps, target.table
    vals = ([v for v in range(A.order) if v != one], [v for v in range(X.order) if v != x1])
    found = [[[] for _ in range(max_len + 1)] for _ in (0, 1)]  # [first slot][length]
    deepest = max_len - 2  # the longest prefix that closes within max_len

    def bad(s0, pre):  # a violating word's letters, formatted
        return format_word(Word(sig, tuple(((s0 + i) % 2, v) for i, v in enumerate(pre))))

    def rec(rec, s0, pre, a, r, st, p):  # no self-closure, as in search_homs
        k, n = len(pre) + 1, 0  # k: the length of each child prefix
        out, deeper, close = found[s0][k + 2], k < deepest, k >= 2
        row_t = mT[st]
        if (s0 + k) % 2:  # the child's letter is in slot 0, the actor
            row_a, row_x = mA[a], mX[r]
            close = close and p != x1
            c1 = x_inv[p]
            t1 = m1[c1]
            for v in vals[0]:
                a2, st2 = row_a[v], row_t[m0[v]]
                if close and a2 != one:  # close slot 1, then slot 0
                    n += 1
                    if on_core[row_x[act[a2][c1]]] != mT[mT[st2][t1]][m0[a_inv[a2]]]:
                        out.append(bad(s0, pre + (v, c1, a_inv[a2])))
                if deeper:
                    n += rec(rec, s0, pre + (v,), a2, r, st2, p)
        else:  # in slot 1, the carrier
            row_a, row_x, row_p = act[a], mX[r], mX[p]
            close = close and a != one
            c0 = a_inv[a]
            t0 = m0[c0]
            for v in vals[1]:
                r2, st2, p2 = row_x[row_a[v]], row_t[m1[v]], row_p[v]
                if close and p2 != x1:  # close slot 0, then slot 1
                    n += 1
                    c1 = x_inv[p2]
                    if on_core[mX[r2][act_one[c1]]] != mT[mT[st2][t0]][m1[c1]]:
                        out.append(bad(s0, pre + (v, c0, c1)))
                if deeper:
                    n += rec(rec, s0, pre + (v,), a, r2, st2, p2)
        return n

    count = 1  # the empty word
    if max_len >= 4:
        count += sum(rec(rec, s0, (), one, x1, target.identity, x1) for s0 in (0, 1))
    viol = [] if on_core[x1] == target.identity else ["()"]
    return count, viol + [w for n in range(max_len + 1) for s0 in (0, 1) for w in found[s0][n]]


def ternary_routes(xm: CrossedModule, maps=None):
    """The two evaluations of (G, T, T) words of xm, as w -> (right, left).

    Letters are read through maps = (on G, on T), identities by default, so
    a morphism's maps evaluate its source's words in xm.  Route one (right)
    reads the slots as (actor, carrier, carrier), route two (left) as
    (actor, actor through d, carrier).  Both land in T (`core_walker`).
    """
    mG, mT = maps or (range(xm.codomain().order), range(xm.domain().order))
    right = core_walker(xm.action, ((0, mG), (1, mT), (1, mT)))
    left = core_walker(xm.action, ((0, mG), (0, gatherer(mT)(xm.boundary.table)), (1, mT)))
    return lambda w: (right(w), left(w))


def check_ternary(xm: CrossedModule, max_len: int = 8) -> dict:
    """Ternary law over (G, T, T) cosmash words: both `ternary_routes` agree.

    On valid input the law holds on the bracket words: for s = [g, t] in T,
    equivariance gives d(s) = [g, d t] and Peiffer gives d(s).t' = s t' s^-1,
    so [[g, t], t'] = [[g, d t], t'].  So on input that passed
    `check_axioms` this check audits the word layer (`core_walker`), and on
    merely precrossed input it detects Peiffer failures at s in [G, T].
    """
    G, T = xm.codomain(), xm.domain()
    sig = FactorSignature((G, T, T))
    routes = ternary_routes(xm)
    viol = []
    n = 0
    for w in enumerate_cosmash_words(sig, max_len):
        n += 1
        right, left = routes(w)
        if right != left:
            viol.append(format_word(w))
    return {"max_len": max_len, "words": n, "violations": viol, "ok": not viol}


# -- constructors ---------------------------------------------------------------


def conjugation_xmod(G: FiniteGroup) -> CrossedModule:
    return CrossedModule._trusted(conjugation_action(G), identity_hom(G),
                                  f"({G.label}=>{G.label})")


def inclusion_xmod(k: GroupHom) -> CrossedModule:
    """An embedding as a crossed module: boundary k, conjugation through k."""
    act = conjugation_action_on(k)  # refuses non-injective or non-normal k
    return CrossedModule._trusted(act, k, f"({k.source.label}<{k.target.label})")


def xmod_from_normal_subgroup(G: FiniteGroup, elems) -> CrossedModule:
    """Inclusion of a normal subgroup with the conjugation action."""
    return inclusion_xmod(subgroup(G, elems)[1])


def discrete_xmod(G: FiniteGroup) -> CrossedModule:
    one = trivial_group()
    return CrossedModule._trusted(trivial_action(G, one), trivial_hom(one, G),
                                  f"(1->{G.label})")


def module_xmod(action: GroupAction) -> CrossedModule:
    """Trivial boundary; the carrier must be commutative for the Peiffer law."""
    if not action.carrier.commutative:
        raise GroupError("a trivial boundary needs a commutative carrier")
    return CrossedModule(action, trivial_hom(action.carrier, action.actor))


def xmod_product(a: CrossedModule, b: CrossedModule):
    """Product crossed module with injection and projection morphisms.

    Returns (product, inj1, inj2, proj1, proj2); the laws transfer
    componentwise, and the injections commute with everything because the
    complementary coordinate stays at the identity.
    """
    T, iT1, iT2, pT1, pT2 = direct_product(a.domain(), b.domain())
    G, iG1, iG2, pG1, pG2 = direct_product(a.codomain(), b.codomain())
    # (g1, g2).(t1, t2) = (g1.t1, g2.t2) and d(t1, t2) = (d t1, d t2)
    act = GroupAction._trusted(G, T, _pair_table(a.action.table, b.action.table,
                                                 b.domain().order, a.domain().order))
    d_row = _pair_rows((b.boundary.table,), b.codomain().order, a.codomain().order)
    d = GroupHom._trusted(T, G, d_row(a.boundary.table, 0))
    xm = CrossedModule._trusted(act, d, f"{a.label}x{b.label}")
    inj1 = XModMorphism._trusted(a, xm, iT1, iG1)
    inj2 = XModMorphism._trusted(b, xm, iT2, iG2)
    proj1 = XModMorphism._trusted(xm, a, pT1, pG1)
    proj2 = XModMorphism._trusted(xm, b, pT2, pG2)
    return xm, inj1, inj2, proj1, proj2


def product_split_ses(a: CrossedModule, b: CrossedModule) -> "XModSplitSES":
    """The canonical split short exact sequence b -> a x b -> a."""
    _, inj1, inj2, proj1, _ = xmod_product(a, b)
    # product injections and projections are split exact on both levels
    return XModSplitSES._trusted(inj2, proj1, inj1)


def relabel_xmod(xm: CrossedModule, perm_T, perm_G) -> CrossedModule:
    """Transport everything along element permutations (old index -> new index).

    Produces an isomorphic crossed module on shuffled carriers; useful for
    checking that algorithms do not depend on accidental element order.
    """
    T, G = xm.domain(), xm.codomain()
    if sorted(perm_T) != list(range(T.order)) or sorted(perm_G) != list(range(G.order)):
        raise GroupError("relabeling needs one permutation per carrier")
    # new index i holds old element inv[i]: read each row at inv, then its
    # values through perm
    at_T, at_G = (gatherer(sorted(range(len(p)), key=p.__getitem__)) for p in (perm_T, perm_G))
    # transport of a crossed module along bijections is a crossed module
    T2, G2 = (FiniteGroup._trusted(tuple(gatherer(at(row))(perm) for row in at(H.table)),
                                   perm[H.identity], gatherer(at(H._inv))(perm),
                                   at(H.names), H.label + "'")
              for H, at, perm in ((T, at_T, perm_T), (G, at_G, perm_G)))
    act = GroupAction._trusted(G2, T2, tuple(gatherer(at_T(row))(perm_T)
                                             for row in at_G(xm.action.table)))
    d = GroupHom._trusted(T2, G2, gatherer(at_T(xm.boundary.table))(perm_G))
    return CrossedModule._trusted(act, d, xm.label + "'")


# -- morphisms ------------------------------------------------------------------


def morphism_witness(src: CrossedModule, tgt: CrossedModule, fT: GroupHom,
                     fG: GroupHom):
    """None, or ("square", t) or ("equivariance", (g, t)) locating the failure.

    Equivariance is checked on the rows of the source base's `_gens`, which
    decide it when fG is a hom and both actions are actions, as for every
    validated or trusted input: the g where it holds then form a subgroup."""
    if fT.source is not src.domain() or fT.target is not tgt.domain():
        raise GroupError("fT endpoints do not match the crossed modules")
    if fG.source is not src.codomain() or fG.target is not tgt.codomain():
        raise GroupError("fG endpoints do not match the crossed modules")
    through_fT = gatherer(fT.table)
    lhs = through_fT(tgt.boundary.table)
    rhs = gatherer(src.boundary.table)(fG.table)
    if lhs != rhs:
        return ("square", first_difference(lhs, rhs))
    for g in src.codomain()._gens:
        lhs = gatherer(src.action.table[g])(fT.table)
        rhs = through_fT(tgt.action.table[fG.table[g]])
        if lhs != rhs:
            return ("equivariance", (g, first_difference(lhs, rhs)))
    return None


class XModMorphism:
    """Pair of homs commuting with the boundaries and the actions."""

    def __init__(self, src: CrossedModule, tgt: CrossedModule, fT: GroupHom,
                 fG: GroupHom):
        w = morphism_witness(src, tgt, fT, fG)
        if w is not None:
            kind, data = w
            if kind == "square":
                raise GroupError(
                    f"boundary square fails at t={src.domain().names[data]}")
            g, t = data
            raise GroupError(
                f"equivariance of the pair fails at "
                f"(g={src.codomain().names[g]}, t={src.domain().names[t]})")
        self.src, self.tgt, self.fT, self.fG = src, tgt, fT, fG

    @classmethod
    def _trusted(cls, src, tgt, fT, fG):
        mor = cls.__new__(cls)
        mor.src, mor.tgt, mor.fT, mor.fG = src, tgt, fT, fG
        return mor

    def __repr__(self):
        return f"<XModMorphism {self.src.label} -> {self.tgt.label}>"


def identity_morphism(xm: CrossedModule) -> XModMorphism:
    return XModMorphism._trusted(xm, xm, identity_hom(xm.domain()),
                                 identity_hom(xm.codomain()))


def enumerate_xmod_morphisms(src: CrossedModule, tgt: CrossedModule) -> list:
    """All morphisms, ordered by (fG, fT) enumeration order.  Exhaustive."""
    out = []
    homs_T = enumerate_homs(src.domain(), tgt.domain())
    for fG in enumerate_homs(src.codomain(), tgt.codomain()):
        for fT in homs_T:
            if morphism_witness(src, tgt, fT, fG) is None:
                out.append(XModMorphism._trusted(src, tgt, fT, fG))
    return out


# -- the connected components functor -------------------------------------------


def pi0(xm: CrossedModule):
    """Cokernel of the boundary: G / im(d) with its projection.

    The image is normal for any crossed module; a non-normal image (possible
    for raw precrossed data) is refused by `quotient` with a witness.
    """
    return xm._pi0


def pi0_via_coequalizer(xm: CrossedModule):
    """Coequalizer of the two maps T x| G -> G, (t, g) -> g and (t, g) -> d(t) g.

    Quotients G by the normal closure of the difference set.  Must agree with
    the cokernel route; `pi0_comparison` checks that on the nose.
    """
    ext = xm.extension
    G = xm.codomain()
    m = G.order
    d = xm.boundary.table
    c_table = []
    for e in range(ext.total.order):
        t, g = divmod(e, m)
        c_table.append(G.mul(d[t], g))
    diffs = {G.mul(c_table[e], G.inv(ext.p.table[e])) for e in range(ext.total.order)}
    closure = normal_closure(G, diffs)
    return quotient(G, sorted(closure), label=f"coeq{xm.label}")


def _induced_on_classes(p1: GroupHom, p2: GroupHom, values) -> GroupHom:
    """The checked hom h with h(p1(g)) = p2(values[g]), one value per class of p1."""
    table = [None] * p1.target.order
    for q, v in zip(p1.table, values):
        val = p2.table[v]
        if table[q] is None:
            table[q] = val
        elif table[q] != val:
            raise GroupError("image of the boundary is not respected")
    return GroupHom(p1.target, p2.target, tuple(table))


def pi0_comparison(xm: CrossedModule) -> GroupHom:
    """The isomorphism from the cokernel route to the coequalizer route."""
    iso = _induced_on_classes(pi0(xm)[1], pi0_via_coequalizer(xm)[1],
                              range(xm.codomain().order))
    if not (iso.is_injective() and iso.is_surjective()):
        raise GroupError("comparison map is not an isomorphism")
    return iso


def pi0_map(mor: XModMorphism) -> GroupHom:
    """The induced hom on cokernels."""
    return _induced_on_classes(pi0(mor.src)[1], pi0(mor.tgt)[1], mor.fG.table)


# -- kernels and split short exact sequences -------------------------------------


def xmod_kernel(mor: XModMorphism):
    """Kernel crossed module of a morphism, with its inclusion."""
    KT, iT = kernel(mor.fT)
    KG, iG = kernel(mor.fG)
    at_KT = gatherer(iT.table)
    # each row read at the kernel elements, then back through the inclusion
    act_rows = tuple(gatherer(at_KT(row))(iT.preimage)
                     for row in gatherer(iG.table)(mor.src.action.table))
    if any(None in row for row in act_rows):
        raise GroupError("kernel is not closed under the action")
    act = GroupAction._trusted(KG, KT, act_rows)
    d_table = gatherer(at_KT(mor.src.boundary.table))(iG.preimage)
    if None in d_table:
        raise GroupError("boundary does not restrict to the kernels")
    d = GroupHom._trusted(KT, KG, d_table)
    ker_xm = CrossedModule._trusted(act, d, f"ker{mor.src.label}")
    incl = XModMorphism._trusted(ker_xm, mor.src, iT, iG)
    return ker_xm, incl


class XModSplitSES:
    """kappa then pi with section sigma, split exact at both levels ext_T, ext_G."""

    def __init__(self, kappa: XModMorphism, pi: XModMorphism, sigma: XModMorphism):
        if kappa.tgt is not pi.src:
            raise GroupError("kappa must land in the domain of pi")
        if sigma.src is not pi.tgt or sigma.tgt is not pi.src:
            raise GroupError("sigma must section pi")
        self.kappa, self.pi, self.sigma = kappa, pi, sigma
        # validating the levelwise extensions enforces exactness and the splitting
        self.ext_T = SplitExtension(kappa.fT, pi.fT, sigma.fT)
        self.ext_G = SplitExtension(kappa.fG, pi.fG, sigma.fG)

    @classmethod
    def _trusted(cls, kappa, pi, sigma):
        ses = cls.__new__(cls)
        ses.kappa, ses.pi, ses.sigma = kappa, pi, sigma
        ses.ext_T = SplitExtension._trusted(kappa.fT, pi.fT, sigma.fT)
        ses.ext_G = SplitExtension._trusted(kappa.fG, pi.fG, sigma.fG)
        return ses

    def __repr__(self):
        return (f"<XModSplitSES {self.kappa.src.label} -> "
                f"{self.pi.src.label} -> {self.pi.tgt.label}>")


def pi0_preserves_split_ses(s: XModSplitSES) -> dict:
    """Apply pi0 levelwise and test split exactness of the result."""
    k0 = pi0_map(s.kappa)
    p0 = pi0_map(s.pi)
    s0 = pi0_map(s.sigma)
    Q3 = p0.target
    section_ok = all(p0.table[s0.table[q]] == q for q in range(Q3.order))
    surj_ok = p0.is_surjective()
    exact_ok = p0.kernel_elements == k0.image_elements
    mono_ok = k0.is_injective()
    return {
        "section": section_ok,
        "retraction_surjective": surj_ok,
        "kernel_equals_image": exact_ok,
        "kernel_map_injective": mono_ok,
        "ok": section_ok and surj_ok and exact_ok and mono_ok,
    }


def discrete_adjunction_check(xm: CrossedModule, H: FiniteGroup) -> dict:
    """Hom-set bijection test: morphisms into the discrete crossed module on H
    against group homs out of pi0.

    A morphism into (1 -> H) is a hom G -> H killing the boundary image; those
    are exactly the homs factoring through the cokernel projection.
    """
    disc = discrete_xmod(H)
    mors = enumerate_xmod_morphisms(xm, disc)
    side_a = {m.fG.table for m in mors}
    Q, proj = pi0(xm)
    factored = {compose(phi, proj).table for phi in enumerate_homs(Q, H)}
    return {
        "morphisms": len(side_a),
        "cokernel_homs": len(factored),
        "ok": side_a == factored,
    }

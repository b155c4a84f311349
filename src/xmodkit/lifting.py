"""Section constructions with verified certificates, and the free-object calculus.

Two constructions produce sections of levelwise-surjective crossed-module
morphisms.  `projective_section` targets an inclusion crossed module (the
kernel of a split extension, acting by conjugation inside the total group):
it lifts the canonical base section through the base-level map, searches an
equivariant section of the carrier-level map over that lift, and assembles
the base-level section by the coequalizer formula
g_G(k(q) s(p)) = d(g_T(q)) g_1(p).  `pullback_section` handles a morphism of
inclusion crossed modules: it splits the induced map on cokernels, factors
the target base through the pullback of (cokernel projection, induced map),
lifts that factorization through the comparison map out of the source base,
and restricts to the carriers.

Both run exhaustive backtracking searches, so a failure status is a proof of
nonexistence, not a timeout; running out of budget raises instead.  Both
re-verify every claimed equation before reporting success.  The hom law of
a constructed section goes through the public ``GroupHom``, which compares
the dense tables a row at a time.  A verification failure after successful
searches cannot be caused by input that passed the preconditions, so it
raises InvariantBreach rather than returning a bad certificate.

`find_xmod_lift` is the one crossed-module lift search, with no certificate:
`find_xmod_section` lifts the identity through it, and `sse` lifts along
regular epis over a fixed base with it.

The free-object calculus works with words, because free crossed modules on a
nontrivial group have infinite carriers.  A pair of homs (f: H -> T,
g: H -> G) extends to an evaluator on two-slot words over (H, H): base
values walk the copairing [g, d f] in G, carrier values of flat words walk
T x| G, slot 0 through g and slot 1 through f.  `hom_bijection_check`
confirms that every pair reads back from its evaluator and distinct pairs
give distinct evaluators.
"""

from .errors import GroupError, InvariantBreach
from .groups import (
    FiniteGroup, GroupHom, enumerate_homs, find_section, gatherer,
    identity_hom, lifts, pullback,
)
# Not called here: perfbench/tests checks that the tracer rebinds this name in
# every xmodkit module that holds it, this one included.
from .groups import search_homs
from .actions import SplitExtension, semidirect_walker
from .words import (
    FactorSignature, Word, enumerate_cosmash_words, enumerate_flat_words,
    enumerate_words, format_word, in_flat, single,
)
from .xmod import (
    CrossedModule, XModMorphism, identity_morphism, morphism_witness, pi0,
    pi0_map, precrossed_witness, ternary_routes,
)


class SectionCertificate:
    """Outcome of a section construction: status, verified equations, the maps.

    Status "success" means a section was built and every equation listed in
    `equations` was re-verified exhaustively.  Any other status names the
    search that completed without a solution; equations verified before that
    point stay in the dict.  A certificate is never "success" with a failed
    equation, because verification failures raise at build time instead.
    """

    def __init__(self, status, equations, section=None, detail=None):
        self.status = status
        self.equations = dict(equations)
        self.section = section
        self.detail = dict(detail or {})

    @property
    def ok(self) -> bool:
        return self.status == "success" and all(self.equations.values())

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "ok": self.ok,
            "equations": dict(self.equations),
            "detail": dict(self.detail),
        }
        if self.section is not None:
            out["section"] = {"fT": list(self.section.fT.table),
                              "fG": list(self.section.fG.table)}
        return out

    def __repr__(self):
        return f"<SectionCertificate {self.status}>"


# -- inclusion form ---------------------------------------------------------


def inclusion_base_action(xm: CrossedModule, ext: SplitExtension) -> list:
    """Rows of the base's action on the kernel of `ext`: p.q = s(p) q s(p)^-1.

    `xm` must be the inclusion crossed module of `ext`.  Its action is then
    conjugation through k, so row p is its row at s(p), and no conjugation
    action is rebuilt from the extension.
    """
    return [xm.action.table[e] for e in ext.s.table]


def inclusion_extension(xm: CrossedModule, budget=None) -> SplitExtension:
    """Present a crossed module as kernel -> base -> cokernel, split.

    Needs an injective boundary acting by conjugation, and a cokernel
    projection that splits; the splitting is searched, so None from the
    search means proven unsplit and is refused loudly.
    """
    _require_inclusion(xm)
    proj = pi0(xm)[1]
    s = find_section(proj, budget=budget)
    if s is None:
        raise GroupError("cokernel projection of the boundary does not split")
    # k injective, p the quotient by its image, s a found section: split exact
    return SplitExtension._trusted(xm.boundary, proj, s)


def _require_inclusion(xm: CrossedModule):
    """Refuse anything but an injective boundary acting by conjugation."""
    if not xm.boundary.is_injective():
        raise GroupError("inclusion form needs an injective boundary")
    # with d injective, d(g.t) = g d(t) g^-1 says exactly g.t = d^-1(g d(t) g^-1)
    if precrossed_witness(xm.action, xm.boundary) is not None:
        raise GroupError("action is not conjugation through the boundary")


# -- the four-step section construction ---------------------------------------


def projective_section(epi: XModMorphism, ext: SplitExtension, *, budget=None,
                       ternary_len: int = 8) -> SectionCertificate:
    """Section of an epi onto an inclusion target, in four verified steps.

    (i) lift the canonical section of the base extension through the
    base-level map; (ii) for each such lift, search a section of the
    carrier-level map equivariant for the action pulled back along the lift;
    (iii) define the base-level section on a product k(q) s(p) by the
    coequalizer formula d(g_T(q)) g_1(p); (iv) re-verify everything: the
    formula defines a homomorphism, both maps are sections, the pair is a
    crossed-module morphism, and a ternary word audit passes.

    Steps (i) and (ii) search over fibers exhaustively, so the failure
    statuses "no-lift-of-section" and "no-equivariant-section" are proofs of
    nonexistence.  A step-(iv) failure raises InvariantBreach: for inputs
    that pass the preconditions, the first three steps guarantee step (iv).

    The preconditions make `epi.tgt` the inclusion crossed module of `ext`
    (same groups, boundary k, action conjugation through k), so the action
    of the base P on the kernel Q is read off the target's action at s(p)
    (`inclusion_base_action`) rather than rebuilt from the extension.
    """
    tgt = epi.tgt
    if tgt.domain() is not ext.kernel_group or tgt.codomain() is not ext.total:
        raise GroupError("target crossed module does not live on the extension")
    if tuple(tgt.boundary.table) != tuple(ext.k.table):
        raise GroupError("target boundary is not the kernel embedding")
    _require_inclusion(tgt)
    if not (epi.fT.is_surjective() and epi.fG.is_surjective()):
        raise GroupError("both levels of the epi must be surjective")
    src = epi.src
    T, G = src.domain(), src.codomain()
    Q, E, P = ext.kernel_group, ext.total, ext.base
    psi = inclusion_base_action(tgt, ext)  # tgt is the inclusion of ext, as checked
    phi_act = src.action.table

    found = None
    base_lifts = 0
    for g1 in lifts(epi.fG, ext.s, budget=budget):
        base_lifts += 1
        beta = [phi_act[g1[p]] for p in range(P.order)]
        for gT in lifts(epi.fT, identity_hom(Q), budget=budget):
            if all(gT[psi[p][q]] == beta[p][gT[q]]
                   for p in range(P.order) for q in range(Q.order)):
                found = (g1, gT)
                break
        if found:
            break
    if found is None:
        status = "no-equivariant-section" if base_lifts else "no-lift-of-section"
        return SectionCertificate(status, {},
                                  detail={"base_lifts": base_lifts})
    g1, gT = found

    # (iii) decode each total element as k(q) s(p) and apply the formula
    d = src.boundary.table
    gG = [0] * E.order
    for e in range(E.order):
        p = ext.p.table[e]
        q = ext.k.preimage[E.mul(e, E.inv(ext.s.table[p]))]
        gG[e] = G.mul(d[gT[q]], g1[p])

    # (iv) re-verify every equation; any failure here is a bug, never input.
    # The formula must define a hom: GroupHom checks the law row by row.
    try:
        gG_hom = GroupHom(E, G, tuple(gG))
    except GroupError:
        raise InvariantBreach("section verification failed: coequalizer-formula") from None
    eqs = {}
    eqs["coequalizer-formula"] = all(
        gG[E.mul(ext.k.table[q], ext.s.table[p])] == G.mul(d[gT[q]], g1[p])
        for q in range(Q.order) for p in range(P.order))
    eqs["lifting-over-fG"] = all(
        epi.fG.table[g1[p]] == ext.s.table[p] for p in range(P.order))
    eqs["equivariant-section-of-fT"] = (
        all(epi.fT.table[gT[q]] == q for q in range(Q.order))
        and all(gT[psi[p][q]] == phi_act[g1[p]][gT[q]]
                for p in range(P.order) for q in range(Q.order)))
    eqs["section-of-fG"] = all(epi.fG.table[gG[e]] == e for e in range(E.order))
    gT_hom = GroupHom._trusted(Q, T, tuple(gT))
    cert = _certified_section(eqs, epi.tgt, src, gT_hom, gG_hom,
                              {"base_lifts": base_lifts})
    words, brackets = _ternary_morphism_audit(cert.section, ternary_len)
    cert.equations["ternary-equivariance"] = True  # the audit raises on any mismatch
    cert.detail.update(ternary_len=ternary_len, ternary_words=words,
                       ternary_brackets=brackets)
    return cert


def _certified_section(eqs, src, tgt, gT, gG, detail) -> SectionCertificate:
    """The success certificate of the section (gT, gG): src -> tgt.

    One `morphism_witness` call adds both morphism laws to `eqs`: it checks
    the boundary square before equivariance.  Any failed equation raises.
    """
    witness = morphism_witness(src, tgt, gT, gG)
    eqs["boundary-square"] = witness is None or witness[0] != "square"
    eqs["equivariance-elementwise"] = witness is None
    for name, okay in eqs.items():
        if not okay:
            raise InvariantBreach(f"section verification failed: {name}")
    return SectionCertificate("success", eqs, detail=detail,
                              section=XModMorphism._trusted(src, tgt, gT, gG))


def _ternary_morphism_audit(mor: XModMorphism, max_len: int):
    """Route compatibility of a morphism on ternary cosmash words.

    Audits every enumerated ternary cosmash word over (base, carrier,
    carrier) of the morphism's source, plus the bracket words
    [[base letter, carrier letter], carrier letter] over generators, which
    are the shortest words the enumeration cannot reach at small lengths.
    Each bracket [[e, q], u] = e q e^-1 q^-1 u q e q^-1 e^-1 u^-1 is built
    as these ten letters, a ternary cosmash word with no test: the
    `generators` of a group never include its identity, so no letter is
    the identity and no two neighbours share a slot, which makes the word
    reduced, and deleting any one slot collapses one of its commutators.
    Both `ternary_routes` evaluate each word on both sides, the target's
    through (fG, fT); they must agree on each side and fT must carry source
    values to target values.  Returns (enumerated, brackets) counts; any
    mismatch raises InvariantBreach.
    """
    A, B = mor.src, mor.tgt
    EA, QA = A.codomain(), A.domain()
    sigA = FactorSignature((EA, QA, QA))
    fT = mor.fT.table
    routes_A, routes_B = ternary_routes(A), ternary_routes(B, (mor.fG.table, fT))

    def check(w):
        rA, lA = routes_A(w)
        rB, lB = routes_B(w)
        if not (rA == lA and rB == lB and fT[rA] == rB):
            raise InvariantBreach(f"ternary audit failed on {format_word(w)}")

    n = 0
    for w in enumerate_cosmash_words(sigA, max_len):
        check(w)
        n += 1
    brackets, e_inv, q_inv = 0, EA.inv, QA.inv
    for e in EA.generators:
        for q in QA.generators:
            head = ((0, e), (1, q), (0, e_inv(e)), (1, q_inv(q)))
            tail = ((1, q), (0, e), (1, q_inv(q)), (0, e_inv(e)))
            for u in QA.generators:
                check(Word(sigA, head + ((2, u),) + tail + ((2, q_inv(u)),)))
                brackets += 1
    return n, brackets


# -- the pullback section construction ----------------------------------------


def pullback_section(mor: XModMorphism, *, budget=None) -> SectionCertificate:
    """Section of a levelwise surjection between inclusion crossed modules.

    Computes the induced map h on cokernels, asserts the comparison map from
    the source base into the pullback of (target cokernel projection, h) is
    surjective, searches a section of h, forms the factorization of the
    target base through the pullback, lifts it through the comparison map,
    and restricts to the carriers.  Both searches are exhaustive over all
    cokernel sections, so "no-cokernel-section" and
    "no-lift-through-comparison" are proofs of nonexistence.
    """
    src, tgt = mor.src, mor.tgt
    _require_inclusion(src)
    _require_inclusion(tgt)
    if not (mor.fT.is_surjective() and mor.fG.is_surjective()):
        raise GroupError("both levels of the morphism must be surjective")
    T, G = src.domain(), src.codomain()
    Pc, Q = tgt.domain(), tgt.codomain()
    _, proj1 = pi0(src)
    C2, proj2 = pi0(tgt)
    h = pi0_map(mor)

    eqs = {}
    eqs["induced-cokernel-map"] = all(
        h.table[proj1.table[g]] == proj2.table[mor.fG.table[g]]
        for g in range(G.order))
    PB, prQ, prC = pullback(proj2, h)
    pb_index = {(prQ.table[i], prC.table[i]): i for i in range(PB.order)}
    u = GroupHom._trusted(G, PB, tuple(pb_index[(mor.fG.table[g], proj1.table[g])]
                                       for g in range(G.order)))
    if not u.is_surjective():
        raise InvariantBreach(
            "comparison into the pullback must be surjective when the "
            "carrier map is")
    eqs["comparison-surjective"] = True

    found = None
    jz_count = 0
    for jz in lifts(h, identity_hom(C2), budget=budget):
        jz_count += 1
        jq = GroupHom._trusted(Q, PB, tuple(pb_index[(q, jz[proj2.table[q]])]
                                            for q in range(Q.order)))
        gG = next(lifts(u, jq, budget=budget), None)
        if gG is not None:
            found = (jz, jq, gG)
            break
    if found is None:
        status = "no-lift-through-comparison" if jz_count else "no-cokernel-section"
        return SectionCertificate(status, eqs,
                                  detail={"cokernel_sections": jz_count})
    jz, jq, gG = found

    gT = []
    for p in range(Pc.order):
        t = src.boundary.preimage[gG[tgt.boundary.table[p]]]
        if t is None:
            raise InvariantBreach("restriction left the embedded carrier")
        gT.append(t)
    try:
        gT_hom = GroupHom(Pc, T, tuple(gT))
    except GroupError as exc:
        raise InvariantBreach(
            f"carrier restriction is not a homomorphism: {exc}") from exc

    eqs["section-of-cokernel-map"] = all(
        h.table[jz[c]] == c for c in range(C2.order))
    eqs["pullback-factorization"] = all(
        u.table[gG[q]] == jq.table[q] for q in range(Q.order))
    eqs["section-of-fG"] = all(mor.fG.table[gG[q]] == q for q in range(Q.order))
    eqs["section-of-fT"] = all(mor.fT.table[gT[p]] == p for p in range(Pc.order))
    return _certified_section(eqs, tgt, src, gT_hom,
                              GroupHom._trusted(Q, G, gG),
                              {"cokernel_sections": jz_count, "pullback_order": PB.order})


# -- the crossed-module lift search ---------------------------------------------


def find_xmod_lift(epi: XModMorphism, u: XModMorphism, *, budget=None):
    """The first morphism v with epi . v = u, or None.

    Searches base-level lifts of u.fG along epi.fG, then carrier-level lifts
    of u.fT constrained to the boundary square d(v_T x) = v_G(d x), and
    filters by equivariance.  The square only removes candidates, so the
    lifts come out in `lifts` order.  Completing the search proves
    nonexistence; running out of budget raises instead.
    """
    if u.tgt is not epi.tgt:
        raise GroupError("the morphism to lift must land in the epi target")
    src, dom = epi.src, u.src
    d_src, d_dom = src.boundary.table, dom.boundary.table
    for vG in lifts(epi.fG, u.fG, budget=budget):
        vG_hom = GroupHom._trusted(dom.codomain(), src.codomain(), vG)

        def square(x, t):
            return d_src[t] == vG[d_dom[x]]

        for vT in lifts(epi.fT, u.fT, budget=budget, allow=square):
            vT_hom = GroupHom._trusted(dom.domain(), src.domain(), vT)
            if morphism_witness(dom, src, vT_hom, vG_hom) is None:
                return XModMorphism._trusted(dom, src, vT_hom, vG_hom)
    return None


def find_xmod_section(epi: XModMorphism, *, budget=None):
    """A crossed-module section of a levelwise surjection, or None.

    A section is a lift of the identity of the target along the epi.
    """
    if not (epi.fT.is_surjective() and epi.fG.is_surjective()):
        raise GroupError("sections need both levels surjective")
    return find_xmod_lift(epi, identity_morphism(epi.tgt), budget=budget)


# -- the free-object evaluator ---------------------------------------------------


class FreeXModMorphism:
    """Evaluator pair extending letter homs (f: H -> T, g: H -> G) to words.

    Two `semidirect_walker` walks that share no step, so `verify`'s boundary
    square compares two routes: the base value reads both slots as actor
    letters, through g and d f, to the copairing [g, d f]; a flat word walks
    slot 0 through g and slot 1 through f to (t, e) in T x| G, and is t.
    """

    def __init__(self, H: FiniteGroup, xm: CrossedModule, f: GroupHom,
                 g: GroupHom):
        if f.source is not H or g.source is not H:
            raise GroupError("both letter maps must start from the same group")
        if f.target is not xm.domain() or g.target is not xm.codomain():
            raise GroupError("letter maps must land in the carrier and the base")
        self.H = H
        self.xm = xm
        self.f = f
        self.g = g
        self.sig = FactorSignature((H, H))
        self._walk = semidirect_walker(xm.action, ((0, g.table), (1, f.table)))
        d_f = gatherer(f.table)(xm.boundary.table)
        self._base_walk = semidirect_walker(xm.action, ((0, g.table), (0, d_f)))
        self._one = xm.codomain().identity  # bound once, not read per word

    def base_value(self, w) -> int:
        """Evaluate any two-slot word in the base group."""
        if w.sig != self.sig:
            raise GroupError("word signature mismatch")
        return self._base_walk(w)[1]

    def carrier_value(self, w) -> int:
        """Evaluate a flat word (trivial slot-0 projection) in the carrier."""
        if w.sig != self.sig:
            raise GroupError("word signature mismatch")
        if not in_flat(w):
            raise GroupError("carrier evaluation needs a flat word")
        t, a = self._walk(w)
        if a != self._one:
            raise InvariantBreach("flat word escaped the embedded kernel")
        return t

    def letter_pair(self):
        """Read the letter maps back off length-one words."""
        f_back = tuple(self.carrier_value(single(self.sig, 1, h))
                       for h in range(self.H.order))
        g_back = tuple(self.base_value(single(self.sig, 0, h))
                       for h in range(self.H.order))
        return f_back, g_back

    def verify(self, max_len: int = 4) -> dict:
        """Boundary square on all flat words, unit readback, letter equivariance."""
        d = self.xm.boundary.table
        flats = list(enumerate_flat_words(self.sig, max_len))
        square = [format_word(w) for w in flats
                  if d[self.carrier_value(w)] != self.base_value(w)]
        unit_ok = self.letter_pair() == (self.f.table, self.g.table)
        act = self.xm.action.table
        inner = max(max_len - 2, 0)
        eq_bad = []
        pairs = 0
        cosmash = list(enumerate_cosmash_words(self.sig, inner))
        for slot in (0, 1):
            for v in range(self.H.order):
                letter = single(self.sig, slot, v)
                if not len(letter):
                    continue
                a = self.base_value(letter)
                for w in cosmash:
                    pairs += 1
                    conj = letter * w * letter.inverse()
                    if self.carrier_value(conj) != act[a][self.carrier_value(w)]:
                        eq_bad.append((slot, v, format_word(w)))
        return {
            "max_len": max_len,
            "flat_words": len(flats),
            "square_violations": square,
            "unit_ok": unit_ok,
            "equivariance_pairs": pairs,
            "equivariance_violations": eq_bad,
            "ok": not square and unit_ok and not eq_bad,
        }

    def __repr__(self):
        return f"<FreeXModMorphism {self.H.label} => {self.xm.label}>"


def hom_bijection_check(H: FiniteGroup, xm: CrossedModule, max_len: int = 2) -> dict:
    """Letter pairs versus evaluators: a bijection, witnessed both ways.

    Builds the evaluator of every pair in Hom(H, T) x Hom(H, G), reads the
    pair back off length-one words, and fingerprints each evaluator on all
    words up to max_len; the round trip must be the identity and the
    fingerprints pairwise distinct.
    """
    homs_f = enumerate_homs(H, xm.domain())
    homs_g = enumerate_homs(H, xm.codomain())
    sig = FactorSignature((H, H))
    words = list(enumerate_words(sig, max_len))
    flats = [w for w in words if in_flat(w)]
    total = 0
    round_trips = 0
    prints = set()
    for g in homs_g:
        for f in homs_f:
            total += 1
            ev = FreeXModMorphism(H, xm, f, g)
            if ev.letter_pair() == (f.table, g.table):
                round_trips += 1
            prints.add((tuple(ev.base_value(w) for w in words),
                        tuple(ev.carrier_value(w) for w in flats)))
    return {
        "pairs": total,
        "round_trips": round_trips,
        "distinct_evaluators": len(prints),
        "ok": round_trips == total and len(prints) == total,
    }

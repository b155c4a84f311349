"""Split-extension view of crossed modules over one fixed base.

A crossed module (T -> G) is the same thing as the split extension
T x| G -> G with its canonical section, and a morphism over the base G is a
carrier-level hom commuting with boundaries and the action while G stays put.
This module works in that slice: regular epis, section searches, relative
projectivity, and free covers, whose carrier map is the free exponent-4 cover
of `groups.free_module_cover`.

Search semantics: a returned None means the search space was exhausted, so
nonexistence is proven at the stated budget-free scale.  Running out of budget
raises BudgetExhausted instead; the two outcomes are never conflated.
"""

from .errors import GroupError, InvariantBreach
from .actions import trivial_action
from .groups import (
    GroupHom, compose, enumerate_homs, free_module_cover, identity_hom,
    is_z4_module, lifts,
)
from .xmod import CrossedModule, XModMorphism, morphism_witness


class SSEMorphism:
    """Morphism of crossed modules over a common base: the base map is id."""

    def __init__(self, src: CrossedModule, tgt: CrossedModule, fT: GroupHom, *,
                 check: bool = True):
        if src.codomain() is not tgt.codomain():
            raise GroupError("morphisms over a base need the same base group")
        self.src = src
        self.tgt = tgt
        self.fT = fT
        self.base = src.codomain()
        if check:
            XModMorphism(src, tgt, fT, identity_hom(self.base))

    def __call__(self, t: int) -> int:
        return self.fT.table[t]

    def __repr__(self):
        return f"<SSEMorphism {self.src.label} -> {self.tgt.label}>"


def total_map(mor: SSEMorphism) -> GroupHom:
    """The induced hom between the semidirect totals, (t, g) -> (fT t, g)."""
    e1, e2 = mor.src.extension, mor.tgt.extension
    m = mor.base.order
    table = []
    for e in range(e1.total.order):
        t, g = divmod(e, m)
        table.append(mor.fT.table[t] * m + g)
    return GroupHom(e1.total, e2.total, tuple(table))


def is_regular_epi(mor: SSEMorphism) -> bool:
    """Surjectivity on carriers; cross-checked against the total-level map.

    Over a fixed base the two must agree; a mismatch would mean the package
    itself is broken, hence InvariantBreach rather than a report entry.
    """
    carrier_surj = mor.fT.is_surjective()
    total_surj = total_map(mor).is_surjective()
    if carrier_surj != total_surj:
        raise InvariantBreach(
            "carrier and total surjectivity disagree on a same-base morphism")
    return carrier_surj


def enumerate_sse_morphisms(src: CrossedModule, tgt: CrossedModule,
                            budget=None) -> list:
    """All morphisms over the common base, in carrier-hom order.  Exhaustive."""
    if src.codomain() is not tgt.codomain():
        raise GroupError("morphisms over a base need the same base group")
    ident = identity_hom(src.codomain())
    out = []
    for fT in enumerate_homs(src.domain(), tgt.domain(), budget=budget):
        if morphism_witness(src, tgt, fT, ident) is None:
            out.append(SSEMorphism(src, tgt, fT, check=False))
    return out


def lift_along(epi: SSEMorphism, u: SSEMorphism, budget=None):
    """A morphism v with epi . v = u, or None when no lift exists.

    u must land in the target of epi and share its base.  Fiber candidates
    force the triangle and the boundary square; equivariance is filtered.
    """
    if u.tgt is not epi.tgt:
        raise GroupError("the morphism to lift must land in the epi target")
    if u.base is not epi.base:
        raise GroupError("lifting needs a common base")
    if not epi.fT.is_surjective():
        raise GroupError("can only lift along a surjection")
    X, A = u.src.domain(), epi.src.domain()
    ident = identity_hom(epi.base)
    for table in lifts(epi.fT, u.fT, budget=budget):
        v = GroupHom(X, A, table, check=False)
        if morphism_witness(u.src, epi.src, v, ident) is None:
            return SSEMorphism(u.src, epi.src, v, check=False)
    return None


def is_projective_rel(xm: CrossedModule, epis, budget=None) -> dict:
    """Lifting test of xm against every given regular epi over the same base.

    Tries every morphism from xm into each epi target and searches a lift.
    The report either passes or pins the first (epi, morphism) with no lift;
    nonexistence there is by exhaustion, not by giving up.
    """
    checked = 0
    for i, epi in enumerate(epis):
        if epi.base is not xm.codomain():
            raise GroupError("projectivity is relative to epis over the same base")
        if not is_regular_epi(epi):
            raise GroupError(f"map {i} in the class is not a regular epi")
        for j, u in enumerate(enumerate_sse_morphisms(xm, epi.tgt, budget=budget)):
            checked += 1
            if lift_along(epi, u, budget=budget) is None:
                return {
                    "ok": False,
                    "lifting_problems": checked,
                    "failed_epi": i,
                    "failed_morphism": j,
                }
    return {"ok": True, "lifting_problems": checked,
            "failed_epi": None, "failed_morphism": None}


# -- free covers in the commutative exponent-4 slice ----------------------------


class FreeSSE:
    """A free cover: free carrier, basis, covering epi, and its certificates."""

    def __init__(self, cover: SSEMorphism, basis_names, generator_images,
                 kernel_witnesses):
        self.cover = cover
        self.free = cover.src
        self.target = cover.tgt
        self.basis_names = tuple(basis_names)
        self.generator_images = tuple(generator_images)
        self.kernel_witnesses = tuple(kernel_witnesses)

    def certificate(self) -> dict:
        T = self.target.domain()
        gen_ok = len(T.closure(self.generator_images)) == T.order
        ker = self.cover.fT.kernel_elements
        wit_ok = all(w in ker for w in self.kernel_witnesses)
        span_ok = len(self.free.domain().closure(self.kernel_witnesses)) == len(ker)
        return {
            "rank": len(self.basis_names),
            "generators_generate": gen_ok,
            "kernel_witnesses": len(self.kernel_witnesses),
            "witnesses_in_kernel": wit_ok,
            "witnesses_span_kernel": span_ok,
            "ok": gen_ok and wit_ok and span_ok,
        }

    def __repr__(self):
        return f"<FreeSSE rank {len(self.basis_names)} over {self.target.label}>"


def free_cover(xm: CrossedModule) -> FreeSSE:
    """Free cover of a trivially-acted crossed module with exponent-4 carrier.

    The carrier map is `groups.free_module_cover`, which sends the basis of
    the free commutative exponent-4 group to the carrier's greedy generators.
    The boundary of the cover is the composite, so the cover map is a regular
    epi over the base by construction.
    """
    T, G = xm.domain(), xm.codomain()
    if not is_z4_module(T):
        raise GroupError("free covers live over commutative exponent-4 carriers")
    if not xm.action.is_trivial():
        raise GroupError("free covers here require a trivial action")
    R, phi = free_module_cover(T)
    F = CrossedModule(trivial_action(G, R), compose(xm.boundary, phi), check=False,
                      label=f"F({xm.label})")
    mor = SSEMorphism(F, xm, phi, check=False)
    # witnesses: a greedy generating sequence of the kernel
    wits, spanned = [], R.closure([])
    for w in sorted(phi.kernel_elements):
        if w not in spanned:
            wits.append(w)
            spanned = R.closure(spanned | {w})
    n = len(T.generators)
    basis = ["0" * i + "1" + "0" * (n - i - 1) for i in range(n)]
    return FreeSSE(mor, basis, T.generators, wits)

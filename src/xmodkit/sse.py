"""Split-extension view of crossed modules over one fixed base.

A crossed module (T -> G) is the same thing as the split extension
T x| G -> G with its canonical section.  A morphism over the base G is an
`XModMorphism` whose base map is the identity of G: a carrier-level hom
commuting with boundaries and the action while G stays put.  This module
works in that slice: the map between semidirect totals, regular epis,
relative projectivity, and free covers.  `free_cover` returns the covering
morphism itself; its carrier map is the free exponent-4 cover of
`groups.free_module_cover`.  Lifts along regular epis are searched by
`lifting.find_xmod_lift`.

Search semantics: a returned None means the search space was exhausted, so
nonexistence is proven at the stated budget-free scale.  Running out of budget
raises BudgetExhausted instead; the two outcomes are never conflated.
"""

from .errors import GroupError, InvariantBreach
from .actions import trivial_action
from .groups import (
    GroupHom, _pair_rows, compose, enumerate_homs, free_module_cover,
    identity_hom, is_z4_module,
)
from .lifting import find_xmod_lift
from .xmod import CrossedModule, XModMorphism, morphism_witness


def total_map(mor: XModMorphism) -> GroupHom:
    """The induced hom between the semidirect totals, (t, g) -> (fT t, fG g)."""
    row = _pair_rows((mor.fG.table,), mor.tgt.codomain().order, mor.tgt.domain().order)
    return GroupHom(mor.src.extension.total, mor.tgt.extension.total,
                    row(mor.fT.table, 0))


def is_regular_epi(mor: XModMorphism) -> bool:
    """Surjectivity on carriers; cross-checked against the total-level map.

    Only morphisms over one shared base qualify: the base map must be the
    identity.  Over a fixed base the two surjectivities must agree; a
    mismatch would mean the package itself is broken, hence InvariantBreach
    rather than a report entry.
    """
    base = mor.src.codomain()
    if mor.tgt.codomain() is not base or mor.fG != identity_hom(base):
        raise GroupError("morphisms over a base need the same base group")
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
            out.append(XModMorphism(src, tgt, fT, ident, check=False))
    return out


def is_projective_rel(xm: CrossedModule, epis) -> dict:
    """Lifting test of xm against every given regular epi over the same base.

    Tries every morphism from xm into each epi target and searches a lift.
    The report either passes or pins the first (epi, morphism) with no lift;
    nonexistence there is by exhaustion, not by giving up.
    """
    checked = 0
    for i, epi in enumerate(epis):
        if epi.src.codomain() is not xm.codomain():
            raise GroupError("projectivity is relative to epis over the same base")
        if not is_regular_epi(epi):
            raise GroupError(f"map {i} in the class is not a regular epi")
        for j, u in enumerate(enumerate_sse_morphisms(xm, epi.tgt)):
            checked += 1
            if find_xmod_lift(epi, u) is None:
                return {
                    "ok": False,
                    "lifting_problems": checked,
                    "failed_epi": i,
                    "failed_morphism": j,
                }
    return {"ok": True, "lifting_problems": checked,
            "failed_epi": None, "failed_morphism": None}


# -- free covers in the commutative exponent-4 slice ----------------------------


def free_cover(xm: CrossedModule) -> XModMorphism:
    """Free cover of a trivially-acted crossed module with exponent-4 carrier.

    The carrier map is `groups.free_module_cover`, which sends the basis of
    the free commutative exponent-4 group to the carrier's greedy generators,
    one Z/4 per generator.  The boundary of the cover is the composite, so the
    cover map is a regular epi over the base by construction.
    """
    T, G = xm.domain(), xm.codomain()
    if not is_z4_module(T):
        raise GroupError("free covers live over commutative exponent-4 carriers")
    if not xm.action.is_trivial():
        raise GroupError("free covers here require a trivial action")
    R, phi = free_module_cover(T)
    F = CrossedModule(trivial_action(G, R), compose(xm.boundary, phi), check=False,
                      label=f"F({xm.label})")
    return XModMorphism(F, xm, phi, identity_hom(G), check=False)

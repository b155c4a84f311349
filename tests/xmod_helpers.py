"""Crossed-module helpers that only the tests use: identities and composites
of morphisms and the section search over a fixed base, kept beside the tests
that pin their answers."""
from xmodkit.errors import GroupError
from xmodkit.groups import compose, identity_hom
from xmodkit.sse import SSEMorphism, is_regular_epi, lift_along
from xmodkit.xmod import XModMorphism


def identity_sse(xm):
    return SSEMorphism(xm, xm, identity_hom(xm.domain()), check=False)


def compose_morphisms(f, g):
    """f after g."""
    if g.tgt is not f.src:
        raise GroupError("morphism composition mismatch")
    return XModMorphism(g.src, f.tgt, compose(f.fT, g.fT), compose(f.fG, g.fG),
                        check=False)


def compose_sse(f, g):
    """f after g, over the common base."""
    if g.tgt is not f.src:
        raise GroupError("composition mismatch")
    return SSEMorphism(g.src, f.tgt, compose(f.fT, g.fT), check=False)


def brute_force_section(mor, budget=None):
    """A section of a regular epi over the base, or None when none exists.

    A section is a lift of the identity along the epi.  Exhausting the
    search proves nonexistence; BudgetExhausted passes through.
    """
    if not is_regular_epi(mor):
        raise GroupError("sections are only searched under regular epis")
    return lift_along(mor, identity_sse(mor.tgt), budget=budget)

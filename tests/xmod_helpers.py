"""Crossed-module helpers that only the tests use: composites of morphisms,
kept beside the tests that pin their answers."""
from xmodkit.errors import GroupError
from xmodkit.groups import compose
from xmodkit.xmod import XModMorphism


def compose_morphisms(f, g):
    """f after g."""
    if g.tgt is not f.src:
        raise GroupError("morphism composition mismatch")
    return XModMorphism(g.src, f.tgt, compose(f.fT, g.fT), compose(f.fG, g.fG),
                        check=False)

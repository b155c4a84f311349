"""Crossed-module helpers that only the tests use: composites of morphisms
and the enumerating reference of the word-level check, kept beside the tests
that pin their answers."""
from xmodkit.actions import GroupAction, core_walker
from xmodkit.errors import GroupError
from xmodkit.groups import compose, gatherer, identity_hom
from xmodkit.words import FactorSignature, WordHom, enumerate_cosmash_words, format_word
from xmodkit.xmod import XModMorphism


def compose_morphisms(f, g):
    """f after g."""
    if g.tgt is not f.src:
        raise GroupError("morphism composition mismatch")
    return XModMorphism(g.src, f.tgt, compose(f.fT, g.fT), compose(f.fG, g.fG),
                        check=False)


def wordlevel_reference(xm, max_len=4):
    """`xmod.check_axioms_wordlevel` by enumeration: every binary cosmash word
    is listed in length-lex order, then evaluated letter by letter through
    `core_walker` and a `WordHom`.  The walk must return the same dict."""
    G, T = xm.codomain(), xm.domain()
    d, idT = xm.boundary, identity_hom(T)
    pulled = GroupAction(T, T, gatherer(d.table)(xm.action.table), check=False)
    out, viol = {"max_len": max_len}, {}
    for law, action, slot_maps, on_core in (
            ("equivariance", xm.action, (identity_hom(G), d), d.table),
            ("peiffer", pulled, (idT, idT), idT.table)):
        sig = FactorSignature((action.actor, action.carrier))
        straight = WordHom(sig, slot_maps, slot_maps[1].target)
        words, core = enumerate_cosmash_words(sig, max_len), core_walker(action)
        out[f"{law}_words"] = len(words)
        viol[f"{law}_violations"] = [
            format_word(w) for w in words if on_core[core(w)] != straight.evaluate(w)]
    out.update(viol)
    out["ok"] = not any(viol.values())
    return out

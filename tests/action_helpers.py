"""Action helpers that only the tests use: the action read off a split
extension, the comparison isomorphism of a split extension and the second,
semidirect-product route for evaluating words with trivial actor part, kept
beside the tests that pin their answers."""
from xmodkit.actions import (
    GroupAction, SplitExtension, conjugation_action_on, core_walker, semidirect_product,
)
from xmodkit.errors import GroupError
from xmodkit.groups import GroupHom
from xmodkit.words import FactorSignature, enumerate_flat_words

from word_helpers import WordHom


def action_from_extension(ext: SplitExtension) -> GroupAction:
    """Conjugation of the section through the kernel embedding, rebuilt from
    the extension alone: the reference for `lifting.inclusion_base_action`."""
    conj = conjugation_action_on(ext.k).table
    # the conjugation action pulled back along the hom s is again an action
    return GroupAction._trusted(ext.base, ext.kernel_group, tuple(conj[e] for e in ext.s.table))


def extension_iso(ext: SplitExtension) -> GroupHom:
    """Isomorphism from the semidirect product of the derived action onto the total group.

    Sends a pair (x, g) to k(x) s(g) and checks compatibility with the kernel
    embeddings, retractions, and sections on both sides.
    """
    action = action_from_extension(ext)
    std = semidirect_product(action)
    E = ext.total
    m = ext.base.order
    images = []
    for a in range(std.total.order):
        x, g = divmod(a, m)
        images.append(E.mul(ext.k.table[x], ext.s.table[g]))
    iso = GroupHom(std.total, E, tuple(images))
    if not iso.is_injective() or not iso.is_surjective():
        raise GroupError("comparison map is not bijective")
    for x in range(ext.kernel_group.order):
        if iso.table[std.k.table[x]] != ext.k.table[x]:
            raise GroupError("comparison map does not commute with the kernel embeddings")
    for g in range(ext.base.order):
        if iso.table[std.s.table[g]] != ext.s.table[g]:
            raise GroupError("comparison map does not commute with the sections")
    for a in range(std.total.order):
        if ext.p.table[iso.table[a]] != std.p.table[a]:
            raise GroupError("comparison map does not commute with the retractions")
    return iso


def action_signature(action: GroupAction) -> FactorSignature:
    return FactorSignature((action.actor, action.carrier))


def semidirect_route(action: GroupAction):
    """The evaluator of words with trivial actor projection through the
    semidirect product, pulled back along the kernel: independent of
    `actions.core_walker`, and both must agree on every such word.  Unlike
    the walker it refuses a word over any signature but (actor, carrier)."""
    ext = semidirect_product(action)
    wh = WordHom(action_signature(action), [ext.s, ext.k], ext.total)
    lookup = {ext.k.table[x]: x for x in range(action.carrier.order)}

    def evaluate(w):
        facs = w.sig.factors
        if len(facs) != 2 or facs[0] is not action.actor or facs[1] is not action.carrier:
            raise GroupError("word signature must be (actor, carrier) for this action")
        e = wh.evaluate(w)
        if ext.p.table[e] != ext.base.identity:
            raise GroupError("word does not project trivially to the actor")
        return lookup[e]
    return evaluate


def action_core_consistency(action: GroupAction, max_len: int = 4) -> int:
    """Compare both evaluation routes on every short word with trivial actor part.

    Returns the number of words checked.  Uses the flat-word enumeration, which
    contains the binary cosmash words as a subset.
    """
    via_ext, via_word = semidirect_route(action), core_walker(action)
    count = 0
    for w in enumerate_flat_words(action_signature(action), max_len):
        if via_ext(w) != via_word(w):
            raise GroupError(f"evaluation routes disagree on {w!r}")
        count += 1
    return count

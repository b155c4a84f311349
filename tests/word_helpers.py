"""Word helpers that only the tests use: a word parser, the commutator,
membership in the binary and ternary cosmash, and the fold maps on three-slot
words, kept beside the tests that pin their answers."""
from xmodkit.errors import GroupError
from xmodkit.words import FactorSignature, Word, fold_word, normalize


def empty_word(sig):
    return Word(sig, ())


def commutator(u, v):
    return u * v * u.inverse() * v.inverse()


def parse_word(sig, text):
    """Inverse of format_word: "(0:a 1:x 0:a^-1)".

    A trailing ^-1 on a name inverts the element.
    """
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise GroupError("word must be wrapped in parentheses")
    body = text[1:-1].strip()
    letters = []
    if body:
        for tok in body.split():
            if ":" not in tok:
                raise GroupError(f"bad letter {tok!r}: expected slot:name")
            si, name = tok.split(":", 1)
            try:
                slot = int(si)
            except ValueError:
                raise GroupError(f"bad slot in {tok!r}") from None
            if not 0 <= slot < len(sig):
                raise GroupError(f"slot {slot} out of range")
            f = sig.factors[slot]
            invert = name.endswith("^-1")
            if invert:
                name = name[:-3]
            v = f.index_of(name)
            if invert:
                v = f.inv(v)
            letters.append((slot, v))
    return normalize(sig, letters)


def _collapses_without(w, slot):
    """Deleting one slot leaves the empty word; the other slots' letters
    normalize over w's own signature, as `words.in_flat` does."""
    return not normalize(w.sig, [a for a in w.letters if a[0] != slot]).letters


def in_binary_cosmash(w):
    """Both single-slot projections collapse to the empty word."""
    if len(w.sig) != 2:
        raise GroupError("binary membership needs a two-slot signature")
    return _collapses_without(w, 0) and _collapses_without(w, 1)


def in_ternary_cosmash(w):
    """All three pairwise projections (delete one slot) collapse to empty."""
    if len(w.sig) != 3:
        raise GroupError("ternary membership needs a three-slot signature")
    return all(_collapses_without(w, i) for i in range(3))


def _require_same_factor(sig, i, j):
    if sig.factors[i] is not sig.factors[j]:
        raise GroupError(f"slots {i} and {j} must carry the same factor")


def fold_left(w):
    """(A, A, B) -> (A, B): merge the two left slots by multiplication."""
    sig = w.sig
    if len(sig) != 3:
        raise GroupError("fold_left needs three slots")
    _require_same_factor(sig, 0, 1)
    tgt = FactorSignature((sig.factors[0], sig.factors[2]))
    return fold_word(w, tgt, (0, 0, 1))


def fold_right(w):
    """(A, B, B) -> (A, B): merge the two right slots by multiplication."""
    sig = w.sig
    if len(sig) != 3:
        raise GroupError("fold_right needs three slots")
    _require_same_factor(sig, 1, 2)
    tgt = FactorSignature((sig.factors[0], sig.factors[1]))
    return fold_word(w, tgt, (0, 1, 1))

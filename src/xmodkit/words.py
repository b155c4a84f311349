"""Reduced words in free products of finite groups.

Free products, cosmash products and flat objects are infinite, so they are
never materialized: their members are reduced words, built, listed and
formatted here and evaluated by one letter walk in a semidirect product
(`actions.semidirect_walker`).  A word is a sequence of letters (slot, value)
with no identity letters and no two adjacent letters in the same slot.
Slots are positions in a signature; the same group may occupy several slots
and the slots stay distinct.  Every slot carries a plain group, which is
checked once, where a signature is built.
"""
from __future__ import annotations

from functools import cache

from .errors import GroupError
from .groups import FiniteGroup

MAX_ENUM_LEN = 12


class FactorSignature:
    """An ordered list of factors, each a FiniteGroup."""

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise GroupError("signature needs at least one factor")
        if not all(isinstance(f, FiniteGroup) for f in factors):
            raise GroupError("factors must be groups")
        self.factors = factors

    def __len__(self):
        return len(self.factors)

    def __eq__(self, other):
        # structural: same group objects in the same slots
        return isinstance(other, FactorSignature) and self.factors == other.factors

    def __hash__(self):
        return hash(tuple(map(id, self.factors)))

    def __repr__(self):
        return "<" + " + ".join(f.label for f in self.factors) + ">"


class Word:
    """A reduced word; construct through `normalize`, not directly."""

    __slots__ = ("sig", "letters")

    def __init__(self, sig, letters):
        self.sig = sig
        self.letters = letters

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if other.sig is not self.sig and other.sig.factors != self.sig.factors:
            raise GroupError("cannot multiply words over different signatures")
        return normalize(self.sig, self.letters + other.letters)

    def inverse(self):
        fs = self.sig.factors
        return Word(self.sig, tuple((s, fs[s].inv(v)) for s, v in reversed(self.letters)))

    def __eq__(self, other):
        return (isinstance(other, Word) and self.sig.factors == other.sig.factors
                and self.letters == other.letters)

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return format_word(self)


def normalize(sig, letters):
    """Stack reduction: drop identities, merge same-slot neighbours, cancel."""
    out, fs = [], sig.factors
    for s, v in letters:
        f = fs[s]
        if v == f.identity:
            continue
        if out and out[-1][0] == s:
            merged = f.table[out[-1][1]][v]
            out.pop()
            if merged != f.identity:
                out.append((s, merged))
        else:
            out.append((s, v))
    return Word(sig, tuple(out))


def single(sig, slot, value):
    return normalize(sig, ((slot, value),))


def format_word(w):
    if not w.letters:
        return "()"
    fs = w.sig.factors
    return "(" + " ".join(f"{s}:{fs[s].names[v]}" for s, v in w.letters) + ")"


def in_flat(w):
    """Membership in the kernel of (keep slot 0, kill slot 1): A-flat words."""
    if len(w.sig) != 2:
        raise GroupError("flat membership needs a two-slot signature")
    return not normalize(w.sig, [a for a in w.letters if a[0] == 0]).letters


# -- enumeration ---------------------------------------------------------------


def check_length(max_len):
    """Refuse an enumeration length below 0 or above MAX_ENUM_LEN."""
    if max_len < 0:
        raise GroupError(f"enumeration length {max_len} is negative")
    if max_len > MAX_ENUM_LEN:
        raise GroupError(f"enumeration length {max_len} exceeds cap {MAX_ENUM_LEN}")


@cache  # process-wide: one table per (slot count, keeps)
def _distance_table(k, keeps):
    """Fewest letters that empty every stack, per abstract state of _kernel_words.

    A stack keeps one or two slots, so it alternates, and its slot pattern
    is 0 when empty, else 1 + bottom * cap + height - 1 over its w sorted
    slots, or `dead` = 1 + w * cap past cap = MAX_ENUM_LEN // 2, a height no
    word that short can reach and then clear.  State (prev, patterns) has
    index prev + 1 + sum(weights[p] * patterns[p]).  Returns (dist, weights,
    push, touch): push[p][c][s] is the pattern after a letter in slot s
    lands on pattern c, or -1 when s is c's top slot, where the letter
    merges or cancels; touch[s] lists the stacks keeping slot s.  dist (255
    past MAX_ENUM_LEN) is filled by a breadth-first search back from the
    empty states, as a push and a cancel undo each other and a merge undoes
    itself.
    """
    cap, push, below, weights, size = MAX_ENUM_LEN // 2, [], [], [], k + 1
    for slots in keeps:
        w = len(slots)
        dead = 1 + w * cap
        rows = [[1 + slots.index(s) * cap if s in slots else dead for s in range(k)]]
        for c in range(1, dead):
            b, h = divmod(c - 1, cap)
            rows.append([-1 if s == slots[(b + h) % w] else dead if h + 1 == cap
                         else c + 1 for s in range(k)])
        push.append(rows + [[dead] * k])
        below.append([0] + [c - 1 if (c - 1) % cap else 0 for c in range(1, dead)])
        weights.append(size)
        size *= dead + 1
    touch = [tuple(p for p, slots in enumerate(keeps) if s in slots) for s in range(k)]
    dist = bytearray([255]) * size
    frontier = range(k + 1)  # any previous slot, every stack empty
    for d in range(MAX_ENUM_LEN + 1):
        for y in frontier:
            dist[y] = d
        found = set()
        for y in frontier:
            s = y % (k + 1) - 1
            if s < 0:
                continue
            pre = [y - s - 1]
            for p in touch[s]:
                c = y // weights[p] % len(push[p])
                t = push[p][c][s]
                moves = (c, below[p][c]) if t < 0 else (t,) if t < len(below[p]) else ()
                pre = [x + weights[p] * (e - c) for x in pre for e in moves]
            found.update(x + q for x in pre for q in range(k + 1)
                         if q != s + 1 and dist[x + q] == 255)
        frontier = found
    return dist, weights, push, touch


def _kernel_words(sig, max_len, keeps):
    """Reduced words of length <= max_len whose kept-slot projections all vanish.

    keeps is a tuple of slot tuples; for each, the projection deleting the other
    slots must normalize to the empty word.  Plain words keep nothing, flat
    and binary cosmash words keep single slots, the ternary cosmash keeps
    slot pairs.  One DFS lists them all: it holds each projection's
    reduction stack as linked cells (value, pattern, rest) and skips a child
    whose abstract state, the previous slot and each stack's slot pattern,
    needs more letters to empty every stack than remain (_distance_table).
    No word is lost: a letter in a stack's top slot cancels or merges there,
    any other letter pushes, and the abstract moves allow each of these, so
    every real completion is an abstract one of the same length.  When only
    a cancellation keeps the child alive, the value must invert a top.
    """
    check_length(max_len)
    k = len(sig)
    factors = sig.factors
    muls = [f.table for f in factors]
    invs = [f._inv for f in factors]
    idents = [f.identity for f in factors]
    values = [[v for v in range(f.order) if v != f.identity] for f in factors]
    dist, weights, push, touch = _distance_table(k, keeps)
    out, cur = [], []

    def rec(rec, prev, remaining, code, stacks):  # no self-closure, as in search_homs
        if code == 0:
            out.append(tuple(cur))
        if remaining == 0:
            return
        r1 = remaining - 1
        for s in range(k):
            if s == prev:
                continue
            base, pushes, merges = code + s + 1, [], []
            for p in touch[s]:
                c = stacks[p][1] if stacks[p] else 0
                t = push[p][c][s]
                if t < 0:
                    merges.append(p)
                else:
                    base += weights[p] * (t - c)
                    pushes.append((p, t))
            mul, ident = muls[s], idents[s]
            if dist[base] <= r1:
                vals = values[s]
            elif merges:
                vals = sorted({invs[s][stacks[p][0]] for p in merges})
            else:
                continue
            for v in vals:
                new, child = list(stacks), base
                for p, t in pushes:
                    new[p] = (v, t, stacks[p])
                for p in merges:
                    top, c, rest = stacks[p]
                    m = mul[top][v]
                    if m != ident:
                        new[p] = (m, c, rest)
                    else:
                        new[p] = rest
                        child += weights[p] * ((rest[1] if rest else 0) - c)
                if dist[child] <= r1:
                    cur.append((s, v))
                    rec(rec, s, r1, child - s - 1, new)
                    cur.pop()

    rec(rec, -1, max_len, 0, [None] * len(keeps))
    out.sort(key=lambda ls: (len(ls), ls))
    return [Word(sig, ls) for ls in out]


def enumerate_words(sig, max_len):
    """All reduced words of length <= max_len, in length-lexicographic order."""
    return _kernel_words(sig, max_len, ())


def enumerate_cosmash_words(sig, max_len):
    """Binary or ternary cosmash members up to max_len, length-lex order.

    Binary members keep each slot alone, ternary ones each pair of slots.
    """
    k = len(sig)
    if k == 2:
        keeps = ((0,), (1,))
    elif k == 3:
        keeps = ((0, 1), (0, 2), (1, 2))
    else:
        raise GroupError("cosmash enumeration supports 2 or 3 slots")
    return _kernel_words(sig, max_len, keeps)


def enumerate_flat_words(sig, max_len):
    """Words over (A, X) killed by (keep A, drop X), up to max_len."""
    if len(sig) != 2:
        raise GroupError("flat enumeration needs a two-slot signature")
    return _kernel_words(sig, max_len, ((0,),))

"""Group actions by automorphisms, split extensions, and word evaluation.

An action here is a left action of an actor group on a carrier group where
every actor element acts as an automorphism.  Split extensions package a
kernel embedding, a retraction, and a section; the two views are equivalent:
`semidirect_product` builds the extension of an action, and
`lifting.inclusion_base_action` reads the action back off an extension.

``GroupAction`` and ``SplitExtension`` always check, where data enters; the
constructions here are correct by theorem and build unchecked (``_trusted``).
Their tables are built a row at a time with ``groups.gatherer``, each on
first read: a semidirect-product row extends one list by blocks shared by
every row with the same actor element, and a conjugation row reads one
column of the image rows through the conjugating element's row.

Word evaluation convention: one letter walk in T x| G (`semidirect_walker`)
evaluates every word, each slot read as the actor or the carrier, by default
slot 0 as the actor.  A word with trivial actor part has a carrier value.
"""

from operator import itemgetter

from .errors import GroupError
from .groups import (
    MAX_ORDER, FiniteGroup, GroupHom, _pair_rows, _Rows, gatherer, identity_hom,
)


class GroupAction:
    """Left action of `actor` on `carrier` by automorphisms.

    table[g][x] is the image of carrier element x under actor element g.
    The table is copied into row tuples and checked: its shape, then the
    action laws (`_validate`).
    """

    def __init__(self, actor: FiniteGroup, carrier: FiniteGroup, table):
        self.actor, self.carrier = actor, carrier
        self.table = tuple(tuple(row) for row in table)
        if (len(self.table) != actor.order
                or any(len(r) != carrier.order for r in self.table)):
            raise GroupError("action table shape does not match the groups")
        self._validate()

    @classmethod
    def _trusted(cls, actor, carrier, table):
        """The table, row tuples or a `_Rows` built on first read, as given."""
        a = cls.__new__(cls)
        a.actor, a.carrier, a.table = actor, carrier, table
        return a

    def _validate(self):
        """Each row is a bijection and, through `GroupHom`'s row check, a hom;
        compatibility g.(h.x) = (gh).x is checked on the actor's `_gens`: once
        the identity row is the identity, the g that pass form a subgroup."""
        G, X, t = self.actor, self.carrier, self.table
        ident_row = tuple(range(X.order))
        if t[G.identity] != ident_row:
            raise GroupError("identity must act as the identity automorphism")
        for g, row in enumerate(t):
            if sorted(row) != list(ident_row):
                raise GroupError(f"actor element {G.names[g]} does not act bijectively")
            try:
                GroupHom(X, X, row)
            except GroupError:
                raise GroupError(
                    f"actor element {G.names[g]} does not act by an automorphism") from None
        for g in G._gens:
            # row g*h is row h read through row g, for every h
            if [t[gh] for gh in G.table[g]] != [tuple(map(t[g].__getitem__, rh)) for rh in t]:
                raise GroupError("action is not compatible with actor multiplication")

    def is_trivial(self) -> bool:
        ident_row = tuple(range(self.carrier.order))
        return all(row == ident_row for row in self.table)

    def __eq__(self, other):
        return (isinstance(other, GroupAction) and self.actor is other.actor
                and self.carrier is other.carrier and self.table == other.table)

    def __hash__(self):  # equal actions share both groups; no row is read
        return hash((id(self.actor), id(self.carrier)))

    def __repr__(self):
        kind = "trivial " if self.is_trivial() else ""
        return (f"GroupAction({kind}actor order {self.actor.order}, "
                f"carrier order {self.carrier.order})")


def trivial_action(actor: FiniteGroup, carrier: FiniteGroup) -> GroupAction:
    row = tuple(range(carrier.order))
    return GroupAction._trusted(actor, carrier, (row,) * actor.order)


def action_from_function(actor: FiniteGroup, carrier: FiniteGroup, fn) -> GroupAction:
    table = [[fn(g, x) for x in range(carrier.order)] for g in range(actor.order)]
    return GroupAction(actor, carrier, table)


def conjugation_action(G: FiniteGroup) -> GroupAction:
    return conjugation_action_on(identity_hom(G))


def conjugation_action_on(embedding: GroupHom) -> GroupAction:
    """Action of the codomain on the domain by conjugation through `embedding`.

    The embedding must be injective with normal image; both are checked here,
    normality on the rows of G's generators (`_gens`): conjugation by a
    product keeps the image once conjugation by each factor does.  The table
    builds row g on first read (`_Rows`), from tables alone: the conjugates
    g k(h) g^-1 (`_conjugates`) read back through the embedding's preimage.
    A fresh action holds only the generators' rows, which that check read.
    """
    H, G = embedding.source, embedding.target
    if not embedding.is_injective():
        raise GroupError("embedding is not injective")
    conj, pre = _conjugates(G.table, G._inv, embedding.table), embedding.preimage
    table = _Rows(G.order, lambda g: gatherer(conj(g))(pre))
    if any(None in table[g] for g in G._gens):
        raise GroupError("image of the embedding is not a normal subgroup")
    # conjugation preserving a normal image is an automorphism of it, and g -> row is a hom
    return GroupAction._trusted(G, H, table)


def _conjugates(t, inv, elems):
    """The map g -> (g x g^-1 for x in elems), in a group with table t and
    inverses inv: g x g^-1 = g (x g^-1), so the rows of `elems` are read at
    column g^-1 and then through row g.  It holds tables only."""
    rows = gatherer(elems)(t)
    return lambda g: gatherer(tuple(map(itemgetter(inv[g]), rows)))(t[g])


class SplitExtension:
    """Kernel embedding k, retraction p, section s with p s = id.

    The kernel of p must equal the image of k elementwise.
    """

    def __init__(self, k: GroupHom, p: GroupHom, s: GroupHom):
        self.k, self.p, self.s = k, p, s
        self._validate()

    @classmethod
    def _trusted(cls, k, p, s):
        ext = cls.__new__(cls)
        ext.k, ext.p, ext.s = k, p, s
        return ext

    @property
    def kernel_group(self) -> FiniteGroup:
        return self.k.source

    @property
    def total(self) -> FiniteGroup:
        return self.p.source

    @property
    def base(self) -> FiniteGroup:
        return self.p.target

    def _validate(self):
        k, p, s = self.k, self.p, self.s
        if k.target is not p.source:
            raise GroupError("kernel embedding must land in the total group")
        if s.source is not p.target or s.target is not p.source:
            raise GroupError("section must go from the base into the total group")
        if not k.is_injective():
            raise GroupError("kernel embedding is not injective")
        for g in range(p.target.order):
            if p.table[s.table[g]] != g:
                raise GroupError("section is not split by the retraction")
        if p.kernel_elements != k.image_elements:
            raise GroupError("kernel of the retraction differs from the embedded subgroup")

    def __repr__(self):
        return (f"SplitExtension({self.kernel_group.order} -> {self.total.order} "
                f"-> {self.base.order})")


def semidirect_product(action: GroupAction) -> SplitExtension:
    """Split extension with pair multiplication (x1,g1)(x2,g2) = (x1 g1.x2, g1 g2)."""
    X, G = action.carrier, action.actor
    n, m = X.order, G.order
    size = n * m
    if size > MAX_ORDER:
        raise GroupError(f"semidirect product order {size} exceeds cap {MAX_ORDER}")
    # row (x1, g1): (x1 (g1.x2), g1 g2) over x2 and then g2, built on first read
    row, x_rows = _pair_rows(G.table, m, n), X.table
    twists = [gatherer(r) for r in action.table]
    table = _Rows(size, lambda i: row(twists[i % m](x_rows[i // m]), i % m))
    names = tuple(f"{X.names[x]}|{G.names[g]}" for x in range(n) for g in range(m))
    # (x, g)^-1 = (g^-1.x^-1, g^-1), read from the identity's row of every code
    e, g_inv = X.identity * m + G.identity, G._inv
    codes = table[e]
    inverses = tuple(codes[action.table[g_inv[g]][x_inv] * m + g_inv[g]]
                     for x_inv in X._inv for g in range(m))
    # associative because the action is by automorphisms; k, p, s split by construction
    E = FiniteGroup._trusted(table, e, inverses, names, f"{X.label}:{G.label}")
    k = GroupHom._trusted(X, E, tuple(x * m + G.identity for x in range(n)))
    p = GroupHom._trusted(E, G, tuple(e % m for e in range(size)))
    s = GroupHom._trusted(G, E, tuple(X.identity * m + g for g in range(m)))
    return SplitExtension._trusted(k, p, s)


def semidirect_walker(action: GroupAction, slots=None):
    """The evaluator of words in T x| G as pairs (t, g), tables bound once.

    Slot s is read through slots[s] = (level, values): letter (s, v) is the
    actor letter (1, values[v]) at level 0, the carrier letter (values[v], 1)
    at level 1, and (t, g)(t', g') = (t g.t', g g').  This is a hom on the
    free product, so every spelling of a word, reduced or not, has the same
    value.  Signatures are not checked: callers read into the action's groups.
    """
    g, x, act = action.actor.table, action.carrier.table, action.table
    one, r0 = action.actor.identity, action.carrier.identity
    if slots is None:
        slots = ((0, range(action.actor.order)), (1, range(action.carrier.order)))

    def walk(w):
        a, r = one, r0
        for s, v in w.letters:
            level, values = slots[s]
            if level:
                r = x[r][act[a][values[v]]]
            else:
                a = g[a][values[v]]
        return r, a
    return walk


def core_walker(action: GroupAction, slots=None):
    """`semidirect_walker`'s carrier value; a nontrivial actor part is refused."""
    walk, one = semidirect_walker(action, slots), action.actor.identity

    def core(w):
        r, a = walk(w)
        if a != one:
            raise GroupError("word does not project trivially to the actor")
        return r
    return core

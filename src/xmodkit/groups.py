"""Finite groups as dense multiplication tables.

Carriers are index ranges 0..order-1 and tables are sequences of row tuples,
so every structural question is settled by exhaustion.  Tables that enter,
and those of most constructions, are tuples of tuples; the products
(``direct_product``, ``actions.semidirect_product``), ``z4_module`` and the
actions of ``actions.conjugation_action_on`` build each row on first read
instead (``_Rows``), and read like the tuple of every row.  Tables are
trusted at one of two levels.  The public constructors take input tables
and check them in full: ``FiniteGroup`` the shape, the range (the set of all
cell values must lie in 0..n-1, one pass per table), the identity, the
inverses and associativity, and ``GroupHom`` the range, the identity and the
hom law.  The inverse of x is read off one scan of row x, for the place of
the identity, and must also give the identity on the left of x.
The constructions here, and those of the other modules, are correct by
theorem and skip every entry check: they build through the private
``FiniteGroup._trusted`` and ``GroupHom._trusted``, handing over tables with
the identity and the inverses they already know, such as the pairwise
inverses of a product.  Laws that hold on a
subgroup are decided on one generating set per group, ``FiniteGroup._gens``:
associativity (Light's test), the hom law, the action laws of
``actions.GroupAction``, commutativity, normality (of the image in
``actions.conjugation_action_on`` and as ``normal_closure`` grows),
``xmod.morphism_witness``'s equivariance and the crossed-module witnesses
``xmod.precrossed_witness`` and ``xmod.peiffer_witness``;
only normality runs a full loop, after a failure, for its witness.

Dense tables are built and checked a row at a time, except by ``pullback``,
``from_permutations`` and ``cyclic_group``, which go a cell at a time;
``xmod.xmod_kernel`` and ``xmod.relabel_xmod`` gather rows through
``GroupHom.preimage`` or an inverse permutation.  ``gatherer`` turns an index
tuple into one C call that reads a sequence at those indices; ``z4_module``
builds each row by extending one list with shifted copies of one row of the
module built so far, read from one shared index tuple, ``_pair_rows`` builds
every row of pair codes the same way, ``subgroup`` and ``quotient`` gather
each row at the chosen elements and representatives, ``free_module_cover``
decodes its values a generator at a time, and ``GroupHom`` compares each
generator's row read through the map with the matching target row, looking
for the failing cell only once a row differs.

One Cayley walk, ``_cosets``, grows every subgroup built from generators:
each new generator g grows the subgroup H so far to K = <H, g> by left
cosets y*H, one gather of row y each, so only the rows of the generators
and of the cosets' representatives are read; block y*H lands at one of
the places m, 2m, ... of K's member order (m = |H|).  ``_grow`` (behind
``closure``, ``FiniteGroup._gens`` and ``generating_sequence``),
``normal_closure`` and ``search_homs`` all read it.

The backtracking homomorphism search at the bottom is the engine for most of
the package: ``hom``, hom enumeration, section searches, constrained lifts and
isomorphism searches all go through ``search_homs``.  Each level adds one
generator g to the subgroup H reached so far and plans K = <H, g> once per
search, by the same walk.  By Schreier's lemma the cosets' representatives
carry every check: when f(s*y) = f(s)f(y) for each generator s and
representative y, f is a hom of K.  So a node computes [K:H].|gens|
products in Python, not |K|.|gens|, and fills each coset y*H once it passes,
by steps or, when H has at least ``_GATHER_FROM`` elements, one C gather.
Every section and every lift along a surjection is found by ``lifts``, the
one search over fibers.
"""
from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property

from .errors import BudgetExhausted, GroupError, InvariantBreach

MAX_ORDER = 1024
# Light's test decides every order exhaustively; perfbench's tracer still
# reads this name to model the check's work
ASSOC_EXHAUSTIVE_LIMIT = MAX_ORDER
DEFAULT_BUDGET = 2_000_000


class FiniteGroup:
    """A finite group on 0..order-1 given by its full multiplication table.

    Two groups are equal only if they are the same object; equal tables on
    distinct carriers are deliberately distinct.  The table is checked in
    full: a square over 0..n-1, an identity, a two-sided inverse per row
    (one scan of the row) and Light's associativity test.  The library's own
    constructions skip the checks through `_trusted`.
    """

    def __init__(self, table, names=None, label="G"):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise GroupError("empty multiplication table")
        if n > MAX_ORDER:
            raise GroupError(f"order {n} exceeds the dense-table cap {MAX_ORDER}")
        # shape first, then every cell value at once: one set of all the cells
        # (a C-level pass per table) must lie in 0..n-1
        if (any(len(row) != n for row in table)
                or not set().union(*table) <= set(range(n))):
            raise GroupError("multiplication table is not square over 0..n-1")
        self.order = n
        self.table = table
        self.label = label
        if names is None:
            names = tuple(str(i) for i in range(n))
        names = tuple(str(s) for s in names)
        if len(names) != n:
            raise GroupError("need exactly one name per element")
        self.names = names

        elems = tuple(range(n))
        ident = next((e for e in elems if table[e] == elems
                      and tuple(row[e] for row in table) == elems), None)
        if ident is None:
            raise GroupError("table has no identity element")
        self.identity = ident

        # one scan per row: x^-1 is the place of the identity in row x, and
        # it must give the identity on the left of x too
        inv = []
        for x, row in enumerate(table):
            try:
                y = row.index(ident)
            except ValueError:
                y = None
            if y is None or table[y][x] != ident:
                raise GroupError(f"element {x} has no inverse")
            inv.append(y)
        self._inv = tuple(inv)
        self._check_associativity()

    @classmethod
    def _trusted(cls, table, identity, inverses, names, label):
        """A group the library built and knows to be one, from parts taken
        as given: its table (a tuple of row tuples, or a `_Rows` that builds
        each row on first read), its identity, the tuple of inverses and one
        name string per element.  None of the entry checks runs;
        `tests/test_trusted_constructions.py` runs them on every builder."""
        G = cls.__new__(cls)
        G.order, G.table, G.label, G.names = len(table), table, label, names
        G.identity, G._inv = identity, inverses
        return G

    def _check_associativity(self):
        """Light's test: every triple, from |gens| row comparisons per row.

        Call s good when (xs)y = x(sy) for all x and y.  The identity is good,
        and a product ab of good a and b is good, in any table:
        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), using a, b, a
        and b good in turn.  `_gens` are the generators of the left-coset walk
        (`_cosets`), which in any table places every element, each after the
        identity a generator or the product of two placed before it; so when
        every generator is good, the good elements, closed under products,
        cover the table, and all n^3 triples hold.  The walk ends on any
        table, as each element becomes a representative at most once.  For
        each generator s, row xs of the table must equal row x read at row s.
        """
        t = self.table
        for s in self._gens:
            x_s = gatherer(t[s])  # row x -> (x(sy) for y)
            column = [row[s] for row in t]
            if list(map(t.__getitem__, column)) != list(map(x_s, t)):
                x = next(x for x, row in enumerate(t) if t[row[s]] != x_s(row))
                y = first_difference(t[column[x]], x_s(t[x]))
                raise GroupError(f"not associative at ({x},{s},{y})")

    # -- element arithmetic -------------------------------------------------

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, g, x):
        """g x g^-1."""
        return self.table[self.table[g][x]][self._inv[g]]

    def power(self, a, k):
        out = self.identity
        if k < 0:
            a, k = self._inv[a], -k
        row = self.table[a]
        for _ in range(k):
            out = row[out]
        return out

    @cached_property
    def _gens(self):
        """`_grow`'s generators over every element, each the least element outside
        the subgroup of those before it: a law that holds on a subgroup is decided
        on them, and the first where it fails is the least element where it fails."""
        return tuple(_grow(self.table, self.identity, range(self.order))[1])

    @cached_property
    def elem_orders(self):
        """A walk x, x^2, ... per element not covered; x^m = e first: x^k has order m/gcd(k, m)."""
        t, e = self.table, self.identity
        out = [0] * self.order
        out[e] = 1
        for x, known in enumerate(out):
            if not known:
                powers, y, row = [], x, t[x]  # x^1 .. x^(m-1), from row x alone
                while y != e:
                    powers.append(y)
                    y = row[y]
                m = len(powers) + 1
                for k, y in enumerate(powers, 1):
                    out[y] = m // math.gcd(k, m)
        return tuple(out)

    @cached_property
    def commutative(self):
        """Generators that commute pairwise commute with every element."""
        t = self.table
        return all(t[a][b] == t[b][a] for a, b in itertools.combinations(self._gens, 2))

    @cached_property
    def exponent(self):
        return math.lcm(*self.elem_orders)

    # -- subgroup machinery --------------------------------------------------

    def closure(self, elems):
        """Subgroup generated by elems, as a frozenset of indices.

        Each element not yet covered joins as a generator and the subgroup
        grows by left cosets (`_cosets`): one gather of row y per coset y*H
        and |gens| products per representative y, not a product of every
        pair.
        """
        return frozenset(_grow(self.table, self.identity, elems)[0])

    @cached_property
    def generators(self):
        """Greedy generating sequence: largest element order first, ties by least index."""
        return generating_sequence(self, (self.identity,))

    @cached_property
    def _name_index(self):
        idx = {}
        for i, s in enumerate(self.names):
            if s in idx:
                return None  # ambiguous names: lookup disabled
            idx[s] = i
        return idx

    def index_of(self, name):
        idx = self._name_index
        if idx is None:
            raise GroupError(f"element names of {self.label} are not unique")
        if name not in idx:
            raise GroupError(f"{self.label} has no element named {name!r}")
        return idx[name]

    def __repr__(self):
        return f"<FiniteGroup {self.label} order {self.order}>"


def _grow(t, identity, elems):
    """(members, gens): the subgroup of table t generated by `elems`, grown by
    left cosets (`_cosets`), each element of `elems` not yet reached joining
    `gens`."""
    members, pos = [identity], [None] * len(t)
    pos[identity] = 0
    return members, [g for g, _, _ in _cosets(t, members, pos, elems)]


def gatherer(indices):
    """The map seq -> tuple(seq[i] for i in indices), one C call per sequence.

    Dense tables are built and checked a row at a time through these: a row
    read through a hom, or a block of rows picked by a row of indices.
    """
    if len(indices) == 1:  # itemgetter of one index returns the item bare
        (i,) = indices
        return lambda seq: (seq[i],)
    return operator.itemgetter(*indices)


class _Rows(dict):
    """The rows of a built table, each made on first read and kept.

    Row a is `build(a)`, a tuple of ints; once made, `t[a]` is one C-level
    dict lookup.  Indexing, len, iteration in index order and == read like
    the tuple of every row: == builds and compares the full rows.  Writes
    raise TypeError, as on a tuple.  The rows made so far are `dict.keys(t)`.
    """

    __slots__ = ("_n", "_build")

    def __init__(self, n, build):
        self._n, self._build = n, build

    def __missing__(self, a):
        if not 0 <= a < self._n:  # as a tuple reads: negatives from the end, IndexError past it
            return self[range(self._n)[a]]
        row = self._build(a)
        dict.__setitem__(self, a, row)
        return row

    def __len__(self):
        return self._n

    def __iter__(self):
        return map(self.__getitem__, range(self._n))

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, _Rows) else other)

    def __ne__(self, other):
        return not self == other

    def _read_only(self, *args, **kwargs):
        raise TypeError("a group table is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


def _pair_rows(rows, m, n):
    """The map (firsts, j) -> the row of pair codes v*m + rows[j][w], over v in
    firsts and then w, for first coordinates below n and row values below m.

    Every product and semidirect product stores (v, w) at code v*m + w.  The
    row is one block per v, joined by extending one list; block v of row j is
    picked from a slice of one shared index tuple, so a table holds one int
    object per element rather than one per cell.
    """
    indices = tuple(range(n * m))
    blocks = [[pick(indices[i:i + m]) for i in range(0, n * m, m)]
              for pick in map(gatherer, rows)]

    def row(firsts, j):
        out = []
        for block in gatherer(firsts)(blocks[j]):
            out += block
        return tuple(out)
    return row


def first_difference(xs, ys):
    """The first index where two rows differ; the witness of a failed row check."""
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def _greedy(G, covered):
    """The elements of `covered`, then every element of G ranked by largest
    order, then least index.  Walked by `_cosets`, the first ranked element
    not yet reached is the largest outside the subgroup so far."""
    return itertools.chain(covered, sorted(range(G.order), key=G.elem_orders.__getitem__,
                                           reverse=True))


def generating_sequence(G, covered):
    """Extend the subgroup generated by `covered` to all of G, greedily
    (`_greedy`); no covered element is among the picks."""
    gens = _grow(G.table, G.identity, _greedy(G, covered))[1]
    taken = set(covered)
    return tuple(g for g in gens if g not in taken)


class GroupHom:
    """A verified homomorphism given by its full value table.  The hom law is
    checked on the rows of the source's `_gens`: once f(e) = e, the a with
    f(a*b) = f(a)*f(b) for every b form a subgroup."""

    def __init__(self, source, target, table):
        table = tuple(table)
        if len(table) != source.order:
            raise GroupError("hom table length does not match the source order")
        if min(table) < 0 or max(table) >= target.order:  # not empty: orders are >= 1
            raise GroupError("hom table has out-of-range values")
        if table[source.identity] != target.identity:
            raise GroupError("map does not preserve the identity")
        through_f = gatherer(table)
        for a in source._gens:
            # f(a*b) = f(a)*f(b) for every b: the image of row a is row f(a)
            # of the target read through f
            lhs, rhs = gatherer(source.table[a])(table), through_f(target.table[table[a]])
            if lhs != rhs:
                b = first_difference(lhs, rhs)
                raise GroupError(
                    f"not a homomorphism at "
                    f"({source.names[a]},{source.names[b]})")
        self.source = source
        self.target = target
        self.table = table

    @classmethod
    def _trusted(cls, source, target, table):
        """A hom the library built and knows to be one, its value tuple taken
        as given: neither the range nor the hom law is checked."""
        f = cls.__new__(cls)
        f.source, f.target, f.table = source, target, table
        return f

    def __call__(self, x):
        return self.table[x]

    @cached_property
    def image_elements(self):
        return frozenset(self.table)

    @cached_property
    def preimage(self):
        """Target element -> its source element, None off the image: the
        inverse of an injective hom, built once."""
        out = [None] * self.target.order
        for x, y in enumerate(self.table):
            out[y] = x
        return tuple(out)

    @cached_property
    def kernel_elements(self):
        e = self.target.identity
        return frozenset(x for x in range(self.source.order) if self.table[x] == e)

    def is_surjective(self):
        return len(self.image_elements) == self.target.order

    def is_injective(self):
        return len(self.image_elements) == self.source.order

    def __eq__(self, other):
        return (isinstance(other, GroupHom) and self.source is other.source
                and self.target is other.target and self.table == other.table)

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.table))

    def __repr__(self):
        return f"<GroupHom {self.source.label}->{self.target.label}>"


def identity_hom(G):
    return GroupHom._trusted(G, G, tuple(range(G.order)))


def trivial_hom(G, H):
    return GroupHom._trusted(G, H, (H.identity,) * G.order)


def compose(f, g):
    """f after g."""
    if g.target is not f.source:
        raise GroupError("composition mismatch")
    return GroupHom._trusted(g.source, f.target, gatherer(g.table)(f.table))


def hom(src, tgt, images):
    """Extend generator images (a dict elem -> elem) to a verified hom.

    Raises GroupError when the images violate a relation or fail to generate.
    """
    if images.get(src.identity, tgt.identity) != tgt.identity:
        raise GroupError("identity must map to the identity")

    def unassigned(g):  # asked for only once the images have passed every relation
        raise GroupError("the given elements do not generate the source group")

    for table in search_homs(src, tgt, unassigned, prescribed=images):
        return GroupHom._trusted(src, tgt, table)
    raise GroupError("images violate a relation")


# -- subgroups, quotients, pullbacks ----------------------------------------


def subgroup(G, elems, label=None):
    """The subgroup on a closed subset, with its inclusion hom."""
    elems = sorted(set(elems))
    es = set(elems)
    if G.identity not in es:
        raise GroupError("subgroup must contain the identity")
    idx = {e: i for i, e in enumerate(elems)}
    pick = gatherer(elems)
    table = []
    for a in elems:
        row = pick(G.table[a])  # a*b for b in elems
        if not es.issuperset(row):
            b = next(b for b, c in zip(elems, row) if c not in es)
            raise GroupError(
                f"subset not closed: {G.names[a]}*{G.names[b]} escapes")
        table.append(gatherer(row)(idx))
    # a closed subset of a finite group holds the inverses of its elements
    S = FiniteGroup._trusted(tuple(table), idx[G.identity], gatherer(pick(G._inv))(idx),
                             pick(G.names), label or f"{G.label}_sub{len(elems)}")
    return S, GroupHom._trusted(S, G, tuple(elems))


def kernel(f):
    return subgroup(f.source, f.kernel_elements,
                    label=f"ker({f.source.label}->{f.target.label})")


def normality_witness(G, elems):
    """None if conjugation keeps the subset, else the first escape (g, n, gng^-1).

    `quotient` decides normality with `normal_closure` and asks for the
    witness only after a failure, so one loop over every g and n does.
    """
    es = set(elems)
    for g in range(G.order):
        for n in es:
            c = G.conj(g, n)
            if c not in es:
                return (g, n, c)
    return None


def normal_closure(G, elems):
    """Smallest normal subgroup containing elems, grown by left cosets
    (`_cosets`); each generator that joins queues its conjugates by G's
    generators."""
    t, inv = G.table, G._inv
    members, pos, queue = [G.identity], [None] * G.order, list(elems)
    pos[G.identity] = 0
    for n, _, _ in _cosets(t, members, pos, queue):  # the queue grows as generators join
        queue += (t[g][t[n][inv[g]]] for g in G._gens)  # g(ng^-1), from rows g and n
    return frozenset(members)


def quotient(G, elems, label=None):
    """Quotient by a normal subgroup (given as its element set) with projection.

    Refuses non-normal input with a conjugation witness; never silently takes
    the normal closure.  Only a subset that is not its own normal closure
    runs `subgroup` and `normality_witness`, for the error text.
    """
    es = set(elems)
    if normal_closure(G, es) != es:
        subgroup(G, es)  # raises when the identity is missing or a product escapes
        g, n, c = normality_witness(G, elems)
        raise GroupError(
            f"subset is not normal: {G.names[g]} conjugates {G.names[n]} "
            f"to {G.names[c]} outside it")
    coset_of, coset, reps = gatherer(sorted(es)), [None] * G.order, []
    for g, known in enumerate(coset):
        if known is None:
            for c in coset_of(G.table[g]):  # gN, from the representatives' rows alone
                coset[c] = len(reps)
            reps.append(g)
    at_reps = gatherer(reps)
    # row aN: the products a*r over the representatives r, then their cosets
    table = tuple(gatherer(at_reps(G.table[a]))(coset) for a in reps)
    names = tuple("[" + G.names[r] + "]" for r in reps)
    # (rN)^-1 = r^-1 N, and g -> gN is a hom, because N is normal
    Q = FiniteGroup._trusted(table, coset[G.identity], gatherer(at_reps(G._inv))(coset),
                             names, label or f"{G.label}/{len(es)}")
    return Q, GroupHom._trusted(G, Q, tuple(coset))


def pullback(f, g):
    """Pullback of f: A -> C and g: B -> C with its two projections."""
    if f.target is not g.target:
        raise GroupError("pullback needs a common codomain")
    A, B = f.source, g.source
    pairs = [(a, b) for a in range(A.order) for b in range(B.order)
             if f.table[a] == g.table[b]]
    if len(pairs) > MAX_ORDER:
        raise GroupError(f"pullback order {len(pairs)} exceeds cap {MAX_ORDER}")
    idx = {p: i for i, p in enumerate(pairs)}
    table = tuple(tuple(idx[(A.table[a][a2], B.table[b][b2])] for (a2, b2) in pairs)
                  for (a, b) in pairs)
    names = tuple(f"({A.names[a]},{B.names[b]})" for (a, b) in pairs)
    inverses = tuple(idx[(A._inv[a], B._inv[b])] for (a, b) in pairs)
    P = FiniteGroup._trusted(table, idx[(A.identity, B.identity)], inverses, names,
                             f"pb({A.label},{B.label})")
    p1 = GroupHom._trusted(P, A, tuple(a for a, _ in pairs))
    p2 = GroupHom._trusted(P, B, tuple(b for _, b in pairs))
    return P, p1, p2


def direct_product(A, B, label=None):
    """(A x B, i1, i2, p1, p2)."""
    n, m = A.order, B.order
    size = n * m
    if size > MAX_ORDER:
        raise GroupError(f"product order {size} exceeds cap {MAX_ORDER}")
    # row (a, b): (a a2, b b2) over a2 and then b2, built on first read
    row, a_rows = _pair_rows(B.table, m, n), A.table
    table = _Rows(size, lambda i: row(a_rows[i // m], i % m))
    names = tuple(f"({A.names[a]},{B.names[b]})" for a in range(n) for b in range(m))
    e = A.identity * m + B.identity
    codes = table[e]  # the identity's row: every code, one int object each
    inverses = tuple(codes[a * m + b] for a in A._inv for b in B._inv)
    P = FiniteGroup._trusted(table, e, inverses, names, label or f"{A.label}x{B.label}")
    i1 = GroupHom._trusted(A, P, tuple(a * m + B.identity for a in range(n)))
    i2 = GroupHom._trusted(B, P, tuple(A.identity * m + b for b in range(m)))
    p1 = GroupHom._trusted(P, A, tuple(a for a in range(n) for _ in range(m)))
    p2 = GroupHom._trusted(P, B, tuple(b for _ in range(n) for b in range(m)))
    return P, i1, i2, p1, p2


# -- stock groups -------------------------------------------------------------


def trivial_group(label="1"):
    return FiniteGroup._trusted(((0,),), 0, (0,), ("e",), label)


def cyclic_group(n, label=None):
    if not 1 <= n <= MAX_ORDER:
        raise GroupError(f"cyclic group order {n} is outside 1..{MAX_ORDER}")
    idx = tuple(range(n))  # every cell and inverse is one of these n ints
    table = tuple(idx[a:] + idx[:a] for a in idx)  # row a: (a + b) mod n
    inverses = idx[:1] + idx[:0:-1]  # -a mod n
    return FiniteGroup._trusted(table, 0, inverses, tuple(map(str, idx)),
                                label or f"Z{n}")


def _cycle_notation(perm):
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "e"


def from_permutations(perms, degree, label="P"):
    """Group generated by permutations (tuples of images on 0..degree-1).

    The composite p.q, i -> p[q[i]], is one C-level gather of p at q.
    """
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(p) for p in perms]
    while frontier:
        new = []
        for p in frontier:
            for q in gens:
                for r in (tuple(map(p.__getitem__, q)), tuple(map(q.__getitem__, p))):
                    if r not in elems:
                        elems.add(r)
                        new.append(r)
        frontier = new
    if len(elems) > MAX_ORDER:
        raise GroupError(f"order {len(elems)} exceeds the dense-table cap {MAX_ORDER}")
    order = sorted(elems)
    idx = {p: i for i, p in enumerate(order)}
    table = tuple(tuple(idx[tuple(map(p.__getitem__, q))] for q in order) for p in order)
    # the inverse of p lists the points in the order of their images under p
    inverses = tuple(idx[tuple(sorted(range(degree), key=p.__getitem__))] for p in order)
    return FiniteGroup._trusted(table, idx[ident], inverses,
                                tuple(map(_cycle_notation, order)), label)


def symmetric_group(n):
    if n < 0:
        raise GroupError(f"symmetric group of negative degree {n}")
    if n > 5:
        raise GroupError("symmetric groups supported up to degree 5")
    if n <= 1:
        return trivial_group(label=f"S{n}")
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return from_permutations([swap, cycle], n, label=f"S{n}")


def alternating_group(n):
    if n < 0:
        raise GroupError(f"alternating group of negative degree {n}")
    if n > 5:
        raise GroupError("alternating groups supported up to degree 5")
    # the 3-cycles (k k+1 k+2) generate; the identity covers n < 3
    perms = [tuple(range(n))]
    for k in range(n - 2):
        c = list(range(n))
        c[k], c[k + 1], c[k + 2] = c[k + 1], c[k + 2], c[k]
        perms.append(tuple(c))
    return from_permutations(perms, n, label=f"A{n}")


def dihedral_group(n, label=None):
    """Symmetries of the regular n-gon, order 2n, as permutations; n >= 3."""
    if n < 3:  # the 1-gon and 2-gon permutations give orders 1 and 2, not 2n
        raise GroupError(f"dihedral group needs n >= 3, got {n}")
    rot = tuple(range(1, n)) + (0,)
    flip = tuple((n - i) % n for i in range(n))
    return from_permutations([rot, flip], n, label=label or f"D{n}")


def quaternion_group():
    """Q8 with elements 1,-1,i,-i,j,-j,k,-k."""
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    idx = {s: t for t, s in enumerate(names)}
    neg = {"1": "-1", "-1": "1", "i": "-i", "-i": "i",
           "j": "-j", "-j": "j", "k": "-k", "-k": "k"}
    base = {("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
            ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
            ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j"}

    def mul(a, b):
        sa, sb = a.startswith("-"), b.startswith("-")
        ca, cb = a.lstrip("-"), b.lstrip("-")
        r = base[(ca, cb)]
        if sa ^ sb:
            r = neg[r]
        return r

    table = [[idx[mul(a, b)] for b in names] for a in names]
    return FiniteGroup(table, names=names, label="Q8")


def klein_four_group():
    return direct_product(cyclic_group(2), cyclic_group(2), label="V4")[0]


# -- Z/4Z-modules -------------------------------------------------------------


def is_z4_module(G):
    """Commutative with exponent dividing 4."""
    return G.commutative and G.exponent in (1, 2, 4)


def z4_module(n4, n2, label=None):
    """(Z/4)^n4 + (Z/2)^n2 as a dense-table group; element names are digit strings.

    Built in mixed radix one factor at a time, first factor most significant,
    adding the factors from the last to the first so that each new factor of
    modulus m is the leading digit over the W elements built so far:
    (x, a) + (y, b) = ((x + y) % m, a + b) at index x*W + a.  Row (x, a) is
    then m copies of the old row a, shifted by ((x + y) % m)*W for y in
    order, each W cells long, joined by extending one list.  The m copies of
    one old row are read through a gatherer from slices of one shared tuple
    of indices, so the table holds one int object per element rather than
    one per cell.  Every table, the old ones too, builds each row on first
    read (`_Rows`), so building row (x, a) builds old row a alone.
    """
    if n4 < 0 or n2 < 0:
        raise GroupError(f"module ranks must be nonnegative, got ({n4}, {n2})")
    moduli = (4,) * n4 + (2,) * n2
    order = math.prod(moduli)
    if order > MAX_ORDER:
        raise GroupError(f"module order {order} exceeds cap {MAX_ORDER}")
    indices = tuple(range(order))
    table, names, inverses = _Rows(1, lambda a: indices[:1]), [""], [0]
    for m in reversed(moduli):
        w = len(table)
        shifts = [indices[j * w:(j + 1) * w] for j in range(m)]
        table = _Rows(m * w, _radix_row(table, shifts))
        names = [str(x) + s for x in range(m) for s in names]
        # digitwise negation: (x, a) -> (-x, -a), read from the shared indices
        inverses = [shifts[-x % m][a] for x in range(m) for a in inverses]
    return FiniteGroup._trusted(table, 0, tuple(inverses),
                                tuple(names) if moduli else ("0",),
                                label or f"M(4^{n4}.2^{n2})")


def _radix_row(old, shifts):
    """The map i -> row i = (x, a) of `z4_module`'s next table, over the
    table `old` of W elements: shifts[j] is the shared indices j*W..j*W+W-1."""
    w = len(old)
    turns = [shifts[x:] + shifts[:x] for x in range(len(shifts))]  # x + y over y in order

    def row(i):
        x, a = divmod(i, w)
        shifted = gatherer(old[a])  # shift j -> row a shifted by j*W
        joined = []
        for shift in turns[x]:
            joined += shifted(shift)
        return tuple(joined)
    return row


def free_module_cover(M, free=None):
    """Free exponent-four cover of a dense module: one Z/4 per greedy generator.

    The cover element named by digits a_1..a_n goes to the sum of a_i times
    generator i, a hom by construction; surjectivity is what a wrong
    generating sequence would break.  The values are decoded in the mixed
    radix of `z4_module`, one generator at a time: each value so far is
    followed by its sums with the four multiples of the next generator.
    `free`, a dict from rank to free module, shares the covers built across
    the calls of one caller; it is filled as covers are built.
    """
    if not is_z4_module(M):
        raise GroupError("cover needs exponent dividing four")
    gens = M.generators
    n = len(gens)
    R = free.get(n) if free is not None else None
    if R is None:
        R = z4_module(n, 0, label=f"F{n}")
        if free is not None:
            free[n] = R
    table = (M.identity,)
    for g in gens:
        multiples = gatherer([M.power(g, k) for k in range(4)])
        table = tuple(itertools.chain.from_iterable(map(multiples, gatherer(table)(M.table))))
    epi = GroupHom._trusted(R, M, table)
    if not epi.is_surjective():
        raise InvariantBreach("generator decode failed to cover the module")
    return R, epi


def z4_module_classes(max_order):
    """All (n4, n2) with 4^n4 * 2^n2 <= max_order, in lexicographic order."""
    out = []
    n4 = 0
    while 4 ** n4 <= max_order:
        n2 = 0
        while 4 ** n4 * 2 ** n2 <= max_order:
            out.append((n4, n2))
            n2 += 1
        n4 += 1
    return out


# -- the Cayley walk and the backtracking homomorphism search -----------------

# The least |H| whose cosets are filled by one gather.  Below it the |H| - 1
# steps f(y*x) = f(y)f(x) of a coset cost less than the gather, before the
# gatherer that each parent node builds (a gather measured 1.08 times the
# steps at |H| = 4 and 0.96 times at |H| = 5, CPython 3.11 on a 2-core Xeon VM)
_GATHER_FROM = 5


def _cosets(t, members, pos, candidates):
    """The package's Cayley walk: yield a level per generator, with its plan.

    `members` is a subgroup H in member order, identity first, and `pos`
    maps each element to its place there (None outside); both grow in place.
    Each candidate g not yet reached joins the generators, and H grows to
    K = <H, g> as blocks y*H in H's member order, each starting with its
    representative y: first g*H at place m = |H|, then one block per new
    representative z = s*y, met by stepping each representative y along
    each generator s; each block is one gather of row y, so block y*H sits
    at one of the places m, 2m, ..., |K| - m.  Candidates are read lazily,
    so a list may grow while the walk reads it.  A level is (g, m, plan)
    with plan = (defines, checks, |K|), as places: a (z, s, y) per later
    representative z = s*y, and a (z, x, s, y) per step s*y that lands on
    z*x with z a representative (or the identity) and x in H.  When H is
    trivial each block is one power of g, placed without a gather or a read
    of its row, and the one check is g^n = e.

    `FiniteGroup._gens` also walks tables not yet known to be groups.  There
    a block may meet elements already placed and places only the new ones,
    so the plan means nothing, but each element placed after the identity is
    still a generator or a product of two elements placed before it, and the
    walk ends: each element is placed once and becomes a representative
    only then.  Placing them again could double the members at each level.
    """
    gens = []
    for g in candidates:
        if pos[g] is not None:
            continue
        gens.append(g)
        m = len(members)
        reps, defines, checks = [g], [], []
        if m == 1:  # H trivial: the block y*H is y, joined without reading row y
            def join(y):
                pos[y] = at = len(members)
                members.append(y)
                return at
        else:
            coset = gatherer(members)  # row y of t -> the block y*H

            def join(y):  # the block y*H joins K: the place of y
                at = len(members)
                for x in coset(t[y]):
                    if pos[x] is None:  # always, in a group: the cosets are disjoint
                        pos[x] = len(members)
                        members.append(x)
                return at

        join(g)
        for y in reps:  # grows as representatives are met
            for s in gens:
                z = t[s][y]
                if pos[z] is None:
                    defines.append((join(z), pos[s], pos[y]))
                    reps.append(z)
                else:  # z = r*x: r starts the block of z, x sits as far into H
                    p = pos[z]
                    checks.append((p - p % m, p % m, pos[s], pos[y]))
        yield g, m, (defines, checks, len(members))


def search_homs(src, target, candidates, *, prescribed=None, budget=None,
                injective=False):
    """Yield the value tuple of every hom from src to target, by backtracking.

    Generators are the deterministic greedy sequence outside the subgroup
    spanned by `prescribed`, whose keys and values must be elements of src
    and target; `candidates(gen)` lists allowed images in the order they are
    tried, so output order is lexicographic in the generator-image tuple.
    Each level grows the subgroup H reached so far to K = <H, g> by left
    cosets y*H, planned once per search (`_cosets`).  A node keeps f on K in
    member order, in one flat list that deeper levels overwrite, so nothing
    is copied or undone.  It sets f(g) = h and f(z) = f(s)f(y) for each later
    representative z = s*y, then checks, for each representative y and
    generator s, that s*y = z*x, with z a representative and x in H, has
    f(z)f(x) = f(s)f(y).  Nothing else needs a check: each k in K is some
    y*u with u in H and f(y*u) = f(y)f(u), so f(s*k) = f(z)f(x)f(u) =
    f(s)f(k) for each generator s, and the a with f(a*k) = f(a)f(k) for all
    k are closed under products, so they are all of K.  A node thus passes
    exactly when its images extend to a hom of the subgroup so far.
    Only then does it fill the blocks y*H, at places m, 2m, ..., |K| - m
    (m = |H|): f(y*H) is row f(y) of the target's table read at f(H), one
    element at a time when H is smaller than _GATHER_FROM, else in one C
    call through a gatherer built once per parent node; the search picks
    between them from m, once per search.  A leaf maps member order back to
    element order.  Raises BudgetExhausted when the node budget runs out; a
    completed iteration proves the enumeration exhaustive.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 0:
        raise GroupError(f"search budget {budget} is negative")
    prescribed = prescribed or {}
    src_elems, target_elems = range(src.order), range(target.order)
    for k, v in prescribed.items():
        if k not in src_elems or v not in target_elems:
            raise GroupError(f"prescribed image {k!r} -> {v!r} lies outside "
                             f"{src.label} -> {target.label}")
    tt = target.table
    img = [target.identity] * src.order  # f in member order
    pos = [None] * src.order
    pos[src.identity] = 0
    # one walk: a level per prescribed key not yet reached, then the greedy plan
    steps = _cosets(src.table, [src.identity], pos, _greedy(src, prescribed))

    def fill(m, size):  # the blocks y*H at m, 2m, ..., size - m: steps or gathers
        firsts = range(m, size, m)
        if m < _GATHER_FROM:  # f(y*x) = f(y)f(x) for each x in H after e
            return [(y + j, y, j) for y in firsts for j in range(1, m)], []
        return [], [(slice(y, y + m), y) for y in firsts]

    def walk(pick, defines, checks, fills, blocks, size):  # once f(g) is set
        for z, s, y in defines:  # the representatives
            img[z] = tt[img[s]][img[y]]
        for z, x, s, y in checks:  # f(s*y) = f(s)f(y), where s*y = z*x
            if tt[img[z]][img[x]] != tt[img[s]][img[y]]:
                return False
        for z, y, x in fills:  # f(y*x) = f(y)f(x), small H
            img[z] = tt[img[y]][img[x]]
        for block, y in blocks:  # f(y*H) = f(y)f(H)
            img[block] = pick(tt[img[y]])
        return not injective or len(set(img[:size])) == size

    for k, v in prescribed.items():
        if pos[k] is None:  # not yet in the subgroup: the walk's next level
            _, m, (defines, checks, size) = next(steps)
            img[m] = v
            fills, blocks = fill(m, size)
            pick = gatherer(img[:m]) if blocks else None
            if not walk(pick, defines, checks, fills, blocks, size):
                return
        elif img[pos[k]] != v:
            return
    # candidates are asked for only once every prescribed image has passed
    levels = [(list(candidates(g)), m, (defines, checks, *fill(m, size), size))
              for g, m, (defines, checks, size) in steps]
    leaf = gatherer(pos)  # member order -> element order
    nodes = 0

    def rec(rec, i):  # passed itself: a self-closure is a reference cycle
        nonlocal nodes
        if i == len(levels):
            yield leaf(img)
            return
        cands, m, (defines, checks, fills, blocks, size) = levels[i]
        pick = gatherer(img[:m]) if blocks else None  # row f(y) -> f(y)f(H)
        for h in cands:
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(f"hom search exceeded {budget} nodes")
            img[m] = h  # f(g): g is first after H
            if walk(pick, defines, checks, fills, blocks, size):
                yield from rec(rec, i + 1)

    yield from rec(rec, 0)


def enumerate_homs(G, H, budget=None):
    """All homomorphisms G -> H, in generator-image order.

    Candidate images are pruned by element-order divisibility.  Exhaustive:
    raises BudgetExhausted rather than returning a truncated list.
    """
    orders = G.elem_orders
    horders = H.elem_orders

    def cands(g):
        og = orders[g]
        return [h for h in range(H.order) if og % horders[h] == 0]

    return [GroupHom._trusted(G, H, table)
            for table in search_homs(G, H, cands, budget=budget)]


def lifts(p, u, budget=None, allow=None):
    """Yield the value tuple of every hom v with p(v(x)) = u(x) for all x.

    p: A -> B and u: X -> B share their target.  Candidates for v(x) are the
    fiber of p over u(x) in increasing index order, narrowed to the a with
    allow(x, a) when given, so lifts come out in `search_homs` order.  An
    empty fiber over some u(x) rules out every lift without a search.
    Running to the end proves there are no further lifts; BudgetExhausted
    passes through.
    """
    if p.target is not u.target:
        raise GroupError("lifting needs a common target")
    A, X = p.source, u.source
    fibers = [[] for _ in range(p.target.order)]
    for a in range(A.order):
        fibers[p.table[a]].append(a)
    if any(not fibers[b] for b in u.table):
        return
    if allow is None:
        cands = lambda x: fibers[u.table[x]]
    else:
        cands = lambda x: [a for a in fibers[u.table[x]] if allow(x, a)]
    yield from search_homs(X, A, cands, budget=budget)


def find_section(f, budget=None):
    """A hom s with f(s(q)) = q for all q, or None once the search is exhausted.

    A section is a lift of the identity along f.  Raises BudgetExhausted
    instead of guessing.
    """
    for table in lifts(f, identity_hom(f.target), budget=budget):
        return GroupHom._trusted(f.target, f.source, table)
    return None


def find_isomorphism(G, H, budget=None):
    """Some isomorphism G -> H, or None (proven, given enough budget)."""
    if G.order != H.order:
        return None
    if sorted(G.elem_orders) != sorted(H.elem_orders):
        return None
    if G.commutative != H.commutative:
        return None
    orders = G.elem_orders
    horders = H.elem_orders

    def cands(g):
        og = orders[g]
        return [h for h in range(H.order) if horders[h] == og]

    for table in search_homs(G, H, cands, budget=budget, injective=True):
        return GroupHom._trusted(G, H, table)
    return None


def normal_subgroups(G):
    """All normal subgroups, each as a sorted element tuple, by (size, elements).

    A normal subgroup is generated by the conjugacy classes it contains, and
    a subgroup generated by normal subsets is normal.  So joining each class
    onto each subgroup found, starting from the trivial one, reaches them all.
    """
    classes = []
    seen = set()
    for x in range(G.order):
        if x not in seen:
            cls = frozenset(G.conj(g, x) for g in range(G.order))
            seen |= cls
            classes.append(cls)
    found = {frozenset((G.identity,))}
    work = list(found)
    while work:
        N = work.pop()
        for cls in classes:
            if not cls <= N:
                M = G.closure(N | cls)
                if M not in found:
                    found.add(M)
                    work.append(M)
    return sorted((tuple(sorted(N)) for N in found), key=lambda s: (len(s), s))

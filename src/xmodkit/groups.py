"""Finite groups as dense multiplication tables.

Carriers are index ranges 0..order-1 and tables are tuples of tuples, so every
structural question is settled by exhaustion.  Tables are validated where
they enter: ``FiniteGroup`` checks associativity (all triples up to order 64,
a deterministic sample above) and ``GroupHom`` the hom law, by default.  The
constructions here are correct by theorem and pass ``check=False``.

The backtracking homomorphism search at the bottom is the engine for most of
the package: ``hom``, hom enumeration, section searches, constrained lifts and
isomorphism searches all go through ``search_homs``.  It checks generator
images along Cayley edges z = x*s planned once per search, since a map with
f(xs) = f(x)f(s) for all x and generators s is a hom: O(|G|.|gens|) work per
full assignment.  Every section and every lift along a surjection is found by
``lifts``, the one search over fibers.
"""
from __future__ import annotations

import itertools
import math
import random
from functools import cached_property

from .errors import BudgetExhausted, GroupError, InvariantBreach

MAX_ORDER = 1024
ASSOC_EXHAUSTIVE_LIMIT = 64
DEFAULT_BUDGET = 2_000_000


class FiniteGroup:
    """A finite group on 0..order-1 given by its full multiplication table.

    Two groups are equal only if they are the same object; equal tables on
    distinct carriers are deliberately distinct.
    """

    def __init__(self, table, names=None, label="G", check=True):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise GroupError("empty multiplication table")
        if n > MAX_ORDER:
            raise GroupError(f"order {n} exceeds the dense-table cap {MAX_ORDER}")
        for row in table:
            if len(row) != n or min(row) < 0 or max(row) >= n:
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

        inv = []
        for x, row in enumerate(table):
            y = row.index(ident) if ident in row else None
            if y is None or table[y][x] != ident:
                raise GroupError(f"element {x} has no inverse")
            inv.append(y)
        self._inv = tuple(inv)

        if check:
            self._check_associativity()

    def _check_associativity(self):
        t = self.table
        n = self.order
        if n <= ASSOC_EXHAUSTIVE_LIMIT:
            rng_n = range(n)
            for a in rng_n:
                ta = t[a]
                for b in rng_n:
                    tab = t[ta[b]]
                    tb = t[b]
                    for c in rng_n:
                        if tab[c] != ta[tb[c]]:
                            raise GroupError(f"not associative at ({a},{b},{c})")
        else:
            # deterministic sample above the exhaustive limit
            rng = random.Random(0xA55)
            for _ in range(20000):
                a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise GroupError(f"not associative at ({a},{b},{c})")

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
        for _ in range(k):
            out = self.table[out][a]
        return out

    @cached_property
    def elem_orders(self):
        out = []
        for x in range(self.order):
            k, y = 1, x
            while y != self.identity:
                y = self.table[y][x]
                k += 1
            out.append(k)
        return tuple(out)

    @cached_property
    def commutative(self):
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))

    @cached_property
    def exponent(self):
        return math.lcm(*self.elem_orders)

    # -- subgroup machinery --------------------------------------------------

    def closure(self, elems):
        """Subgroup generated by elems, as a frozenset of indices."""
        known = {self.identity}
        known.update(elems)
        frontier = list(known)
        t = self.table
        while frontier:
            new = []
            snapshot = list(known)
            for y in frontier:
                for x in snapshot:
                    for z in (t[x][y], t[y][x]):
                        if z not in known:
                            known.add(z)
                            new.append(z)
            frontier = new
        return frozenset(known)

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

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"<FiniteGroup {self.label} order {self.order}>"


def generating_sequence(G, covered):
    """Extend the subgroup generated by `covered` to all of G, greedily.

    Each pick is the element of largest order, then least index, outside the
    subgroup so far, which grows along Cayley edges (_cayley_level).
    """
    orders = G.elem_orders
    elems, gens, seq, known = [G.identity], [], [], {G.identity}
    pending = iter(covered)
    while len(elems) < G.order:
        g = next((x for x in pending if x not in known), None)
        if g is None:
            g = max((x for x in range(G.order) if x not in known),
                    key=lambda x: (orders[x], -x))
            seq.append(g)
        gens.append(g)
        _cayley_level(G.table, elems, gens)
        known.update(elems)
    return tuple(seq)


class GroupHom:
    """A verified homomorphism given by its full value table."""

    def __init__(self, source, target, table, check=True):
        table = tuple(table)
        if len(table) != source.order:
            raise GroupError("hom table length does not match the source order")
        if any(not (0 <= y < target.order) for y in table):
            raise GroupError("hom table has out-of-range values")
        if check:
            if table[source.identity] != target.identity:
                raise GroupError("map does not preserve the identity")
            st, tt = source.table, target.table
            for a in range(source.order):
                fa = table[a]
                ra = st[a]
                for b in range(source.order):
                    if table[ra[b]] != tt[fa][table[b]]:
                        raise GroupError(
                            f"not a homomorphism at "
                            f"({source.names[a]},{source.names[b]})")
        self.source = source
        self.target = target
        self.table = table

    def __call__(self, x):
        return self.table[x]

    @cached_property
    def image_elements(self):
        return frozenset(self.table)

    @cached_property
    def kernel_elements(self):
        e = self.target.identity
        return frozenset(x for x in range(self.source.order) if self.table[x] == e)

    def is_surjective(self):
        return len(self.image_elements) == self.target.order

    def is_injective(self):
        return len(set(self.table)) == self.source.order

    def __eq__(self, other):
        return (isinstance(other, GroupHom) and self.source is other.source
                and self.target is other.target and self.table == other.table)

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.table))

    def __repr__(self):
        return f"<GroupHom {self.source.label}->{self.target.label}>"


def identity_hom(G):
    return GroupHom(G, G, tuple(range(G.order)), check=False)


def trivial_hom(G, H):
    return GroupHom(G, H, (H.identity,) * G.order, check=False)


def compose(f, g):
    """f after g."""
    if g.target is not f.source:
        raise GroupError("composition mismatch")
    return GroupHom(g.source, f.target, tuple(f.table[x] for x in g.table), check=False)


def hom(src, tgt, images):
    """Extend generator images (a dict elem -> elem) to a verified hom.

    Raises GroupError when the images violate a relation or fail to generate.
    """
    if images.get(src.identity, tgt.identity) != tgt.identity:
        raise GroupError("identity must map to the identity")

    def unassigned(g):  # asked for only once the images have passed every relation
        raise GroupError("the given elements do not generate the source group")

    for table in search_homs(src, tgt.mul, tgt.identity, unassigned, prescribed=images):
        return GroupHom(src, tgt, table, check=False)
    raise GroupError("images violate a relation")


# -- subgroups, quotients, pullbacks ----------------------------------------


def subgroup(G, elems, label=None):
    """The subgroup on a closed subset, with its inclusion hom."""
    elems = sorted(set(elems))
    es = set(elems)
    if G.identity not in es:
        raise GroupError("subgroup must contain the identity")
    for a in elems:
        for b in elems:
            if G.table[a][b] not in es:
                raise GroupError(
                    f"subset not closed: {G.names[a]}*{G.names[b]} escapes")
    idx = {e: i for i, e in enumerate(elems)}
    table = [[idx[G.table[a][b]] for b in elems] for a in elems]
    S = FiniteGroup(table, names=[G.names[e] for e in elems],
                    label=label or f"{G.label}_sub{len(elems)}", check=False)
    incl = GroupHom(S, G, tuple(elems), check=False)
    return S, incl


def kernel(f):
    return subgroup(f.source, f.kernel_elements,
                    label=f"ker({f.source.label}->{f.target.label})")


def image(f):
    return subgroup(f.target, f.image_elements,
                    label=f"im({f.source.label}->{f.target.label})")


def normality_witness(G, elems):
    """None if the closed subset is normal, else a conjugation escape (g, n, gng^-1)."""
    es = set(elems)
    for g in range(G.order):
        for n in es:
            c = G.conj(g, n)
            if c not in es:
                return (g, n, c)
    return None


def is_normal(G, elems):
    return normality_witness(G, elems) is None


def normal_closure(G, elems):
    """Smallest normal subgroup containing elems."""
    seed = set(elems)
    seed.update(G.conj(g, n) for g in range(G.order) for n in list(seed))
    current = G.closure(seed)
    while True:
        extra = {G.conj(g, n) for g in range(G.order) for n in current} - current
        if not extra:
            return current
        current = G.closure(current | extra)


def quotient(G, elems, label=None):
    """Quotient by a normal subgroup (given as its element set) with projection.

    Refuses non-normal input with a conjugation witness; never silently takes
    the normal closure.
    """
    S, _ = subgroup(G, elems)  # validates closedness
    w = normality_witness(G, elems)
    if w is not None:
        g, n, c = w
        raise GroupError(
            f"subset is not normal: {G.names[g]} conjugates {G.names[n]} "
            f"to {G.names[c]} outside it")
    es = set(elems)
    seen = {}
    reps = []
    for g in range(G.order):
        if g in seen:
            continue
        i = len(reps)
        reps.append(g)
        for n in es:
            seen[G.table[g][n]] = i
    table = [[seen[G.table[a][b]] for b in reps] for a in reps]
    names = ["[" + G.names[r] + "]" for r in reps]
    Q = FiniteGroup(table, names, label=label or f"{G.label}/{len(es)}", check=False)
    # g -> gN is a hom because N is normal
    proj = GroupHom(G, Q, tuple(seen[g] for g in range(G.order)), check=False)
    return Q, proj


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
    table = [[idx[(A.table[a][a2], B.table[b][b2])] for (a2, b2) in pairs]
             for (a, b) in pairs]
    names = [f"({A.names[a]},{B.names[b]})" for (a, b) in pairs]
    P = FiniteGroup(table, names, label=f"pb({A.label},{B.label})", check=False)
    p1 = GroupHom(P, A, tuple(a for a, _ in pairs), check=False)
    p2 = GroupHom(P, B, tuple(b for _, b in pairs), check=False)
    return P, p1, p2


def direct_product(A, B, label=None):
    """(A x B, i1, i2, p1, p2)."""
    n, m = A.order, B.order
    table = [[(A.table[a][a2]) * m + B.table[b][b2]
              for a2 in range(n) for b2 in range(m)]
             for a in range(n) for b in range(m)]
    if n * m > MAX_ORDER:
        raise GroupError(f"product order {n*m} exceeds cap {MAX_ORDER}")
    names = [f"({A.names[a]},{B.names[b]})" for a in range(n) for b in range(m)]
    P = FiniteGroup(table, names, label=label or f"{A.label}x{B.label}", check=False)
    i1 = GroupHom(A, P, tuple(a * m + B.identity for a in range(n)), check=False)
    i2 = GroupHom(B, P, tuple(A.identity * m + b for b in range(m)), check=False)
    p1 = GroupHom(P, A, tuple(a for a in range(n) for _ in range(m)), check=False)
    p2 = GroupHom(P, B, tuple(b for _ in range(n) for b in range(m)), check=False)
    return P, i1, i2, p1, p2


# -- stock groups -------------------------------------------------------------


def trivial_group(label="1"):
    return FiniteGroup(((0,),), names=("e",), label=label, check=False)


def cyclic_group(n, label=None):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, names=[str(i) for i in range(n)],
                       label=label or f"Z{n}", check=False)


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
    """Group generated by permutations (tuples of images on 0..degree-1)."""
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(p) for p in perms]
    while frontier:
        new = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[i]] for i in range(degree))
                if r not in elems:
                    elems.add(r)
                    new.append(r)
                r = tuple(q[p[i]] for i in range(degree))
                if r not in elems:
                    elems.add(r)
                    new.append(r)
        frontier = new
    order = sorted(elems)
    idx = {p: i for i, p in enumerate(order)}
    table = [[idx[tuple(p[q[i]] for i in range(degree))] for q in order] for p in order]
    return FiniteGroup(table, names=[_cycle_notation(p) for p in order],
                       label=label, check=False)


def symmetric_group(n):
    if n > 5:
        raise GroupError("symmetric groups supported up to degree 5")
    if n <= 1:
        return trivial_group(label=f"S{n}")
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return from_permutations([swap, cycle], n, label=f"S{n}")


def alternating_group(n):
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
    """Symmetries of the regular n-gon, order 2n, as permutations."""
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

    Built in mixed radix one factor at a time, first factor most significant:
    (a, x) + (b, y) = (a + b, (x + y) % m) at index a*m + x.
    """
    moduli = (4,) * n4 + (2,) * n2
    order = math.prod(moduli)
    if order > MAX_ORDER:
        raise GroupError(f"module order {order} exceeds cap {MAX_ORDER}")
    table, names = [(0,)], [""]
    for m in moduli:
        # row (a, x) is the block blocks[x][v] for each v = old[a][b]; sharing the
        # blocks keeps one int object per value and x rather than one per cell
        blocks = [[tuple(v * m + (x + y) % m for y in range(m)) for v in range(len(table))]
                  for x in range(m)]
        table = [tuple(itertools.chain.from_iterable(blocks[x][v] for v in row))
                 for row in table for x in range(m)]
        names = [s + str(x) for s in names for x in range(m)]
    return FiniteGroup(table, names=names if moduli else ["0"],
                       label=label or f"M(4^{n4}.2^{n2})", check=False)


def free_module_cover(M):
    """Free exponent-four cover of a dense module: one Z/4 per greedy generator.

    The cover element named by digits a_1..a_n goes to the sum of a_i times
    generator i, a hom by construction; surjectivity is what a wrong
    generating sequence would break.
    """
    if not is_z4_module(M):
        raise GroupError("cover needs exponent dividing four")
    gens = M.generators
    R = z4_module(len(gens), 0, label=f"F{len(gens)}")
    table = []
    for name in R.names:
        acc = M.identity
        for g, ch in zip(gens, name):
            acc = M.mul(acc, M.power(g, int(ch)))
        table.append(acc)
    epi = GroupHom(R, M, table, check=False)
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


# -- backtracking homomorphism search -----------------------------------------


def _cayley_level(t, elems, gens):
    """Cayley edges that grow the subgroup `elems` (identity first, extended in
    place, gens[-1] first) to <elems, gens[-1]>: old elements step along the
    new generator, new ones along all of `gens`.  An edge (defines, z, x, s)
    has z = x*s with x reached before; it defines f(z) where z is met first
    and checks it elsewhere."""
    g = gens[-1]
    old = len(elems)
    elems.append(g)
    seen = set(elems)
    edges = []
    i = 1  # the identity steps along g to g itself, whose image is the choice
    while i < len(elems):
        x = elems[i]
        for s in gens if i >= old else (g,):
            z = t[x][s]
            defines = z not in seen
            edges.append((defines, z, x, s))
            if defines:
                seen.add(z)
                elems.append(z)
        i += 1
    return edges


def search_homs(src, target_mul, target_identity, candidates, *, prescribed=None,
                budget=None, injective=False):
    """Yield the value tuple of every hom from src, by backtracking.

    Generators are the deterministic greedy sequence outside the subgroup
    spanned by `prescribed`; `candidates(gen)` lists allowed images in the
    order they are tried, so output order is lexicographic in the
    generator-image tuple.  Each level's Cayley edges are planned once per
    search; a node sets its generator's image and walks the edges in one
    flat map, which deeper levels overwrite, so nothing is copied or undone.
    Raises BudgetExhausted when the node budget runs out; a completed
    iteration proves the enumeration exhaustive.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 0:
        raise GroupError(f"search budget {budget} is negative")
    phi = [None] * src.order
    phi[src.identity] = target_identity
    elems, gens = [src.identity], []

    def walk(edges, size):
        for defines, z, x, s in edges:
            w = target_mul(phi[x], phi[s])
            if defines:
                phi[z] = w
            elif phi[z] != w:
                return False
        return not injective or len({phi[x] for x in elems[:size]}) == size

    for k, v in (prescribed or {}).items():
        if phi[k] is None:  # not yet in the subgroup: a level of its own
            gens.append(k)
            edges = _cayley_level(src.table, elems, gens)
            phi[k] = v
            if not walk(edges, len(elems)):
                return
        elif phi[k] != v:
            return
    levels = []
    for g in generating_sequence(src, elems):
        gens.append(g)
        edges = _cayley_level(src.table, elems, gens)
        levels.append((g, list(candidates(g)), edges, len(elems)))
    nodes = 0

    def rec(rec, i):  # passed itself: a self-closure is a reference cycle
        nonlocal nodes
        if i == len(levels):
            yield tuple(phi)
            return
        g, cands, edges, size = levels[i]
        for h in cands:
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(f"hom search exceeded {budget} nodes")
            phi[g] = h
            if walk(edges, size):
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

    return [GroupHom(G, H, table, check=False)
            for table in search_homs(G, H.mul, H.identity, cands, budget=budget)]


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
    yield from search_homs(X, A.mul, A.identity, cands, budget=budget)


def find_section(f, budget=None):
    """A hom s with f(s(q)) = q for all q, or None once the search is exhausted.

    A section is a lift of the identity along f.  Raises BudgetExhausted
    instead of guessing.
    """
    for table in lifts(f, identity_hom(f.target), budget=budget):
        return GroupHom(f.target, f.source, table, check=False)
    return None


def find_retraction(f, budget=None):
    """A hom r with r(f(t)) = t for all t, or None once the search is exhausted."""
    src, tgt = f.source, f.target
    if not f.is_injective():
        return None
    prescribed = {f.table[t]: t for t in range(src.order)}
    cands = lambda g: range(src.order)
    for table in search_homs(tgt, src.mul, src.identity, cands,
                             prescribed=prescribed, budget=budget):
        return GroupHom(tgt, src, table, check=False)
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

    for table in search_homs(G, H.mul, H.identity, cands, budget=budget, injective=True):
        return GroupHom(G, H, table, check=False)
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

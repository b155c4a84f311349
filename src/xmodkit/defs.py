"""Plain-text definition files for groups, actions, crossed modules.

A file is a sequence of sections.  Each section starts with a header line
``[kind name]`` and owns every line up to the next header.  Inside a section,
unindented lines are ``key: value`` entries; indented lines continue the most
recent key as a block (used for multiplication and action tables).  ``#``
starts a comment, blank lines are ignored.  Sections are built top to bottom,
so anything referenced by name must appear earlier in the file.

Kinds and their keys:

``[group N]``
    Either ``elements`` (names in order) plus a ``table`` block whose row x,
    column y holds the name of x*y, or ``degree`` plus ``perms`` (semicolon
    separated permutations in 1-based cycle notation, e.g. ``(1 2)(3 4)``).

``[action N]``
    ``actor`` and ``carrier`` name earlier groups; the ``table`` block has one
    row per actor element (in that group's element order) listing the images
    of every carrier element by name.  ``trivial: yes`` instead of a table
    gives the trivial action.

``[xmod N]``
    Either ``action`` naming an earlier action plus ``boundary`` (one codomain
    element name per carrier element), or ``group`` plus ``normal`` (every
    element of a normal subgroup, by name: its inclusion with the conjugation
    action).

``[morphism N]``
    ``source`` and ``target`` name earlier xmods; ``fT`` and ``fG`` list image
    element names for every domain element in order.

``[setmap N]``
    ``source`` and ``target`` are set sizes; ``map`` lists target indices for
    0..source-1 and ``section`` lists a preimage choice for 0..target-1 with
    map[section[y]] == y.  Feeds the free-kernel pipeline.

Element names that contain spaces must be parenthesized, e.g. ``(1 2 3)``;
adjacent parenthesized chunks with no space between them form one name, so the
permutation name ``(1 2)(3 4)`` is a single token.  Where a kind has two
forms, a section gives keys of one of them; keys of both are refused.
"""

import re

from .errors import DefinitionError, GroupError
from .groups import MAX_ORDER, FiniteGroup, GroupHom, from_permutations
from .actions import GroupAction, trivial_action
from .xmod import CrossedModule, XModMorphism, xmod_from_normal_subgroup

_HEADER = re.compile(r"^\[(\w+)\s+([^\s\]]+)\]\s*$")
_KEY = re.compile(r"^(\w[\w-]*)\s*:\s*(.*)$")

KINDS = ("group", "action", "xmod", "morphism", "setmap")

_KEYS = {
    "group": {"elements", "table", "degree", "perms"},
    "action": {"actor", "carrier", "table", "trivial"},
    "xmod": {"action", "boundary", "group", "normal"},
    "morphism": {"source", "target", "fT", "fG"},
    "setmap": {"source", "target", "map", "section"},
}

# the alternative forms of a kind, by their keys; a section gives one of them
_FORMS = {
    "group": ({"elements", "table"}, {"degree", "perms"}),
    "action": ({"table"}, {"trivial"}),
    "xmod": ({"action", "boundary"}, {"group", "normal"}),
}


class SetMap:
    """Surjection between finite sets {0..n-1} with a chosen section."""

    def __init__(self, source, target, table, section):
        self.source = source
        self.target = target
        self.table = tuple(table)
        self.section = tuple(section)

    def __repr__(self):
        return f"<SetMap {self.source}->{self.target}>"


class Definitions:
    """Named objects parsed from one file, in definition order."""

    def __init__(self):
        self.objects = {}
        self.kinds = {}
        self.order = []

    def add(self, kind, name, obj):
        self.objects[name] = obj
        self.kinds[name] = kind
        self.order.append(name)

    def of_kind(self, kind):
        return [(n, self.objects[n]) for n in self.order if self.kinds[n] == kind]

    def __getitem__(self, name):
        return self.objects[name]

    def __contains__(self, name):
        return name in self.objects

    def __len__(self):
        return len(self.order)


def nonneg_int(tok):
    """The integer that 1 to 18 ASCII digits spell, else None.  `str.isdigit`
    passes '²', which `int` refuses; `int` reads '0_0', '+1' and other scripts'
    digits, and refuses over 4300 digits.  18 digits exceed every size."""
    return int(tok) if re.fullmatch(r"[0-9]{1,18}", tok) else None


def _err(lineno, msg):
    raise DefinitionError(f"line {lineno}: {msg}")


def _strip_comment(line):
    i = line.find("#")
    return line if i < 0 else line[:i]


def tokenize_names(text, lineno):
    """Split on whitespace, but keep parenthesized chunks glued together.

    "e a (1 2 3)" -> ["e", "a", "(1 2 3)"] and "(1 2)(3 4)" stays one token.
    Text without "(" is split by ``str.split``, which breaks at the same
    characters as ``str.isspace``.
    """
    if "(" not in text:
        return text.split()
    out = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        start = i
        while i < n:
            if text[i] == "(":
                depth = 1
                i += 1
                while i < n and depth:
                    if text[i] == "(":
                        depth += 1
                    elif text[i] == ")":
                        depth -= 1
                    i += 1
                if depth:
                    _err(lineno, "unbalanced parenthesis in name list")
            elif text[i].isspace():
                break
            else:
                i += 1
        out.append(text[start:i])
    return out


def _split_sections(text):
    """Yield (kind, name, header_lineno, entries) with entries[key] = (value, block, lineno)."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        m = _HEADER.match(line)
        if m:
            kind, name = m.group(1), m.group(2)
            if kind not in KINDS:
                _err(lineno, f"unknown section kind {kind!r}")
            current = (kind, name, lineno, {})
            sections.append(current)
            continue
        if current is None:
            _err(lineno, "content before the first [kind name] header")
        kind, name, _, entries = current
        if line[0].isspace():
            if not entries:
                _err(lineno, "indented line with no key to attach to")
            last = current[3].get("_last")
            entries[last][1].append((line.strip(), lineno))
            continue
        m = _KEY.match(line)
        if m is None:
            _err(lineno, f"expected 'key: value', got {line.strip()!r}")
        key, value = m.group(1), m.group(2).strip()
        if key not in _KEYS[kind]:
            _err(lineno, f"key {key!r} is not valid in a [{kind}] section")
        if key in entries:
            _err(lineno, f"duplicate key {key!r}")
        entries[key] = (value, [], lineno)
        entries["_last"] = key
    for _, _, _, entries in sections:
        entries.pop("_last", None)
    return sections


def _one_form(kind, entries):
    """Refuse a section with keys of two forms of its kind, at the first key
    of the second form, rather than read one form and drop the other."""
    keys = [key for key in entries if any(key in f for f in _FORMS.get(kind, ()))]
    for key in keys:  # in file order
        if not any({keys[0], key} <= f for f in _FORMS[kind]):
            _err(entries[key][2],
                 f"[{kind}] section mixes two forms: {key!r} cannot go with {keys[0]!r}")


def _need(entries, key, lineno, kind):
    if key not in entries:
        _err(lineno, f"[{kind}] section is missing the {key!r} key")
    return entries[key]


def _names(val, block, lineno):
    """A key's names: its value line, then the indented lines under it."""
    return tokenize_names(val, lineno) + [t for row, rln in block for t in tokenize_names(row, rln)]


def _lookup(defs, name, want_kind, lineno):
    if name not in defs:
        _err(lineno, f"{name!r} is not defined yet (sections are read top to bottom)")
    if defs.kinds[name] != want_kind:
        _err(lineno, f"{name!r} is a {defs.kinds[name]}, expected a {want_kind}")
    return defs.objects[name]


def _indices(group, names, lineno, what):
    out = []
    for nm in names:
        try:
            out.append(group.index_of(nm))
        except GroupError as exc:
            _err(lineno, f"{what}: {exc}")
    return out


def _parse_perm(text, degree, lineno):
    cycles = re.findall(r"\(([^()]*)\)", text)
    if "".join(text.split()) != "".join("(" + "".join(c.split()) + ")" for c in cycles):
        _err(lineno, f"cannot read permutation {text!r} (use cycles like (1 2)(3 4))")
    img = list(range(degree))
    for cyc in cycles:
        pts = []
        for tok in cyc.split():
            if (p := nonneg_int(tok)) is None or not 1 <= p <= degree:
                _err(lineno, f"cycle entry {tok!r} is not in 1..{degree}")
            pts.append(p - 1)
        if len(set(pts)) != len(pts):
            _err(lineno, f"repeated point in cycle ({cyc})")
        for i, p in enumerate(pts):
            img[p] = pts[(i + 1) % len(pts)]
    return tuple(img)


def _build_group(name, entries, lineno):
    if "table" in entries:
        val, block, ln = _need(entries, "elements", lineno, "group")
        names = _names(val, block, ln)
        if len(set(names)) != len(names):
            _err(ln, "element names are not distinct")
        idx = {nm: i for i, nm in enumerate(names)}
        _, rows, tln = entries["table"]
        if len(rows) != len(names):
            _err(tln, f"table has {len(rows)} rows, expected {len(names)}")
        table = []
        for row, rln in rows:
            toks = tokenize_names(row, rln)
            if len(toks) != len(names):
                _err(rln, f"table row has {len(toks)} entries, expected {len(names)}")
            try:
                table.append(list(map(idx.__getitem__, toks)))
            except KeyError as exc:
                _err(rln, f"unknown element name {exc.args[0]!r} in table row")
        try:
            return FiniteGroup(table, names=names, label=name)
        except GroupError as exc:
            _err(tln, f"invalid multiplication table: {exc}")
    elif "perms" in entries:
        dval, _, dln = _need(entries, "degree", lineno, "group")
        degree = nonneg_int(dval)
        if not degree:  # None, or 0
            _err(dln, f"degree must be a positive integer, got {dval!r}")
        # Elements are tuples of `degree` points, so memory is degree x order:
        # past the cap even Z2 is refused, before any point list is built.
        if degree > MAX_ORDER:
            _err(dln, f"degree {degree} exceeds the dense-table cap {MAX_ORDER}")
        pval, pblock, pln = entries["perms"]
        text = " ".join([pval] + [row for row, _ in pblock])
        perms = [_parse_perm(p.strip(), degree, pln) for p in text.split(";") if p.strip()]
        if not perms:
            _err(pln, "no permutations given")
        try:
            return from_permutations(perms, degree, label=name)
        except GroupError as exc:
            _err(pln, f"perms: {exc}")
    else:
        _err(lineno, "[group] needs either a table (with elements) or perms (with degree)")


def _build_action(defs, entries, lineno):
    aval, _, aln = _need(entries, "actor", lineno, "action")
    cval, _, cln = _need(entries, "carrier", lineno, "action")
    actor = _lookup(defs, aval, "group", aln)
    carrier = _lookup(defs, cval, "group", cln)
    if "trivial" in entries:
        tval, _, tln = entries["trivial"]
        if tval not in ("yes", "true"):
            _err(tln, f"trivial takes 'yes', got {tval!r}")
        return trivial_action(actor, carrier)
    _, rows, tln = _need(entries, "table", lineno, "action")
    if len(rows) != actor.order:
        _err(tln, f"action table has {len(rows)} rows, expected {actor.order} (one per actor element)")
    table = []
    for row, rln in rows:
        toks = tokenize_names(row, rln)
        if len(toks) != carrier.order:
            _err(rln, f"action row has {len(toks)} entries, expected {carrier.order}")
        table.append(_indices(carrier, toks, rln, "action row"))
    try:
        return GroupAction(actor, carrier, table)
    except GroupError as exc:
        _err(tln, f"invalid action table: {exc}")


def _build_xmod(defs, name, entries, lineno, check_axioms):
    if "action" in entries:
        aval, _, aln = entries["action"]
        action = _lookup(defs, aval, "action", aln)
        bval, bblock, bln = _need(entries, "boundary", lineno, "xmod")
        toks = _names(bval, bblock, bln)
        if len(toks) != action.carrier.order:
            _err(bln, f"boundary lists {len(toks)} images, expected {action.carrier.order}")
        table = _indices(action.actor, toks, bln, "boundary")
        try:
            boundary = GroupHom(action.carrier, action.actor, table)
            build = CrossedModule if check_axioms else CrossedModule._trusted
            return build(action, boundary, label=name)
        except GroupError as exc:
            _err(bln, f"not a crossed module: {exc}")
    elif "group" in entries:
        gval, _, gln = entries["group"]
        G = _lookup(defs, gval, "group", gln)
        nval, nblock, nln = _need(entries, "normal", lineno, "xmod")
        toks = _names(nval, nblock, nln)
        elems = _indices(G, toks, nln, "normal")
        try:
            xm = xmod_from_normal_subgroup(G, elems)
        except GroupError as exc:
            _err(nln, f"not a normal subgroup: {exc}")
        xm.label = name
        return xm
    else:
        _err(lineno, "[xmod] needs either action+boundary or group+normal")


def _build_morphism(defs, entries, lineno):
    sval, _, sln = _need(entries, "source", lineno, "morphism")
    tval, _, tln = _need(entries, "target", lineno, "morphism")
    src = _lookup(defs, sval, "xmod", sln)
    tgt = _lookup(defs, tval, "xmod", tln)
    homs = {}
    for key, dom, cod in (("fT", src.domain(), tgt.domain()),
                          ("fG", src.codomain(), tgt.codomain())):
        val, block, ln = _need(entries, key, lineno, "morphism")
        toks = _names(val, block, ln)
        if len(toks) != dom.order:
            _err(ln, f"{key} lists {len(toks)} images, expected {dom.order}")
        table = _indices(cod, toks, ln, key)
        try:
            homs[key] = GroupHom(dom, cod, table)
        except GroupError as exc:
            _err(ln, f"{key} is not a homomorphism: {exc}")
    try:
        return XModMorphism(src, tgt, homs["fT"], homs["fG"])
    except GroupError as exc:
        _err(lineno, f"not a morphism of crossed modules: {exc}")


def _int_list(entries, key, lineno, kind):
    val, block, ln = _need(entries, key, lineno, kind)
    toks = (val + " " + " ".join(row for row, _ in block)).split()
    out = [nonneg_int(t) for t in toks]
    if None in out:
        _err(ln, f"{key} entries must be nonnegative integers, got {toks[out.index(None)]!r}")
    return out, ln


def _build_setmap(entries, lineno):
    sizes = {}
    for key in ("source", "target"):
        val, _, ln = _need(entries, key, lineno, "setmap")
        sizes[key] = nonneg_int(val)
        if sizes[key] is None:
            _err(ln, f"{key} must be a nonnegative integer, got {val!r}")
    table, mln = _int_list(entries, "map", lineno, "setmap")
    section, sln = _int_list(entries, "section", lineno, "setmap")
    if len(table) != sizes["source"]:
        _err(mln, f"map lists {len(table)} values, expected {sizes['source']}")
    if any(v >= sizes["target"] for v in table):
        _err(mln, f"map value out of range 0..{sizes['target'] - 1}")
    if len(section) != sizes["target"]:
        _err(sln, f"section lists {len(section)} values, expected {sizes['target']}")
    for y, x in enumerate(section):
        if x >= sizes["source"]:
            _err(sln, f"section value {x} out of range 0..{sizes['source'] - 1}")
        if table[x] != y:
            _err(sln, f"section is not a section: map[{x}] = {table[x]}, expected {y}")
    return SetMap(sizes["source"], sizes["target"], table, section)


def parse_definitions(text, *, check_xmods: bool = True) -> Definitions:
    """Build every section in order through the checking constructors.
    check_xmods=False builds an [xmod]'s validated action and boundary as a
    raw pair (`CrossedModule._trusted`) for `xmod.check_axioms` to audit."""
    defs = Definitions()
    for kind, name, lineno, entries in _split_sections(text):
        if name in defs:
            _err(lineno, f"name {name!r} is already defined")
        _one_form(kind, entries)
        if kind == "group":
            obj = _build_group(name, entries, lineno)
        elif kind == "action":
            obj = _build_action(defs, entries, lineno)
        elif kind == "xmod":
            obj = _build_xmod(defs, name, entries, lineno, check_xmods)
        elif kind == "morphism":
            obj = _build_morphism(defs, entries, lineno)
        else:
            obj = _build_setmap(entries, lineno)
        defs.add(kind, name, obj)
    return defs


def load_definitions(path, *, check_xmods: bool = True) -> Definitions:
    """Parse a UTF-8 definition file; a file that cannot be read or decoded
    is bad input, and the error names the first byte that is not UTF-8."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DefinitionError(f"cannot read {path}: {exc}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DefinitionError(f"{path} is not UTF-8 text: byte {data[exc.start]:#04x} "
                              f"at offset {exc.start}") from None
    # universal newlines, as a file read in text mode
    return parse_definitions(text.replace("\r\n", "\n").replace("\r", "\n"),
                             check_xmods=check_xmods)

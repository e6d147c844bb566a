"""Hypothesis strategies and mutation helpers shared across the test suite."""

from __future__ import annotations

import copy
import re

from hypothesis import strategies as st

from layered_guidance import serialize
from layered_guidance.model import (
    AddDirective,
    Alteration,
    Catalog,
    Control,
    DocumentEnvelope,
    ImportDirective,
    Metadata,
    Part,
    Profile,
    RemoveDirective,
    iter_controls,
)

identifiers = st.from_regex(r"[a-z][a-z0-9._-]{0,7}", fullmatch=True)
classifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9._-]{0,9}", fullmatch=True)
part_names = identifiers.filter(lambda name: name != "statement")

# Includes gnarly unicode and whitespace so serialization gets exercised hard;
# prose only has to be non-empty after trimming.
prose_text = st.text(min_size=1, max_size=80).filter(lambda s: s.strip())
short_text = st.text(min_size=1, max_size=30).filter(lambda s: s.strip())


@st.composite
def metadata_records(draw) -> Metadata:
    return Metadata(title=draw(short_text), version=draw(short_text))


@st.composite
def part_lists(draw, max_parts: int = 3) -> tuple[Part, ...]:
    parts: list[Part] = []
    if draw(st.booleans()):
        parts.append(Part("statement", draw(prose_text), draw(st.none() | classifiers)))
    names = draw(st.lists(part_names, unique=True, max_size=max_parts))
    for name in names:
        parts.append(Part(name, draw(prose_text), draw(st.none() | classifiers)))
    return tuple(parts)


@st.composite
def catalogs(draw, min_controls: int = 0, max_controls: int = 6) -> Catalog:
    """Catalogs of up to three levels: top-level controls, their children and grandchildren."""
    ids = draw(
        st.lists(identifiers, unique=True, min_size=min_controls, max_size=max_controls)
    )
    pool = list(ids)

    def control(level: int) -> Control:
        cid = pool.pop()
        children: list[Control] = []
        if level < 3:
            for _ in range(draw(st.integers(0, min(2, len(pool))))):
                if pool:  # a child's own children may have used up the ids
                    children.append(control(level + 1))
        return Control(cid, classifier=draw(st.none() | classifiers),
                       parts=draw(part_lists()), children=tuple(children))

    controls: list[Control] = []
    while pool:
        controls.append(control(1))
    return Catalog(metadata=draw(metadata_records()), controls=tuple(controls))


@st.composite
def profiles(draw, source: str = "source.yaml") -> Profile:
    """Structurally valid profiles (imports, well-formed alterations)."""
    target_ids = draw(st.lists(identifiers, unique=True, max_size=2))
    alterations = []
    for cid in target_ids:
        removes = tuple(
            RemoveDirective(by_name=name)
            if draw(st.booleans())
            else RemoveDirective(by_class=draw(classifiers))
            for name in draw(st.lists(part_names, unique=True, max_size=2))
        )
        add_names = draw(st.lists(part_names, unique=True, max_size=2))
        adds = (
            (AddDirective(parts=tuple(Part(n, draw(prose_text), draw(st.none() | classifiers))
                                      for n in add_names)),)
            if add_names
            else ()
        )
        if not removes and not adds:
            removes = (RemoveDirective(by_name=draw(part_names)),)
        alterations.append(Alteration(cid, removes=removes, adds=adds))
    include = draw(
        st.just("all") | st.lists(identifiers, unique=True, max_size=3).map(tuple)
    )
    exclude = draw(st.lists(identifiers, unique=True, max_size=2).map(tuple))
    if not isinstance(include, str):
        exclude = tuple(e for e in exclude if e not in include)
    return Profile(
        metadata=draw(metadata_records()),
        imports=(ImportDirective(source, include=include, exclude=exclude),),
        alterations=tuple(alterations),
    )


@st.composite
def documents(draw) -> DocumentEnvelope:
    if draw(st.booleans()):
        return DocumentEnvelope("catalog", draw(catalogs()))
    return DocumentEnvelope("profile", draw(profiles()))


# ---------------------------------------------------------------------------
# Schema faults in a document's plain tree, for the model builder.

# Values of each type a loader can produce; a fault picks one whose type differs.
_ANY_VALUES = (None, 0, 1.5, True, "text", [], ["x"], {}, {"k": "v"})
# Keys of every document type, so an added key is sometimes allowed where it lands.
_KEY_POOL = ("zz-unknown", "id", "name", "prose", "class", "parts", "children", "source",
             "include", "exclude", "by-name", "by-class", "position", "control-id", "removes",
             "adds", "title", "version", "metadata", "imports", "alterations", "controls")
_FAULTS = ("wrong-type", "wrong-types", "unknown-key", "drop-key", "non-str-id")


def _slots(tree) -> list[tuple]:
    """``(container, key)`` of every value below ``tree``, in document order."""
    slots: list[tuple] = []

    def walk(node) -> None:
        pairs = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in pairs:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    if isinstance(tree, (dict, list)):
        walk(tree)
    return slots


@st.composite
def mangled_trees(draw) -> tuple[str, object]:
    """A ``documents()`` body in ``document_plain`` form, with none to three schema faults.

    A fault puts a value of another type at a node or at every value of
    one mapping, adds a key (unknown or not) at a random place in a
    mapping, drops a key, or puts a non-str item into an ``include`` or
    ``exclude`` list. Returns the kind and the ``catalog:`` or ``profile:``
    value.
    """
    envelope = draw(documents())
    tree = serialize.document_plain(envelope)[envelope.kind]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(_FAULTS))
        slots = _slots(tree)
        mappings = [tree] if isinstance(tree, dict) else []
        mappings += [c[k] for c, k in slots if isinstance(c[k], dict)]
        imports = [c[k] for c, k in slots
                   if isinstance(c[k], dict) and "source" in c[k] and isinstance(c, list)]
        if fault == "non-str-id" and imports:
            directive = draw(st.sampled_from(imports))
            ids = draw(st.lists(identifiers, max_size=3))
            ids.insert(draw(st.integers(0, len(ids))),
                       copy.deepcopy(draw(st.sampled_from([0, None, ["a"], {}]))))
            directive[draw(st.sampled_from(["include", "exclude"]))] = ids
        elif fault == "unknown-key" and mappings:
            mapping = draw(st.sampled_from(mappings))
            key = draw(st.sampled_from([k for k in _KEY_POOL if k not in mapping]))
            items = list(mapping.items())
            value = copy.deepcopy(draw(st.sampled_from(_ANY_VALUES)))
            items.insert(draw(st.integers(0, len(items))), (key, value))
            mapping.clear()
            mapping.update(items)
        elif fault == "wrong-types" and any(mappings):
            mapping = draw(st.sampled_from([m for m in mappings if m]))
            for key, current in mapping.items():
                mapping[key] = copy.deepcopy(draw(st.sampled_from(
                    [v for v in _ANY_VALUES if type(v) is not type(current)])))
        elif fault == "drop-key" and any(mappings):
            mapping = draw(st.sampled_from([m for m in mappings if m]))
            del mapping[draw(st.sampled_from(list(mapping)))]
        else:
            slot = draw(st.sampled_from([None, *slots]))
            current = tree if slot is None else slot[0][slot[1]]
            value = copy.deepcopy(draw(st.sampled_from(
                [v for v in _ANY_VALUES if type(v) is not type(current)])))
            if slot is None:
                tree = value
            else:
                slot[0][slot[1]] = value
    return envelope.kind, tree


# ---------------------------------------------------------------------------
# Mutable tree form and validity-preserving mutations, used to build
# randomized catalog pairs for diff testing.


def to_tree(catalog: Catalog) -> dict:
    def control_tree(control: Control) -> dict:
        return {
            "id": control.id,
            "classifier": control.classifier,
            "parts": [[p.name, p.classifier, p.prose] for p in control.parts],
            "children": [control_tree(c) for c in control.children],
        }

    return {
        "title": catalog.metadata.title,
        "version": catalog.metadata.version,
        "controls": [control_tree(c) for c in catalog.controls],
    }


def to_catalog(tree: dict) -> Catalog:
    def build(node: dict) -> Control:
        return Control(
            node["id"],
            classifier=node["classifier"],
            parts=tuple(Part(n, prose, cls) for n, cls, prose in node["parts"]),
            children=tuple(build(c) for c in node["children"]),
        )

    return Catalog(
        metadata=Metadata(tree["title"], tree["version"]),
        controls=tuple(build(c) for c in tree["controls"]),
    )


def _all_nodes(tree: dict) -> list[dict]:
    nodes: list[dict] = []

    def walk(node: dict) -> None:
        nodes.append(node)
        for child in node["children"]:
            walk(child)

    for control in tree["controls"]:
        walk(control)
    return nodes


def _sibling_lists(tree: dict) -> list[list[dict]]:
    lists = [tree["controls"]]
    for node in _all_nodes(tree):
        lists.append(node["children"])
    return lists


def _used_ids(tree: dict) -> set[str]:
    return {node["id"] for node in _all_nodes(tree)}


def _fresh(prefix: str, used: set[str]) -> str:
    counter = 0
    while f"{prefix}{counter}" in used:
        counter += 1
    name = f"{prefix}{counter}"
    used.add(name)
    return name


def mutate_tree(draw, tree: dict) -> None:
    """Apply one random validity-preserving mutation in place."""
    nodes = _all_nodes(tree)
    choices = ["metadata"]
    if nodes:
        choices += ["add_part", "add_control", "remove_control", "control_class"]
        if any(node["parts"] for node in nodes):
            choices += ["prose", "part_class", "remove_part"]
        if any(len(node["parts"]) - _statement_count(node) >= 2 for node in nodes):
            choices.append("reorder_parts")
    if any(len(siblings) >= 2 for siblings in _sibling_lists(tree)):
        choices.append("reorder_controls")
    kind = draw(st.sampled_from(sorted(choices)))

    if kind == "metadata":
        field = draw(st.sampled_from(["title", "version"]))
        tree[field] = tree[field] + "x"
    elif kind == "prose":
        node = draw(st.sampled_from([n for n in nodes if n["parts"]]))
        part = draw(st.sampled_from(node["parts"]))
        index = draw(st.integers(0, len(part[2]) - 1))
        old = part[2][index]
        part[2] = part[2][:index] + ("y" if old == "x" else "x") + part[2][index + 1:]
    elif kind == "part_class":
        node = draw(st.sampled_from([n for n in nodes if n["parts"]]))
        part = draw(st.sampled_from(node["parts"]))
        part[1] = None if part[1] is not None else "Zc"
    elif kind == "add_part":
        node = draw(st.sampled_from(nodes))
        used = {p[0] for p in node["parts"]} | {"statement"}
        name = _fresh("znew", used)
        node["parts"].append([name, None, "added prose"])
    elif kind == "remove_part":
        node = draw(st.sampled_from([n for n in nodes if n["parts"]]))
        node["parts"].pop(draw(st.integers(0, len(node["parts"]) - 1)))
    elif kind == "reorder_parts":
        node = draw(
            st.sampled_from(
                [n for n in nodes if len(n["parts"]) - _statement_count(n) >= 2]
            )
        )
        movable = [i for i, p in enumerate(node["parts"]) if p[0] != "statement"]
        a, b = movable[0], movable[1]
        node["parts"][a], node["parts"][b] = node["parts"][b], node["parts"][a]
    elif kind == "add_control":
        cid = _fresh("zctl", _used_ids(tree))
        siblings = draw(st.sampled_from(_sibling_lists(tree)))
        siblings.append({"id": cid, "classifier": None,
                         "parts": [["statement", None, "fresh statement"]], "children": []})
    elif kind == "remove_control":
        siblings = draw(st.sampled_from([s for s in _sibling_lists(tree) if s]))
        siblings.pop(draw(st.integers(0, len(siblings) - 1)))
    elif kind == "reorder_controls":
        siblings = draw(
            st.sampled_from([s for s in _sibling_lists(tree) if len(s) >= 2])
        )
        siblings[0], siblings[1] = siblings[1], siblings[0]
    elif kind == "control_class":
        node = draw(st.sampled_from(nodes))
        node["classifier"] = None if node["classifier"] is not None else "Zk"


@st.composite
def catalog_pairs(draw) -> tuple[Catalog, Catalog]:
    """A base catalog and a mutated copy (possibly identical)."""
    before = draw(catalogs())
    tree = to_tree(before)
    for _ in range(draw(st.integers(0, 3))):
        mutate_tree(draw, tree)
    return before, to_catalog(tree)


@st.composite
def prose_edited(draw, catalog: Catalog) -> Catalog:
    """``catalog`` with one drawn part's prose extended; unchanged when it has no parts."""
    tree = to_tree(catalog)
    if parts := _tree_parts(tree):
        draw(st.sampled_from(parts))[2] += " edited"
    return to_catalog(tree)


def _tree_parts(tree: dict) -> list[list]:
    return [part for node in _all_nodes(tree) for part in node["parts"]]


_CONTROL_LINE_RE = re.compile(rb"\n( *- id: [^\n]*)")


def split_controls(text: bytes) -> tuple[bytes, list[tuple[bytes, bytes]]]:
    """Catalog YAML cut before each ``- id:`` line: the header, then (that line, block) pairs.

    A block holds a control's fields, parts and ``children:`` key, not its
    children. The pieces concatenate to ``text``; on canonical text they are
    exact unless a folded line reads ``- id:``, making more pieces than controls.
    """
    starts = [(match.start(1), match.group(1)) for match in _CONTROL_LINE_RE.finditer(text)]
    ends = [start for start, _ in starts[1:]] + [len(text)]
    header = text[:starts[0][0]] if starts else text
    return header, [(line, text[start:end]) for (start, line), end in zip(starts, ends)]


def with_long_prose(catalog: Catalog) -> Catalog:
    """``catalog`` with every prose prefixed by enough words to fold where the prose allows."""
    def lengthen(control: Control) -> Control:
        parts = tuple(Part(p.name, " ".join(["folded words"] * 8 + [p.prose]), p.classifier)
                      for p in control.parts)
        return Control(control.id, control.classifier, parts,
                       tuple(lengthen(child) for child in control.children))
    return Catalog(catalog.metadata, tuple(lengthen(c) for c in catalog.controls))


MANGLES = ("none", "reindented", "comment", "crlf", "requoted", "refolded", "foreign", "swapped",
           "duplicated", "invalid", "metadata", "truncated")


_PLACEHOLDER = b" zz-replaced-prose\n"  # a prose's canonical text after its key


def _with_placeholder(tree: dict, part: list) -> bytes:
    """The canonical YAML of ``tree`` with ``part``'s prose written as ``_PLACEHOLDER``."""
    prose, part[2] = part[2], _PLACEHOLDER[1:-1].decode()
    emitted = serialize.serialize_document(DocumentEnvelope("catalog", to_catalog(tree)))
    part[2] = prose
    return emitted


@st.composite
def mangled_catalog_texts(draw, catalog: Catalog,
                          kinds: tuple[str, ...] = MANGLES) -> tuple[str, bytes]:
    """A mangling from ``kinds`` and ``catalog``'s canonical YAML with it applied.

    Some manglings keep the document (re-indented, a comment, CRLF line
    ends, one prose re-quoted or, when long, folded at another width),
    some change it (two sibling blocks swapped, a ``- id:`` block
    duplicated, the title edited, a quoted prose with a raw NEL) and some
    break it (a block made invalid YAML, the file cut short). Over half the
    draws leave the text canonical, so that a delta can come from the
    changed controls.
    """
    envelope = DocumentEnvelope("catalog", catalog)
    text = serialize.serialize_document(envelope)
    kind = draw(st.one_of(st.just("none"), st.sampled_from(kinds)))
    tree = to_tree(catalog)
    header, blocks = split_controls(text)
    pieces = [block for _, block in blocks]
    lines = text.splitlines(keepends=True)
    if kind == "reindented":
        return kind, b"".join(b" " * (len(line) - len(line.lstrip(b" "))) + line
                              for line in lines)
    if kind == "comment":
        at = draw(st.integers(0, len(lines)))
        return kind, b"".join(lines[:at] + [b"# edited by hand\n"] + lines[at:])
    if kind == "crlf":
        return kind, text.replace(b"\n", b"\r\n")
    if kind == "requoted" and _tree_parts(tree):
        part = draw(st.sampled_from(_tree_parts(tree)))
        quoted = f" {serialize._quote(part[2])}\n".encode()
        return kind, _with_placeholder(tree, part).replace(_PLACEHOLDER, quoted, 1)
    folded = [part for part in _tree_parts(tree)
              if len(part[2]) > serialize._WRAP_COLUMN and serialize._foldable(part[2])]
    if kind == "refolded" and folded:
        part = draw(st.sampled_from(folded))
        emitted = _with_placeholder(tree, part)
        pad = b" " * (len(re.search(rb"\n( *)prose:" + re.escape(_PLACEHOLDER), emitted)[1]) + 2)
        body = serialize._wrap_re(draw(st.integers(20, 76))).findall(part[2])
        refolded = b" >-\n" + b"".join(pad + line.encode() + b"\n" for line in body)
        return kind, emitted.replace(_PLACEHOLDER, refolded, 1)
    if kind == "foreign" and _tree_parts(tree):
        part = draw(st.sampled_from(_tree_parts(tree)))
        nel = ' "a\u0085b"\n'.encode()  # the strict loader folds the raw NEL: ``'a b'``
        return kind, _with_placeholder(tree, part).replace(_PLACEHOLDER, nel, 1)
    if kind == "swapped" and len(pieces) >= 2:
        at = draw(st.integers(0, len(pieces) - 2))
        pieces[at], pieces[at + 1] = pieces[at + 1], pieces[at]
        return kind, header + b"".join(pieces)
    if kind == "duplicated" and pieces:
        at = draw(st.integers(0, len(pieces) - 1))
        pieces.insert(at, pieces[at])
        return kind, header + b"".join(pieces)
    if kind == "invalid" and pieces:
        at = draw(st.integers(0, len(pieces) - 1))
        pieces[at] += b"      note: \"unterminated\n"
        return kind, header + b"".join(pieces)
    if kind == "metadata":
        return kind, text.replace(b"\n    title: ", b"\n    title: edited ", 1)
    if kind == "truncated":
        return kind, text[:draw(st.integers(0, len(text) - 1))]
    return "none", text


def _statement_count(node: dict) -> int:
    return sum(1 for p in node["parts"] if p[0] == "statement")


# ---------------------------------------------------------------------------
# Three-layer chains: base catalog, profile over it, profile over that.
# Alterations are drawn against a symbolic {control-id -> part names} state
# so they are valid by construction, and the expected part names after each
# layer come out as an independent prediction.


@st.composite
def _chain_alterations(draw, state: dict[str, list[str]]) -> tuple[Alteration, ...]:
    target_ids = draw(
        st.lists(st.sampled_from(sorted(state)), unique=True, max_size=2)
        if state
        else st.just([])
    )
    alterations = []
    for cid in target_ids:
        names = state[cid]
        removable = [n for n in names]
        removed = draw(st.lists(st.sampled_from(removable), unique=True, max_size=2)) if removable else []
        survivors = [n for n in names if n not in removed]
        used = set(survivors) | {"statement"}
        add_count = draw(st.integers(0 if removed else 1, 2))
        added: list[str] = []
        for _ in range(add_count):
            name = draw(part_names.filter(lambda n: n not in used))
            used.add(name)
            added.append(name)
        removes = tuple(RemoveDirective(by_name=n) for n in removed)
        adds = (
            (AddDirective(parts=tuple(Part(n, draw(prose_text), draw(st.none() | classifiers))
                                      for n in added)),)
            if added
            else ()
        )
        alterations.append(Alteration(cid, removes=removes, adds=adds))
        state[cid] = survivors + added
    return tuple(alterations)


@st.composite
def layered_chains(draw) -> tuple[Catalog, Profile, Profile, dict[str, list[str]]]:
    base = draw(catalogs(min_controls=1, max_controls=5))
    state = {c.id: [p.name for p in c.parts] for c in iter_controls(base.controls)}
    p1 = Profile(
        metadata=draw(metadata_records()),
        imports=(ImportDirective("base.yaml"),),
        alterations=draw(_chain_alterations(state)),
    )
    p2 = Profile(
        metadata=draw(metadata_records()),
        imports=(ImportDirective("p1.yaml"),),
        alterations=draw(_chain_alterations(state)),
    )
    return base, p1, p2, state


SPELLINGS = ("{}", "./{}", "sub/../{}")  # three spellings of one store uri


def catalog_text(name: str, control_id: str) -> bytes:
    """A catalog of ``control_id``, which profiles alter, and ``<control_id>-shared``, which none do."""
    return (f"catalog:\n  metadata:\n    title: {name}\n    version: \"1\"\n  controls:\n"
            f"    - id: {control_id}\n      parts:\n        - name: statement\n"
            f"          prose: {name} statement v0\n"
            f"    - id: {control_id}-shared\n      parts:\n        - name: statement\n"
            f"          prose: {name} shared v0\n").encode()


def profile_importing(*sources: str) -> bytes:
    """A profile titled ``P`` that imports ``sources`` whole, in order, and alters nothing."""
    lines = [b"profile:\n  metadata:\n    title: P\n    version: \"1\"\n  imports:\n"]
    lines += [f"    - source: {source}\n".encode() for source in sources]
    return b"".join(lines)


def profile_text(name: str, source: str, control_id: str) -> bytes:
    return (f"profile:\n  metadata:\n    title: {name}\n    version: \"1\"\n  imports:\n"
            f"    - source: {source}\n  alterations:\n    - control-id: {control_id}\n"
            f"      adds:\n        - parts:\n            - name: note-{name}\n"
            f"              prose: {name} note v0\n").encode()


def lenient_diamond(source: str, text: bytes, right_first: bool) -> dict[str, bytes]:
    """Four profiles over the store document ``source`` (of text ``text``) whose removals miss.

    Each removal matches nothing, so lenient resolution warns for it.
    ``d-bottom.yaml`` imports ``source`` and warns once on its first
    control; ``d-left.yaml`` takes that control from it and warns twice,
    ``d-right.yaml`` takes the ``-shared`` one and warns once. ``d-top.yaml``
    imports both, ``d-right.yaml`` first when ``right_first``, and warns once.
    """
    cid = re.search(rb"(?:control-id|- id): (\S+)", text)[1].decode()

    def profile(name: str, imports: list[tuple[str, str]], target: str,
                removes: list[str]) -> bytes:
        lines = [f'profile:\n  metadata:\n    title: {name}\n    version: "1"\n  imports:\n']
        for imported, include in imports:
            lines.append(f"    - source: {imported}\n")
            if include:
                lines.append(f"      include:\n        - {include}\n")
        lines.append(f"  alterations:\n    - control-id: {target}\n      removes:\n")
        lines += [f"        - {remove}\n" for remove in removes]
        return "".join(lines).encode()

    sides = [("d-right.yaml", ""), ("d-left.yaml", "")]
    return {
        "d-bottom.yaml": profile("d-bottom", [(source, "")], cid, ["by-name: nothing-here"]),
        "d-left.yaml": profile("d-left", [("d-bottom.yaml", cid)], cid,
                               ["by-name: gone", "by-name: gone"]),
        "d-right.yaml": profile("d-right", [("d-bottom.yaml", f"{cid}-shared")], f"{cid}-shared",
                                ["by-class: gone-right"]),
        "d-top.yaml": profile("d-top", sides if right_first else sides[::-1], f"{cid}-shared",
                              ["by-class: nothing"]),
    }


TAMPERS = ("mangle", "break", "reword", "spaced", "extra")


def tampered(text: bytes, kind: str, at: int) -> bytes:
    """``text`` with its ``at``-th ``- id:`` block changed as ``kind`` in ``TAMPERS`` says.

    ``mangle`` adds a comment to the block's last line, ``break`` makes the
    block invalid YAML and ``reword`` gives each prose of the block ending
    `` v0`` other, still canonical, words. ``spaced`` puts trailing spaces
    after the block's ``children:`` key, if it has one. ``extra`` ends the
    block with a sibling control ``id.zz`` whose item starts ``- class:``,
    not ``- id:``. A block past the last is left alone.
    """
    header, blocks = split_controls(text)
    pieces = [block for _, block in blocks]
    if at >= len(pieces):
        return text
    if kind == "mangle":
        pieces[at] = pieces[at][:-1] + b"  # edited by hand\n"
    elif kind == "break":
        pieces[at] += b"      note: \"unterminated\n"
    elif kind == "spaced":
        pieces[at] = pieces[at].replace(b"children:\n", b"children:   \n")
    elif kind == "extra":
        line = blocks[at][0]
        pad = line[:len(line) - len(line.lstrip(b" "))]
        pieces[at] += pad + b"- class: extra\n" + pad + b"  id: id.zz\n"
    else:
        pieces[at] = pieces[at].replace(b" v0\n", b" v0 reworded\n")
    return header + b"".join(pieces)


@st.composite
def edited_stores(draw) -> dict:
    """A small store, one edit to one of its documents, and a spelling of the changed uri.

    ``files`` maps uri to bytes; ``imports`` maps each profile to the store
    uri it imports. Two catalogs, ``base.yaml`` and ``other.yaml``, root
    chains of one to four profiles, each importing one earlier document
    under a drawn spelling, or an earlier profile's build output
    ``resolved/<name>.yaml`` (written up front as a stand-in catalog). The
    edit is ``prose`` (a longer prose part), ``break`` (a repeated ``title``
    key, so the document no longer parses) or ``respell`` (a profile's
    import under another spelling); an edit of ``new.yaml`` adds that
    catalog, whole or broken. The edit never touches a build output.
    Profiles alter only the first control of what they import, so the
    second control's block is the same in every output over one catalog.
    ``tamper`` lists up to two ``(profile, kind, block index)``: after the
    first ``propagate``, that profile's output is ``tampered`` as ``kind``.
    """
    roots = {"base.yaml": "c-1", "other.yaml": "o-1"}
    files = {uri: catalog_text(uri[:-5], cid) for uri, cid in roots.items()}
    imports: dict[str, str] = {}
    spelled: dict[str, str] = {}
    for index in range(draw(st.integers(1, 5))):
        name = f"p{index + 1}"
        outputs = [f"resolved/{uri}" for uri in imports]
        source = draw(st.sampled_from(sorted(files) + outputs))
        if source in outputs:
            roots[source] = roots[source[len("resolved/"):]]
            files.setdefault(source, catalog_text(f"stand-in-{name}", roots[source]))
        roots[f"{name}.yaml"] = roots[source]
        imports[f"{name}.yaml"] = source
        spelled[f"{name}.yaml"] = draw(st.sampled_from(SPELLINGS)).format(source)
        files[f"{name}.yaml"] = profile_text(name, spelled[f"{name}.yaml"], roots[source])
    editable = [uri for uri in sorted(files) if not uri.startswith("resolved/")]
    target = draw(st.sampled_from([*editable, "new.yaml"]))
    kinds = ["prose", "break"] + (["respell"] if target in imports else [])
    kind = draw(st.sampled_from(kinds))
    text = files.get(target, catalog_text("new", "n-1"))
    if target == "new.yaml" and kind == "prose":
        edited = text
    elif kind == "prose":
        edited = text.replace(b" v0\n", b" v1, edited\n")
    elif kind == "break":
        title = f"    title: {target[:-5]}\n".encode()
        edited = text.replace(title, title + title)
    else:
        old = spelled[target]
        new = draw(st.sampled_from([s.format(imports[target]) for s in SPELLINGS
                                    if s.format(imports[target]) != old]))
        edited = text.replace(f"source: {old}\n".encode(), f"source: {new}\n".encode())
    changed = draw(st.one_of(st.just(target), st.sampled_from([*editable, target])))
    tamper = draw(st.lists(st.tuples(st.sampled_from(sorted(imports)), st.sampled_from(TAMPERS),
                                     st.integers(0, 1)), max_size=2, unique_by=lambda t: t[0]))
    return {
        "files": files, "imports": imports, "edit": (target, kind, edited),
        "changed": draw(st.sampled_from(SPELLINGS)).format(changed), "tamper": tamper,
    }

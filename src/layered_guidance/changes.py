"""Structural diffing and downstream re-resolution.

``diff`` compares two catalogs at control/part granularity: it is empty
exactly when the catalogs are structurally equal (uri aside). ``propagate``
re-resolves every profile that transitively depends on a changed document
and reports each fresh resolution together with its delta against the
previously persisted one under ``<store>/resolved/``. That delta compares
the previous file with the fresh output's own blocks (``catalog_blocks``),
then parses and diffs only the controls whose canonical text changed.
Within one ``propagate`` call, a control's own block shared by several
outputs (also one rebuilt with other children) is emitted once, a scalar's
text (long prose per indent) is decided once, and a changed control's
previous text shared by outputs is parsed and checked once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path, PurePosixPath

from .errors import GuidanceError, NotFound, StoreError
from .model import Catalog, Control, DocumentEnvelope, ERROR, Finding, iter_controls
from .resolver import (
    RESOLVED_DIR,
    ResolvedCatalog,
    SourceStore,
    import_sources,
    resolve_in_store,
    topological_order,
)
from .serialize import catalog_blocks, emit_control, parse_document, serialize_document

CONTROL_ADDED = "control-added"
CONTROL_REMOVED = "control-removed"
PART_ADDED = "part-added"
PART_REMOVED = "part-removed"
PART_MODIFIED = "part-modified"
METADATA_MODIFIED = "metadata-modified"


@dataclass(frozen=True)
class ChangeEntry:
    kind: str
    control_id: str | None = None
    part_name: str | None = None
    before_prose: str | None = None
    after_prose: str | None = None


@dataclass(frozen=True)
class ChangeSet:
    entries: tuple[ChangeEntry, ...]

    @property
    def is_empty(self) -> bool:
        return not self.entries


def _flatten(catalog: Catalog) -> tuple[dict[str, tuple[Control, str | None, int]], list[str]]:
    """Each control by id with its parent's id and sibling index, and the ids in document order."""
    nodes: dict[str, tuple[Control, str | None, int]] = {}
    order: list[str] = []

    def walk(control: Control, parent: str | None, index: int) -> None:
        nodes[control.id] = (control, parent, index)
        order.append(control.id)
        for child_index, child in enumerate(control.children):
            walk(child, control.id, child_index)

    for top_index, control in enumerate(catalog.controls):
        walk(control, None, top_index)
    return nodes, order


def diff(before: Catalog, after: Catalog) -> ChangeSet:
    """Structural delta between two catalogs.

    Entries follow document position in the ``after`` catalog; removals are
    interleaved at their ``before`` position. A control whose classifier or
    tree position changed is reported as a remove/add pair; a part counts
    as modified when its prose, classifier, or position changed.
    """
    keyed: list[tuple[float, float, int, ChangeEntry]] = []
    seq = 0

    def emit(control_key: float, part_key: float, entry: ChangeEntry) -> None:
        nonlocal seq
        keyed.append((control_key, part_key, seq, entry))
        seq += 1

    for name in ("title", "version"):
        old = getattr(before.metadata, name)
        new = getattr(after.metadata, name)
        if old != new:
            emit(-1.0, 0.0, ChangeEntry(METADATA_MODIFIED, part_name=name,
                                        before_prose=old, after_prose=new))

    bnodes, border = _flatten(before)
    anodes, aorder = _flatten(after)
    akey = {cid: float(i) for i, cid in enumerate(aorder)}

    surviving = 0
    for cid in border:
        if cid in anodes:
            surviving += 1
        else:
            emit(surviving - 0.5, 0.0, ChangeEntry(CONTROL_REMOVED, control_id=cid))

    for cid in aorder:
        if cid not in bnodes:
            emit(akey[cid], -1.0, ChangeEntry(CONTROL_ADDED, control_id=cid))
            continue
        bcontrol, bparent, bindex = bnodes[cid]
        acontrol, aparent, aindex = anodes[cid]
        if (bcontrol.classifier, bparent, bindex) != (acontrol.classifier, aparent, aindex):
            emit(akey[cid], -2.0, ChangeEntry(CONTROL_REMOVED, control_id=cid))
            emit(akey[cid], -1.0, ChangeEntry(CONTROL_ADDED, control_id=cid))
            continue
        _diff_parts(bcontrol, acontrol, akey[cid], emit)

    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    return ChangeSet(tuple(entry for _, _, _, entry in keyed))


def _diff_parts(before: Control, after: Control, control_key: float, emit) -> None:
    if before.parts is after.parts:
        return
    bparts = {p.name: (i, p) for i, p in enumerate(before.parts)}
    aparts = {p.name: (i, p) for i, p in enumerate(after.parts)}

    surviving = 0
    for part in before.parts:
        if part.name in aparts:
            surviving += 1
        else:
            emit(control_key, surviving - 0.5,
                 ChangeEntry(PART_REMOVED, control_id=after.id, part_name=part.name,
                             before_prose=part.prose))

    for index, part in enumerate(after.parts):
        if part.name not in bparts:
            emit(control_key, float(index),
                 ChangeEntry(PART_ADDED, control_id=after.id, part_name=part.name,
                             after_prose=part.prose))
            continue
        bindex, bpart = bparts[part.name]
        if bpart.prose != part.prose or bpart.classifier != part.classifier or bindex != index:
            emit(control_key, float(index),
                 ChangeEntry(PART_MODIFIED, control_id=after.id, part_name=part.name,
                             before_prose=bpart.prose, after_prose=part.prose))


def entry_plain(entry: ChangeEntry) -> dict:
    plain = {"kind": entry.kind, "control-id": entry.control_id, "part-name": entry.part_name,
             "before-prose": entry.before_prose, "after-prose": entry.after_prose}
    return {key: value for key, value in plain.items() if value is not None}


@dataclass(frozen=True)
class DependencyGraph:
    """Import relationships across a store: edges run importer -> source."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    findings: tuple[Finding, ...] = ()
    profiles: tuple[str, ...] = ()  # the listed documents that are profiles
    unreadable: dict[str, GuidanceError] = field(default_factory=dict)  # uri -> parse error

    def importers_of(self, uri: str) -> list[str]:
        return list(self._importers.get(uri, ()))

    @cached_property
    def _importers(self) -> dict[str, list[str]]:
        importers: dict[str, list[str]] = {}
        for importer, source in self.edges:
            importers.setdefault(source, []).append(importer)
        return importers


def build_graph(store: SourceStore) -> DependencyGraph:
    """One node per store document, one edge per import of an existing file.

    An unlisted file that an import names, such as one under ``resolved/``,
    joins as a node after the listed documents; an import of no file is a
    finding. A document that does not parse has no edges out. A joined
    ``resolved/`` node that is a listed profile's output depends on that
    profile, so its writer comes before its importers in topological order.
    """
    nodes = store.list_documents()
    listed = set(nodes)
    known = set(nodes)
    edges: list[tuple[str, str]] = []
    findings: list[Finding] = []
    profiles: list[str] = []
    unreadable: dict[str, GuidanceError] = {}
    for uri in nodes:  # grows as imports name files outside the listing
        try:
            envelope = store.load(uri)
        except GuidanceError as error:
            unreadable[uri] = error
            continue
        if envelope.kind == "profile" and uri in listed:
            profiles.append(uri)
        for source in import_sources(envelope):
            if source not in known and store.exists(source):
                known.add(source)
                nodes.append(source)
            if source in known:
                edges.append((uri, source))
            else:
                findings.append(Finding(ERROR, uri, f"import source {source!r} not found in store"))
    edges += [(output, uri) for uri in profiles
              if (output := resolution_output_uri(uri)) in known and output not in listed]
    return DependencyGraph(nodes=tuple(nodes), edges=tuple(edges), findings=tuple(findings),
                           profiles=tuple(profiles), unreadable=unreadable)


def transitive_dependents(graph: DependencyGraph, uri: str) -> set[str]:
    """Every document that imports ``uri`` directly or transitively, plus ``uri``."""
    dependents = {uri}
    frontier = [uri]
    while frontier:
        current = frontier.pop()
        for importer in graph.importers_of(current):
            if importer not in dependents:
                dependents.add(importer)
                frontier.append(importer)
    return dependents


def resolution_output_uri(profile_uri: str) -> str:
    return f"{RESOLVED_DIR}/{PurePosixPath(profile_uri).stem}.yaml"


def _write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one rename; the file gets the mode the umask allows.

    On any failure the temp file is removed and ``path`` is left as it was.
    """
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}")
    try:
        fd = os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    except (FileNotFoundError, NotADirectoryError):  # no directory yet, or a file in its place
        os.makedirs(directory, exist_ok=True)
        fd = os.open(temp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise


def _delta(previous: bytes, after: Catalog, *, memo: dict | None = None,
           verified: dict[str, Control] | None = None) -> ChangeSet:
    """``diff`` from the catalog ``previous`` holds to ``after``, parsing only changed own blocks.

    ``after`` is valid, as every resolution is; ``catalog_blocks`` gives its
    header and own blocks, read back from ``memo`` when ``serialize_document``
    just emitted it with that memo. ``previous`` must start with the header,
    and is then walked block by block: a block equal to ``after``'s is
    skipped; one that differs must start with the same ``- id:`` line, ends
    where the next block's ``- id:`` line starts, must keep the
    ``children:`` key and, without it, be the canonical text of the
    childless control it parses to. Nothing may follow the last block. Then
    ``previous`` is the canonical text of ``after`` with the changed
    controls' own fields, and ``diff`` over those controls alone gives the
    delta. Otherwise ``previous`` is parsed whole. The changed blocks are
    parsed in one document; a block ``verified`` maps to its control is not
    parsed, and one found canonical (emitted again through ``memo``) joins it.
    """
    def whole() -> ChangeSet:
        return diff(parse_document(previous, "yaml").body, after)

    header, blocks = catalog_blocks(after, memo)
    try:
        text = previous.decode("utf-8")
    except UnicodeDecodeError:
        return whole()
    if not text.startswith(header):
        return whole()
    verified = {} if verified is None else verified
    offset = len(header)
    changed: list[tuple[str, Control, int]] = []  # (previous own block, control, indent)
    for index, (block, control) in enumerate(zip(blocks, iter_controls(after.controls))):
        if text.startswith(block, offset):
            offset += len(block)
            continue
        line = block[:block.index("\n") + 1]
        if not text.startswith(line, offset):
            return whole()
        end = len(text)
        if index + 1 < len(blocks):  # up to the next block's ``- id:`` line
            following = blocks[index + 1]
            end = text.find("\n" + following[:following.index("\n") + 1],
                            offset + len(line) - 1) + 1
            if not end:  # no such line
                return whole()
        indent = len(line) - len(line.lstrip(" "))
        children_key = " " * (indent + 2) + "children:\n" if control.children else ""
        own_end = end - len(children_key)
        if not text.startswith(children_key, own_end):
            return whole()
        changed.append((text[offset:own_end], control, indent))
        offset = end
    if offset != len(text):
        return whole()
    # A verified block starts with this control's ``- id:`` line, so it holds ``control.id``.
    unparsed = [item for item in changed if item[0] not in verified]
    if unparsed:
        texts = [header]
        for own, _, indent in unparsed:
            pad = " " * (indent - 4)  # dedented to a top-level control
            texts.append(own[len(pad):].replace("\n" + pad, "\n") if pad else own)
        try:
            parsed = parse_document("".join(texts), "yaml").body.controls
        except GuidanceError:
            return whole()
        if len(parsed) != len(unparsed):
            return whole()
        for new, (own, control, indent) in zip(parsed, unparsed):
            if new.id != control.id or new.children or emit_control(new, indent, memo) != own:
                return whole()
            verified[own] = new
    # Both sides share every other control and the tree: the changed controls alone differ.
    return diff(Catalog(after.metadata, tuple(verified[own] for own, _, _ in changed)),
                Catalog(after.metadata, tuple(Control(c.id, c.classifier, c.parts)
                                              for _, c, _ in changed)))


@dataclass(frozen=True)
class PropagationResult:
    profile_uri: str
    output_uri: str
    resolved: ResolvedCatalog | None = None
    changes: ChangeSet | None = None
    initial: bool = False
    error: GuidanceError | None = None


def propagate(store: SourceStore, changed_uri: str, *,
              lenient: bool = False) -> list[PropagationResult]:
    """Re-resolve every profile downstream of ``changed_uri``, in topological order.

    Each fresh resolution is diffed against the previously persisted one
    (``initial`` marks a first resolution) and, when the bytes differ,
    persisted atomically with the mode the umask gives a new file. Each
    profile resolves through ``resolve_in_store`` with one memo for the run,
    so a failing profile is reported in place with the error
    ``resolve_chain`` gives, and so is one whose output path another profile
    shares; the rest still run. An import cycle upstream of a re-resolved
    profile raises ``CycleDetected``; one elsewhere does not matter. A
    ``changed_uri`` that does not parse raises.
    """
    if not store.exists(changed_uri):
        raise NotFound(changed_uri)
    changed_uri = store.load(changed_uri).body.uri
    graph = build_graph(store)
    sources: dict[str, list[str]] = {node: [] for node in graph.nodes}
    for importer, source in graph.edges:
        sources[importer].append(source)
    affected = transitive_dependents(graph, changed_uri)
    # No document outside ``affected`` imports one inside it, so walking from
    # the affected documents alone keeps their order. Every import of an
    # existing file is an edge, so the walk meets any cycle resolution could.
    order = topological_order([uri for uri in graph.nodes if uri in affected],
                              sources.__getitem__)
    outputs = {uri: resolution_output_uri(uri) for uri in graph.profiles}
    writers: dict[str, list[str]] = {}
    for uri, output_uri in outputs.items():
        writers.setdefault(output_uri, []).append(uri)

    results: list[PropagationResult] = []
    memo: dict[str, ResolvedCatalog] = {}
    emitted: dict = {}  # each own block and scalar text emitted in this run (catalog_blocks)
    verified: dict[str, Control] = {}  # previous own blocks found canonical in this run
    for uri in order:
        if uri not in affected or uri not in outputs:
            continue
        output_uri = outputs[uri]
        others = [writer for writer in writers[output_uri] if writer != uri]
        if others:
            error = StoreError(f"output {output_uri} is also the output of {', '.join(others)}")
            results.append(PropagationResult(uri, output_uri, error=error))
            continue
        try:
            resolved = resolve_in_store(store, uri, lenient=lenient, memo=memo)
            data = serialize_document(DocumentEnvelope("catalog", resolved.catalog), "yaml",
                                      memo=emitted)
            path = store.root / output_uri
            previous = path.read_bytes() if path.is_file() else None
            changes = ChangeSet(())
            if previous != data:
                if previous is not None:
                    changes = _delta(previous, resolved.catalog, memo=emitted,
                                     verified=verified)
                _write_atomic(path, data)
                store.evict(output_uri)  # a same-size rewrite can keep its fingerprint
        except GuidanceError as error:
            results.append(PropagationResult(uri, output_uri, error=error))
            continue
        results.append(
            PropagationResult(uri, output_uri, resolved=resolved, changes=changes,
                              initial=previous is None)
        )
    return results

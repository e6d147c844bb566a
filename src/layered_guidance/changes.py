"""Structural diffing and downstream re-resolution.

``diff`` compares two catalogs at control/part granularity: it is empty
exactly when the catalogs are structurally equal (uri aside). ``propagate``
re-resolves every profile that transitively depends on a changed document
and reports each fresh resolution together with its delta against the
previously persisted one under ``<store>/resolved/``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path, PurePosixPath

from .errors import GuidanceError, NotFound, StoreError
from .model import Catalog, Control, DocumentEnvelope, ERROR, Finding
from .resolver import (
    RESOLVED_DIR,
    ResolvedCatalog,
    SourceStore,
    import_sources,
    resolve_acyclic,
    topological_order,
)
from .serialize import parse_document, serialize_document

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


@dataclass(frozen=True)
class _Node:
    control: Control
    parent: str | None
    index: int


def _flatten(catalog: Catalog) -> tuple[dict[str, _Node], list[str]]:
    nodes: dict[str, _Node] = {}
    order: list[str] = []

    def walk(control: Control, parent: str | None, index: int) -> None:
        nodes[control.id] = _Node(control, parent, index)
        order.append(control.id)
        for child_index, child in enumerate(control.children):
            walk(child, control.id, child_index)

    for top_index, control in enumerate(catalog.controls):
        walk(control, None, top_index)
    return nodes, order


def _same_slot(before: _Node, after: _Node) -> bool:
    return (
        before.control.classifier == after.control.classifier
        and before.parent == after.parent
        and before.index == after.index
    )


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

    for field in ("title", "version"):
        old = getattr(before.metadata, field)
        new = getattr(after.metadata, field)
        if old != new:
            emit(-1.0, 0.0, ChangeEntry(METADATA_MODIFIED, part_name=field,
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
        bnode, anode = bnodes[cid], anodes[cid]
        if not _same_slot(bnode, anode):
            emit(akey[cid], -2.0, ChangeEntry(CONTROL_REMOVED, control_id=cid))
            emit(akey[cid], -1.0, ChangeEntry(CONTROL_ADDED, control_id=cid))
            continue
        _diff_parts(bnode.control, anode.control, akey[cid], emit)

    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    return ChangeSet(tuple(entry for _, _, _, entry in keyed))


def _diff_parts(before: Control, after: Control, control_key: float, emit) -> None:
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
    plain: dict = {"kind": entry.kind}
    if entry.control_id is not None:
        plain["control-id"] = entry.control_id
    if entry.part_name is not None:
        plain["part-name"] = entry.part_name
    if entry.before_prose is not None:
        plain["before-prose"] = entry.before_prose
    if entry.after_prose is not None:
        plain["after-prose"] = entry.after_prose
    return plain


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
    finding. A document that does not parse has no edges out.
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
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


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
    (``initial`` marks a first resolution) and then persisted atomically.
    A failing profile, such as one that depends on a document that does not
    parse, is reported in place; independent profiles still run. A profile
    whose output path another profile of the store shares fails without
    writing. An import cycle upstream of a re-resolved profile raises
    ``CycleDetected``; one elsewhere in the store does not matter. A
    ``changed_uri`` that does not parse raises its parse error.
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
            resolved = resolve_acyclic(store, uri, lenient=lenient, memo=memo)
            envelope = DocumentEnvelope("catalog", resolved.catalog)
            previous_path = store.root / output_uri
            if previous_path.is_file():
                previous = parse_document(previous_path.read_bytes(), "yaml")
                changes = diff(previous.body, resolved.catalog)
                initial = False
            else:
                changes = ChangeSet(())
                initial = True
            _write_atomic(previous_path, serialize_document(envelope, "yaml"))
        except GuidanceError as error:
            results.append(PropagationResult(uri, output_uri, error=error))
            continue
        results.append(
            PropagationResult(uri, output_uri, resolved=resolved, changes=changes,
                              initial=initial)
        )
    return results

"""Structural diffing and downstream re-resolution.

``diff`` compares two catalogs at control/part granularity: it is empty
exactly when the catalogs are structurally equal (uri aside). ``propagate``
re-resolves every profile that transitively depends on a changed document
and reports each fresh resolution together with its delta against the
previously persisted one under ``<store>/resolved/``. The previous file is
read as the store reads a document (``resolver.read_regular``): through
one descriptor opened without waiting, so a missing file, a named pipe or
anything else that is not a regular file is no previous output. That
delta compares the previous file with the fresh output's own blocks
(``catalog_blocks``) through ``serialize.changed_blocks``, which reads
only the controls whose canonical text changed, in place; ``diff`` then
compares those alone. Within one ``propagate`` call, a control's own block
shared by several outputs (also one rebuilt with other children) is
emitted once, and a scalar's text (long prose per indent) is decided once.
"""

from __future__ import annotations

import os
from dataclasses import field
from functools import cached_property

from .errors import GuidanceError, SchemaError, StoreError
from .model import (
    ERROR,
    Catalog,
    Control,
    DocumentEnvelope,
    Finding,
    _Record,
    has_errors,
    iter_controls,
    validate_catalog,
)
from .resolver import (
    RESOLVED_DIR,
    ResolvedCatalog,
    SourceStore,
    _has_link,
    import_sources,
    read_regular,
    resolve_in_store,
    topological_order,
)
from .serialize import (
    catalog_blocks,
    changed_blocks,
    parse_document,
    serialize_document,
    split_name,
)

CONTROL_ADDED = "control-added"
CONTROL_REMOVED = "control-removed"
PART_ADDED = "part-added"
PART_REMOVED = "part-removed"
PART_MODIFIED = "part-modified"
METADATA_MODIFIED = "metadata-modified"


class ChangeEntry(_Record):
    """One change: a control or part added or removed, a part or metadata field modified."""

    kind: str
    control_id: str | None = None
    part_name: str | None = None
    before_prose: str | None = None
    after_prose: str | None = None

    def __init__(self, kind: str, control_id: str | None = None, part_name: str | None = None,
                 before_prose: str | None = None, after_prose: str | None = None) -> None:
        fields = self.__dict__
        fields["kind"] = kind
        fields["control_id"] = control_id
        fields["part_name"] = part_name
        fields["before_prose"] = before_prose
        fields["after_prose"] = after_prose


class ChangeSet(_Record):
    """The changes between two catalogs, in ``diff`` order."""

    entries: tuple[ChangeEntry, ...]

    def __init__(self, entries: tuple[ChangeEntry, ...]) -> None:
        self.__dict__["entries"] = entries

    @property
    def is_empty(self) -> bool:
        return not self.entries


def _flatten(catalog: Catalog) -> dict[str, tuple[Control, str | None, int]]:
    """Each control by id, in document order, with its parent's id and sibling index."""
    nodes: dict[str, tuple[Control, str | None, int]] = {}

    def walk(control: Control, parent: str | None, index: int) -> None:
        nodes[control.id] = (control, parent, index)
        for child_index, child in enumerate(control.children):
            walk(child, control.id, child_index)

    for top_index, control in enumerate(catalog.controls):
        walk(control, None, top_index)
    return nodes


def diff(before: Catalog, after: Catalog) -> ChangeSet:
    """Structural delta between two catalogs.

    Entries follow document position in the ``after`` catalog; removals are
    interleaved at their ``before`` position. A control whose classifier or
    tree position changed is reported as a remove/add pair; a part counts
    as modified when its prose, classifier, or position changed.
    """
    keyed: list[tuple[float, float, ChangeEntry]] = []  # sorted stably, so ties keep this order
    for name in ("title", "version"):
        old = getattr(before.metadata, name)
        new = getattr(after.metadata, name)
        if old != new:
            keyed.append((-1.0, 0.0, ChangeEntry(METADATA_MODIFIED, part_name=name,
                                                 before_prose=old, after_prose=new)))

    bnodes = _flatten(before)
    anodes = _flatten(after)

    surviving = 0
    for cid in bnodes:
        if cid in anodes:
            surviving += 1
        else:
            keyed.append((surviving - 0.5, 0.0, ChangeEntry(CONTROL_REMOVED, control_id=cid)))

    for key, (cid, (acontrol, aparent, aindex)) in enumerate(anodes.items()):
        if cid not in bnodes:
            keyed.append((key, -1.0, ChangeEntry(CONTROL_ADDED, control_id=cid)))
            continue
        bcontrol, bparent, bindex = bnodes[cid]
        if (bcontrol.classifier, bparent, bindex) != (acontrol.classifier, aparent, aindex):
            keyed.append((key, -2.0, ChangeEntry(CONTROL_REMOVED, control_id=cid)))
            keyed.append((key, -1.0, ChangeEntry(CONTROL_ADDED, control_id=cid)))
            continue
        _diff_parts(bcontrol, acontrol, key, keyed)

    keyed.sort(key=lambda item: (item[0], item[1]))
    return ChangeSet(tuple(entry for _, _, entry in keyed))


def _diff_parts(before: Control, after: Control, control_key: float,
                keyed: list[tuple[float, float, ChangeEntry]]) -> None:
    if before.parts is after.parts:
        return
    bparts = {p.name: (i, p) for i, p in enumerate(before.parts)}
    aparts = {p.name: (i, p) for i, p in enumerate(after.parts)}

    surviving = 0
    for part in before.parts:
        if part.name in aparts:
            surviving += 1
        else:
            keyed.append((control_key, surviving - 0.5,
                          ChangeEntry(PART_REMOVED, control_id=after.id, part_name=part.name,
                                      before_prose=part.prose)))

    for index, part in enumerate(after.parts):
        if part.name not in bparts:
            keyed.append((control_key, index,
                          ChangeEntry(PART_ADDED, control_id=after.id, part_name=part.name,
                                      after_prose=part.prose)))
            continue
        bindex, bpart = bparts[part.name]
        if bpart.prose != part.prose or bpart.classifier != part.classifier or bindex != index:
            keyed.append((control_key, index,
                          ChangeEntry(PART_MODIFIED, control_id=after.id, part_name=part.name,
                                      before_prose=bpart.prose, after_prose=part.prose)))


def entry_plain(entry: ChangeEntry) -> dict:
    plain = {"kind": entry.kind, "control-id": entry.control_id, "part-name": entry.part_name,
             "before-prose": entry.before_prose, "after-prose": entry.after_prose}
    return {key: value for key, value in plain.items() if value is not None}


class _Fresh:
    """The default of a field made anew for each instance, shown as ``dataclass`` shows one."""

    def __repr__(self) -> str:
        return "<factory>"


_FRESH = _Fresh()


class DependencyGraph(_Record):
    """Import relationships across a store: edges run importer -> source."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    findings: tuple[Finding, ...] = ()
    profiles: tuple[str, ...] = ()  # the listed documents that are profiles
    unreadable: dict[str, GuidanceError] = field(default_factory=dict)  # uri -> parse error

    def __init__(self, nodes: tuple[str, ...], edges: tuple[tuple[str, str], ...],
                 findings: tuple[Finding, ...] = (), profiles: tuple[str, ...] = (),
                 unreadable: dict[str, GuidanceError] = _FRESH) -> None:
        fields = self.__dict__
        fields["nodes"] = nodes
        fields["edges"] = edges
        fields["findings"] = findings
        fields["profiles"] = profiles
        fields["unreadable"] = {} if unreadable is _FRESH else unreadable

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
    edges += [(output, uri) for uri in profiles if (output := resolution_output_uri(uri)) in known]
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
    return f"{RESOLVED_DIR}/{split_name(profile_uri)[0]}.yaml"


def _write_atomic(path: str, data: bytes) -> None:
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


def _delta(previous: bytes, after: Catalog, *, memo: dict | None = None) -> ChangeSet:
    """``diff`` from the catalog ``previous`` holds to ``after``, reading only changed own blocks.

    ``after`` is valid, as every resolution is; ``catalog_blocks`` gives its
    header and own blocks, read back from ``memo`` when ``serialize_document``
    just emitted it with that memo. When ``changed_blocks`` reads each block
    of ``previous`` that differs, each as the control of the same id with no
    error, ``previous`` is ``after`` with those controls' own fields, and
    ``diff`` over them alone gives the delta. Otherwise ``previous`` is
    parsed whole.
    """
    header, blocks = catalog_blocks(after, memo)
    try:
        changed = changed_blocks(previous.decode("utf-8"), header, blocks)
    except UnicodeDecodeError:
        changed = None
    if changed is not None:
        fresh = list(iter_controls(after.controls))
        before = Catalog(after.metadata, tuple(control for _, control in changed))
        if (all(control.id == fresh[index].id for index, control in changed)
                and not has_errors(validate_catalog(before))):
            return diff(before, Catalog(after.metadata, tuple(
                Control(c.id, c.classifier, c.parts) for c in (fresh[i] for i, _ in changed))))
    envelope = parse_document(previous, "yaml")
    if envelope.kind != "catalog":
        raise SchemaError("expected a catalog document")
    return diff(envelope.body, after)


class PropagationResult(_Record):
    """One re-resolved profile: its fresh resolution and delta, or the error that failed it."""

    profile_uri: str
    output_uri: str
    resolved: ResolvedCatalog | None = None
    changes: ChangeSet | None = None
    initial: bool = False
    error: GuidanceError | None = None

    def __init__(self, profile_uri: str, output_uri: str, resolved: ResolvedCatalog | None = None,
                 changes: ChangeSet | None = None, initial: bool = False,
                 error: GuidanceError | None = None) -> None:
        fields = self.__dict__
        fields["profile_uri"] = profile_uri
        fields["output_uri"] = output_uri
        fields["resolved"] = resolved
        fields["changes"] = changes
        fields["initial"] = initial
        fields["error"] = error


def propagate(store: SourceStore, changed_uri: str, *,
              lenient: bool = False) -> list[PropagationResult]:
    """Re-resolve every profile downstream of ``changed_uri``, in topological order.

    Each fresh resolution is diffed against the previously persisted one
    (``initial`` marks a first resolution) and, when the bytes differ,
    persisted atomically with the mode the umask gives a new file. Each
    profile resolves through ``resolve_in_store`` with one memo for the run,
    so a failing profile is reported in place with the error
    ``resolve_chain`` gives, and so is one whose output path another profile
    shares or whose previous output does not parse (that error's ``source``
    is the output's uri); the rest still run. An import cycle upstream of a
    re-resolved profile raises ``CycleDetected``; one elsewhere does not
    matter. A ``changed_uri`` that does not load raises as ``SourceStore.load`` does.

    The outputs are written in topological order after the last resolution,
    when no resolution of the run can read one: the graph has no finding
    (an import of a missing file, which the run may write), no node under
    ``resolved/`` and no node whose path passes a symbolic link. Otherwise
    each output is written before the next profile resolves. An exception
    that escapes still writes the outputs computed before it; a failed write
    leaves its file and the later ones as they were, and raises.
    """
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
    root = os.fspath(store.root)
    # A resolution of this run can read an output (``resolved/<stem>.yaml``)
    # only through a node under ``resolved/``, a node whose path passes a link,
    # or an import of a missing file, which the run may write.
    plain = not graph.findings and not any(
        uri.startswith(f"{RESOLVED_DIR}/") or _has_link(root, uri) for uri in graph.nodes)

    results: list[PropagationResult] = []
    memo: dict[str, ResolvedCatalog] = {}
    emitted: dict = {}  # each own block and scalar text emitted in this run (catalog_blocks)
    pending: list[tuple[str, str, bytes]] = []  # (path, uri, bytes) of each output to write
    try:
        for uri in order:
            if uri not in affected or uri not in outputs:
                continue
            output_uri = outputs[uri]
            others = [writer for writer in writers[output_uri] if writer != uri]
            if others:
                error = StoreError(f"output {output_uri} is also the output of {', '.join(others)}")
                results.append(PropagationResult(uri, output_uri, error=error))
                continue
            if not plain:
                _commit(store, pending)
            try:
                resolved = resolve_in_store(store, uri, lenient=lenient, memo=memo)
                data = serialize_document(DocumentEnvelope("catalog", resolved.catalog), "yaml",
                                          memo=emitted)
                path = os.path.join(root, output_uri)
                read = read_regular(path)
                previous = None if read is None else read[0]
                changes = ChangeSet(())
                if previous != data:
                    if previous is not None:
                        try:
                            changes = _delta(previous, resolved.catalog, memo=emitted)
                        except GuidanceError as error:  # the previous output does not parse
                            error.source = output_uri
                            raise
                    pending.append((path, output_uri, data))
            except GuidanceError as error:
                results.append(PropagationResult(uri, output_uri, error=error))
                continue
            results.append(
                PropagationResult(uri, output_uri, resolved=resolved, changes=changes,
                                  initial=previous is None)
            )
    finally:
        _commit(store, pending)
    return results


def _commit(store: SourceStore, pending: list[tuple[str, str, bytes]]) -> None:
    """Write each pending output in order and empty ``pending``; a failure drops the rest."""
    try:
        for path, output_uri, data in pending:
            _write_atomic(path, data)
            store.evict(output_uri)  # a same-size rewrite can keep its fingerprint
    finally:
        pending.clear()

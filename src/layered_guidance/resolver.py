"""Profile resolution: import selection, alterations, chaining, cycle detection.

``resolve`` maps source catalogs plus a profile to a resolved catalog.
``resolve_in_store`` resolves a store document whose imports may name
other profiles, so guidance layers compose: each layer inherits, extends,
and selectively replaces the layer below it.

Every resolved part carries provenance: the uri of the layer that
contributed it and that layer's depth (0 for source catalogs, k for the
k-th profile applied).

Selection and alteration have one implementation. Strict resolution raises
at the first failure; ``validate_profile`` runs the same code with a report
that records each failure as a path-addressed finding and goes on, so a
report without errors means strict resolution succeeds by construction.
"""

from __future__ import annotations

import os
import posixpath
import threading
from collections.abc import Callable, Container, Iterable, Mapping, Sequence
from copy import copy
from dataclasses import replace
from functools import cached_property
from pathlib import Path
from stat import S_ISLNK, S_ISREG

from .errors import (
    CycleDetected,
    DuplicateControlId,
    DuplicatePartName,
    GuidanceError,
    InvalidUri,
    NotFound,
    RemovalMatchedNothing,
    ResolutionError,
    StatementNotFirst,
    UnknownControlId,
    ValidationError,
)
from .model import (
    ERROR,
    Alteration,
    Catalog,
    Control,
    DocumentEnvelope,
    Finding,
    ImportDirective,
    Profile,
    STATEMENT_PART,
    ValidationReport,
    WARNING,
    _Record,
    has_errors,
    iter_controls,
)
from .serialize import format_of, parse_document, split_name

_DOCUMENT_SUFFIXES = (".yaml", ".yml", ".json")
RESOLVED_DIR = "resolved"
# The store uri a path spells: ``./x.yaml`` and ``sub/../x.yaml`` are ``x.yaml``.
normalize_uri = posixpath.normpath


def _is_document_name(name: str) -> bool:
    """Whether the suffix of the file name ``name`` is a document suffix (``split_name``)."""
    return split_name(name)[1] in _DOCUMENT_SUFFIXES


class ProvenanceEntry(_Record):
    """Which layer contributed a part, and how deep that layer sits."""

    origin_uri: str
    layer_depth: int

    def __init__(self, origin_uri: str, layer_depth: int) -> None:
        fields = self.__dict__
        fields["origin_uri"] = origin_uri
        fields["layer_depth"] = layer_depth


class ResolvedCatalog(_Record):
    """A catalog plus the record of where each part came from.

    ``lineage`` lists the documents the resolution passed through, outermost
    last; ``depth`` counts the profiles applied. ``provenance`` maps
    ``(control-id, part-name)`` to the contributing layer. ``warnings`` pairs
    each lineage profile's lenient warnings with its uri, in lineage order.
    """

    catalog: Catalog
    provenance: Mapping[tuple[str, str], ProvenanceEntry]
    lineage: tuple[str, ...]
    depth: int
    warnings: tuple[tuple[str, Finding], ...] = ()

    def __init__(self, catalog: Catalog, provenance: Mapping[tuple[str, str], ProvenanceEntry],
                 lineage: tuple[str, ...], depth: int,
                 warnings: tuple[tuple[str, Finding], ...] = ()) -> None:
        fields = self.__dict__
        fields["catalog"] = catalog
        fields["provenance"] = provenance
        fields["lineage"] = lineage
        fields["depth"] = depth
        fields["warnings"] = warnings


def wrap_catalog(catalog: Catalog) -> ResolvedCatalog:
    """A plain catalog as a depth-0 resolution of itself, each part stamped with its uri."""
    entry = ProvenanceEntry(catalog.uri, 0)
    provenance = {(control.id, part.name): entry
                  for control in iter_controls(catalog.controls) for part in control.parts}
    return replace(_layer(catalog), provenance=provenance)


def _layer(source: Catalog | ResolvedCatalog) -> ResolvedCatalog:
    """``source`` as a layer to resolve against; a plain catalog is depth 0.

    A plain catalog's parts get no provenance here: ``_resolve`` stamps each
    part it selects with the source's name.
    """
    if isinstance(source, ResolvedCatalog):
        return source
    return ResolvedCatalog(source, {}, (source.uri,) if source.uri else (), 0)


class _Report:
    """Where resolution failures go: raised, or recorded in ``findings`` as resolution goes on.

    A raising report (``findings is None``) with ``lenient`` set appends a
    removal that matches nothing to ``warnings`` instead of raising.
    """

    def __init__(self, findings: list[Finding] | None = None, *, lenient: bool = False,
                 warnings: list[Finding] | None = None) -> None:
        self.findings = findings
        self.lenient = lenient
        self.warnings = warnings

    def fail(self, error: GuidanceError, path: str, message: str) -> None:
        if self.findings is None:
            raise error
        self.findings.append(Finding(ERROR, path, message))


def apply_alteration(control: Control, alteration: Alteration, *, lenient: bool = False,
                     warnings: list[Finding] | None = None) -> Control:
    """Apply one alteration: all removes first, then adds appended at the end.

    Strict mode raises ``RemovalMatchedNothing`` when a selector matches no
    part; lenient mode records a warning instead.
    """
    return _alter(control, alteration, _Report(lenient=lenient, warnings=warnings))


def _alter(control: Control, alteration: Alteration, report: _Report) -> Control:
    if alteration.control_id != control.id:
        raise ResolutionError(
            f"alteration targets {alteration.control_id!r}, control is {control.id!r}"
        )
    path = f"alterations/{control.id}"
    parts = list(control.parts)
    for rindex, remove in enumerate(alteration.removes):
        kept = [p for p in parts if not remove.matches(p)]
        if len(kept) == len(parts):
            kind, value = remove.describe()
            message = f"removal matched nothing ({kind} {value!r})"
            if not report.lenient:
                report.fail(RemovalMatchedNothing(control.id, kind, value),
                            f"{path}/removes/{rindex}", message)
            elif report.warnings is not None:
                report.warnings.append(Finding(WARNING, path, message))
        parts = kept
    for aindex, add in enumerate(alteration.adds):
        for part in add.parts:
            if any(existing.name == part.name for existing in parts):
                report.fail(DuplicatePartName(control.id, part.name), f"{path}/adds/{aindex}",
                            f"duplicate part name {part.name!r}")
            else:
                parts.append(part)
    for index, part in enumerate(parts):
        if part.name == STATEMENT_PART and index != 0:
            report.fail(StatementNotFirst(control.id), path, "statement must be first")
    return Control(control.id, control.classifier, tuple(parts), control.children)


def _select(catalog: Catalog, directive: ImportDirective, report: _Report,
            path: str) -> list[str]:
    """Import selection: the ids of the controls one import selects, in document order.

    A selected control brings its whole subtree, minus excluded controls and
    their subtrees. An include id matches a control reached without passing
    an excluded or an already selected one, so one inside a selected subtree
    matches nothing. A collecting report gets a warning for each include or
    exclude id that matches nothing.
    """
    exclude = set(directive.exclude)
    if directive.include_all:
        wanted = {top.id for top in catalog.controls}
    else:
        wanted = set(directive.include_ids)
    selected: list[str] = []
    matched: set[str] = set()

    def walk(control: Control, taken: bool) -> None:
        if control.id in exclude:
            return
        if not taken and control.id in wanted:
            matched.add(control.id)
            taken = True
        if taken:
            selected.append(control.id)
        for child in control.children:
            walk(child, taken)

    for top in catalog.controls:
        walk(top, False)
    if report.findings is None:
        return selected
    for cid in directive.include_ids:
        if cid not in matched:
            report.findings.append(Finding(WARNING, path, f"include id {cid!r} matched nothing"))
    present = {c.id for c in iter_controls(catalog.controls)}
    for cid in directive.exclude:
        if cid not in present:
            report.findings.append(Finding(WARNING, path, f"exclude id {cid!r} matched nothing"))
    return selected


def _take_whole(source: ResolvedCatalog, stamp: ProvenanceEntry, selected: dict[str, Control],
                parents: dict[str, str | None],
                provenance: dict[tuple[str, str], ProvenanceEntry]) -> bool:
    """Select all of ``source`` as it stands, in one walk; False if an id repeats.

    Fills the empty ``selected`` and ``parents`` with each control of the
    source's forest and its parent's id, and stamps each part as the
    selecting path does. On a repeated id, which only a catalog built in
    memory without validation can hold, the three maps are emptied again,
    so the selecting path can report the repeat.
    """
    prior = source.provenance.get

    def walk(controls: Sequence[Control], parent: str | None) -> bool:
        for control in controls:
            cid = control.id
            if cid in selected:
                return False
            selected[cid] = control
            parents[cid] = parent
            for part in control.parts:
                key = (cid, part.name)
                provenance[key] = prior(key) or stamp
            if control.children and not walk(control.children, cid):
                return False
        return True

    if walk(source.catalog.controls, None):
        return True
    selected.clear()
    parents.clear()
    provenance.clear()
    return False


def _swap_in(forest: Sequence[Control], altered: Mapping[str, Control],
             parents: Mapping[str, str | None]) -> tuple[Control, ...]:
    """``forest`` with each altered control swapped in; only their ancestors are rebuilt.

    ``parents`` maps the id of each control in ``forest`` to its parent's,
    None for a root. An alteration changes parts only, so a control with no
    altered descendant keeps its children as they are.
    """
    above: set[str] = set()  # the ids of the controls with an altered descendant
    for cid in altered:
        parent = parents[cid]
        while parent is not None and parent not in above:
            above.add(parent)
            parent = parents[parent]
    touched = above.union(altered)

    def swapped(control: Control) -> Control:
        control = altered.get(control.id, control)
        if control.id not in above:
            return control
        return Control(control.id, control.classifier, control.parts,
                       tuple([swapped(child) if child.id in touched else child
                              for child in control.children]))

    return tuple([swapped(root) if root.id in touched else root for root in forest])


def resolve(sources: Sequence[Catalog | ResolvedCatalog], profile: Profile, *,
            lenient: bool = False) -> ResolvedCatalog:
    """Resolve a profile against its source catalogs.

    An import pairs with the source whose uri it names. The imports that
    name no source pair, in order, with the sources whose uri no import
    names, when there are as many of each. A source is named by its uri, or
    by its import's ``source`` when it has none. Sources that are themselves
    resolved catalogs keep their upstream provenance; a plain catalog's
    parts are stamped with the source's name at depth 0, and parts added
    here with this profile's uri at the next layer depth.
    """
    return _resolve(sources, profile, _Report(lenient=lenient, warnings=[]))


def validate_profile(profile: Profile,
                     resolved_sources: Sequence[Catalog | ResolvedCatalog]) -> ValidationReport:
    """Preflight a profile against its already-resolved sources.

    This is ``resolve`` with a report that collects findings instead of
    raising, so an error-free report means strict resolution succeeds, and
    each error finding is a failure strict resolution would raise. Sources
    are the layers ``resolve`` takes, such as those ``resolve_in_store``
    gives, and pair with imports and are named as ``resolve`` says.
    """
    findings: ValidationReport = []
    _resolve(resolved_sources, profile, _Report(findings))
    return findings


def _resolve(sources: Sequence[Catalog | ResolvedCatalog], profile: Profile,
             report: _Report) -> ResolvedCatalog | None:
    """Select, alter and stamp provenance; only the altered controls' paths are rebuilt.

    Each source becomes a layer and is paired and named here, as ``resolve``
    says, and a part of a plain catalog is stamped only when it is selected,
    with the one ``ProvenanceEntry`` made for that source.
    The imports of one source select the union of the ids each selects,
    and one pre-order walk of its forest takes them where the first stands:
    selected controls under no selected parent are roots in document order,
    each recorded with its selected subtree before the next, so a repeated
    id is reported where it repeats. A control keeps its object unless a
    child was dropped or rebuilt. A source whose one import includes all
    and excludes nothing, and which is the first to select anything, gives
    its forest as it is (``_take_whole``). Only a raising report gets the
    resolved catalog back.
    """
    structural = profile.structure_findings
    if report.findings is not None:
        report.findings.extend(structural)
    elif has_errors(structural):
        raise ValidationError(structural)

    sources = [_layer(source) for source in sources]
    by_uri = {normalize_uri(rs.catalog.uri): rs for rs in sources if rs.catalog.uri}
    paired = [by_uri.get(normalize_uri(directive.source)) for directive in profile.imports]
    named = {normalize_uri(directive.source) for directive in profile.imports}
    spare = [rs for rs in sources
             if not rs.catalog.uri or normalize_uri(rs.catalog.uri) not in named]
    unpaired = [index for index, source in enumerate(paired) if source is None]
    if unpaired and len(unpaired) != len(spare):
        for index in unpaired:
            message = f"no source supplied for import {profile.imports[index].source!r}"
            report.fail(ResolutionError(message), f"imports/{index}", message)
        return None
    for index, source in zip(unpaired, spare):
        paired[index] = source

    profile_uri = profile.uri or "<profile>"
    depth = max((rs.depth for rs in paired), default=0) + 1
    provenance: dict[tuple[str, str], ProvenanceEntry] = {}
    selected: dict[str, Control] = {}
    parents: dict[str, str | None] = {}  # control id -> its parent's id in the selection
    origins: dict[str, str] = {}  # control id -> the name of its source, for messages
    whole = ""  # the name of the source taken whole, the origin of the ids not in origins
    forest: list[Control] = []
    imports_of: dict[int, list[int]] = {}  # each source, by identity -> indexes of its imports
    for index, source in enumerate(paired):
        imports_of.setdefault(id(source), []).append(index)
    for indexes in imports_of.values():
        source = paired[indexes[0]]
        directive = profile.imports[indexes[0]]
        source_uri = source.catalog.uri or directive.source
        stamp = ProvenanceEntry(source_uri, 0)  # for each part of a plain catalog
        if (not selected and len(indexes) == 1 and directive.include_all
                and not directive.exclude
                and _take_whole(source, stamp, selected, parents, provenance)):
            whole = source_uri
            forest.extend(source.catalog.controls)
            continue
        paths: dict[str, str] = {}  # control id -> the first of these imports that selects it
        for index in indexes:
            path = f"imports/{index}"
            for cid in _select(source.catalog, profile.imports[index], report, path):
                paths.setdefault(cid, path)
        prior = source.provenance.get

        def take(control: Control, parent: str | None, below: list[Control]) -> Control:
            """Record ``control`` and its selected subtree in pre-order; return it pruned.

            Its unselected children go to ``below``, searched for roots after it.
            """
            cid = control.id
            first = cid not in selected
            if first:
                selected[cid] = control
                parents[cid] = parent
                origins[cid] = source_uri
                for part in control.parts:
                    key = (cid, part.name)
                    provenance[key] = prior(key) or stamp
            else:
                report.fail(
                    DuplicateControlId(cid, f"supplied by both {origins.get(cid, whole)!r} "
                                            f"and {source_uri!r}"),
                    paths[cid], f"duplicate control id {cid!r} in selection")
            children = control.children
            kept = []
            for child in children:
                if child.id in paths:
                    kept.append(take(child, cid, below))
                else:
                    below.append(child)
            kept = tuple(kept)
            if kept == children:  # nothing dropped below, so every child is kept as it is
                return control
            control = Control(cid, control.classifier, control.parts, kept)
            if first:
                selected[cid] = control
            return control

        def search(controls: Sequence[Control]) -> None:
            """Take each selected control under no selected parent as a root, in document order."""
            for control in controls:
                if control.id in paths:
                    below: list[Control] = []
                    forest.append(take(control, None, below))
                    search(below)
                elif control.children:
                    search(control.children)

        search(source.catalog.controls)

    altered: dict[str, Control] = {}
    for alteration in profile.alterations:
        cid = alteration.control_id
        target = selected.get(cid)
        if target is None:
            report.fail(UnknownControlId(cid, f"profile {profile.uri or 'in memory'}"),
                        f"alterations/{cid}", f"unknown control id {cid!r}")
            continue
        if report.findings is None:  # the public name, so a wrapper installed on it sees each call
            result = apply_alteration(target, alteration, lenient=report.lenient,
                                      warnings=report.warnings)
        else:
            result = _alter(target, alteration, report)
        altered[cid] = result
        kept = {part.name for part in result.parts}
        for part in target.parts:
            if part.name not in kept:
                provenance.pop((cid, part.name), None)
        for add in alteration.adds:
            for part in add.parts:
                provenance[(cid, part.name)] = ProvenanceEntry(profile_uri, depth)

    if report.findings is not None:
        return None
    lineage: dict[str, None] = {}  # each document's warnings come from the first source with it
    warnings: list[tuple[str, Finding]] = []
    for source in paired:
        warnings += [warning for warning in source.warnings if warning[0] not in lineage]
        lineage.update(dict.fromkeys(source.lineage))
    warnings += [(profile_uri, finding) for finding in report.warnings]
    controls = _swap_in(forest, altered, parents) if altered else forest
    catalog = Catalog(metadata=profile.metadata, controls=controls, uri=profile.uri)
    return ResolvedCatalog(catalog=catalog, provenance=provenance, lineage=(*lineage, profile_uri),
                           depth=depth, warnings=tuple(warnings))


def read_regular(path: str) -> tuple[bytes, os.stat_result] | None:
    """The bytes and status of the regular file at ``path``; None where there is none.

    The file is read through one descriptor, opened without waiting, so a
    named pipe there is not read; that descriptor's ``fstat`` tells whether
    the file is regular. A missing path or one that is no regular file gives
    None. A regular file that cannot be opened or read raises its ``OSError``.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except FileNotFoundError:
        return None
    except OSError:  # a regular file that cannot be opened fails; anything else is absent
        if os.path.isfile(path):
            raise
        return None
    try:
        status = os.fstat(fd)
        if not S_ISREG(status.st_mode):
            return None
        chunks = []
        while chunk := os.read(fd, max(status.st_size, 1 << 16)):
            chunks.append(chunk)
        return b"".join(chunks), status
    finally:
        os.close(fd)


def _stamp(status: os.stat_result) -> tuple[int, int, int, int]:
    """A regular file as its modification and change times, size and inode.

    The change time moves on each write and each ``utime``, so a same-size
    rewrite whose modification time was put back (``cp -p``, ``rsync -t``)
    is seen.
    """
    return (status.st_mtime_ns, status.st_ctime_ns, status.st_size, status.st_ino)


def _fingerprint(path: str) -> tuple[int, int, int, int] | None:
    """The ``_stamp`` of the regular file at ``path``; None for anything else."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return _stamp(status) if S_ISREG(status.st_mode) else None


def _has_link(root: str, relative: str) -> bool:
    """Whether a component of ``relative`` below ``root`` is a symbolic link.

    The walk stops at the first component that cannot be lstat'ed: nothing
    below it exists, so no link does.
    """
    path = root
    for name in relative.split("/"):
        path = os.path.join(path, name)
        try:
            if S_ISLNK(os.lstat(path).st_mode):
                return True
        except OSError:
            return False
    return False


def _raised(error: GuidanceError, uri: str) -> GuidanceError:
    """A copy of ``error`` (``GuidanceError.__reduce__``); its ``source`` is ``uri`` unless set."""
    raised = copy(error)
    if raised.source is None:
        raised.source = uri
    return raised


class SourceStore:
    """A directory of guidance documents addressed by relative path.

    The root is made absolute once (``os.path.abspath``) and is not
    resolved, so a root that is itself a symbolic link is followed at each
    read. A root with a ``..`` component is resolved once
    (``os.path.realpath``), so that ``..`` after a link leads out of the
    link's target, as the system reads such a path. A normalized uri names
    the file at that path below the root. A uri that leaves the root, or
    whose path passes a symbolic link that leads out of the root's real
    path, is an ``InvalidUri``. Only a path through a link is resolved in
    full, together with the root; the others cost one lstat per component.

    Every spelling of a path names one document, cached under its normalized
    path, its ``uri``, and parsed again once the file's modification or
    change time, size or inode changes or ``evict`` drops it. Each parse
    reads the file through one descriptor (``read_regular``), whose
    ``fstat`` is the fingerprint; a named pipe there is not read. A parse
    that fails is cached the same way: until then each load raises an equal
    error, of the same class, message and ``source``, without reading the
    file. Concurrent loads of the same uri parse at most once.
    """

    def __init__(self, root: str | Path) -> None:
        root = os.fspath(root)
        # ".." after a link leads out of the link's target, as the system reads it
        self._root = os.path.realpath(root) if ".." in root.split("/") else os.path.abspath(root)
        self._prefix = os.path.join(self._root, "")
        # normalized uri -> (path, fingerprint, envelope or parse error)
        self._cache: dict[str, tuple[str, tuple[int, ...], DocumentEnvelope | GuidanceError]] = {}
        self._lock = threading.Lock()
        self.load_count = 0  # loads that actually parsed the file

    @cached_property
    def root(self) -> Path:
        """The root directory, made absolute."""
        return Path(self._root)

    def _resolve_path(self, uri: str) -> str:
        normalized = normalize_uri(uri)
        if normalized.startswith(("/", "../")) or normalized == "..":
            raise InvalidUri(uri, "escapes the store root")
        path = self._prefix + normalized
        if _has_link(self._root, normalized):
            path = os.path.realpath(path)
            real_root = os.path.realpath(self._root)
            if path != real_root and not path.startswith(os.path.join(real_root, "")):
                raise InvalidUri(uri, "escapes the store root")
        return path

    def exists(self, uri: str) -> bool:
        """Whether ``uri`` names a file inside the store; a link out or an escape is not one."""
        try:
            return os.path.isfile(self._resolve_path(uri))
        except InvalidUri:
            return False

    def load(self, uri: str) -> DocumentEnvelope:
        key = normalize_uri(uri)
        with self._lock:
            cached = self._cache.get(key)
            if cached is None or _fingerprint(cached[0]) != cached[1]:
                path = self._resolve_path(uri)
                read = read_regular(path)
                if read is None:
                    raise NotFound(uri)
                data, status = read
                try:
                    envelope = parse_document(data, format_of(path), key)
                except GuidanceError as exc:
                    cached = self._cache[key] = (path, _stamp(status), exc.with_traceback(None))
                else:
                    cached = self._cache[key] = (path, _stamp(status), envelope)
                    self.load_count += 1
            result = cached[2]
            if isinstance(result, GuidanceError):
                # A new error per load, so no traceback grows on the cached one.
                raise _raised(result, uri) from result.__cause__
            return result

    def evict(self, uri: str) -> None:
        """Forget ``uri``'s cached parse, so its next load reads the file again."""
        with self._lock:
            self._cache.pop(normalize_uri(uri), None)

    def list_documents(self) -> list[str]:
        """All document uris under the root, sorted.

        One walk from the root lists each regular file whose suffix is
        ``.yaml``, ``.yml`` or ``.json``. It does not enter the top-level
        ``resolved/`` of build outputs, a link to a directory, or a
        directory it may not read. A link to a file inside the store is a
        document under its own name; a link out of the store or to nothing
        is not listed.
        """
        uris: list[str] = []
        pending = [(self._root, "")]
        while pending:
            directory, prefix = pending.pop()
            try:
                with os.scandir(directory) as scan:
                    entries = list(scan)
            except OSError:
                continue
            for entry in entries:
                uri = prefix + entry.name
                if entry.is_dir(follow_symlinks=False):
                    if uri != RESOLVED_DIR:
                        pending.append((entry.path, f"{uri}/"))
                elif _is_document_name(entry.name) and (
                        entry.is_file(follow_symlinks=False)
                        or entry.is_symlink() and self.exists(uri)):
                    uris.append(uri)
        return sorted(uris)


def topological_order(roots: Iterable[str],
                      sources_of: Callable[[str], Iterable[str]]) -> list[str]:
    """Dependencies-first order of every uri reachable from ``roots``.

    ``sources_of`` names the uris one uri imports. Raises ``CycleDetected``
    with a witnessing uri path on cyclic imports.
    """
    order: list[str] = []
    done: set[str] = set()
    stack: list[str] = []

    def visit(uri: str) -> None:
        if uri in done:
            return
        if uri in stack:
            raise CycleDetected(stack[stack.index(uri):] + [uri])
        stack.append(uri)
        for source in sources_of(uri):
            visit(source)
        stack.pop()
        done.add(uri)
        order.append(uri)

    for root in roots:
        visit(root)
    return order


def import_sources(envelope: DocumentEnvelope) -> list[str]:
    """The store uris a document imports, in import order; a catalog imports none."""
    if envelope.kind != "profile":
        return []
    return [normalize_uri(directive.source) for directive in envelope.body.imports]


def detect_cycles(store: SourceStore, root_uri: str, skip: Container[str] = (),
                  loaded: dict[str, DocumentEnvelope] | None = None) -> list[str]:
    """Topological order (dependencies first) of the import closure of one document.

    The walk does not enter the uris in ``skip``, and puts each document it
    loads into ``loaded``. Raises ``CycleDetected`` with a witnessing uri
    path on cyclic imports.
    """
    loaded = {} if loaded is None else loaded

    def sources_of(uri: str) -> list[str]:
        envelope = loaded[uri] = store.load(uri)
        return [source for source in import_sources(envelope) if source not in skip]

    return topological_order([normalize_uri(root_uri)], sources_of)


def resolve_chain(store: SourceStore, profile_uri: str, *,
                  lenient: bool = False) -> ResolvedCatalog:
    """Resolve a store profile whose imports may name other profiles; a catalog is an error.

    Its ``warnings`` hold the lenient warnings of every profile in its lineage.
    """
    resolved = resolve_in_store(store, profile_uri, lenient=lenient, memo={})
    if resolved.depth == 0:
        raise ResolutionError(f"{resolved.catalog.uri!r} is a catalog, not a profile")
    return resolved


def resolve_in_store(store: SourceStore, uri: str, *, lenient: bool = False,
                     memo: dict[str, ResolvedCatalog]) -> ResolvedCatalog:
    """The document at ``uri`` resolved; a catalog is a depth-0 layer of itself.

    ``detect_cycles`` first walks the import closure, skipping the uris
    ``memo`` holds, so a cycle or a document that does not load fails before
    anything resolves. Each walked document then resolves once, as the walk
    loaded it, dependencies first, and fails as its first failing import
    does. ``memo``, kept for one store and one ``lenient``, maps uris to
    their resolutions; failures are never memoised.

    A catalog's layer carries no provenance: a profile that selects its parts
    stamps them with the catalog's uri, as ``resolve`` does for any plain
    source.
    """
    uri = normalize_uri(uri)
    if uri not in memo:
        loaded: dict[str, DocumentEnvelope] = {}
        for walked in detect_cycles(store, uri, memo, loaded):
            envelope = loaded[walked]
            memo[walked] = _layer(envelope.body) if envelope.kind == "catalog" else resolve(
                [memo[source] for source in import_sources(envelope)], envelope.body,
                lenient=lenient)
    return memo[uri]

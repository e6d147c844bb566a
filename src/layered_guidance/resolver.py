"""Profile resolution: import selection, alterations, chaining, cycle detection.

``resolve`` maps source catalogs plus a profile to a resolved catalog.
``resolve_chain`` recursively resolves a profile whose imports may name
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

import posixpath
import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

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
    has_errors,
    iter_controls,
    profile_structure_findings,
)
from .serialize import parse_document

_DOCUMENT_SUFFIXES = (".yaml", ".yml", ".json")
RESOLVED_DIR = "resolved"
# The store uri a path spells: ``./x.yaml`` and ``sub/../x.yaml`` are ``x.yaml``.
normalize_uri = posixpath.normpath


@dataclass(frozen=True)
class ProvenanceEntry:
    """Which layer contributed a part, and how deep that layer sits."""

    origin_uri: str
    layer_depth: int


@dataclass(frozen=True)
class ResolvedCatalog:
    """A catalog plus the record of where each part came from.

    ``lineage`` lists the documents the resolution passed through, outermost
    last; ``depth`` counts the profiles applied. ``provenance`` maps
    ``(control-id, part-name)`` to the contributing layer.
    """

    catalog: Catalog
    provenance: Mapping[tuple[str, str], ProvenanceEntry]
    lineage: tuple[str, ...]
    depth: int
    warnings: tuple[Finding, ...] = ()


def wrap_catalog(catalog: Catalog, uri: str = "") -> ResolvedCatalog:
    """Treat a plain catalog as a depth-0 resolution of itself."""
    origin = uri or catalog.uri
    provenance = {
        (control.id, part.name): ProvenanceEntry(origin, 0)
        for control in iter_controls(catalog.controls)
        for part in control.parts
    }
    return ResolvedCatalog(
        catalog=catalog, provenance=provenance, lineage=(origin,) if origin else (),
        depth=0,
    )


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
    return replace(control, parts=tuple(parts))


def _prune(control: Control, exclude: set[str]) -> Control | None:
    if control.id in exclude:
        return None
    children = tuple(c for child in control.children if (c := _prune(child, exclude)) is not None)
    if children == control.children:
        return control
    return replace(control, children=children)


def _select(catalog: Catalog, directive: ImportDirective, report: _Report,
            path: str) -> list[Control]:
    """Import selection: include/exclude applied, document order preserved.

    A selected control brings its whole subtree, minus individually
    excluded descendants. Explicit includes match anywhere in the tree but
    never descend into an already-selected subtree. A collecting report
    gets a warning for each include or exclude id that matches nothing.
    """
    exclude = set(directive.exclude)
    include_all = isinstance(directive.include, str)
    wanted = {top.id for top in catalog.controls} if include_all else set(directive.include)
    selected: list[Control] = []

    def walk(control: Control) -> None:
        if control.id in exclude:
            return
        if control.id in wanted:
            selected.append(_prune(control, exclude))
            return
        for child in control.children:
            walk(child)

    for top in catalog.controls:
        walk(top)
    if report.findings is None:
        return selected
    if not include_all:
        matched = {root.id for root in selected}
        for cid in directive.include:
            if cid not in matched:
                report.findings.append(Finding(WARNING, path, f"include id {cid!r} matched nothing"))
    present = {c.id for c in iter_controls(catalog.controls)}
    for cid in directive.exclude:
        if cid not in present:
            report.findings.append(Finding(WARNING, path, f"exclude id {cid!r} matched nothing"))
    return selected


def _swap_in(control: Control, altered: Mapping[str, Control]) -> Control:
    """``control`` with every altered control in its subtree swapped in."""
    children = tuple(_swap_in(child, altered) for child in control.children)
    control = altered.get(control.id, control)
    if all(new is old for new, old in zip(children, control.children)):
        return control
    return replace(control, children=children)


def resolve(sources: Sequence[Catalog | ResolvedCatalog], profile: Profile, *,
            lenient: bool = False) -> ResolvedCatalog:
    """Resolve a profile against its source catalogs.

    Sources pair with import directives by uri when one matches, otherwise
    positionally. Sources that are themselves resolved catalogs keep their
    upstream provenance; parts added here are stamped with this profile's
    uri at the next layer depth.
    """
    sources = [s if isinstance(s, ResolvedCatalog) else wrap_catalog(s) for s in sources]
    return _resolve(sources, profile, _Report(lenient=lenient, warnings=[]))


def validate_profile(profile: Profile, resolved_sources: Sequence[Catalog]) -> ValidationReport:
    """Preflight a profile against its already-resolved sources.

    This is ``resolve`` with a report that collects findings instead of
    raising, so an error-free report means strict resolution succeeds, and
    each error finding is a failure strict resolution would raise.
    """
    findings: ValidationReport = []
    # Findings need no provenance, so the sources are not wrapped.
    sources = [ResolvedCatalog(source, {}, (), 0) for source in resolved_sources]
    _resolve(sources, profile, _Report(findings))
    return findings


def _resolve(sources: Sequence[ResolvedCatalog], profile: Profile,
             report: _Report) -> ResolvedCatalog | None:
    """Select, alter and stamp provenance in one pass over the selected forest.

    Only a raising report gets the resolved catalog back.
    """
    structural = profile_structure_findings(profile)
    if report.findings is not None:
        report.findings.extend(structural)
    elif has_errors(structural):
        raise ValidationError(structural)

    by_uri = {normalize_uri(rs.catalog.uri): rs for rs in sources if rs.catalog.uri}
    paired: list[ResolvedCatalog] = []
    for index, directive in enumerate(profile.imports):
        if (uri := normalize_uri(directive.source)) in by_uri:
            paired.append(by_uri[uri])
        elif len(sources) == len(profile.imports):
            paired.append(sources[index])
        else:
            message = f"no source supplied for import {directive.source!r}"
            report.fail(ResolutionError(message), f"imports/{index}", message)
    if len(paired) != len(profile.imports):
        return None

    profile_uri = profile.uri or "<profile>"
    depth = max((rs.depth for rs in paired), default=0) + 1
    provenance: dict[tuple[str, str], ProvenanceEntry] = {}
    selected: dict[str, Control] = {}
    origins: dict[str, tuple[str, str]] = {}  # control id -> source uri, name in messages
    forest: list[Control] = []
    for index, (directive, source) in enumerate(zip(profile.imports, paired)):
        path = f"imports/{index}"
        source_uri = source.catalog.uri or directive.source
        for root in _select(source.catalog, directive, report, path):
            if root.id in origins and origins[root.id][0] == source_uri:
                continue  # the same source re-selected an already-present root
            for control in iter_controls([root]):
                if control.id in selected:
                    first = origins[control.id][1]
                    report.fail(
                        DuplicateControlId(control.id,
                                           f"supplied by both {first!r} and {source_uri!r}"),
                        path, f"duplicate control id {control.id!r} in selection",
                    )
                    continue
                selected[control.id] = control
                origins[control.id] = (source_uri, source.catalog.uri or "a source")
                for part in control.parts:
                    key = (control.id, part.name)
                    provenance[key] = source.provenance.get(key) or ProvenanceEntry(source_uri, 0)
            forest.append(root)

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
    lineage = (*dict.fromkeys(uri for source in paired for uri in source.lineage), profile_uri)
    controls = tuple(_swap_in(root, altered) for root in forest) if altered else forest
    catalog = Catalog(metadata=profile.metadata, controls=controls, uri=profile.uri)
    return ResolvedCatalog(catalog=catalog, provenance=provenance, lineage=lineage, depth=depth,
                           warnings=tuple(report.warnings or ()))


def _fingerprint(path: Path) -> tuple[int, int] | None:
    try:
        stat = path.stat()
    except OSError:
        return None
    return stat.st_mtime_ns, stat.st_size


class SourceStore:
    """A directory of guidance documents addressed by relative path.

    Every spelling of a path names one document, cached under its normalized
    path, its ``uri``, and parsed again once the file's modification time or
    size changes. Concurrent loads of the same uri parse at most once.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._real_root = self.root.resolve()
        self._cache: dict[str, tuple[Path, tuple[int, int], DocumentEnvelope]] = {}
        self._lock = threading.Lock()
        self.load_count = 0  # loads that actually parsed the file

    def _resolve_path(self, uri: str) -> Path:
        normalized = normalize_uri(uri)
        if normalized.startswith(("/", "../")) or normalized == "..":
            raise InvalidUri(uri, "escapes the store root")
        path = (self.root / normalized).resolve()
        if not path.is_relative_to(self._real_root):
            raise InvalidUri(uri, "escapes the store root")
        return path

    def exists(self, uri: str) -> bool:
        try:
            return self._resolve_path(uri).is_file()
        except InvalidUri:
            return False

    def load(self, uri: str) -> DocumentEnvelope:
        key = normalize_uri(uri)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None and _fingerprint(cached[0]) == cached[1]:
                return cached[2]
            path = self._resolve_path(uri)
            fingerprint = _fingerprint(path)
            if fingerprint is None or not path.is_file():
                raise NotFound(uri)
            fmt = "json" if path.suffix == ".json" else "yaml"
            try:
                envelope = parse_document(path.read_bytes(), fmt)
            except GuidanceError as exc:
                if exc.source is None:
                    exc.source = uri
                raise
            body = replace(envelope.body, uri=key)
            envelope = DocumentEnvelope(kind=envelope.kind, body=body)
            self._cache[key] = (path, fingerprint, envelope)
            self.load_count += 1
            return envelope

    def list_documents(self) -> list[str]:
        """All document uris under the root, sorted; build outputs and links out excluded."""
        uris = (path.relative_to(self.root).as_posix() for path in self.root.rglob("*")
                if path.suffix in _DOCUMENT_SUFFIXES)
        return sorted(uri for uri in uris
                      if not uri.startswith(f"{RESOLVED_DIR}/") and self.exists(uri))


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


def detect_cycles(store: SourceStore, root_uri: str) -> list[str]:
    """Topological order (dependencies first) of the import closure of one document.

    Raises ``CycleDetected`` with a witnessing uri path on cyclic imports.
    """
    return topological_order([normalize_uri(root_uri)],
                             lambda uri: import_sources(store.load(uri)))


def resolve_chain(store: SourceStore, profile_uri: str, *, lenient: bool = False,
                  memo: dict[str, ResolvedCatalog] | None = None) -> ResolvedCatalog:
    """Recursively resolve a profile whose imports may name other profiles.

    ``memo`` maps uris to their resolutions; passing the same dict to
    several calls over one store resolves each document at most once.
    Failures are never memoised.
    """
    profile_uri = normalize_uri(profile_uri)
    detect_cycles(store, profile_uri)
    envelope = store.load(profile_uri)
    if envelope.kind != "profile":
        raise ResolutionError(f"{profile_uri!r} is a catalog, not a profile")
    return resolve_acyclic(store, profile_uri, lenient=lenient,
                           memo={} if memo is None else memo)


def resolve_acyclic(store: SourceStore, uri: str, *, lenient: bool = False,
                    memo: dict[str, ResolvedCatalog]) -> ResolvedCatalog:
    """``resolve_chain`` without its cycle check; a catalog resolves to itself.

    The caller must already know that no import cycle is reachable from
    ``uri``: on one, this recurses without end.
    """
    if uri in memo:
        return memo[uri]
    envelope = store.load(uri)
    if envelope.kind == "catalog":
        result = wrap_catalog(envelope.body, uri)
    else:
        sources = [resolve_acyclic(store, source, lenient=lenient, memo=memo)
                   for source in import_sources(envelope)]
        result = resolve(sources, envelope.body, lenient=lenient)
    memo[uri] = result
    return result

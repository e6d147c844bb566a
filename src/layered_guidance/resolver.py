"""Profile resolution: import selection, alterations, chaining, cycle detection.

``resolve`` maps source catalogs plus a profile to a resolved catalog.
``resolve_chain`` recursively resolves a profile whose imports may name
other profiles, so guidance layers compose: each layer inherits, extends,
and selectively replaces the layer below it.

Every resolved part carries provenance: the uri of the layer that
contributed it and that layer's depth (0 for source catalogs, k for the
k-th profile applied).
"""

from __future__ import annotations

import posixpath
import threading
from collections.abc import Mapping, Sequence
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
    Alteration,
    Catalog,
    Control,
    DocumentEnvelope,
    Finding,
    Profile,
    STATEMENT_PART,
    WARNING,
    has_errors,
    iter_controls,
    profile_structure_findings,
)
from .serialize import parse_document

_DOCUMENT_SUFFIXES = (".yaml", ".yml", ".json")
RESOLVED_DIR = "resolved"


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


def apply_alteration(control: Control, alteration: Alteration, *, lenient: bool = False,
                     warnings: list[Finding] | None = None) -> Control:
    """Apply one alteration: all removes first, then adds appended at the end.

    Strict mode raises ``RemovalMatchedNothing`` when a selector matches no
    part; lenient mode records a warning instead.
    """
    if alteration.control_id != control.id:
        raise ResolutionError(
            f"alteration targets {alteration.control_id!r}, control is {control.id!r}"
        )
    parts = list(control.parts)
    for remove in alteration.removes:
        matched = [p for p in parts if remove.matches(p)]
        if not matched:
            kind, value = remove.describe()
            if not lenient:
                raise RemovalMatchedNothing(control.id, kind, value)
            if warnings is not None:
                warnings.append(
                    Finding(
                        WARNING,
                        f"alterations/{control.id}",
                        f"removal matched nothing ({kind} {value!r})",
                    )
                )
        parts = [p for p in parts if not remove.matches(p)]
    for add in alteration.adds:
        for part in add.parts:
            if any(existing.name == part.name for existing in parts):
                raise DuplicatePartName(control.id, part.name)
            parts.append(part)
    for index, part in enumerate(parts):
        if part.name == STATEMENT_PART and index != 0:
            raise StatementNotFirst(control.id)
    return replace(control, parts=tuple(parts))


def _prune(control: Control, exclude: set[str]) -> Control | None:
    if control.id in exclude:
        return None
    children = tuple(c for child in control.children if (c := _prune(child, exclude)) is not None)
    if children == control.children:
        return control
    return replace(control, children=children)


def _select(catalog: Catalog, include: str | tuple[str, ...], exclude: set[str]) -> list[Control]:
    """Import selection: include/exclude applied, document order preserved.

    A selected control brings its whole subtree, minus individually
    excluded descendants. Explicit includes match anywhere in the tree but
    never descend into an already-selected subtree.
    """
    if isinstance(include, str):
        return [c for top in catalog.controls if (c := _prune(top, exclude)) is not None]
    wanted = set(include)
    selected: list[Control] = []

    def walk(control: Control) -> None:
        if control.id in exclude:
            return
        if control.id in wanted:
            kept = _prune(control, exclude)
            if kept is not None:
                selected.append(kept)
            return
        for child in control.children:
            walk(child)

    for top in catalog.controls:
        walk(top)
    return selected


def _replace_in_forest(controls: tuple[Control, ...], target_id: str,
                       replacement: Control) -> tuple[tuple[Control, ...], bool]:
    out: list[Control] = []
    found = False
    for control in controls:
        if control.id == target_id:
            out.append(replacement)
            found = True
            continue
        children, hit = _replace_in_forest(control.children, target_id, replacement)
        if hit:
            out.append(replace(control, children=children))
            found = True
        else:
            out.append(control)
    return tuple(out), found


def resolve(sources: Sequence[Catalog | ResolvedCatalog], profile: Profile, *,
            lenient: bool = False) -> ResolvedCatalog:
    """Resolve a profile against its source catalogs.

    Sources pair with import directives by uri when one matches, otherwise
    positionally. Sources that are themselves resolved catalogs keep their
    upstream provenance; parts added here are stamped with this profile's
    uri at the next layer depth.
    """
    structural = profile_structure_findings(profile)
    if has_errors(structural):
        raise ValidationError(structural)

    resolved_sources = [
        source if isinstance(source, ResolvedCatalog) else wrap_catalog(source)
        for source in sources
    ]
    by_uri = {rs.catalog.uri: rs for rs in resolved_sources if rs.catalog.uri}
    paired: list[ResolvedCatalog] = []
    for index, directive in enumerate(profile.imports):
        if directive.source in by_uri:
            paired.append(by_uri[directive.source])
        elif len(resolved_sources) == len(profile.imports):
            paired.append(resolved_sources[index])
        else:
            raise ResolutionError(
                f"no source supplied for import {directive.source!r}"
            )

    warnings: list[Finding] = []
    provenance: dict[int, ProvenanceEntry] = {}
    origins: dict[str, ResolvedCatalog] = {}
    union: list[Control] = []
    seen: dict[str, str] = {}
    for directive, source in zip(profile.imports, paired):
        exclude = set(directive.exclude)
        if not directive.include_all:
            overlap = sorted(set(directive.include) & exclude)
            if overlap:
                raise ResolutionError(
                    f"include and exclude overlap for {directive.source!r}: {', '.join(overlap)}"
                )
        roots = _select(source.catalog, directive.include, exclude)
        source_uri = source.catalog.uri or directive.source
        for root in roots:
            if root.id in seen and seen[root.id] == source_uri:
                continue  # the same source re-selected an already-present root
            for control in iter_controls([root]):
                if control.id in origins:
                    raise DuplicateControlId(
                        control.id,
                        f"supplied by both {origins[control.id].catalog.uri or 'a source'!r}"
                        f" and {source_uri!r}",
                    )
                origins[control.id] = source
                seen[control.id] = source_uri
                for part in control.parts:
                    entry = source.provenance.get((control.id, part.name))
                    provenance[id(part)] = entry or ProvenanceEntry(source_uri, 0)
            union.append(root)

    depth = max((rs.depth for rs in paired), default=0) + 1
    forest = tuple(union)
    for alteration in profile.alterations:
        target = None
        for control in iter_controls(forest):
            if control.id == alteration.control_id:
                target = control
                break
        if target is None:
            raise UnknownControlId(alteration.control_id, f"profile {profile.uri or 'in memory'}")
        altered = apply_alteration(target, alteration, lenient=lenient, warnings=warnings)
        forest, _ = _replace_in_forest(forest, alteration.control_id, altered)

    profile_uri = profile.uri or "<profile>"
    final_provenance: dict[tuple[str, str], ProvenanceEntry] = {}
    for control in iter_controls(forest):
        for part in control.parts:
            entry = provenance.get(id(part))
            final_provenance[(control.id, part.name)] = entry or ProvenanceEntry(
                profile_uri, depth
            )

    lineage: list[str] = []
    for source in paired:
        for uri in source.lineage:
            if uri not in lineage:
                lineage.append(uri)
    lineage.append(profile_uri)

    catalog = Catalog(metadata=profile.metadata, controls=forest, uri=profile.uri)
    return ResolvedCatalog(
        catalog=catalog,
        provenance=final_provenance,
        lineage=tuple(lineage),
        depth=depth,
        warnings=tuple(warnings),
    )


class SourceStore:
    """A directory of guidance documents addressed by relative path.

    Documents are parsed lazily and cached; concurrent loads of the same
    uri parse at most once. Cached content reflects the file at first load.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._cache: dict[str, DocumentEnvelope] = {}
        self._lock = threading.Lock()
        self.load_count = 0  # loads that actually hit the filesystem

    def _resolve_path(self, uri: str) -> Path:
        normalized = posixpath.normpath(uri)
        if normalized.startswith(("/", "../")) or normalized == "..":
            raise InvalidUri(uri, "escapes the store root")
        path = (self.root / normalized).resolve()
        if not path.is_relative_to(self.root.resolve()):
            raise InvalidUri(uri, "escapes the store root")
        return path

    def exists(self, uri: str) -> bool:
        try:
            return self._resolve_path(uri).is_file()
        except InvalidUri:
            return False

    def load(self, uri: str) -> DocumentEnvelope:
        with self._lock:
            cached = self._cache.get(uri)
            if cached is not None:
                return cached
            path = self._resolve_path(uri)
            if not path.is_file():
                raise NotFound(uri)
            fmt = "json" if path.suffix == ".json" else "yaml"
            try:
                envelope = parse_document(path.read_bytes(), fmt)
            except GuidanceError as exc:
                if exc.source is None:
                    exc.source = uri
                raise
            body = replace(envelope.body, uri=uri)
            envelope = DocumentEnvelope(kind=envelope.kind, body=body)
            self._cache[uri] = envelope
            self.load_count += 1
            return envelope

    def list_documents(self) -> list[str]:
        """All document uris under the root, sorted; build outputs excluded."""
        uris: list[str] = []
        for path in self.root.rglob("*"):
            if not path.is_file() or path.suffix not in _DOCUMENT_SUFFIXES:
                continue
            rel = path.relative_to(self.root).as_posix()
            if rel.startswith(f"{RESOLVED_DIR}/"):
                continue
            uris.append(rel)
        return sorted(uris)


def detect_cycles(store: SourceStore, root_uri: str) -> list[str]:
    """Topological order (dependencies first) of the import closure of one document.

    Raises ``CycleDetected`` with a witnessing uri path on cyclic imports.
    """
    order: list[str] = []
    done: set[str] = set()
    stack: list[str] = []
    on_stack: set[str] = set()

    def visit(uri: str) -> None:
        if uri in done:
            return
        if uri in on_stack:
            raise CycleDetected(stack[stack.index(uri):] + [uri])
        stack.append(uri)
        on_stack.add(uri)
        envelope = store.load(uri)
        if envelope.kind == "profile":
            for directive in envelope.body.imports:
                visit(directive.source)
        stack.pop()
        on_stack.remove(uri)
        done.add(uri)
        order.append(uri)

    visit(root_uri)
    return order


def resolve_chain(store: SourceStore, profile_uri: str, *, lenient: bool = False,
                  memo: dict[str, ResolvedCatalog] | None = None) -> ResolvedCatalog:
    """Recursively resolve a profile whose imports may name other profiles.

    ``memo`` maps uris to their resolutions; passing the same dict to
    several calls over one store resolves each document at most once.
    Failures are never memoised.
    """
    detect_cycles(store, profile_uri)
    envelope = store.load(profile_uri)
    if envelope.kind != "profile":
        raise ResolutionError(f"{profile_uri!r} is a catalog, not a profile")
    return _resolve_uri(store, profile_uri, lenient, {} if memo is None else memo)


def _resolve_uri(store: SourceStore, uri: str, lenient: bool,
                 memo: dict[str, ResolvedCatalog]) -> ResolvedCatalog:
    if uri in memo:
        return memo[uri]
    envelope = store.load(uri)
    if envelope.kind == "catalog":
        result = wrap_catalog(envelope.body, uri)
    else:
        profile: Profile = envelope.body
        sources = [_resolve_uri(store, d.source, lenient, memo) for d in profile.imports]
        result = resolve(sources, profile, lenient=lenient)
    memo[uri] = result
    return result

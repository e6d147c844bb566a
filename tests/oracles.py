"""Independent brute-force oracles the implementation is checked against.

These deliberately re-derive expected results from first principles
(exhaustive part-set comparison keyed by control id and part name) so they
share no code path with the functions under test.
"""

from __future__ import annotations

import posixpath
from collections.abc import Callable, Container, Iterable, Mapping, Sequence
from dataclasses import replace
from pathlib import Path
from typing import Any

from layered_guidance import serialize
from layered_guidance.changes import ChangeSet, diff
from layered_guidance.errors import (
    DuplicateControlId,
    GuidanceError,
    InvalidUri,
    NotFound,
    ResolutionError,
    SchemaError,
    UnknownControlId,
    ValidationError,
)
from layered_guidance.model import (
    ERROR,
    STATEMENT_PART,
    WARNING,
    AddDirective,
    Alteration,
    Catalog,
    Control,
    DocumentEnvelope,
    Finding,
    ImportDirective,
    Metadata,
    Part,
    Profile,
    RemoveDirective,
    ValidationReport,
    has_errors,
    iter_controls,
    profile_structure_findings,
)
from layered_guidance.resolver import (
    ProvenanceEntry,
    ResolvedCatalog,
    SourceStore,
    _alter,
    _layer,
    _Report,
    _select,
    detect_cycles,
    import_sources,
    normalize_uri,
    resolve,
    validate_profile,
)

EntryTuple = tuple[str, str | None, str | None, str | None, str | None]


def flatten_controls(catalog: Catalog) -> dict[str, dict]:
    out: dict[str, dict] = {}

    def walk(control, parent: str | None, index: int) -> None:
        out[control.id] = {
            "classifier": control.classifier,
            "parent": parent,
            "index": index,
            "parts": [(p.name, p.classifier, p.prose) for p in control.parts],
        }
        for child_index, child in enumerate(control.children):
            walk(child, control.id, child_index)

    for top_index, control in enumerate(catalog.controls):
        walk(control, None, top_index)
    return out


def brute_force_diff(before: Catalog, after: Catalog) -> set[EntryTuple]:
    """Exhaustive comparison keyed by (control-id, part-name).

    Part position participates in the comparison because part order is
    load-bearing for rendering; a control whose classifier or tree slot
    changed counts as removed plus added.
    """
    expected: set[EntryTuple] = set()
    for field in ("title", "version"):
        old = getattr(before.metadata, field)
        new = getattr(after.metadata, field)
        if old != new:
            expected.add(("metadata-modified", None, field, old, new))

    bflat = flatten_controls(before)
    aflat = flatten_controls(after)
    for cid in bflat:
        if cid not in aflat:
            expected.add(("control-removed", cid, None, None, None))
    for cid, anode in aflat.items():
        if cid not in bflat:
            expected.add(("control-added", cid, None, None, None))
            continue
        bnode = bflat[cid]
        b_slot = (bnode["classifier"], bnode["parent"], bnode["index"])
        a_slot = (anode["classifier"], anode["parent"], anode["index"])
        if b_slot != a_slot:
            expected.add(("control-removed", cid, None, None, None))
            expected.add(("control-added", cid, None, None, None))
            continue
        bparts = {name: (i, cls, prose) for i, (name, cls, prose) in enumerate(bnode["parts"])}
        aparts = {name: (i, cls, prose) for i, (name, cls, prose) in enumerate(anode["parts"])}
        for name, (_, _, prose) in bparts.items():
            if name not in aparts:
                expected.add(("part-removed", cid, name, prose, None))
        for name, (i, cls, prose) in aparts.items():
            if name not in bparts:
                expected.add(("part-added", cid, name, None, prose))
            elif bparts[name] != (i, cls, prose):
                expected.add(("part-modified", cid, name, bparts[name][2], prose))
    return expected


def entry_tuples(changeset: ChangeSet) -> list[EntryTuple]:
    return [
        (e.kind, e.control_id, e.part_name, e.before_prose, e.after_prose)
        for e in changeset.entries
    ]


def changes_by_full_parse(previous: bytes, after: Catalog) -> ChangeSet:
    """The delta ``propagate`` reported by parsing the whole previous output, then ``diff``.

    The reference for reading only the controls whose canonical text
    changed: same ``ChangeSet``, or the same error.
    """
    return diff(serialize.parse_document(previous, "yaml").body, after)


def patch_with_changeset(before: Catalog, changeset: ChangeSet, after: Catalog) -> dict:
    """Rebuild ``after``'s flattened form from ``before`` plus the changeset.

    Added and modified content is looked up in ``after`` (the changeset only
    names what changed); any difference the changeset failed to report
    leaves stale ``before`` content behind, so comparing the result against
    ``flatten_controls(after)`` checks completeness.
    """
    bflat = flatten_controls(before)
    aflat = flatten_controls(after)

    removed_controls = {e.control_id for e in changeset.entries if e.kind == "control-removed"}
    added_controls = {e.control_id for e in changeset.entries if e.kind == "control-added"}
    removed_parts = {
        (e.control_id, e.part_name)
        for e in changeset.entries
        if e.kind == "part-removed"
    }
    replaced_parts = {
        (e.control_id, e.part_name)
        for e in changeset.entries
        if e.kind in ("part-added", "part-modified")
    }

    result: dict[str, dict] = {}
    for cid, bnode in bflat.items():
        if cid in removed_controls and cid not in added_controls:
            continue
        if cid in added_controls:
            continue  # replaced wholesale below
        after_index = {name: i for i, (name, _, _) in enumerate(aflat[cid]["parts"])}
        after_parts = {name: (name, cls, prose) for name, cls, prose in aflat[cid]["parts"]}
        final: list[tuple[str, str | None, str]] = []
        for name, cls, prose in bnode["parts"]:
            if (cid, name) in removed_parts and name not in after_parts:
                continue
            if (cid, name) in replaced_parts:
                final.append(after_parts[name])
            else:
                final.append((name, cls, prose))
        for (target, name) in sorted(replaced_parts):
            if target == cid and not any(f[0] == name for f in final):
                final.append(after_parts[name])
        final.sort(key=lambda item: after_index[item[0]])  # KeyError = unreported leftover
        result[cid] = {
            "classifier": bnode["classifier"],
            "parent": bnode["parent"],
            "index": bnode["index"],
            "parts": final,
        }
    for cid in added_controls:
        result[cid] = aflat[cid]
    return result


# ---------------------------------------------------------------------------
# Profile preflight, simulated apart from the resolver: selection, duplicate
# detection and alteration application re-derived from the documented rules.


def _selection_warnings(catalog: Catalog, directive: ImportDirective,
                        findings: ValidationReport, path: str) -> None:
    """Report the include and exclude ids of one import that match nothing.

    An include id matches a control reached from the top without passing an
    excluded or an already included control; an exclude id matches any.
    """
    exclude = set(directive.exclude)
    if not directive.include_all:
        wanted = set(directive.include)
        matched: set[str] = set()

        def walk(control: Control) -> None:
            if control.id in exclude:
                return
            if control.id in wanted:
                matched.add(control.id)
                return
            for child in control.children:
                walk(child)

        for control in catalog.controls:
            walk(control)
        for cid in directive.include:
            if cid not in matched:
                findings.append(Finding(WARNING, path, f"include id {cid!r} matched nothing"))

    present = {c.id for c in iter_controls(catalog.controls)}
    for cid in directive.exclude:
        if cid not in present:
            findings.append(Finding(WARNING, path, f"exclude id {cid!r} matched nothing"))


def selected_ids(catalog: Catalog, directive: ImportDirective) -> set[str]:
    """The ids one import selects: a control is in when a control on its path
    from the top is included and none is excluded."""
    included = ({c.id for c in catalog.controls} if directive.include_all
                else set(directive.include))
    chosen: set[str] = set()

    def walk(control: Control, path: set[str]) -> None:
        path = path | {control.id}
        if path & included and not path & set(directive.exclude):
            chosen.add(control.id)
        for child in control.children:
            walk(child, path)

    for control in catalog.controls:
        walk(control, set())
    return chosen


def selection_outline(imports: Sequence[tuple[ImportDirective, Catalog]]
                      ) -> dict[str, list[tuple[str, str | None, int]]]:
    """Per source uri, in order of first import: what its imports select, whatever their order.

    Each entry is a selected control's id, its parent's id (``None`` for a
    root) and the index of the first import that selects it. The imports of
    one source select the union of their ``selected_ids``; a control keeps
    its parent when that is selected too, and is a root otherwise. Entries
    follow the output: roots in the source's document order, each followed
    by its selected descendants.
    """
    outlines: dict[str, list[tuple[str, str | None, int]]] = {}
    for uri in dict.fromkeys(source.uri for _, source in imports):
        first: dict[str, int] = {}
        for index, (directive, source) in enumerate(imports):
            if source.uri == uri:
                for cid in selected_ids(source, directive):
                    first.setdefault(cid, index)
        catalog = next(source for _, source in imports if source.uri == uri)
        parents = {child.id: control.id for control in iter_controls(catalog.controls)
                   for child in control.children}
        outline = outlines[uri] = []

        def add(control: Control, parent: str | None) -> None:
            outline.append((control.id, parent, first[control.id]))
            for child in control.children:
                if child.id in first:
                    add(child, control.id)

        for control in iter_controls(catalog.controls):
            if control.id in first and parents.get(control.id) not in first:
                add(control, None)
    return outlines


def simulate_profile_findings(profile: Profile,
                              resolved_sources: Sequence[Catalog]) -> ValidationReport:
    """The findings ``validate_profile`` must report, derived without the resolver.

    An error-free report predicts that strict resolution succeeds; any
    error-severity finding predicts a resolution failure.
    """
    findings = profile_structure_findings(profile)

    # Pair sources with import directives the way the resolver does: by uri
    # when one matches, positionally when the counts line up.
    by_uri = {source.uri: source for source in resolved_sources if source.uri}
    paired: list[tuple[ImportDirective, Catalog]] = []
    for index, directive in enumerate(profile.imports):
        if directive.source in by_uri:
            paired.append((directive, by_uri[directive.source]))
        elif len(resolved_sources) == len(profile.imports):
            paired.append((directive, resolved_sources[index]))
        else:
            findings.append(
                Finding(ERROR, f"imports/{index}",
                        f"no source supplied for import {directive.source!r}")
            )
    if len(paired) != len(profile.imports):
        return findings

    selected: dict[str, Control] = {}
    for uri, outline in selection_outline(paired).items():
        for index, (directive, source) in enumerate(paired):
            if source.uri == uri:
                _selection_warnings(source, directive, findings, f"imports/{index}")
        catalog = next(source for _, source in paired if source.uri == uri)
        controls = {control.id: control for control in iter_controls(catalog.controls)}
        for cid, _, index in outline:
            if cid in selected:
                findings.append(
                    Finding(ERROR, f"imports/{index}", f"duplicate control id {cid!r} in selection")
                )
            else:
                selected[cid] = controls[cid]

    for alteration in profile.alterations:
        path = f"alterations/{alteration.control_id}"
        target = selected.get(alteration.control_id)
        if target is None:
            findings.append(
                Finding(ERROR, path, f"unknown control id {alteration.control_id!r}")
            )
            continue
        surviving = list(target.parts)
        for rindex, remove in enumerate(alteration.removes):
            matched = [p for p in surviving if remove.matches(p)]
            if not matched:
                kind, value = remove.describe()
                findings.append(
                    Finding(
                        ERROR,
                        f"{path}/removes/{rindex}",
                        f"removal matched nothing ({kind} {value!r})",
                    )
                )
            surviving = [p for p in surviving if not remove.matches(p)]
        for aindex, add in enumerate(alteration.adds):
            for part in add.parts:
                if any(p.name == part.name for p in surviving):
                    findings.append(
                        Finding(
                            ERROR,
                            f"{path}/adds/{aindex}",
                            f"duplicate part name {part.name!r}",
                        )
                    )
                else:
                    surviving.append(part)
        for index, part in enumerate(surviving):
            if part.name == STATEMENT_PART and index != 0:
                findings.append(Finding(ERROR, path, "statement must be first"))
    return findings


# ---------------------------------------------------------------------------
# The resolver as it was before include-all imports took their source whole:
# every import selects and restricts, every selected control is stamped on
# one walk, and the swap-in walks the whole forest. The resolver must give
# the same catalogs, provenance, lineage, depth, warnings and findings.


def _reference_restrict(controls: Iterable[Control], ids: Container[str]) -> list[Control]:
    forest: list[Control] = []

    def kept(control: Control) -> Control:
        children = tuple(kept(child) for child in control.children if child.id in ids)
        return control if children == control.children else replace(control, children=children)

    def walk(controls: Iterable[Control], parent_kept: bool) -> None:
        for control in controls:
            inside = control.id in ids
            if inside and not parent_kept:
                forest.append(kept(control))
            if control.children:
                walk(control.children, inside)

    walk(controls, False)
    return forest


def _reference_swap_in(control: Control, altered: Mapping[str, Control]) -> Control:
    children = tuple(_reference_swap_in(child, altered) for child in control.children)
    control = altered.get(control.id, control)
    if all(new is old for new, old in zip(children, control.children)):
        return control
    return replace(control, children=children)


def reference_resolve(sources: Sequence, profile: Profile,
                      report: _Report) -> ResolvedCatalog | None:
    """Select, alter and stamp provenance in one pass over the selected forest."""
    structural = profile_structure_findings(profile)
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
    origins: dict[str, str] = {}
    forest: list[Control] = []
    imports_of: dict[int, list[int]] = {}
    for index, source in enumerate(paired):
        imports_of.setdefault(id(source), []).append(index)
    for indexes in imports_of.values():
        source = paired[indexes[0]]
        paths: dict[str, str] = {}
        for index in indexes:
            path = f"imports/{index}"
            for cid in _select(source.catalog, profile.imports[index], report, path):
                paths.setdefault(cid, path)
        source_uri = source.catalog.uri or profile.imports[indexes[0]].source
        stamp = ProvenanceEntry(source_uri, 0)
        for root in _reference_restrict(source.catalog.controls, paths):
            for control in iter_controls([root]):
                if control.id in selected:
                    first = origins[control.id]
                    report.fail(
                        DuplicateControlId(control.id,
                                           f"supplied by both {first!r} and {source_uri!r}"),
                        paths[control.id],
                        f"duplicate control id {control.id!r} in selection",
                    )
                    continue
                selected[control.id] = control
                origins[control.id] = source_uri
                for part in control.parts:
                    key = (control.id, part.name)
                    provenance[key] = source.provenance.get(key) or stamp
            forest.append(root)

    altered: dict[str, Control] = {}
    for alteration in profile.alterations:
        cid = alteration.control_id
        target = selected.get(cid)
        if target is None:
            report.fail(UnknownControlId(cid, f"profile {profile.uri or 'in memory'}"),
                        f"alterations/{cid}", f"unknown control id {cid!r}")
            continue
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
    controls = (tuple(_reference_swap_in(root, altered) for root in forest) if altered
                else forest)
    catalog = Catalog(metadata=profile.metadata, controls=controls, uri=profile.uri)
    return ResolvedCatalog(catalog=catalog, provenance=provenance, lineage=lineage, depth=depth,
                           warnings=tuple(report.warnings or ()))


def resolution_record(call) -> tuple:
    """A resolution's catalog, uri, provenance as a dict, lineage, depth and warnings;
    or the class, message, ``source`` and fields of the error it raised."""
    try:
        result = call()
    except GuidanceError as error:
        return type(error), str(error), error.source, vars(error)
    return (result.catalog, result.catalog.uri, dict(result.provenance), result.lineage,
            result.depth, result.warnings)


def reference_resolve_in_store(store: SourceStore, uri: str, *,
                               lenient: bool = False) -> ResolvedCatalog:
    """A store document resolved by walking its whole closure, then recursing, with a fresh memo.

    ``detect_cycles`` walks the whole import closure first. Then each import
    resolves recursively, in import order, so a failure is raised from the
    first import that fails. This is the route ``resolve_in_store`` replaced.
    """
    uri = normalize_uri(uri)
    detect_cycles(store, uri)
    memo: dict[str, ResolvedCatalog] = {}

    def resolve_acyclic(uri: str) -> ResolvedCatalog:
        if uri not in memo:
            envelope = store.load(uri)
            if envelope.kind == "catalog":
                memo[uri] = _layer(envelope.body)
            else:
                sources = [resolve_acyclic(source) for source in import_sources(envelope)]
                memo[uri] = resolve(sources, envelope.body, lenient=lenient)
        return memo[uri]

    return resolve_acyclic(uri)


def check_against_reference(sources: Sequence, profile: Profile) -> None:
    """``resolve``, strict and lenient, and ``validate_profile`` agree with the reference."""
    for lenient in (False, True):
        report = _Report(lenient=lenient, warnings=[])
        assert resolution_record(lambda: resolve(sources, profile, lenient=lenient)) \
            == resolution_record(lambda: reference_resolve(sources, profile, report))
    findings: ValidationReport = []
    reference_resolve(sources, profile, _Report(findings))
    assert validate_profile(profile, sources) == findings


# ---------------------------------------------------------------------------
# Canonical YAML emission, word by word: the emitter ``serialize`` replaced.
# Scalars that are neither folded nor plain are quoted with ``serialize._quote``.

WRAP_COLUMN = 80
_UNSAFE_IN_WORD = set("\u2028\u2029\ufffe\uffff") | {chr(c) for c in range(0x20)} \
    | {chr(c) for c in range(0x7F, 0xA0)}


def fold_safe(value: str) -> bool:
    """At least two words split by single spaces, none holding a character a fold would alter."""
    words = value.split(" ")
    if len(words) < 2:
        return False
    for word in words:
        if not word or any(ch in _UNSAFE_IN_WORD for ch in word):
            return False
    return True


def wrap_words(words: list[str], width: int) -> list[str]:
    """Greedy wrap: a word joins the current line while the line stays within ``width``."""
    lines = [words[0]]
    for word in words[1:]:
        if len(lines[-1]) + 1 + len(word) <= width:
            lines[-1] += " " + word
        else:
            lines.append(word)
    return lines


def emit_scalar(anchor: str, value: str, indent: int, lines: list[str]) -> None:
    pad = " " * indent
    if len(value) > WRAP_COLUMN and fold_safe(value):
        lines.append(f"{pad}{anchor} >-")
        body_indent = indent + 2
        width = max(WRAP_COLUMN - body_indent, 20)
        for line in wrap_words(value.split(" "), width):
            lines.append(" " * body_indent + line)
    elif serialize._plain_safe(value):
        lines.append(f"{pad}{anchor} {value}")
    else:
        lines.append(f"{pad}{anchor} {serialize._quote(value)}")


def _emit_mapping(mapping: dict, indent: int, lines: list[str]) -> None:
    pad = " " * indent
    for key, value in mapping.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            _emit_mapping(value, indent + 2, lines)
        elif isinstance(value, list) and not value:
            lines.append(f"{pad}{key}: []")
        elif isinstance(value, list):
            lines.append(f"{pad}{key}:")
            _emit_sequence(value, indent + 2, lines)
        else:
            emit_scalar(f"{key}:", value, indent, lines)


def _emit_sequence(items: list, indent: int, lines: list[str]) -> None:
    pad = " " * indent
    for item in items:
        if isinstance(item, dict):
            sub: list[str] = []
            _emit_mapping(item, indent + 2, sub)
            sub[0] = f"{pad}- " + sub[0][indent + 2:]
            lines.extend(sub)
        else:
            emit_scalar("-", item, indent, lines)


def emit_yaml(plain: dict) -> str:
    """The canonical YAML text of a document's plain form."""
    lines: list[str] = []
    _emit_mapping(plain, 0, lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The own-block emitter as it was before own blocks were written straight
# from the model: each part goes through its plain dict and the generic
# mapping, sequence and scalar emitters, and each scalar's text is decided
# afresh on every occurrence.


def _reference_scalar(head: str, value: str, indent: int, lines: list[str]) -> None:
    if len(value) > serialize._WRAP_COLUMN and serialize._foldable(value):
        body_indent = indent + 2
        body_break = "\n" + " " * body_indent
        body = serialize._wrap_re(max(serialize._WRAP_COLUMN - body_indent, 20)).findall(value)
        lines.append(head + " >-" + body_break + body_break.join(body))
    elif serialize._plain_safe(value):
        lines.append(f"{head} {value}")
    else:
        lines.append(f"{head} {serialize._quote(value)}")


def reference_emit_control(control: Control, indent: int) -> str:
    """``control``'s own block at column ``indent``, emitted through plain dicts."""
    pad = " " * (indent + 2)
    lines: list[str] = []
    _reference_scalar(" " * indent + "- id:", control.id, indent + 2, lines)
    if control.classifier is not None:
        _reference_scalar(pad + "class:", control.classifier, indent + 2, lines)
    if control.parts:
        lines.append(pad + "parts:")
        dash = " " * (indent + 4) + "- "
        for part in control.parts:
            first = len(lines)
            for key, value in serialize._part_plain(part).items():
                _reference_scalar(" " * (indent + 6) + f"{key}:", value, indent + 6, lines)
            lines[first] = dash + lines[first][indent + 6:]
    if control.children:
        lines.append(pad + "children:")
    lines.append("")  # the line end of the last line
    return "\n".join(lines)


def dependents_in_store(imports: dict[str, str], unreadable: set[str], changed: str) -> set[str]:
    """``changed`` and every document that imports it through documents that parse.

    ``imports`` maps each profile to the one store uri it imports; a document
    that does not parse imports nothing as far as anyone can tell. The build
    output ``resolved/<name>.yaml`` depends on the profile ``<name>.yaml``
    when that parses, whether or not the output itself parses.
    """
    writers = {f"resolved/{uri}": uri for uri in imports if uri not in unreadable}
    found = {changed}
    while True:
        more = {uri for uri, source in imports.items() if source in found and uri not in unreadable}
        more |= {output for output, writer in writers.items() if writer in found}
        more -= found
        if not more:
            return found
        found |= more


def store_path(root: Path, uri: str) -> Path:
    """The file a store uri names, as ``Path.resolve`` finds it; ``InvalidUri`` outside ``root``.

    The reference for ``SourceStore``'s path resolution, which lstat's the
    components below the root and resolves in full only through a link.
    """
    normalized = posixpath.normpath(uri)
    if normalized.startswith(("/", "../")) or normalized == "..":
        raise InvalidUri(uri, "escapes the store root")
    path = (root / normalized).resolve()
    if not path.is_relative_to(root.resolve()):
        raise InvalidUri(uri, "escapes the store root")
    return path


def store_exists(root: Path, uri: str) -> bool:
    try:
        return store_path(root, uri).is_file()
    except InvalidUri:
        return False


def store_load(root: Path, uri: str) -> DocumentEnvelope:
    """The document a store uri names, parsed afresh, with its normalized uri."""
    path = store_path(root, uri)
    if not path.is_file():
        raise NotFound(uri)
    envelope = serialize.parse_document(path.read_bytes(), serialize.format_of(path))
    return DocumentEnvelope(envelope.kind, replace(envelope.body, uri=posixpath.normpath(uri)))


def store_documents(root: Path) -> list[str]:
    """``SourceStore.list_documents`` as ``rglob`` plus ``store_exists`` on each candidate.

    ``rglob`` enters neither a link to a directory nor one it may not read.
    """
    uris = (path.relative_to(root).as_posix() for path in root.rglob("*")
            if path.suffix in (".yaml", ".yml", ".json"))
    return sorted(uri for uri in uris
                  if not uri.startswith("resolved/") and store_exists(root, uri))


# ---------------------------------------------------------------------------
# The tree-to-model builder that formatted every node's path as it went,
# kept as it was in ``serialize``: the builder there must give an equal model,
# or a ``SchemaError`` with the same message and path, for every tree.


def _keys(required: set[str], optional: set[str] = frozenset()) -> tuple[frozenset, frozenset]:
    """A mapping type's required keys and every key it allows."""
    return frozenset(required), frozenset(required | optional)


_METADATA_KEYS = _keys({"title", "version"})
_PART_KEYS = _keys({"name", "prose"}, {"class"})
_CONTROL_KEYS = _keys({"id"}, {"class", "parts", "children"})
_CATALOG_KEYS = _keys({"metadata"}, {"controls"})
_IMPORT_KEYS = _keys({"source"}, {"include", "exclude"})
_REMOVE_KEYS = _keys(set(), {"by-name", "by-class"})
_ADD_KEYS = _keys({"parts"}, {"position"})
_ALTERATION_KEYS = _keys({"control-id"}, {"removes", "adds"})
_PROFILE_KEYS = _keys({"metadata", "imports"}, {"alterations"})


def _expect_mapping(value: Any, path: str, keys: tuple[frozenset, frozenset]) -> dict:
    """``value`` as a mapping with only allowed keys and every required one.

    The first unknown key in document order is reported before the first
    missing key in sorted order.
    """
    if not isinstance(value, dict):
        raise SchemaError(f"expected a mapping, got {type(value).__name__}", path)
    required, allowed = keys
    present = value.keys()
    if not present <= allowed:
        unknown = next(key for key in value if key not in allowed)
        raise SchemaError(f"unknown key {unknown!r}", path)
    if not required <= present:
        raise SchemaError(f"missing required key {min(required - present)!r}", path)
    return value


# The checks below take the path of the enclosing node and the key or index
# of the value, and format the value's path only to report a failure.


def _expect_str(value: Any, path: str, key: str | int) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"expected a string, got {type(value).__name__}", f"{path}/{key}")
    return value


def _expect_list(value: Any, path: str, key: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"expected a list, got {type(value).__name__}", f"{path}/{key}")
    return value


def _build_list(mapping: dict, key: str, path: str, build: Callable[[Any, str], Any]) -> tuple:
    """``build`` applied to each item of the optional list ``mapping[key]``."""
    items = _expect_list(mapping.get(key, []), path, key)
    return tuple(build(item, f"{path}/{key}/{index}") for index, item in enumerate(items))


def _str_list(value: Any, path: str, key: str) -> tuple[str, ...]:
    items = _expect_list(value, path, key)
    items_path = f"{path}/{key}"
    return tuple(_expect_str(item, items_path, index) for index, item in enumerate(items))


def _build_metadata(value: Any, path: str) -> Metadata:
    mapping = _expect_mapping(value, path, _METADATA_KEYS)
    return Metadata(
        title=_expect_str(mapping["title"], path, "title"),
        version=_expect_str(mapping["version"], path, "version"),
    )


def _build_part(value: Any, path: str) -> Part:
    mapping = _expect_mapping(value, path, _PART_KEYS)
    classifier = _expect_str(mapping["class"], path, "class") if "class" in mapping else None
    return Part(
        name=_expect_str(mapping["name"], path, "name"),
        prose=_expect_str(mapping["prose"], path, "prose"),
        classifier=classifier,
    )


def _build_control(value: Any, path: str) -> Control:
    mapping = _expect_mapping(value, path, _CONTROL_KEYS)
    classifier = _expect_str(mapping["class"], path, "class") if "class" in mapping else None
    parts = _build_list(mapping, "parts", path, _build_part)
    children = _build_list(mapping, "children", path, _build_control)
    return Control(
        id=_expect_str(mapping["id"], path, "id"),
        classifier=classifier,
        parts=parts,
        children=children,
    )


def _build_catalog(value: Any, path: str, uri: str) -> Catalog:
    mapping = _expect_mapping(value, path, _CATALOG_KEYS)
    controls = _build_list(mapping, "controls", path, _build_control)
    return Catalog(metadata=_build_metadata(mapping["metadata"], f"{path}/metadata"),
                   controls=controls, uri=uri)


def _build_import(value: Any, path: str) -> ImportDirective:
    mapping = _expect_mapping(value, path, _IMPORT_KEYS)
    include: str | tuple[str, ...] = "all"
    if "include" in mapping:
        raw = mapping["include"]
        if isinstance(raw, str):
            if raw != "all":
                raise SchemaError(
                    f"include must be \"all\" or a list of control ids, got {raw!r}",
                    f"{path}/include",
                )
        else:
            include = _str_list(raw, path, "include")
    exclude = _str_list(mapping.get("exclude", []), path, "exclude")
    return ImportDirective(
        source=_expect_str(mapping["source"], path, "source"),
        include=include,
        exclude=exclude,
    )


def _build_remove(value: Any, path: str) -> RemoveDirective:
    mapping = _expect_mapping(value, path, _REMOVE_KEYS)
    if len(mapping) != 1:
        raise SchemaError("exactly one of by-name/by-class must be given", path)
    if "by-name" in mapping:
        return RemoveDirective(by_name=_expect_str(mapping["by-name"], path, "by-name"))
    return RemoveDirective(by_class=_expect_str(mapping["by-class"], path, "by-class"))


def _build_add(value: Any, path: str) -> AddDirective:
    mapping = _expect_mapping(value, path, _ADD_KEYS)
    position = "ending"
    if "position" in mapping:
        position = _expect_str(mapping["position"], path, "position")
        if position != "ending":
            raise SchemaError(f"unsupported position {position!r}", f"{path}/position")
    parts = _build_list(mapping, "parts", path, _build_part)
    return AddDirective(parts=parts, position=position)


def _build_alteration(value: Any, path: str) -> Alteration:
    mapping = _expect_mapping(value, path, _ALTERATION_KEYS)
    removes = _build_list(mapping, "removes", path, _build_remove)
    adds = _build_list(mapping, "adds", path, _build_add)
    return Alteration(
        control_id=_expect_str(mapping["control-id"], path, "control-id"),
        removes=removes,
        adds=adds,
    )


def _build_profile(value: Any, path: str, uri: str) -> Profile:
    mapping = _expect_mapping(value, path, _PROFILE_KEYS)
    imports = _build_list(mapping, "imports", path, _build_import)
    alterations = _build_list(mapping, "alterations", path, _build_alteration)
    return Profile(
        metadata=_build_metadata(mapping["metadata"], f"{path}/metadata"),
        imports=imports,
        alterations=alterations,
        uri=uri,
    )


def reference_build(tree: Any, kind: str, uri: str = "") -> Catalog | Profile:
    """The model of a document's ``catalog:`` or ``profile:`` value ``tree``, or a ``SchemaError``."""
    if kind == "catalog":
        return _build_catalog(tree, "catalog", uri)
    return _build_profile(tree, "profile", uri)

"""Independent brute-force oracles the implementation is checked against.

These deliberately re-derive expected results from first principles
(exhaustive part-set comparison keyed by control id and part name) so they
share no code path with the functions under test.
"""

from __future__ import annotations

from collections.abc import Sequence

from layered_guidance import serialize
from layered_guidance.changes import ChangeSet
from layered_guidance.model import (
    ERROR,
    STATEMENT_PART,
    WARNING,
    Catalog,
    Control,
    Finding,
    ImportDirective,
    Profile,
    ValidationReport,
    iter_controls,
    profile_structure_findings,
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


def _collect_selection(catalog: Catalog, directive: ImportDirective,
                       findings: ValidationReport, path: str) -> list[Control]:
    """Simulate one import's selection, reporting include/exclude misses.

    Mirrors the resolver's documented selection semantics but is
    implemented independently. Returns the selected subtree roots with
    exclusions pruned.
    """
    exclude = set(directive.exclude)
    roots: list[Control] = []

    def pruned(control: Control) -> Control | None:
        if control.id in exclude:
            return None
        kept = tuple(c for child in control.children if (c := pruned(child)) is not None)
        return Control(control.id, control.classifier, control.parts, kept)

    if directive.include_all:
        for control in catalog.controls:
            kept = pruned(control)
            if kept is not None:
                roots.append(kept)
    else:
        wanted = set(directive.include)
        matched: set[str] = set()

        def walk(control: Control) -> None:
            if control.id in exclude:
                return
            if control.id in wanted:
                kept = pruned(control)
                if kept is not None:
                    roots.append(kept)
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
    return roots


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
    selected_from: dict[str, str] = {}
    for index, (directive, source) in enumerate(paired):
        path = f"imports/{index}"
        source_uri = source.uri or directive.source
        roots = _collect_selection(source, directive, findings, path)
        for root in roots:
            if selected_from.get(root.id) == source_uri:
                continue  # the same source re-selected an already-present root
            for control in iter_controls([root]):
                if control.id in selected:
                    findings.append(
                        Finding(ERROR, path, f"duplicate control id {control.id!r} in selection")
                    )
                else:
                    selected[control.id] = control
                    selected_from[control.id] = source_uri

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


def dependents_in_store(imports: dict[str, str], unreadable: set[str], changed: str) -> set[str]:
    """``changed`` and every document that imports it through documents that parse.

    ``imports`` maps each profile to the one store uri it imports; a document
    that does not parse imports nothing as far as anyone can tell.
    """
    found = {changed}
    while True:
        more = {uri for uri, source in imports.items()
                if source in found and uri not in unreadable} - found
        if not more:
            return found
        found |= more

"""Document object model for layered guidance catalogs and profiles.

A catalog is a hierarchy of controls, each carrying ordered prose parts.
A profile imports controls from source documents and alters their parts.
All types are immutable after construction and safe to share across tasks.

Validation is data, not control flow: ``validate_catalog`` and
``profile_structure_findings`` return findings instead of raising, and
only error-severity findings block resolution. ``resolver.validate_profile``
is the resolver itself collecting findings instead of raising, so a report
without errors means strict resolution succeeds by construction.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property

IDENTIFIER_RE = re.compile(r"[a-z][a-z0-9._-]*", re.IGNORECASE)

STATEMENT_PART = "statement"
INCLUDE_ALL = "all"

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Part:
    """A named prose block inside a control.

    Names are stored lowercase; classifiers keep their authored case
    (e.g. ``OT-specific-guidance``).
    """

    name: str
    prose: str
    classifier: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())


@dataclass(frozen=True)
class Control:
    """One security outcome with ordered parts and child controls."""

    id: str
    classifier: str | None = None
    parts: tuple[Part, ...] = ()
    children: tuple[Control, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", self.id.lower())
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "children", tuple(self.children))

    def part(self, name: str) -> Part | None:
        lowered = name.lower()
        for part in self.parts:
            if part.name == lowered:
                return part
        return None


@dataclass(frozen=True)
class Metadata:
    title: str
    version: str


@dataclass(frozen=True)
class Catalog:
    """A source or resolved collection of controls.

    ``uri`` records where the document was loaded from (store-relative
    path) and is excluded from structural equality.
    """

    metadata: Metadata
    controls: tuple[Control, ...] = ()
    uri: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "controls", tuple(self.controls))


@dataclass(frozen=True)
class RemoveDirective:
    """Deletes every part matched by exactly one selector."""

    by_name: str | None = None
    by_class: str | None = None

    def __post_init__(self) -> None:
        if self.by_name is not None:
            object.__setattr__(self, "by_name", self.by_name.lower())

    def matches(self, part: Part) -> bool:
        if self.by_name is not None:
            return part.name == self.by_name
        if self.by_class is not None:
            return part.classifier == self.by_class
        return False

    def describe(self) -> tuple[str, str]:
        if self.by_name is not None:
            return "by-name", self.by_name
        if self.by_class is not None:
            return "by-class", self.by_class
        return "by-name", ""


@dataclass(frozen=True)
class AddDirective:
    """Appends parts to a control; only the ``ending`` position is supported."""

    parts: tuple[Part, ...]
    position: str = "ending"

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Alteration:
    """Removes, then adds, parts on one target control."""

    control_id: str
    removes: tuple[RemoveDirective, ...] = ()
    adds: tuple[AddDirective, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "control_id", self.control_id.lower())
        object.__setattr__(self, "removes", tuple(self.removes))
        object.__setattr__(self, "adds", tuple(self.adds))


@dataclass(frozen=True)
class ImportDirective:
    """Selects controls from one source document.

    ``include`` is either the string ``"all"`` or an explicit tuple of
    control ids; excluded ids prune whole subtrees. Any other string is a
    structural error that selects nothing.
    """

    source: str
    include: str | tuple[str, ...] = INCLUDE_ALL
    exclude: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.include, str):
            object.__setattr__(self, "include", tuple(i.lower() for i in self.include))
        object.__setattr__(self, "exclude", tuple(e.lower() for e in self.exclude))

    @property
    def include_all(self) -> bool:
        return self.include == INCLUDE_ALL

    @property
    def include_ids(self) -> tuple[str, ...]:
        """The listed include ids; none when ``include`` is a string."""
        return () if isinstance(self.include, str) else self.include


@dataclass(frozen=True)
class Profile:
    """An import-plus-alterations document transforming catalogs."""

    metadata: Metadata
    imports: tuple[ImportDirective, ...] = ()
    alterations: tuple[Alteration, ...] = ()
    uri: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "imports", tuple(self.imports))
        object.__setattr__(self, "alterations", tuple(self.alterations))

    @cached_property
    def structure_findings(self) -> tuple[Finding, ...]:
        """``profile_structure_findings`` of this object, computed on first use only."""
        return tuple(profile_structure_findings(self))


@dataclass(frozen=True)
class DocumentEnvelope:
    """A parsed document: exactly one of a catalog or a profile."""

    kind: str  # "catalog" | "profile"
    body: Catalog | Profile


@dataclass(frozen=True)
class Finding:
    severity: str  # ERROR | WARNING
    path: str
    message: str


ValidationReport = list[Finding]


def has_errors(report: Iterable[Finding]) -> bool:
    return any(f.severity == ERROR for f in report)


def _valid_identifier(value: str) -> bool:
    return bool(IDENTIFIER_RE.fullmatch(value))


def iter_controls(controls: Iterable[Control]) -> Iterator[Control]:
    """Depth-first, document-order walk over a control forest."""
    for control in controls:
        yield control
        yield from iter_controls(control.children)


def find_control(catalog: Catalog, control_id: str) -> Control | None:
    """Return the control with ``control_id`` anywhere in the tree, or None."""
    lowered = control_id.lower()
    for control in iter_controls(catalog.controls):
        if control.id == lowered:
            return control
    return None


def _part_problems(part: Part) -> list[str]:
    """Messages for each invariant ``part`` breaks on its own."""
    problems = []
    if not part.name:
        problems.append("part name is empty")
    elif not _valid_identifier(part.name):
        problems.append(f"part name {part.name!r} is not a valid identifier")
    if part.classifier is not None and not _valid_identifier(part.classifier):
        problems.append(f"part class {part.classifier!r} is not a valid identifier")
    if not part.prose.strip():
        problems.append("part prose is empty")
    return problems


def _validate_control(control: Control, path: str, seen_ids: dict[str, str],
                      findings: ValidationReport) -> None:
    if not control.id:
        findings.append(Finding(ERROR, path, "control id is empty"))
    elif not _valid_identifier(control.id):
        findings.append(Finding(ERROR, path, f"control id {control.id!r} is not a valid identifier"))
    if control.id in seen_ids:
        findings.append(
            Finding(ERROR, path, f"duplicate control id {control.id!r} (also at {seen_ids[control.id]})")
        )
    else:
        seen_ids[control.id] = path
    if control.classifier is not None and not _valid_identifier(control.classifier):
        findings.append(
            Finding(ERROR, path, f"control class {control.classifier!r} is not a valid identifier")
        )

    part_names: set[str] = set()
    for index, part in enumerate(control.parts):
        problems = _part_problems(part)
        if part.name in part_names:
            problems.append(f"duplicate part name {part.name!r}")
        part_names.add(part.name)
        if part.name == STATEMENT_PART and index != 0:
            problems.append("statement must be first")
        if problems:  # a part's path is formatted only when it has findings
            part_path = f"{path}/parts/{index}"
            findings.extend(Finding(ERROR, part_path, message) for message in problems)

    for child in control.children:
        _validate_control(child, f"{path}/children/{child.id}", seen_ids, findings)


def validate_catalog(catalog: Catalog) -> ValidationReport:
    """Check every catalog invariant; an empty report means the catalog is valid."""
    findings: ValidationReport = []
    if not catalog.metadata.title.strip():
        findings.append(Finding(WARNING, "metadata/title", "title is empty"))
    if not catalog.metadata.version.strip():
        findings.append(Finding(WARNING, "metadata/version", "version is empty"))
    seen_ids: dict[str, str] = {}
    for control in catalog.controls:
        _validate_control(control, f"controls/{control.id}", seen_ids, findings)
    return findings


def profile_structure_findings(profile: Profile) -> ValidationReport:
    """Invariant checks that need no resolved sources (used by the parser too)."""
    findings: ValidationReport = []
    if not profile.metadata.title.strip():
        findings.append(Finding(WARNING, "metadata/title", "title is empty"))
    if not profile.metadata.version.strip():
        findings.append(Finding(WARNING, "metadata/version", "version is empty"))
    if not profile.imports:
        findings.append(Finding(ERROR, "imports", "profile must import at least one source"))

    for index, imp in enumerate(profile.imports):
        path = f"imports/{index}"
        if not imp.source:
            findings.append(Finding(ERROR, path, "import source is empty"))
        if isinstance(imp.include, str) and not imp.include_all:
            findings.append(Finding(
                ERROR, path, f"include must be \"all\" or a list of control ids, got {imp.include!r}"
            ))
        for cid in imp.include_ids:
            if not _valid_identifier(cid):
                findings.append(Finding(ERROR, path, f"include id {cid!r} is not a valid identifier"))
        overlap = sorted(set(imp.include_ids) & set(imp.exclude))
        if overlap:
            findings.append(
                Finding(ERROR, path, f"include and exclude overlap: {', '.join(overlap)}")
            )
        for cid in imp.exclude:
            if not _valid_identifier(cid):
                findings.append(Finding(ERROR, path, f"exclude id {cid!r} is not a valid identifier"))

    seen_targets: set[str] = set()
    for alteration in profile.alterations:
        path = f"alterations/{alteration.control_id}"
        if not _valid_identifier(alteration.control_id):
            findings.append(
                Finding(ERROR, path, f"control-id {alteration.control_id!r} is not a valid identifier")
            )
        if alteration.control_id in seen_targets:
            findings.append(
                Finding(ERROR, path, f"duplicate alteration for control {alteration.control_id!r}")
            )
        seen_targets.add(alteration.control_id)
        if not alteration.removes and not alteration.adds:
            findings.append(Finding(ERROR, path, "alteration has no removes and no adds"))
        for rindex, remove in enumerate(alteration.removes):
            rpath = f"{path}/removes/{rindex}"
            populated = sum(1 for sel in (remove.by_name, remove.by_class) if sel is not None)
            if populated != 1:
                findings.append(Finding(ERROR, rpath, "exactly one selector must be populated"))
        for aindex, add in enumerate(alteration.adds):
            apath = f"{path}/adds/{aindex}"
            if not add.parts:
                findings.append(Finding(ERROR, apath, "add directive has no parts"))
            if add.position != "ending":
                findings.append(Finding(ERROR, apath, f"unsupported position {add.position!r}"))
            names: set[str] = set()
            for pindex, part in enumerate(add.parts):
                problems = _part_problems(part)
                if part.name in names:
                    problems.append(f"duplicate part name {part.name!r}")
                names.add(part.name)
                if problems:
                    ppath = f"{apath}/parts/{pindex}"
                    findings.extend(Finding(ERROR, ppath, message) for message in problems)
    return findings

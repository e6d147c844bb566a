"""Document object model for layered guidance catalogs and profiles.

A catalog is a hierarchy of controls, each carrying ordered prose parts.
A profile imports controls from source documents and alters their parts.
All types are immutable after construction and safe to share across tasks.

Every record type in the package subclasses ``_Record``, which gives it
frozen value semantics from one set of methods: assignment and deletion
raise ``FrozenInstanceError``, equality and hashing read the compare
fields, and the repr lists every field, as ``dataclass(frozen=True)``
would have them. Each type is still a dataclass, so ``dataclasses.fields``
and ``dataclasses.replace`` work, but ``dataclass`` generates none of its
methods: each type's own ``__init__`` writes its normalised fields straight
into ``__dict__``, and ``replace`` calls that ``__init__`` too.

Validation is data, not control flow: ``validate_catalog`` and
``profile_structure_findings`` return findings instead of raising, and
only error-severity findings block resolution. ``resolver.validate_profile``
is the resolver itself collecting findings instead of raising, so a report
without errors means strict resolution succeeds by construction.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import FrozenInstanceError, dataclass, field, fields
from functools import cached_property
from operator import attrgetter

IDENTIFIER_RE = re.compile(r"[a-z][a-z0-9._-]*", re.IGNORECASE)

STATEMENT_PART = "statement"
INCLUDE_ALL = "all"

ERROR = "error"
WARNING = "warning"


class _Record:
    """A frozen record: value methods written once for every subclass.

    Defining a subclass makes it a dataclass that generates no method, and
    sets its ``_values`` (the compare fields as one tuple) and
    ``_repr_names`` (its fields). Each subclass has its own ``__init__``.
    """

    _values: tuple
    _repr_names: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        dataclass(init=False, repr=False, eq=False)(cls)
        names = [f.name for f in fields(cls) if f.compare]
        compared = attrgetter(*names)  # a tuple only for two names or more
        cls._values = property(compared if len(names) > 1 else lambda record: (compared(record),))
        cls._repr_names = tuple([f.name for f in fields(cls) if f.repr])

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        values = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._repr_names])
        return f"{self.__class__.__qualname__}({values})"


class Part(_Record):
    """A named prose block inside a control.

    Names are stored lowercase; classifiers keep their authored case
    (e.g. ``OT-specific-guidance``).
    """

    name: str
    prose: str
    classifier: str | None = None

    def __init__(self, name: str, prose: str, classifier: str | None = None) -> None:
        fields = self.__dict__
        fields["name"] = name.lower()
        fields["prose"] = prose
        fields["classifier"] = classifier


class Control(_Record):
    """One security outcome with ordered parts and child controls."""

    id: str
    classifier: str | None = None
    parts: tuple[Part, ...] = ()
    children: tuple[Control, ...] = ()

    def __init__(self, id: str, classifier: str | None = None, parts: tuple[Part, ...] = (),
                 children: tuple[Control, ...] = ()) -> None:
        fields = self.__dict__
        fields["id"] = id.lower()
        fields["classifier"] = classifier
        fields["parts"] = tuple(parts)
        fields["children"] = tuple(children)

    def part(self, name: str) -> Part | None:
        lowered = name.lower()
        for part in self.parts:
            if part.name == lowered:
                return part
        return None


class Metadata(_Record):
    """A document's title and version."""

    title: str
    version: str

    def __init__(self, title: str, version: str) -> None:
        fields = self.__dict__
        fields["title"] = title
        fields["version"] = version


class Catalog(_Record):
    """A source or resolved collection of controls.

    ``uri`` records where the document was loaded from (store-relative
    path) and is excluded from structural equality.
    """

    metadata: Metadata
    controls: tuple[Control, ...] = ()
    uri: str = field(default="", compare=False)

    def __init__(self, metadata: Metadata, controls: tuple[Control, ...] = (),
                 uri: str = "") -> None:
        fields = self.__dict__
        fields["metadata"] = metadata
        fields["controls"] = tuple(controls)
        fields["uri"] = uri


class RemoveDirective(_Record):
    """Deletes every part matched by exactly one selector."""

    by_name: str | None = None
    by_class: str | None = None

    def __init__(self, by_name: str | None = None, by_class: str | None = None) -> None:
        fields = self.__dict__
        fields["by_name"] = None if by_name is None else by_name.lower()
        fields["by_class"] = by_class

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


class AddDirective(_Record):
    """Appends parts to a control; only the ``ending`` position is supported."""

    parts: tuple[Part, ...]
    position: str = "ending"

    def __init__(self, parts: tuple[Part, ...], position: str = "ending") -> None:
        fields = self.__dict__
        fields["parts"] = tuple(parts)
        fields["position"] = position


class Alteration(_Record):
    """Removes, then adds, parts on one target control."""

    control_id: str
    removes: tuple[RemoveDirective, ...] = ()
    adds: tuple[AddDirective, ...] = ()

    def __init__(self, control_id: str, removes: tuple[RemoveDirective, ...] = (),
                 adds: tuple[AddDirective, ...] = ()) -> None:
        fields = self.__dict__
        fields["control_id"] = control_id.lower()
        fields["removes"] = tuple(removes)
        fields["adds"] = tuple(adds)


class ImportDirective(_Record):
    """Selects controls from one source document.

    ``include`` is either the string ``"all"`` or an explicit tuple of
    control ids; excluded ids prune whole subtrees. Any other string is a
    structural error that selects nothing.
    """

    source: str
    include: str | tuple[str, ...] = INCLUDE_ALL
    exclude: tuple[str, ...] = ()

    def __init__(self, source: str, include: str | tuple[str, ...] = INCLUDE_ALL,
                 exclude: tuple[str, ...] = ()) -> None:
        fields = self.__dict__
        fields["source"] = source
        fields["include"] = include if isinstance(include, str) else tuple(
            [i.lower() for i in include])
        fields["exclude"] = tuple([e.lower() for e in exclude])

    @property
    def include_all(self) -> bool:
        return self.include == INCLUDE_ALL

    @property
    def include_ids(self) -> tuple[str, ...]:
        """The listed include ids; none when ``include`` is a string."""
        return () if isinstance(self.include, str) else self.include


class Profile(_Record):
    """An import-plus-alterations document transforming catalogs."""

    metadata: Metadata
    imports: tuple[ImportDirective, ...] = ()
    alterations: tuple[Alteration, ...] = ()
    uri: str = field(default="", compare=False)

    def __init__(self, metadata: Metadata, imports: tuple[ImportDirective, ...] = (),
                 alterations: tuple[Alteration, ...] = (), uri: str = "") -> None:
        fields = self.__dict__
        fields["metadata"] = metadata
        fields["imports"] = tuple(imports)
        fields["alterations"] = tuple(alterations)
        fields["uri"] = uri

    @cached_property
    def structure_findings(self) -> tuple[Finding, ...]:
        """``profile_structure_findings`` of this object, computed on first use only."""
        return tuple(profile_structure_findings(self))


class DocumentEnvelope(_Record):
    """A parsed document: exactly one of a catalog or a profile."""

    kind: str  # "catalog" | "profile"
    body: Catalog | Profile

    def __init__(self, kind: str, body: Catalog | Profile) -> None:
        fields = self.__dict__
        fields["kind"] = kind
        fields["body"] = body


class Finding(_Record):
    """One problem a check found, at a path inside the document."""

    severity: str  # ERROR | WARNING
    path: str
    message: str

    def __init__(self, severity: str, path: str, message: str) -> None:
        fields = self.__dict__
        fields["severity"] = severity
        fields["path"] = path
        fields["message"] = message


ValidationReport = list[Finding]


def has_errors(report: Iterable[Finding]) -> bool:
    return any(f.severity == ERROR for f in report)


def _valid_identifier(value: str, valid: set[str]) -> bool:
    """Whether ``value`` is a valid identifier; ``valid`` holds those already matched.

    A report passes one ``valid`` set to every check, so each distinct
    identifier is matched once; part names and classes repeat across controls.
    """
    if value in valid:
        return True
    if IDENTIFIER_RE.fullmatch(value) is None:
        return False
    valid.add(value)
    return True


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


# A report formats a node's path only for a finding there: a control's
# location is kept as ``(parent's location, id)`` until one is reported.


def _control_path(location: tuple) -> str:
    """The path of the control at ``location``: ``controls/<id>/children/<id>...``."""
    ids = []
    while location is not None:
        location, control_id = location
        ids.append(control_id)
    return "controls/" + "/children/".join(reversed(ids))


def _part_problems(part: Part, valid: set[str]) -> list[str]:
    """Messages for each invariant ``part`` breaks on its own."""
    problems = []
    name, classifier, prose = part.name, part.classifier, part.prose
    if not name:
        problems.append("part name is empty")
    elif not _valid_identifier(name, valid):
        problems.append(f"part name {name!r} is not a valid identifier")
    if classifier is not None and not _valid_identifier(classifier, valid):
        problems.append(f"part class {classifier!r} is not a valid identifier")
    if not prose or prose.isspace():  # what ``strip`` empties, without copying the prose
        problems.append("part prose is empty")
    return problems


def _validate_control(control: Control, parent: tuple | None, seen_ids: dict[str, tuple],
                      valid: set[str], findings: ValidationReport) -> None:
    control_id, classifier = control.id, control.classifier
    here = (parent, control_id)
    if not control_id:
        findings.append(Finding(ERROR, _control_path(here), "control id is empty"))
    elif not _valid_identifier(control_id, valid):
        findings.append(Finding(ERROR, _control_path(here),
                                f"control id {control_id!r} is not a valid identifier"))
    first = seen_ids.get(control_id)
    if first is None:
        seen_ids[control_id] = here
    else:
        findings.append(Finding(ERROR, _control_path(here), f"duplicate control id {control_id!r} "
                                                            f"(also at {_control_path(first)})"))
    if classifier is not None and not _valid_identifier(classifier, valid):
        findings.append(Finding(ERROR, _control_path(here),
                                f"control class {classifier!r} is not a valid identifier"))

    part_names: set[str] = set()
    for index, part in enumerate(control.parts):
        problems = _part_problems(part, valid)
        if part.name in part_names:
            problems.append(f"duplicate part name {part.name!r}")
        part_names.add(part.name)
        if part.name == STATEMENT_PART and index != 0:
            problems.append("statement must be first")
        if problems:
            part_path = f"{_control_path(here)}/parts/{index}"
            findings.extend(Finding(ERROR, part_path, message) for message in problems)

    for child in control.children:
        _validate_control(child, here, seen_ids, valid, findings)


def _metadata_findings(metadata: Metadata) -> ValidationReport:
    findings: ValidationReport = []
    if not metadata.title.strip():
        findings.append(Finding(WARNING, "metadata/title", "title is empty"))
    if not metadata.version.strip():
        findings.append(Finding(WARNING, "metadata/version", "version is empty"))
    return findings


def validate_catalog(catalog: Catalog) -> ValidationReport:
    """Check every catalog invariant; an empty report means the catalog is valid."""
    findings = _metadata_findings(catalog.metadata)
    seen_ids: dict[str, tuple] = {}
    valid: set[str] = set()
    for control in catalog.controls:
        _validate_control(control, None, seen_ids, valid, findings)
    return findings


def profile_structure_findings(profile: Profile) -> ValidationReport:
    """Invariant checks that need no resolved sources (used by the parser too)."""
    findings = _metadata_findings(profile.metadata)
    if not profile.imports:
        findings.append(Finding(ERROR, "imports", "profile must import at least one source"))

    valid: set[str] = set()
    for index, imp in enumerate(profile.imports):
        problems = []
        if not imp.source:
            problems.append("import source is empty")
        if isinstance(imp.include, str) and not imp.include_all:
            problems.append(f"include must be \"all\" or a list of control ids, got {imp.include!r}")
        for cid in imp.include_ids:
            if not _valid_identifier(cid, valid):
                problems.append(f"include id {cid!r} is not a valid identifier")
        overlap = sorted(set(imp.include_ids) & set(imp.exclude))
        if overlap:
            problems.append(f"include and exclude overlap: {', '.join(overlap)}")
        for cid in imp.exclude:
            if not _valid_identifier(cid, valid):
                problems.append(f"exclude id {cid!r} is not a valid identifier")
        if problems:
            path = f"imports/{index}"
            findings.extend(Finding(ERROR, path, message) for message in problems)

    seen_targets: set[str] = set()
    for alteration in profile.alterations:
        control_id = alteration.control_id
        problems = []
        if not _valid_identifier(control_id, valid):
            problems.append(f"control-id {control_id!r} is not a valid identifier")
        if control_id in seen_targets:
            problems.append(f"duplicate alteration for control {control_id!r}")
        seen_targets.add(control_id)
        if not alteration.removes and not alteration.adds:
            problems.append("alteration has no removes and no adds")
        if problems:
            path = f"alterations/{control_id}"
            findings.extend(Finding(ERROR, path, message) for message in problems)
        for rindex, remove in enumerate(alteration.removes):
            if (remove.by_name is None) == (remove.by_class is None):
                findings.append(Finding(ERROR, f"alterations/{control_id}/removes/{rindex}",
                                        "exactly one selector must be populated"))
        for aindex, add in enumerate(alteration.adds):
            problems = []
            if not add.parts:
                problems.append("add directive has no parts")
            if add.position != "ending":
                problems.append(f"unsupported position {add.position!r}")
            if problems:
                path = f"alterations/{control_id}/adds/{aindex}"
                findings.extend(Finding(ERROR, path, message) for message in problems)
            names: set[str] = set()
            for pindex, part in enumerate(add.parts):
                problems = _part_problems(part, valid)
                if part.name in names:
                    problems.append(f"duplicate part name {part.name!r}")
                names.add(part.name)
                if problems:
                    path = f"alterations/{control_id}/adds/{aindex}/parts/{pindex}"
                    findings.extend(Finding(ERROR, path, message) for message in problems)
    return findings

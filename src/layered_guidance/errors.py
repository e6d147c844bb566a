"""Exception types shared across the engine."""

from __future__ import annotations

from copyreg import __newobj__


class GuidanceError(Exception):
    """Base class for every error raised by this package.

    ``source`` names the document (store uri or file path) the error came
    from, when known; reporting layers prefix it to the message.
    """

    source: str | None = None

    def __reduce__(self):
        """Rebuilt without ``__init__``: ``__new__`` with the ``args``, then the ``__dict__``.

        ``args`` holds the formatted message, so ``pickle`` and ``copy``
        must not pass it to an ``__init__`` that formats it again.
        """
        return __newobj__, (self.__class__, *self.args), self.__dict__


class DocumentSyntaxError(GuidanceError):
    """Input text is not well-formed YAML or JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"syntax error{location}: {message}")
        self.line = line
        self.column = column


class SchemaError(GuidanceError):
    """Document structure violates the schema: unknown key, wrong type, missing field."""

    def __init__(self, message: str, path: str = "") -> None:
        prefix = f"{path}: " if path else ""
        super().__init__(f"{prefix}{message}")
        self.path = path


class ValidationError(GuidanceError):
    """A structurally well-formed document violates model invariants."""

    def __init__(self, findings) -> None:
        self.findings = tuple(findings)
        errors = [f for f in self.findings if f.severity == "error"] or list(self.findings)
        head = errors[0]
        suffix = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        super().__init__(f"{head.path}: {head.message}{suffix}")


class StoreError(GuidanceError):
    """A document store could not satisfy a request."""


class NotFound(StoreError):
    def __init__(self, uri: str) -> None:
        super().__init__(f"document not found: {uri}")
        self.uri = uri


class InvalidUri(StoreError):
    def __init__(self, uri: str, reason: str) -> None:
        super().__init__(f"invalid uri {uri!r}: {reason}")
        self.uri = uri


class ResolutionError(GuidanceError):
    """Profile resolution cannot produce a catalog."""


class UnknownControlId(ResolutionError):
    def __init__(self, control_id: str, context: str = "") -> None:
        suffix = f" ({context})" if context else ""
        super().__init__(f"unknown control id: {control_id!r}{suffix}")
        self.control_id = control_id


class DuplicateControlId(ResolutionError):
    def __init__(self, control_id: str, context: str = "") -> None:
        suffix = f" ({context})" if context else ""
        super().__init__(f"duplicate control id: {control_id!r}{suffix}")
        self.control_id = control_id


class RemovalMatchedNothing(ResolutionError):
    def __init__(self, control_id: str, selector_kind: str, selector_value: str) -> None:
        super().__init__(
            f"removal matched nothing: control {control_id!r}, "
            f"selector {selector_kind} {selector_value!r}"
        )
        self.control_id = control_id
        self.selector_kind = selector_kind
        self.selector_value = selector_value


class DuplicatePartName(ResolutionError):
    def __init__(self, control_id: str, part_name: str) -> None:
        super().__init__(f"duplicate part name: {part_name!r} on control {control_id!r}")
        self.control_id = control_id
        self.part_name = part_name


class StatementNotFirst(ResolutionError):
    def __init__(self, control_id: str) -> None:
        super().__init__(f"statement part would not be first on control {control_id!r}")
        self.control_id = control_id


class CycleDetected(ResolutionError):
    def __init__(self, path: list[str] | tuple[str, ...]) -> None:
        self.path = tuple(path)
        super().__init__("import cycle: " + " -> ".join(self.path))


class UnknownFixture(GuidanceError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown fixture: {name!r}")
        self.name = name

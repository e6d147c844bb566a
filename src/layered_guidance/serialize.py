"""Parsing and canonical serialization of guidance documents.

Documents are YAML or JSON with a single top-level ``catalog:`` or
``profile:`` key. Parsing is strict: unknown keys, wrong types, and missing
required fields are schema errors; model-invariant violations raise
``ValidationError``.

Block YAML of the subset the canonical emitter writes, which covers every
canonical document, is read line by line (``_read_block``): block mappings
and sequences with compact ``- key:`` items, each nested block two columns
right of its key or dash; plain scalars and keys that the strict loader's
resolver reads as str; single-line double-quoted scalars with JSON's
escapes but no surrogate escape; ``>-`` folded scalars whose body lines
all start two columns right of their key or dash; and ``[]``. Anything
else (flow style, a comment, a single-quoted or literal scalar, a tag,
anchor or alias, another indent, a blank or more-indented line, a tab, CR,
BOM, control or separator character, a scalar of another type, a
duplicate key, a ``key:`` without a nested block, no final newline, not
exactly one document, a syntax error) goes to the general strict loader,
the only source of loader errors, so their wording, marks and exit code
are the same on both paths.

Building the model checks each mapping's keys against its type's
required and allowed key sets. Each builder is handed its node's path
unformatted, and a value's path (such as
``catalog/controls/0/parts/1/prose``) is formatted only to report a
failure there. Validation does the same: ``validate_catalog`` and
``profile_structure_findings`` format a path only for a finding.

Serialization is canonical so output is byte-stable and diff-friendly:
UTF-8, LF endings, 2-space indent, block style only, fixed key order per
type, defaults omitted, and prose longer than 80 columns emitted as a
folded scalar where the text permits it (otherwise a quoted scalar). The
text permits it when it is words separated by single spaces, with no
leading or trailing space and no character a fold would alter; the words
wrap greedily, and a word longer than the width gets a line of its own.
A catalog's YAML is built as a header plus one own block per control in
pre-order (``catalog_blocks``), so a caller can compare it block by block;
both are written straight from the model, and a memo keeps each own block
and each scalar's text (``_scalar_text``, the one scalar rule).
"""

from __future__ import annotations

import functools
import json
import re
from collections.abc import Callable
from pathlib import PurePath
from typing import Any

import yaml
from yaml.nodes import ScalarNode

from .errors import DocumentSyntaxError, SchemaError, ValidationError
from .model import (
    INCLUDE_ALL,
    AddDirective,
    Alteration,
    Catalog,
    Control,
    DocumentEnvelope,
    ImportDirective,
    Metadata,
    Part,
    Profile,
    RemoveDirective,
    has_errors,
    validate_catalog,
)

YAML = "yaml"
JSON = "json"
AUTO = "auto"

_WRAP_COLUMN = 80


# ---------------------------------------------------------------------------
# Parsing


class _StrictLoader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """Safe loader that rejects duplicate and non-string mapping keys.

    It parses with libyaml when PyYAML was built with it and in pure Python
    otherwise; syntax-error wording follows the parser, marks do not.
    """


def _construct_mapping(loader: _StrictLoader, node: yaml.MappingNode, deep: bool = False) -> dict:
    mapping: dict = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        mark = key_node.start_mark
        if not isinstance(key, str):
            raise SchemaError(
                f"mapping key must be a string (line {mark.line + 1}, column {mark.column + 1})"
            )
        if key in mapping:
            raise SchemaError(
                f"duplicate key {key!r} (line {mark.line + 1}, column {mark.column + 1})"
            )
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)


_DECLINED = object()  # what ``_read_block`` returns when ``_StrictLoader`` has to decide

# Characters the block reader leaves to ``_StrictLoader``: controls but the
# line feed, line and paragraph separators, surrogates, the byte order mark,
# U+FFFE and U+FFFF. ASCII text is checked by deleting the bytes allowed.
_ALLOWED_ASCII = b"\n" + bytes(range(0x20, 0x7F))
_FOREIGN_RE = re.compile("[\x00-\x09\x0b-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufeff\ufffe\uffff]")
# A plain scalar starts with none of these (a space included) and ends in
# neither a colon nor a space.
_NOT_PLAIN_START = "-?:,[]{}#&*!|>'\"%@` "
_NOT_PLAIN_END = ": "
# A single-line double-quoted scalar with JSON's escapes, no surrogate escape.
_QUOTED_RE = re.compile(r'"(?:[^"\\]|\\["\\/bfnrt]|\\u(?![dD][89a-fA-F])[0-9a-fA-F]{4})*"')
_PLAIN_IMPLICIT = (True, False)  # the implicit flags of a plain scalar


def _is_plain_str(value: str, loader: type) -> bool:
    """Whether ``value`` written plain on one line, as a scalar or a key, reads back as itself.

    When an implicit resolver is keyed by its first character, ``value`` is
    asked of ``loader``'s resolver, which must give the str tag. The
    resolver is called on the loader class: with no path resolvers, it
    reads class attributes only.
    """
    return (value != "" and value[0] not in _NOT_PLAIN_START and value[-1] not in _NOT_PLAIN_END
            and ": " not in value and " #" not in value
            and (value[:1] not in loader.yaml_implicit_resolvers
                 or loader.resolve(loader, ScalarNode, value, _PLAIN_IMPLICIT)
                 == loader.DEFAULT_SCALAR_TAG))


def _read_block(text: str) -> Any:
    """``text``'s dict/list/str tree if it is block YAML of the subset, else ``_DECLINED``.

    ``text`` is read line by line with a stack of the open collections and
    their columns. A nested block, and each line of a ``>-`` body, starts
    two columns right of its key or dash. Plain scalars and keys must read
    back as themselves under ``_StrictLoader`` (``_is_plain_str``), looked
    up per call so that a stand-in loader decides them too.
    """
    if text[-1:] != "\n":
        return _DECLINED
    if text.isascii():
        if text.encode().translate(None, _ALLOWED_ASCII):
            return _DECLINED
    elif _FOREIGN_RE.search(text):
        return _DECLINED
    loader = _StrictLoader
    plain_strs: set[str] = set()  # plain scalars and keys already accepted in this document
    lines = text.split("\n")
    lines.pop()  # the empty string after the final line end
    count = len(lines)
    root = top = [] if lines[0][:2] == "- " else {}
    column = 0  # the column of ``top``'s keys or dashes
    stack: list = []  # (collection, column) of each collection enclosing ``top``
    pending: str | None = None  # a key of ``top`` whose value is the block on the next line
    index = 0
    while index < count:
        line = lines[index]
        index += 1
        content = line.lstrip(" ")
        indent = len(line) - len(content)
        if pending is not None:
            if indent != column + 2:
                return _DECLINED
            child = [] if content[:2] == "- " else {}
            top[pending] = child
            stack.append((top, column))
            top, column, pending = child, indent, None
        elif indent != column:
            while indent < column:
                top, column = stack.pop()
            if indent != column:
                return _DECLINED
        key = None
        if top.__class__ is list:
            if content[:2] != "- ":
                return _DECLINED
            content = content[2:]
            if content[:1] != '"' and (": " in content or content[-1:] == ":"):
                # a compact ``- key:`` item: a mapping whose first key is on this line
                child = {}
                top.append(child)
                stack.append((top, column))
                top, column = child, column + 2
            else:
                value = content
        if top.__class__ is dict:
            key, separator, value = content.partition(": ")
            if not separator:
                if key[-1:] != ":":
                    return _DECLINED
                key, value = key[:-1], None
            if len(key) > 256 or key in top:  # far below the 1024 a simple key may span
                return _DECLINED
            if key not in plain_strs:
                if not _is_plain_str(key, loader):
                    return _DECLINED
                plain_strs.add(key)
            if value is None:
                pending = key
                continue
        # ``value`` is the scalar after the key or dash at ``column``; a
        # scalar already accepted as plain is neither quoted, folded nor ``[]``
        if value in plain_strs:
            pass
        elif value[:1] == '"':
            if "\\" in value:
                if _QUOTED_RE.fullmatch(value) is None:
                    return _DECLINED
                value = json.loads(value)
            elif value.find('"', 1) != len(value) - 1:
                return _DECLINED
            else:
                value = value[1:-1]
        elif value == ">-":
            body_column = column + 2
            pad = " " * body_column
            first = index
            while index < count and lines[index][:body_column] == pad:
                index += 1
            value = " ".join([line[body_column:] for line in lines[first:index]])
            if not value or value[0] == " " or value[-1] == " " or "  " in value:
                return _DECLINED  # no body, or a blank, more-indented or trailing-space line
        elif value == "[]":
            value = []
        elif _is_plain_str(value, loader):
            plain_strs.add(value)
        else:
            return _DECLINED
        if key is None:
            top.append(value)
        else:
            top[key] = value
    if pending is not None:
        return _DECLINED
    return root


class _BlockReader:
    """A loader for ``yaml.load`` whose only work is ``_read_block``: no parser, no events."""

    def __init__(self, stream: str) -> None:
        self._text = stream

    def get_single_data(self) -> Any:
        return _read_block(self._text)

    def dispose(self) -> None:
        pass


def _load_yaml(text: str) -> Any:
    # Both paths go through ``yaml.load``, so whatever wraps it to time the
    # parser (perfbench's trace spans) sees every parse.
    tree = yaml.load(text, Loader=_BlockReader)
    if tree is not _DECLINED:
        return tree
    try:
        return yaml.load(text, Loader=_StrictLoader)
    except SchemaError:
        raise
    except UnicodeEncodeError as exc:  # libyaml encodes str input to UTF-8 itself
        code = ord(exc.object[exc.start])
        raise DocumentSyntaxError(f"unacceptable character #x{code:04x}: {exc.reason}") from exc
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        line = mark.line + 1 if mark else None
        column = mark.column + 1 if mark else None
        raise DocumentSyntaxError(exc.problem or str(exc), line, column) from exc
    except yaml.YAMLError as exc:
        raise DocumentSyntaxError(str(exc)) from exc


def _json_pairs(pairs: list[tuple[str, Any]]) -> dict:
    mapping: dict = {}
    for key, value in pairs:
        if key in mapping:
            raise SchemaError(f"duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _load_json(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_json_pairs)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, exc.lineno, exc.colno) from exc


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

# Each builder takes its node's path unformatted, as ``at``: a str, or
# ``(parent's at, key, index)`` for a list item. ``_path`` formats it only
# to report a failure, which is the one place a ``SchemaError`` is raised.


def _path(at: Any, key: str | None = None) -> str:
    """The slash path ``at`` names, followed by ``key`` when given."""
    if at.__class__ is tuple:
        parent, list_key, index = at
        at = f"{_path(parent)}/{list_key}/{index}"
    return at if key is None else f"{at}/{key}"


def _expect_mapping(value: Any, at: Any, keys: tuple[frozenset, frozenset]) -> dict:
    """``value`` as a mapping with only allowed keys and every required one.

    The first unknown key in document order is reported before the first
    missing key in sorted order.
    """
    if value.__class__ is not dict and not isinstance(value, dict):
        raise SchemaError(f"expected a mapping, got {type(value).__name__}", _path(at))
    required, allowed = keys
    present = value.keys()
    if not present <= allowed:
        unknown = next(key for key in value if key not in allowed)
        raise SchemaError(f"unknown key {unknown!r}", _path(at))
    if not required <= present:
        raise SchemaError(f"missing required key {min(required - present)!r}", _path(at))
    return value


# The builders test ``value.__class__`` against the exact type the loaders
# produce, and call these checks, which accept a subclass too, only when
# that test fails.


def _expect_str(value: Any, at: Any, key: str | None = None) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"expected a string, got {type(value).__name__}", _path(at, key))
    return value


def _expect_list(value: Any, at: Any, key: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"expected a list, got {type(value).__name__}", _path(at, key))
    return value


def _optional_str(mapping: dict, key: str, at: Any) -> str | None:
    """The string ``mapping[key]``, or None when ``key`` is absent."""
    value = mapping.get(key)
    if value.__class__ is not str and key in mapping:
        _expect_str(value, at, key)
    return value


def _build_list(mapping: dict, key: str, at: Any, build: Callable[[Any, Any], Any]) -> tuple:
    """``build`` applied to each item of the optional list ``mapping[key]``.

    An item's path goes to ``build`` as ``(at, key, index)``, formatted only
    if that item fails.
    """
    items = mapping.get(key)
    if items.__class__ is not list:
        if key not in mapping:
            return ()
        items = _expect_list(items, at, key)
    built = []  # a loop: most lists hold one item, and a comprehension costs a call of its own
    for index, item in enumerate(items):
        built.append(build(item, (at, key, index)))
    return tuple(built)


def _str_list(value: Any, at: Any, key: str) -> list[str]:
    items = value if value.__class__ is list else _expect_list(value, at, key)
    for index, item in enumerate(items):
        if item.__class__ is not str:
            _expect_str(item, (at, key, index))
    return items


def _build_metadata(value: Any, at: Any) -> Metadata:
    mapping = _expect_mapping(value, at, _METADATA_KEYS)
    return Metadata(_expect_str(mapping["title"], at, "title"),
                    _expect_str(mapping["version"], at, "version"))


def _build_part(value: Any, at: Any) -> Part:
    mapping = _expect_mapping(value, at, _PART_KEYS)
    classifier = _optional_str(mapping, "class", at)
    name, prose = mapping["name"], mapping["prose"]
    if name.__class__ is not str:
        _expect_str(name, at, "name")
    if prose.__class__ is not str:
        _expect_str(prose, at, "prose")
    return Part(name, prose, classifier)


def _build_control(value: Any, at: Any) -> Control:
    mapping = _expect_mapping(value, at, _CONTROL_KEYS)
    classifier = _optional_str(mapping, "class", at)
    parts = _build_list(mapping, "parts", at, _build_part)
    children = _build_list(mapping, "children", at, _build_control)
    control_id = mapping["id"]
    if control_id.__class__ is not str:
        _expect_str(control_id, at, "id")
    return Control(control_id, classifier, parts, children)


def _build_catalog(value: Any, at: str, uri: str) -> Catalog:
    mapping = _expect_mapping(value, at, _CATALOG_KEYS)
    controls = _build_list(mapping, "controls", at, _build_control)
    return Catalog(_build_metadata(mapping["metadata"], _path(at, "metadata")), controls, uri)


def _build_import(value: Any, at: Any) -> ImportDirective:
    mapping = _expect_mapping(value, at, _IMPORT_KEYS)
    include: str | list[str] = INCLUDE_ALL
    if "include" in mapping:
        raw = mapping["include"]
        if isinstance(raw, str):
            if raw != INCLUDE_ALL:
                raise SchemaError(f"include must be \"all\" or a list of control ids, got {raw!r}",
                                  _path(at, "include"))
        else:
            include = _str_list(raw, at, "include")
    exclude = _str_list(mapping["exclude"], at, "exclude") if "exclude" in mapping else ()
    return ImportDirective(_expect_str(mapping["source"], at, "source"), include, exclude)


def _build_remove(value: Any, at: Any) -> RemoveDirective:
    mapping = _expect_mapping(value, at, _REMOVE_KEYS)
    if len(mapping) != 1:
        raise SchemaError("exactly one of by-name/by-class must be given", _path(at))
    by_name = _optional_str(mapping, "by-name", at)
    if by_name is not None:
        return RemoveDirective(by_name)
    return RemoveDirective(None, _optional_str(mapping, "by-class", at))


def _build_add(value: Any, at: Any) -> AddDirective:
    mapping = _expect_mapping(value, at, _ADD_KEYS)
    position = _optional_str(mapping, "position", at)
    if position is None:
        position = "ending"
    elif position != "ending":
        raise SchemaError(f"unsupported position {position!r}", _path(at, "position"))
    return AddDirective(_build_list(mapping, "parts", at, _build_part), position)


def _build_alteration(value: Any, at: Any) -> Alteration:
    mapping = _expect_mapping(value, at, _ALTERATION_KEYS)
    removes = _build_list(mapping, "removes", at, _build_remove)
    adds = _build_list(mapping, "adds", at, _build_add)
    control_id = mapping["control-id"]
    if control_id.__class__ is not str:
        _expect_str(control_id, at, "control-id")
    return Alteration(control_id, removes, adds)


def _build_profile(value: Any, at: str, uri: str) -> Profile:
    mapping = _expect_mapping(value, at, _PROFILE_KEYS)
    imports = _build_list(mapping, "imports", at, _build_import)
    alterations = _build_list(mapping, "alterations", at, _build_alteration)
    return Profile(_build_metadata(mapping["metadata"], _path(at, "metadata")), imports,
                   alterations, uri)


def format_of(path: str | PurePath) -> str:
    """The format a document file is read in: JSON when its name ends in ``.json``, else YAML."""
    return JSON if PurePath(path).suffix == ".json" else YAML


def parse_document(text: bytes | str, format: str = AUTO, uri: str = "") -> DocumentEnvelope:
    """Parse and validate one document; returns its envelope, whose body has ``uri``.

    ``format`` is ``yaml``, ``json``, or ``auto`` (sniffed: a leading ``{``
    means JSON). A profile keeps the structural findings checked here, so
    resolving it does not check them again.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentSyntaxError(f"invalid UTF-8: {exc}") from exc
    if format == AUTO:
        format = JSON if text.lstrip()[:1] == "{" else YAML
    if format == JSON:
        raw = _load_json(text)
    elif format == YAML:
        raw = _load_yaml(text)
    else:
        raise ValueError(f"unknown format {format!r}")

    if not isinstance(raw, dict):
        raise SchemaError(f"top level must be a mapping, got {type(raw).__name__}")
    kinds = [key for key in ("catalog", "profile") if key in raw]
    unknown = [key for key in raw if key not in ("catalog", "profile")]
    if unknown:
        raise SchemaError(f"unknown key {unknown[0]!r}")
    if len(kinds) != 1:
        raise SchemaError("exactly one of 'catalog' or 'profile' must be present")
    kind = kinds[0]

    body: Catalog | Profile
    if kind == "catalog":
        body = _build_catalog(raw[kind], "catalog", uri)
        findings = validate_catalog(body)
    else:
        body = _build_profile(raw[kind], "profile", uri)
        findings = body.structure_findings
    if has_errors(findings):
        raise ValidationError(findings)
    return DocumentEnvelope(kind=kind, body=body)


# ---------------------------------------------------------------------------
# Canonical plain structure (dicts/lists/strings in fixed key order)


def _part_plain(part: Part) -> dict:
    plain: dict = {"name": part.name}
    if part.classifier is not None:
        plain["class"] = part.classifier
    plain["prose"] = part.prose
    return plain


def _control_plain(control: Control) -> dict:
    plain: dict = {"id": control.id}
    if control.classifier is not None:
        plain["class"] = control.classifier
    if control.parts:
        plain["parts"] = [_part_plain(p) for p in control.parts]
    if control.children:
        plain["children"] = [_control_plain(c) for c in control.children]
    return plain


def _metadata_plain(metadata: Metadata) -> dict:
    return {"title": metadata.title, "version": metadata.version}


def _catalog_plain(catalog: Catalog) -> dict:
    plain: dict = {"metadata": _metadata_plain(catalog.metadata)}
    if catalog.controls:
        plain["controls"] = [_control_plain(c) for c in catalog.controls]
    return plain


def _import_plain(directive: ImportDirective) -> dict:
    plain: dict = {"source": directive.source}
    include = directive.include
    plain["include"] = include if isinstance(include, str) else list(include)
    if directive.exclude:
        plain["exclude"] = list(directive.exclude)
    return plain


def _alteration_plain(alteration: Alteration) -> dict:
    plain: dict = {"control-id": alteration.control_id}
    if alteration.removes:
        removes = []
        for remove in alteration.removes:
            if remove.by_name is not None:
                removes.append({"by-name": remove.by_name})
            else:
                removes.append({"by-class": remove.by_class})
        plain["removes"] = removes
    if alteration.adds:
        plain["adds"] = [{"parts": [_part_plain(p) for p in add.parts]} for add in alteration.adds]
    return plain


def _profile_plain(profile: Profile) -> dict:
    plain: dict = {"metadata": _metadata_plain(profile.metadata)}
    plain["imports"] = [_import_plain(i) for i in profile.imports]
    if profile.alterations:
        plain["alterations"] = [_alteration_plain(a) for a in profile.alterations]
    return plain


def document_plain(doc: DocumentEnvelope) -> dict:
    """The canonical dict/list/str form of a document (fixed key order)."""
    if doc.kind == "catalog":
        return {"catalog": _catalog_plain(doc.body)}  # type: ignore[arg-type]
    return {"profile": _profile_plain(doc.body)}  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Canonical YAML emission

_PLAIN_BODY_RE = re.compile(r"[A-Za-z_][^\x00-\x1f\x7f-\x9f  \ufffe\uffff]*")
# Words like these would be resolved to booleans/null by a YAML parser.
_AMBIGUOUS_PLAIN = {
    "true", "false", "yes", "no", "on", "off", "null", "none", "y", "n", "~",
}
_UNSAFE_WORD_RE = re.compile(r"[\x00-\x1f\x7f-\x9f  \ufffe\uffff]")


def _plain_safe(value: str) -> bool:
    return (value == value.strip() and _PLAIN_BODY_RE.fullmatch(value) is not None
            and ": " not in value and not value.endswith(":") and " #" not in value
            and value.lower() not in _AMBIGUOUS_PLAIN)


def _foldable(value: str) -> bool:
    """Whether ``value`` is words split by single spaces, none holding a character a fold would alter."""
    return (" " in value and value[0] != " " and value[-1] != " " and "  " not in value
            and not _UNSAFE_WORD_RE.search(value))


_QUOTE_ESCAPES = str.maketrans({
    **{chr(code): f"\\u{code:04x}" for code in (*range(0x20), *range(0x7F, 0xA0),
                                                0x2028, 0x2029, 0xFEFF, 0xFFFE, 0xFFFF)},
    '"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r",
})


def _quote(value: str) -> str:
    return f'"{value.translate(_QUOTE_ESCAPES)}"'


@functools.cache  # widths run from 20 to 78, so few patterns are ever kept
def _wrap_re(width: int) -> re.Pattern:
    """Greedy word wrap at ``width``: each match is one line; a longer word gets a line to itself."""
    return re.compile(rf"(.{{1,{width}}}|[^ ]+)(?: |\Z)")


def _scalar_text(value: str, indent: int, memo: dict | None = None) -> str:
    """What follows a key or dash at ``indent``: `` value``, quoted, or ``>-`` and folded lines.

    ``memo`` keeps each text, keyed by a value of up to ``_WRAP_COLUMN``
    characters alone and by ``(value, indent)`` when the fold width matters.
    """
    if memo is not None:
        key = value if len(value) <= _WRAP_COLUMN else (value, indent)
        text = memo.get(key)
        if text is None:
            text = memo[key] = _scalar_text(value, indent)
        return text
    if len(value) > _WRAP_COLUMN and _foldable(value):
        body_break = "\n" + " " * (indent + 2)
        body = _wrap_re(max(_WRAP_COLUMN - indent - 2, 20)).findall(value)
        return " >-" + body_break + body_break.join(body)
    if _plain_safe(value):
        return " " + value
    return " " + _quote(value)


def _emit_scalar(head: str, value: str, indent: int, lines: list[str]) -> None:
    """Emit ``<head> <scalar>``, ``head`` holding its indent; folds long prose when safe."""
    lines.append(head + _scalar_text(value, indent))


def _emit_mapping(mapping: dict, indent: int, lines: list[str]) -> None:
    pad = " " * indent
    for key, value in mapping.items():
        kind = value.__class__
        if kind is dict:
            lines.append(f"{pad}{key}:")
            _emit_mapping(value, indent + 2, lines)
        elif kind is list and not value:
            lines.append(f"{pad}{key}: []")  # a bare key would read back as null
        elif kind is list:
            lines.append(f"{pad}{key}:")
            _emit_sequence(value, indent + 2, lines)
        else:
            _emit_scalar(f"{pad}{key}:", value, indent, lines)


def _emit_sequence(items: list, indent: int, lines: list[str]) -> None:
    head = " " * indent + "-"
    dash = head + " "
    for item in items:
        kind = item.__class__
        if kind is dict:
            first = len(lines)
            _emit_mapping(item, indent + 2, lines)
            lines[first] = dash + lines[first][indent + 2:]
        elif kind is list:
            raise TypeError("nested sequences are not part of the document model")
        else:
            _emit_scalar(head, item, indent, lines)


def _emit_yaml(plain: dict) -> str:
    lines: list[str] = []
    _emit_mapping(plain, 0, lines)
    return "\n".join(lines) + "\n"


def emit_control(control: Control, indent: int, memo: dict | None = None) -> str:
    """``control``'s own block: its item at column ``indent``, up to its ``children:`` key.

    The block holds the ``- id:`` line, the other fields, the parts and the
    ``children:`` key when there are children, but not the children, and
    ends with a line end; a childless control's block is its whole YAML.
    The keys come in ``_control_plain``'s and ``_part_plain``'s order.
    Scalar texts are decided through ``memo`` (``_scalar_text``).
    """
    pad = " " * (indent + 2)
    out = [" " * indent, "- id:", _scalar_text(control.id, indent + 2, memo), "\n"]
    if control.classifier is not None:
        out += (pad, "class:", _scalar_text(control.classifier, indent + 2, memo), "\n")
    if control.parts:
        out += (pad, "parts:\n")
        dash = pad + "  - name:"
        part_pad = pad + "    "
        for part in control.parts:
            out += (dash, _scalar_text(part.name, indent + 6, memo), "\n")
            if part.classifier is not None:
                out += (part_pad, "class:", _scalar_text(part.classifier, indent + 6, memo), "\n")
            out += (part_pad, "prose:", _scalar_text(part.prose, indent + 6, memo), "\n")
    if control.children:
        out += (pad, "children:\n")
    return "".join(out)


def catalog_blocks(catalog: Catalog, memo: dict | None = None) -> tuple[str, list[str]]:
    """A catalog's canonical YAML as a header and the own block of each control, in pre-order.

    The header holds every line before the first control: the ``catalog:``
    key, the metadata and the ``controls:`` key. Header and blocks
    concatenate to the text ``serialize_document`` emits, and a control's
    children follow its block at four more columns. ``memo`` (a fresh dict
    when none is given) keeps each scalar's text as ``_scalar_text`` keys it,
    and each own block under a 5-tuple of what it is built from: the
    control's id and class, its parts tuple, whether it has children, and
    the indent. So a control rebuilt around the same parts tuple (with other
    children, say) shares its block, and calls that pass one ``memo`` emit
    each block and decide each scalar text once.
    """
    memo = {} if memo is None else memo
    metadata = catalog.metadata
    header = ("catalog:\n  metadata:\n    title:" + _scalar_text(metadata.title, 4, memo)
              + "\n    version:" + _scalar_text(metadata.version, 4, memo) + "\n")
    if catalog.controls:
        header += "  controls:\n"
    blocks: list[str] = []

    def walk(controls: tuple[Control, ...], indent: int) -> None:
        for control in controls:
            parts = control.parts
            key = (control.id, control.classifier, id(parts), bool(control.children), indent)
            cached = memo.get(key)
            if cached is None:  # the parts are kept in the value, so their id stays unique
                cached = memo[key] = (parts, emit_control(control, indent, memo))
            blocks.append(cached[1])
            if control.children:
                walk(control.children, indent + 4)

    walk(catalog.controls, 4)
    return header, blocks


def serialize_document(doc: DocumentEnvelope, format: str = YAML, *,
                       memo: dict | None = None) -> bytes:
    """Serialize to canonical bytes; re-parsing yields a structurally equal document.

    A catalog's YAML is its ``catalog_blocks`` joined; calls that pass one
    ``memo`` emit each own block once per indent and decide each scalar's
    text once, keyed as ``catalog_blocks`` says.
    """
    if format == YAML and doc.kind == "catalog":
        header, blocks = catalog_blocks(doc.body, memo)  # type: ignore[arg-type]
        return (header + "".join(blocks)).encode("utf-8")
    plain = document_plain(doc)
    if format == YAML:
        return _emit_yaml(plain).encode("utf-8")
    if format == JSON:
        return (json.dumps(plain, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {format!r}")

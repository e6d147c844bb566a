"""Parsing and canonical serialization of guidance documents.

Documents are YAML or JSON with a single top-level ``catalog:`` or
``profile:`` key. Parsing is strict: unknown keys, wrong types, and missing
required fields are schema errors; model-invariant violations raise
``ValidationError``.

YAML in the canonical emitter's layout (every canonical, shipped and
generated document) is read straight into the model by ``_read_layout``:
the emitter's key order and indents, plain scalars the strict loader reads
as str, single-line double-quoted scalars with JSON's escapes, ``>-`` folds
of any width, and ``[]`` for an empty include. Anything else goes, more
slowly, to the strict loader and the builders, the only source of loader
and schema errors, so wording, marks and exit code match on both paths.

A builder checks each mapping's required and allowed keys and reports a
failure at the value's path, such as ``catalog/controls/0/parts/1/prose``;
validation formats a path only for a finding.

Serialization is canonical so output is byte-stable and diff-friendly:
UTF-8, LF endings, 2-space indent, block style only, fixed key order per
type, defaults omitted, and prose longer than 80 columns emitted as a
folded scalar where the text permits it (otherwise a quoted scalar). The
text permits it when it is words separated by single spaces, with no
leading or trailing space and no character a fold would alter; the words
wrap greedily, and a word longer than the width gets a line of its own.
A catalog's YAML is built as a header plus one own block per control in
pre-order (``catalog_blocks``); both are written straight from the model,
and a memo keeps each own block and each scalar's text (``_scalar_text``,
the one scalar rule). ``changed_blocks`` reads in place, as ``_read_layout``
would, each block an earlier text changes: no other module knows the layout.
"""

from __future__ import annotations

import functools
import json
import os
import re
from collections.abc import Callable
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


_DECLINED = object()  # what ``_read_layout`` returns when ``_StrictLoader`` has to decide

# Characters the layout reader leaves to ``_StrictLoader``: controls but the
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


class _Declined(Exception):
    """Raised while the layout is read, when ``_StrictLoader`` has to decide."""


def _scalar_re(lead: str, column: int) -> str:
    """``lead``, then a scalar: ``>-`` and body lines at ``column`` (group 1) or a line's rest."""
    return rf"{lead}(?: >-\n((?: {{{column}}}[^\n]*\n)+)| ([^\n]*)\n)"


# A catalog, then its optional ``controls:`` key, or a profile and its ``imports:`` key.
_HEADER_RE = re.compile("(?:(catalog)|profile):\n  metadata:\n" + _scalar_re("    title:", 6)
                        + _scalar_re("    version:", 6) + "(?(1)(  controls:\n)?|  imports:\n)")
_IMPORT_RE = re.compile(_scalar_re("    - source:", 8) + "      include:(?:(\n)|"
                        + _scalar_re("", 8) + ")")
_ALTERATION_RE = re.compile(_scalar_re("    - control-id:", 8) + "(      removes:\n)?")
_ID_RE = re.compile(_scalar_re("        -", 10))  # an item of ``include:`` or ``exclude:``
_REMOVE_RE = re.compile(f"        - by-(?:name:{_scalar_re('', 12)}|class:{_scalar_re('', 12)})")


@functools.cache
def _item_re(column: int, part: bool) -> re.Pattern:
    """A part listed at ``column``, or a control's own block there up to its parts.

    Indents are counted repeats, so a pattern compiles as fast at any depth.
    """
    pad, dash, body = f" {{{column + 2}}}", f" {{{column}}}- ", column + 4
    class_re = f"(?:{_scalar_re(pad + 'class:', body)})?"
    if part:
        return re.compile(_scalar_re(dash + "name:", body) + class_re + _scalar_re(pad + "prose:", body))
    return re.compile(f"{_scalar_re(dash + 'id:', body)}{class_re}({pad}parts:\n)?")


def _str(fold: str | None, line: str | None, column: int, plain: set[str]) -> str | None:
    """The str a ``_scalar_re`` match's two groups read as, None for neither.

    A plain scalar must read back as itself (``_is_plain_str``) under the
    ``_StrictLoader`` of the call; ``plain`` holds those already accepted.
    """
    if line is None:
        if fold is None:
            return None
        value = fold[column:-1].replace("\n" + " " * column, " ")
        if not value or value[0] == " " or value[-1] == " " or "  " in value:
            raise _Declined  # a blank, more-indented or trailing-space line
        return value
    if line in plain:
        return line
    if line[:1] == '"':
        if _QUOTED_RE.fullmatch(line) is None:
            raise _Declined
        return json.loads(line)
    if not _is_plain_str(line, _StrictLoader):
        raise _Declined
    plain.add(line)
    return line


def _some(items: list) -> list:
    """``items``, unless there are none: a list's key with no items reads as null."""
    if not items:
        raise _Declined
    return items


def _ids(text: str, pos: int, plain: set[str]) -> tuple[list[str], int]:
    """The ids listed from ``pos`` under ``include:`` or ``exclude:``, and where they end."""
    ids = []
    while (match := _ID_RE.match(text, pos)) is not None:
        ids.append(_str(*match.groups(), 10, plain))
        pos = match.end()
    return _some(ids), pos


def _parts(text: str, pos: int, column: int, plain: set[str]) -> tuple[list[Part], int]:
    """The parts listed at ``column`` from ``pos``, and where they end."""
    pattern, body, parts = _item_re(column, True), column + 4, []
    while (match := pattern.match(text, pos)) is not None:
        name_fold, name, class_fold, classifier, prose_fold, prose = match.groups()
        parts.append(Part(_str(name_fold, name, body, plain), _str(prose_fold, prose, body, plain),
                          _str(class_fold, classifier, body, plain)))
        pos = match.end()
    return _some(parts), pos


def _controls(text: str, pos: int, column: int, plain: set[str]) -> tuple[list[Control], int]:
    """The controls listed at ``column`` from ``pos``, and where they end."""
    pattern, body, controls = _item_re(column, False), column + 4, []
    children_key = " " * (column + 2) + "children:\n"
    while (match := pattern.match(text, pos)) is not None:
        id_fold, control_id, class_fold, classifier, parts_key = match.groups()
        parts, pos = _parts(text, match.end(), body, plain) if parts_key else ((), match.end())
        children, pos = (_controls(text, pos + len(children_key), body, plain)
                         if text.startswith(children_key, pos) else ((), pos))
        controls.append(Control(_str(id_fold, control_id, body, plain),
                                _str(class_fold, classifier, body, plain), parts, children))
    return _some(controls), pos


def _profile(text: str, pos: int, plain: set[str]) -> tuple[list, list, int]:
    """A profile's imports and alterations from past its ``imports:`` key, and their end."""
    imports, alterations = [], []
    while (match := _IMPORT_RE.match(text, pos)) is not None:
        source_fold, source, listed, include_fold, include = match.groups()
        pos, exclude = match.end(), ()
        if listed:
            include, pos = _ids(text, pos, plain)
        elif include == "[]":
            include = ()
        elif (include := _str(include_fold, include, 8, plain)) != INCLUDE_ALL:
            raise _Declined
        if text.startswith("      exclude:\n", pos):
            exclude, pos = _ids(text, pos + 15, plain)
        imports.append(ImportDirective(_str(source_fold, source, 8, plain), include, exclude))
    if text.startswith("  alterations:\n", pos):
        pos += 15
        while (match := _ALTERATION_RE.match(text, pos)) is not None:
            fold, control_id, removes_key = match.groups()
            pos, removes, adds = match.end(), [], []
            while removes_key and (remove := _REMOVE_RE.match(text, pos)) is not None:
                name_fold, name, class_fold, classifier = remove.groups()
                removes.append(RemoveDirective(_str(name_fold, name, 12, plain),
                                               _str(class_fold, classifier, 12, plain)))
                pos = remove.end()
            if text.startswith("      adds:\n", pos):
                pos += 12
                while text.startswith("        - parts:\n", pos):
                    parts, pos = _parts(text, pos + 17, 12, plain)
                    adds.append(AddDirective(parts))
                _some(adds)
            alterations.append(Alteration(_str(fold, control_id, 8, plain),
                                          _some(removes) if removes_key else (), adds))
        _some(alterations)
    return _some(imports), alterations, pos


def _foreign(text: str) -> bool:
    """Whether ``text`` holds a character the layout reader leaves to ``_StrictLoader``."""
    return bool(text.encode().translate(None, _ALLOWED_ASCII) if text.isascii()
                else _FOREIGN_RE.search(text))


def _read_layout(text: str) -> Any:
    """``(Catalog or Profile, fields but the uri)`` of a text in the layout, else ``_DECLINED``."""
    if _foreign(text):
        return _DECLINED
    match = _HEADER_RE.match(text)
    if match is None:
        return _DECLINED
    catalog, title_fold, title, version_fold, version, controls_key = match.groups()
    pos, plain = match.end(), set()  # ``plain``: the plain scalars already accepted
    try:
        metadata = Metadata(_str(title_fold, title, 6, plain), _str(version_fold, version, 6, plain))
        if catalog:
            controls, pos = _controls(text, pos, 4, plain) if controls_key else ((), pos)
            read = Catalog, (metadata, controls)
        else:
            imports, alterations, pos = _profile(text, pos, plain)
            read = Profile, (metadata, imports, alterations)
    except _Declined:
        return _DECLINED
    return read if pos == len(text) else _DECLINED


def changed_blocks(text: str, header: str, blocks: list[str]) -> list[tuple[int, Control]] | None:
    """Each of ``catalog_blocks``' ``blocks`` ``text`` changes: its index and childless control.

    ``text`` holds ``header``, then each block or another own block at its
    column, with a ``children:`` key where the block has one, and no more.
    A block that differs is read in place as ``_read_layout`` reads it.
    None wherever ``_read_layout`` would decline ``text`` or read it otherwise.
    """
    if not text.startswith(header) or _foreign(text):
        return None
    pos, plain, changed = len(header), set(), []
    try:
        for index, block in enumerate(blocks):
            if text.startswith(block, pos):
                pos += len(block)
                continue
            column = block.index("-")
            match = _item_re(column, False).match(text, pos)
            if match is None:
                return None
            id_fold, control_id, class_fold, classifier, parts_key = match.groups()
            body = column + 4
            parts, pos = _parts(text, match.end(), body, plain) if parts_key else ((), match.end())
            children_key = " " * (column + 2) + "children:\n"
            if block.endswith("\n" + children_key):  # not a fold that ends in ``children:``
                if not text.startswith(children_key, pos):
                    return None
                pos += len(children_key)
            changed.append((index, Control(_str(id_fold, control_id, body, plain),
                                           _str(class_fold, classifier, body, plain), parts)))
    except _Declined:
        return None
    return changed if pos == len(text) else None


class _LayoutReader:
    """A loader for ``yaml.load`` whose only work is ``_read_layout``: no parser, no events."""

    def __init__(self, stream: str) -> None:
        self._text = stream

    def get_single_data(self) -> Any:
        return _read_layout(self._text)

    def dispose(self) -> None:
        pass


def _load_yaml(text: str) -> Any:
    # Both paths go through ``yaml.load``, so whatever wraps it to time the
    # parser (perfbench's trace spans) sees every parse.
    read = yaml.load(text, Loader=_LayoutReader)
    if read is not _DECLINED:
        return read
    try:
        return yaml.load(text, Loader=_StrictLoader)
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


def _expect_mapping(value: Any, at: str, keys: tuple[frozenset, frozenset]) -> dict:
    """``value`` as a mapping with only allowed keys and every required one.

    The first unknown key in document order is reported before the first
    missing key in sorted order.
    """
    if not isinstance(value, dict):
        raise SchemaError(f"expected a mapping, got {type(value).__name__}", at)
    required, allowed = keys
    unknown = [key for key in value if key not in allowed]
    if unknown:
        raise SchemaError(f"unknown key {unknown[0]!r}", at)
    if not required <= value.keys():
        raise SchemaError(f"missing required key {min(required - value.keys())!r}", at)
    return value


def _expect_str(value: Any, at: str, key: str | None = None) -> str:
    if not isinstance(value, str):
        path = at if key is None else f"{at}/{key}"
        raise SchemaError(f"expected a string, got {type(value).__name__}", path)
    return value


def _expect_list(value: Any, at: str, key: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"expected a list, got {type(value).__name__}", f"{at}/{key}")
    return value


def _optional_str(mapping: dict, key: str, at: str) -> str | None:
    """The string ``mapping[key]``, or None when ``key`` is absent."""
    return _expect_str(mapping[key], at, key) if key in mapping else None


def _build_list(mapping: dict, key: str, at: str, build: Callable[[Any, str], Any]) -> tuple:
    """``build`` applied to each item of the optional list ``mapping[key]`` and the item's path."""
    if key not in mapping:
        return ()
    built = []  # a loop: a comprehension's frame would lower the nesting depth that parses
    for index, item in enumerate(_expect_list(mapping[key], at, key)):
        built.append(build(item, f"{at}/{key}/{index}"))
    return tuple(built)


def _str_list(value: Any, at: str, key: str) -> list[str]:
    for index, item in enumerate(_expect_list(value, at, key)):
        _expect_str(item, f"{at}/{key}/{index}")
    return value


def _build_metadata(value: Any, at: str) -> Metadata:
    mapping = _expect_mapping(value, at, _METADATA_KEYS)
    return Metadata(_expect_str(mapping["title"], at, "title"),
                    _expect_str(mapping["version"], at, "version"))


def _build_part(value: Any, at: str) -> Part:
    mapping = _expect_mapping(value, at, _PART_KEYS)
    classifier = _optional_str(mapping, "class", at)
    return Part(_expect_str(mapping["name"], at, "name"), _expect_str(mapping["prose"], at, "prose"),
                classifier)


def _build_control(value: Any, at: str) -> Control:
    mapping = _expect_mapping(value, at, _CONTROL_KEYS)
    classifier = _optional_str(mapping, "class", at)
    parts = _build_list(mapping, "parts", at, _build_part)
    children = _build_list(mapping, "children", at, _build_control)
    return Control(_expect_str(mapping["id"], at, "id"), classifier, parts, children)


def _build_catalog(value: Any, at: str, uri: str) -> Catalog:
    mapping = _expect_mapping(value, at, _CATALOG_KEYS)
    controls = _build_list(mapping, "controls", at, _build_control)
    return Catalog(_build_metadata(mapping["metadata"], f"{at}/metadata"), controls, uri)


def _build_import(value: Any, at: str) -> ImportDirective:
    mapping = _expect_mapping(value, at, _IMPORT_KEYS)
    include: str | list[str] = INCLUDE_ALL
    if "include" in mapping:
        raw = mapping["include"]
        if isinstance(raw, str):
            if raw != INCLUDE_ALL:
                raise SchemaError(f"include must be \"all\" or a list of control ids, got {raw!r}",
                                  f"{at}/include")
        else:
            include = _str_list(raw, at, "include")
    exclude = _str_list(mapping["exclude"], at, "exclude") if "exclude" in mapping else ()
    return ImportDirective(_expect_str(mapping["source"], at, "source"), include, exclude)


def _build_remove(value: Any, at: str) -> RemoveDirective:
    mapping = _expect_mapping(value, at, _REMOVE_KEYS)
    if len(mapping) != 1:
        raise SchemaError("exactly one of by-name/by-class must be given", at)
    by_name = _optional_str(mapping, "by-name", at)
    if by_name is not None:
        return RemoveDirective(by_name)
    return RemoveDirective(None, _optional_str(mapping, "by-class", at))


def _build_add(value: Any, at: str) -> AddDirective:
    mapping = _expect_mapping(value, at, _ADD_KEYS)
    position = _optional_str(mapping, "position", at)
    if position is None:
        position = "ending"
    elif position != "ending":
        raise SchemaError(f"unsupported position {position!r}", f"{at}/position")
    return AddDirective(_build_list(mapping, "parts", at, _build_part), position)


def _build_alteration(value: Any, at: str) -> Alteration:
    mapping = _expect_mapping(value, at, _ALTERATION_KEYS)
    removes = _build_list(mapping, "removes", at, _build_remove)
    adds = _build_list(mapping, "adds", at, _build_add)
    return Alteration(_expect_str(mapping["control-id"], at, "control-id"), removes, adds)


def _build_profile(value: Any, at: str, uri: str) -> Profile:
    mapping = _expect_mapping(value, at, _PROFILE_KEYS)
    imports = _build_list(mapping, "imports", at, _build_import)
    alterations = _build_list(mapping, "alterations", at, _build_alteration)
    return Profile(_build_metadata(mapping["metadata"], f"{at}/metadata"), imports,
                   alterations, uri)


def split_name(path: str) -> tuple[str, str]:
    """The stem and suffix of ``PurePosixPath(path).name``, without building the path.

    The name is the last component that is neither empty nor ``.``. The
    suffix starts at its last dot, unless that dot is its first or last
    character.
    """
    name = path[path.rfind("/") + 1:]
    if name in ("", "."):  # a path ending in "/" or "/.": the name is further back
        name = next((part for part in reversed(path.split("/")) if part not in ("", ".")), "")
    dot = name.rfind(".")
    if 0 < dot < len(name) - 1:
        return name[:dot], name[dot:]
    return name, ""


def format_of(path: str | os.PathLike) -> str:
    """The format a document file is read in: JSON when its name ends in ``.json``, else YAML."""
    return JSON if split_name(os.fspath(path))[1] == ".json" else YAML


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
    if raw.__class__ is tuple:  # ``_read_layout``'s record type and fields
        body = raw[0](*raw[1], uri)
    else:
        if not isinstance(raw, dict):
            raise SchemaError(f"top level must be a mapping, got {type(raw).__name__}")
        kinds = [key for key in ("catalog", "profile") if key in raw]
        unknown = [key for key in raw if key not in ("catalog", "profile")]
        if unknown:
            raise SchemaError(f"unknown key {unknown[0]!r}")
        if len(kinds) != 1:
            raise SchemaError("exactly one of 'catalog' or 'profile' must be present")
        kind = kinds[0]
        body = (_build_catalog if kind == "catalog" else _build_profile)(raw[kind], kind, uri)
    if body.__class__ is Catalog:
        kind, findings = "catalog", validate_catalog(body)
    else:
        kind, findings = "profile", body.structure_findings
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

_PLAIN_BODY_RE = re.compile(r"[A-Za-z_][^\x00-\x1f\x7f-\x9f  \ufeff\ufffe\uffff]*")
# Words like these would be resolved to booleans/null by a YAML parser.
_AMBIGUOUS_PLAIN = {
    "true", "false", "yes", "no", "on", "off", "null", "none", "y", "n", "~",
}
_UNSAFE_WORD_RE = re.compile(r"[\x00-\x1f\x7f-\x9f  \ufeff\ufffe\uffff]")


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
            lines.append(f"{pad}{key}:" + _scalar_text(value, indent))


def _emit_sequence(items: list, indent: int, lines: list[str]) -> None:
    head = " " * indent + "-"
    dash = head + " "
    for item in items:
        if item.__class__ is dict:
            first = len(lines)
            _emit_mapping(item, indent + 2, lines)
            lines[first] = dash + lines[first][indent + 2:]
        else:
            lines.append(head + _scalar_text(item, indent))


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

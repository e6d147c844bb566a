"""Command-line surface: resolve, validate, diff, render, graph, propagate.

Diagnostics go to stderr, primary output to stdout or ``-o``. Identical
invocations on identical stores produce byte-identical output. Exit codes:
0 ok, 1 validation failure, 2 resolution failure, 3 I/O or parse failure,
4 usage error.

A usage error is an unknown command or option, a missing or invalid
argument, a store that is not an existing directory, a file argument that
does not exist or is a directory, or an ``-o`` that is empty or a
directory. It writes nothing to stdout and one line
``usage error: <message>`` to stderr, where the message names the
offending argument, option or value.
``--help`` prints help to stdout and exits 0.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import NoReturn

from .changes import (
    CONTROL_ADDED,
    CONTROL_REMOVED,
    METADATA_MODIFIED,
    PART_ADDED,
    PART_MODIFIED,
    PART_REMOVED,
    ChangeSet,
    build_graph,
    diff,
    entry_plain,
    propagate,
)
from .errors import (
    GuidanceError,
    ResolutionError,
    SchemaError,
    ValidationError,
)
from .model import (
    Catalog,
    DocumentEnvelope,
    ERROR,
    Finding,
    has_errors,
    validate_catalog,
)
from .render import RenderOptions, render_markdown
from .resolver import (
    SourceStore,
    import_sources,
    resolve_chain,
    resolve_in_store,
    validate_profile,
    wrap_catalog,
)
from .serialize import format_of, parse_document, serialize_document

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESOLUTION = 2
EXIT_IO = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    """An invocation the CLI cannot run as given; ``main`` exits 4 with it."""


class _HelpShown(Exception):
    """``--help`` printed its help; ``main`` exits 0."""


def _echo(message: str, *, err: bool = False, nl: bool = True) -> None:
    stream = sys.stderr if err else sys.stdout
    stream.write(message + "\n" if nl else message)
    stream.flush()


def _describe(exc: GuidanceError) -> str:
    return f"{exc.source}: {exc}" if exc.source else str(exc)


def _failure(exc: GuidanceError) -> tuple[str, int]:
    """How ``main`` labels ``exc`` when it escapes a command, and the exit code it gives."""
    if isinstance(exc, ValidationError):
        return "validation error", EXIT_VALIDATION
    if isinstance(exc, ResolutionError):
        return "resolution error", EXIT_RESOLUTION
    return "error", EXIT_IO


def _write_output(data: bytes, output: str | None) -> None:
    if output is not None:
        with open(output, "wb") as file:
            file.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _read_file(path: str) -> bytes:
    """The bytes of the file at ``path``; the open waits for a writer, so a pipe reads."""
    with open(path, "rb", buffering=0) as file:
        return file.readall()


def _parse_file(path: str) -> DocumentEnvelope:
    try:
        return parse_document(_read_file(path), format_of(path), path)
    except GuidanceError as exc:
        if exc.source is None:
            exc.source = path
        raise


def _read_catalog(path: str) -> Catalog:
    envelope = _parse_file(path)
    if envelope.kind != "catalog":
        raise SchemaError("expected a catalog document", path)
    return envelope.body


def resolve_cmd(args: argparse.Namespace) -> int:
    """Resolve a profile (by store-relative uri) into a catalog."""
    resolved = resolve_chain(SourceStore(args.store_dir), args.profile_uri, lenient=args.lenient)
    uri = resolved.catalog.uri
    for source, finding in resolved.warnings:  # an imported profile's warnings name it
        named = "" if source == uri else f"{source}: "
        _echo(f"warning: {named}{finding.path}: {finding.message}", err=True)
    envelope = DocumentEnvelope("catalog", resolved.catalog)
    _write_output(serialize_document(envelope, args.fmt), args.output)
    return EXIT_OK


def validate_cmd(args: argparse.Namespace) -> int:
    """Validate catalog and profile files; findings go to stderr."""
    store = SourceStore(args.store_dir) if args.store_dir is not None else None
    memo: dict = {}  # shared by every file, so each upstream profile resolves once
    total_errors = 0
    upstream_exit = EXIT_OK  # the most severe exit code an import failure gives
    for file in args.files:
        findings: list[Finding] = []
        try:
            envelope = _parse_file(file)
        except ValidationError as exc:
            findings = list(exc.findings)
        else:
            if envelope.kind == "catalog":
                findings = validate_catalog(envelope.body)
            elif store is not None:
                sources = []
                for index, source in enumerate(import_sources(envelope)):
                    try:
                        sources.append(resolve_in_store(store, source, memo=memo))
                    except GuidanceError as exc:  # reported for this file; the rest still run
                        findings = [Finding(ERROR, f"imports/{index}", _describe(exc))]
                        upstream_exit = max(upstream_exit, _failure(exc)[1])
                        break
                else:
                    findings = validate_profile(envelope.body, sources)
            else:
                findings = list(envelope.body.structure_findings)
        for finding in findings:
            _echo(f"{finding.severity}: {file}: {finding.path}: {finding.message}", err=True)
        total_errors += sum(1 for f in findings if f.severity == ERROR)
    _echo(f"{total_errors} errors")
    if upstream_exit:
        return upstream_exit
    return EXIT_VALIDATION if total_errors else EXIT_OK


def _diff_text(changeset: ChangeSet) -> str:
    lines: list[str] = []
    current: str | None = None
    marks = {
        CONTROL_ADDED: "+",
        CONTROL_REMOVED: "-",
        PART_ADDED: "+",
        PART_REMOVED: "-",
        PART_MODIFIED: "~",
        METADATA_MODIFIED: "~",
    }
    for entry in changeset.entries:
        if entry.kind == METADATA_MODIFIED:
            lines.append(f"~ metadata {entry.part_name}")
            continue
        if entry.kind in (CONTROL_ADDED, CONTROL_REMOVED):
            lines.append(f"{marks[entry.kind]} control {entry.control_id}")
            current = None
            continue
        if entry.control_id != current:
            lines.append(f"{entry.control_id}:")
            current = entry.control_id
        lines.append(f"  {marks[entry.kind]} part {entry.part_name}")
    if not lines:
        lines.append("no differences")
    return "\n".join(lines) + "\n"


def diff_cmd(args: argparse.Namespace) -> int:
    """Show the structural delta between two catalogs."""
    changeset = diff(_read_catalog(args.catalog_a), _read_catalog(args.catalog_b))
    if args.fmt == "json":
        plain = {"entries": [entry_plain(e) for e in changeset.entries]}
        _echo(json.dumps(plain, indent=2, ensure_ascii=False))
    else:
        _echo(_diff_text(changeset), nl=False)
    return EXIT_OK


def render_cmd(args: argparse.Namespace) -> int:
    """Render a resolved catalog as Markdown."""
    resolved = wrap_catalog(_read_catalog(args.catalog_file))
    options = RenderOptions(include_provenance=args.provenance)
    _write_output(render_markdown(resolved, options).encode("utf-8"), args.output)
    return EXIT_OK


def graph_cmd(args: argparse.Namespace) -> int:
    """Show the import graph of a store."""
    graph = build_graph(SourceStore(args.store_dir))
    for error in graph.unreadable.values():
        raise error  # the first document that does not parse fails the command
    if args.fmt == "json":
        plain = {
            "nodes": list(graph.nodes),
            "edges": [list(edge) for edge in graph.edges],
            "findings": [
                {"severity": f.severity, "path": f.path, "message": f.message}
                for f in graph.findings
            ],
        }
        _echo(json.dumps(plain, indent=2, ensure_ascii=False))
    else:
        lines = ["documents:"]
        lines += [f"  {node}" for node in graph.nodes]
        if graph.edges:
            lines.append("imports:")
            lines += [f"  {importer} -> {source}" for importer, source in graph.edges]
        for finding in graph.findings:
            lines.append(f"{finding.severity}: {finding.path}: {finding.message}")
        _echo("\n".join(lines))
    return EXIT_VALIDATION if has_errors(graph.findings) else EXIT_OK


def propagate_cmd(args: argparse.Namespace) -> int:
    """Re-resolve and persist every profile downstream of a changed document."""
    results = propagate(SourceStore(args.store_dir), args.changed_uri, lenient=args.lenient)
    warned: set[str] = set()  # each profile's warnings are printed once, naming that profile
    for result in results:
        if result.resolved is not None:
            for source, finding in result.resolved.warnings:
                if source not in warned:
                    _echo(f"warning: {source}: {finding.path}: {finding.message}", err=True)
            warned.update(result.resolved.lineage)
    if args.fmt == "json":
        plain = []
        for result in results:
            item: dict = {"profile-uri": result.profile_uri, "output-uri": result.output_uri}
            if result.error is not None:
                item["error"] = _describe(result.error)
            else:
                item["initial"] = result.initial
                item["changes"] = [entry_plain(e) for e in result.changes.entries]
            plain.append(item)
        _echo(json.dumps(plain, indent=2, ensure_ascii=False))
    else:
        if not results:
            _echo("nothing depends on " + args.changed_uri)
        for result in results:
            if result.error is not None:
                _echo(f"failed {result.profile_uri}: {_describe(result.error)}")
                continue
            if result.initial:
                status = "initial resolution"
            elif result.changes.is_empty:
                status = "no changes"
            else:
                count = len(result.changes.entries)
                status = f"{count} change{'s' if count != 1 else ''}"
            _echo(f"re-resolved {result.profile_uri} -> {result.output_uri} ({status})")
            if not result.changes.is_empty:
                _echo("  " + _diff_text(result.changes).rstrip("\n").replace("\n", "\n  "))
    return EXIT_RESOLUTION if any(result.error is not None for result in results) else EXIT_OK


class _Formatter(argparse.HelpFormatter):
    """argparse's help layout, with the usage line opening ``Usage:``."""

    def add_usage(self, usage, actions, groups, prefix=None) -> None:
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


class _Parser(argparse.ArgumentParser):
    """A parser that raises where argparse would exit, and prints help through ``_echo``.

    Long options are never abbreviated, so ``--len`` stays unknown.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, formatter_class=_Formatter, **kwargs)

    def print_help(self, file=None) -> None:
        _echo(self.format_help(), nl=False)

    def exit(self, status: int = 0, message: str | None = None) -> NoReturn:
        raise _HelpShown()  # only --help exits: error() raises first

    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


def _build_parser() -> tuple[_Parser, dict]:
    """The ``guidance`` parser, and the parse function of each command by name."""
    parser = _Parser(prog="guidance",
                     description="Author, resolve, and publish layered security guidance.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND")

    def command(name: str, run, *, store: str | None = None, store_required: bool = True,
                fmt: tuple[str, ...] = ()) -> _Parser:
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        if store is not None:
            sub.add_argument("--store", dest="store_dir", metavar="DIRECTORY",
                             help=f"{store} Defaults to $GUIDANCE_STORE.")
            sub.set_defaults(store_required=store_required)
        if fmt:
            sub.add_argument("--format", dest="fmt", choices=fmt, default=fmt[0],
                             help=f"Output format (default: {fmt[0]}).")
        return sub

    store = "Directory holding the guidance documents."
    resolve = command("resolve", resolve_cmd, store=store, fmt=("yaml", "json"))
    resolve.add_argument("profile_uri", metavar="PROFILE_URI")
    resolve.add_argument("-o", "--output", metavar="FILE", help="Write to a file instead of stdout.")
    resolve.add_argument("--lenient", action="store_true",
                         help="Downgrade removal-matched-nothing to a warning.")

    validate = command("validate", validate_cmd, store_required=False,
                       store="Store used to resolve profile imports for full validation.")
    validate.add_argument("files", nargs="+", metavar="FILES")

    compare = command("diff", diff_cmd, fmt=("text", "json"))
    compare.add_argument("catalog_a", metavar="CATALOG_A")
    compare.add_argument("catalog_b", metavar="CATALOG_B")

    render = command("render", render_cmd)
    render.add_argument("catalog_file", metavar="CATALOG_FILE")
    render.add_argument("-o", "--output", metavar="FILE", help="Write to a file instead of stdout.")
    render.add_argument("--provenance", action="store_true",
                        help="Annotate each part with its origin layer.")

    command("graph", graph_cmd, store=store, fmt=("text", "json"))

    changes = command("propagate", propagate_cmd, store=store, fmt=("text", "json"))
    changes.add_argument("--changed", dest="changed_uri", metavar="URI", required=True,
                         help="Store-relative uri of the edited document.")
    changes.add_argument("--lenient", action="store_true",
                         help="Downgrade removal-matched-nothing to a warning.")
    parses = {name: sub.parse_args for name, sub in commands.choices.items()}
    # FILES may sit on both sides of an option only in the intermixed parse.
    # It formats the usage line on every call unless the parser has one.
    validate.usage = validate.format_usage().removeprefix("Usage: ").rstrip()
    parses["validate"] = validate.parse_intermixed_args
    return parser, parses


_PARSER, _PARSES = _build_parser()

# The positional arguments that name a file to read.
_FILE_ARGUMENTS = ("files", "catalog_a", "catalog_b", "catalog_file")


def _parse(args: list[str]) -> argparse.Namespace:
    """The arguments of one invocation, checked: the one place the CLI validates them.

    Options may come between positional arguments. The store is ``--store``,
    or else a non-empty ``GUIDANCE_STORE``, and must be an existing
    directory; each file argument must exist and not be a directory; ``-o``
    must name a file and not a directory.
    """
    parse = _PARSES.get(args[0]) if args else None
    if parse is None:
        _PARSER.parse_args(args[:1])  # shows help, or fails on an unknown name
        raise _UsageError("the following arguments are required: COMMAND")
    namespace = parse(args[1:])
    if "store_dir" in namespace:
        if namespace.store_dir is None:
            namespace.store_dir = os.environ.get("GUIDANCE_STORE") or None
        store = namespace.store_dir
        if store is None:
            if namespace.store_required:
                raise _UsageError("the following arguments are required: --store")
        elif not os.path.isdir(store):
            problem = "is not a directory" if os.path.exists(store) else "does not exist"
            raise _UsageError(f"argument --store: {store!r} {problem}")
    for dest in _FILE_ARGUMENTS:
        paths = getattr(namespace, dest, ())
        for path in [paths] if isinstance(paths, str) else paths:
            if not os.path.exists(path):
                raise _UsageError(f"argument {dest.upper()}: {path!r} does not exist")
            if os.path.isdir(path):
                raise _UsageError(f"argument {dest.upper()}: {path!r} is a directory")
    output = getattr(namespace, "output", None)
    if output == "":
        raise _UsageError("argument -o/--output: expected a file name, got ''")
    if output is not None and os.path.isdir(output):
        raise _UsageError(f"argument -o/--output: {output!r} is a directory")
    return namespace


def main(args: list[str] | None = None) -> int:
    """Run one CLI invocation; returns the exit code instead of raising.

    The invocation runs with the cyclic garbage collector paused: its
    records hold no reference cycles, so reference counting frees them. What
    its recursive helper closures hold stays in cycles until the caller's
    next collection. The collector is enabled again on return only if it was
    enabled on entry.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        namespace = _parse(sys.argv[1:] if args is None else args)
        return namespace.run(namespace)
    except _HelpShown:
        return EXIT_OK
    except _UsageError as exc:
        _echo(f"usage error: {exc}", err=True)
        return EXIT_USAGE
    except GuidanceError as exc:
        label, code = _failure(exc)
        _echo(f"{label}: {_describe(exc)}", err=True)
        return code
    except OSError as exc:
        _echo(f"i/o error: {exc}", err=True)
        return EXIT_IO
    except Exception as exc:  # never crash on malformed input
        _echo(f"internal error: {exc}", err=True)
        return EXIT_IO
    finally:
        if collecting:
            gc.enable()


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

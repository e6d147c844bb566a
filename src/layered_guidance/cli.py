"""Command-line surface: resolve, validate, diff, render, graph, propagate.

Diagnostics go to stderr, primary output to stdout or ``-o``. Identical
invocations on identical stores produce byte-identical output. Exit codes:
0 ok, 1 validation failure, 2 resolution failure, 3 I/O or parse failure,
4 usage error.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

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
    profile_structure_findings,
    validate_catalog,
)
from .render import RenderOptions, render_markdown
from .resolver import SourceStore, import_sources, resolve_chain, validate_profile, wrap_catalog
from .serialize import parse_document, serialize_document

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESOLUTION = 2
EXIT_IO = 3
EXIT_USAGE = 4

_STORE_OPTION = click.option(
    "--store", "store_dir", envvar="GUIDANCE_STORE", required=True,
    type=click.Path(exists=True, file_okay=False),
    help="Directory holding the guidance documents.",
)


def _echo(message: str, *, err: bool = False, nl: bool = True) -> None:
    """``click.echo`` to the current stdout or stderr.

    Without an explicit ``file``, click caches a wrapper for each stream it
    has seen, keyed weakly by the stream but holding it strongly, so every
    redirected stream and its output would stay alive for good.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout, nl=nl)


def _warn(finding: Finding) -> None:
    _echo(f"warning: {finding.path}: {finding.message}", err=True)


def _describe(exc: GuidanceError) -> str:
    return f"{exc.source}: {exc}" if exc.source else str(exc)


def _write_output(data: bytes, output: str | None) -> None:
    if output:
        Path(output).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _parse_file(path: str):
    try:
        return parse_document(Path(path).read_bytes())
    except GuidanceError as exc:
        if exc.source is None:
            exc.source = path
        raise


def _read_catalog(path: str) -> Catalog:
    envelope = _parse_file(path)
    if envelope.kind != "catalog":
        raise SchemaError("expected a catalog document", path)
    body = envelope.body
    return Catalog(metadata=body.metadata, controls=body.controls, uri=path)


def _show_help(ctx: click.Context, _param: click.Parameter, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        _echo(ctx.get_help())
        ctx.exit()


class _Command(click.Command):
    """A command whose ``--help`` prints through ``_echo`` like every other output."""

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Group(click.Group, _Command):
    command_class = _Command


@click.group(cls=_Group)
def cli() -> None:
    """Author, resolve, and publish layered security guidance."""


@cli.command("resolve")
@click.argument("profile_uri")
@_STORE_OPTION
@click.option("-o", "--output", type=click.Path(dir_okay=False), help="Write to a file instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["yaml", "json"]), default="yaml")
@click.option("--lenient", is_flag=True, help="Downgrade removal-matched-nothing to a warning.")
def resolve_cmd(profile_uri: str, store_dir: str, output: str | None, fmt: str,
                lenient: bool) -> None:
    """Resolve a profile (by store-relative uri) into a catalog."""
    store = SourceStore(store_dir)
    resolved = resolve_chain(store, profile_uri, lenient=lenient)
    for finding in resolved.warnings:
        _warn(finding)
    envelope = DocumentEnvelope("catalog", resolved.catalog)
    _write_output(serialize_document(envelope, fmt), output)


@cli.command("validate")
@click.argument("files", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--store", "store_dir", envvar="GUIDANCE_STORE", default=None,
              type=click.Path(exists=True, file_okay=False),
              help="Store used to resolve profile imports for full validation.")
@click.pass_context
def validate_cmd(ctx: click.Context, files: tuple[str, ...], store_dir: str | None) -> None:
    """Validate catalog and profile files; findings go to stderr."""
    store = SourceStore(store_dir) if store_dir is not None else None
    memo: dict = {}  # shared by every file, so each upstream profile resolves once
    total_errors = 0
    upstream_failed = False
    for file in files:
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
                    source_env = store.load(source)
                    if source_env.kind == "catalog":
                        sources.append(source_env.body)
                        continue
                    try:
                        sources.append(resolve_chain(store, source, memo=memo).catalog)
                    except ResolutionError as exc:  # reported for this file; the rest still run
                        findings = [Finding(ERROR, f"imports/{index}", _describe(exc))]
                        upstream_failed = True
                        break
                else:
                    findings = validate_profile(envelope.body, sources)
            else:
                findings = profile_structure_findings(envelope.body)
        for finding in findings:
            _echo(f"{finding.severity}: {file}: {finding.path}: {finding.message}", err=True)
        total_errors += sum(1 for f in findings if f.severity == ERROR)
    _echo(f"{total_errors} errors")
    if upstream_failed:
        ctx.exit(EXIT_RESOLUTION)
    if total_errors:
        ctx.exit(EXIT_VALIDATION)


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


@cli.command("diff")
@click.argument("catalog_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("catalog_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def diff_cmd(catalog_a: str, catalog_b: str, fmt: str) -> None:
    """Show the structural delta between two catalogs."""
    changeset = diff(_read_catalog(catalog_a), _read_catalog(catalog_b))
    if fmt == "json":
        plain = {"entries": [entry_plain(e) for e in changeset.entries]}
        _echo(json.dumps(plain, indent=2, ensure_ascii=False))
    else:
        _echo(_diff_text(changeset), nl=False)


@cli.command("render")
@click.argument("catalog_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False))
@click.option("--provenance", is_flag=True, help="Annotate each part with its origin layer.")
def render_cmd(catalog_file: str, output: str | None, provenance: bool) -> None:
    """Render a resolved catalog as Markdown."""
    catalog = _read_catalog(catalog_file)
    resolved = wrap_catalog(catalog, catalog_file)
    options = RenderOptions(include_provenance=provenance)
    _write_output(render_markdown(resolved, options).encode("utf-8"), output)


@cli.command("graph")
@_STORE_OPTION
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.pass_context
def graph_cmd(ctx: click.Context, store_dir: str, fmt: str) -> None:
    """Show the import graph of a store."""
    graph = build_graph(SourceStore(store_dir))
    for error in graph.unreadable.values():
        raise error  # the first document that does not parse fails the command
    if fmt == "json":
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
    if has_errors(graph.findings):
        ctx.exit(EXIT_VALIDATION)


@cli.command("propagate")
@_STORE_OPTION
@click.option("--changed", "changed_uri", required=True,
              help="Store-relative uri of the edited document.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--lenient", is_flag=True)
@click.pass_context
def propagate_cmd(ctx: click.Context, store_dir: str, changed_uri: str, fmt: str,
                  lenient: bool) -> None:
    """Re-resolve and persist every profile downstream of a changed document."""
    results = propagate(SourceStore(store_dir), changed_uri, lenient=lenient)
    if fmt == "json":
        plain = []
        for result in results:
            item: dict = {"profile-uri": result.profile_uri, "output-uri": result.output_uri}
            if result.error is not None:
                item["error"] = str(result.error)
            else:
                item["initial"] = result.initial
                item["changes"] = [entry_plain(e) for e in result.changes.entries]
            plain.append(item)
        _echo(json.dumps(plain, indent=2, ensure_ascii=False))
    else:
        if not results:
            _echo("nothing depends on " + changed_uri)
        for result in results:
            if result.error is not None:
                _echo(f"failed {result.profile_uri}: {result.error}")
                continue
            if result.initial:
                status = "initial resolution"
            elif result.changes.is_empty:
                status = "no changes"
            else:
                count = len(result.changes.entries)
                status = f"{count} change{'s' if count != 1 else ''}"
            _echo(f"re-resolved {result.profile_uri} -> {result.output_uri} ({status})")
            if result.changes is not None and not result.changes.is_empty:
                _echo("  " + _diff_text(result.changes).rstrip("\n").replace("\n", "\n  "))
    if any(result.error is not None for result in results):
        ctx.exit(EXIT_RESOLUTION)


def main(args: list[str] | None = None) -> int:
    """Run one CLI invocation; returns the exit code instead of raising."""
    try:
        result = cli.main(args=args, standalone_mode=False)
        if isinstance(result, int):
            return result  # click returns ctx.exit codes when not standalone
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        _echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_IO
    except ValidationError as exc:
        _echo(f"validation error: {_describe(exc)}", err=True)
        return EXIT_VALIDATION
    except ResolutionError as exc:
        _echo(f"resolution error: {_describe(exc)}", err=True)
        return EXIT_RESOLUTION
    except OSError as exc:
        _echo(f"i/o error: {exc}", err=True)
        return EXIT_IO
    except GuidanceError as exc:
        _echo(f"error: {_describe(exc)}", err=True)
        return EXIT_IO
    except Exception as exc:  # never crash on malformed input
        _echo(f"internal error: {exc}", err=True)
        return EXIT_IO
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

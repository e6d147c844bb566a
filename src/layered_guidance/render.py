"""Reader-facing Markdown rendering of resolved catalogs.

The machine-actionable document model is not pleasant to read; this module
turns a resolved catalog into a deterministic CommonMark document: one
heading per control (uppercase id), the outcome statement as a blockquote,
and remaining parts under sub-headings derived from their classifiers.
"""

from __future__ import annotations

import re

from .model import Control, Part, STATEMENT_PART, _Record
from .resolver import ResolvedCatalog

_CAMEL_SPLIT_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


class RenderOptions(_Record):
    """Whether to note each part's source, and the heading level of top-level controls."""

    include_provenance: bool = False
    heading_depth: int = 2  # heading level of top-level controls

    def __init__(self, include_provenance: bool = False, heading_depth: int = 2) -> None:
        if heading_depth < 1:
            raise ValueError("heading_depth must be >= 1")
        fields = self.__dict__
        fields["include_provenance"] = include_provenance
        fields["heading_depth"] = heading_depth


def heading_text(part: Part) -> str:
    """Derive a heading from a part's classifier (or its name as fallback).

    All-lowercase kebab words are title-cased; a hyphen following a word
    that carries uppercase is kept verbatim, so deliberately styled
    compounds like ``OT-specific`` survive: ``supplemental-guidance`` ->
    ``Supplemental Guidance``, ``Additive-specific-guidance`` ->
    ``Additive-specific Guidance``.
    """
    label = part.classifier if part.classifier is not None else part.name
    words = _CAMEL_SPLIT_RE.sub("-", label).split("-")
    tokens: list[str] = []
    for word in words:
        if tokens and any(c.isupper() for c in tokens[-1].split("-")[-1]):
            tokens[-1] += "-" + word
        else:
            tokens.append(word)
    styled = [t if any(c.isupper() for c in t) else t.capitalize() for t in tokens]
    return " ".join(styled)


def _heading(level: int, text: str) -> str:
    return "#" * min(level, 6) + " " + text


def render_markdown(resolved: ResolvedCatalog, options: RenderOptions = RenderOptions()) -> str:
    """Render a resolved catalog as UTF-8 Markdown with LF endings.

    Output is byte-identical for structurally equal inputs and options.
    Heading levels deeper than Markdown's six are clamped to six.
    """
    lines: list[str] = []
    metadata = resolved.catalog.metadata
    lines.append(f"# {metadata.title}")
    lines.append("")
    lines.append(f"Version: {metadata.version}")

    def provenance_note(control: Control, part: Part) -> str | None:
        if not options.include_provenance:
            return None
        entry = resolved.provenance.get((control.id, part.name))
        if entry is None:
            return None
        return f"*Source: {entry.origin_uri} (layer {entry.layer_depth})*"

    headings: dict[str, str] = {}  # label -> heading_text, derived once per label

    def render_control(control: Control, level: int) -> None:
        lines.append("")
        lines.append(_heading(level, control.id.upper()))
        for part in control.parts:
            if part.name == STATEMENT_PART:
                lines.append("")
                for prose_line in part.prose.split("\n"):
                    lines.append(f"> {prose_line}" if prose_line else ">")
            else:
                lines.append("")
                label = part.classifier if part.classifier is not None else part.name
                text = headings.get(label)
                if text is None:
                    text = headings[label] = heading_text(part)
                lines.append(_heading(level + 1, text))
                lines.append("")
                lines.append(part.prose)
            note = provenance_note(control, part)
            if note is not None:
                lines.append("")
                lines.append(note)
        for child in control.children:
            render_control(child, level + 1)

    for control in resolved.catalog.controls:
        render_control(control, options.heading_depth)
    return "\n".join(lines) + "\n"

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

import strategies
from layered_guidance.model import Catalog, Metadata, Part, iter_controls
from layered_guidance.render import RenderOptions, heading_text, render_markdown
from layered_guidance.resolver import SourceStore, resolve_chain, wrap_catalog


@pytest.mark.parametrize(
    ("classifier", "expected"),
    [
        ("supplemental-guidance", "Supplemental Guidance"),
        ("Additive-specific-guidance", "Additive-specific Guidance"),
        ("OT-specific-guidance", "OT-specific Guidance"),
        ("outcome", "Outcome"),
        ("supplementalGuidance", "Supplemental Guidance"),
    ],
)
def test_heading_text_from_classifier(classifier, expected):
    assert heading_text(Part("x", "prose", classifier)) == expected


def test_heading_text_falls_back_to_part_name():
    assert heading_text(Part("am-specific", "prose")) == "Am Specific"


class TestRenderMarkdown:
    def test_am_resolution_layout(self, fixture_store):
        resolved = resolve_chain(SourceStore(fixture_store), "am-profile.yaml")
        text = render_markdown(resolved)
        section = text[text.index("### ID.AM-3"):text.index("### ID.AM-4")]
        statement_at = section.index("> Organizational communication and data flows are mapped")
        guidance_at = section.index("Data flow diagrams enable a manufacturer")
        am_at = section.index("Data flow diagrams for AM processes")
        assert statement_at < guidance_at < am_at
        assert "Supplemental Guidance" in section
        assert "Additive-specific Guidance" in section
        assert "ot-specific" not in text
        assert "Organizations should consider the impact" not in text

    def test_empty_catalog_renders_metadata_header_only(self):
        empty = wrap_catalog(Catalog(Metadata("Empty Catalog", "0.1")))
        assert render_markdown(empty) == "# Empty Catalog\n\nVersion: 0.1\n"

    def test_fixture_renders_six_subcategories_in_order(self, fixture_store):
        store = SourceStore(fixture_store)
        catalog = store.load("csf-id-am.yaml").body
        text = render_markdown(wrap_catalog(catalog))
        positions = [text.index(f"### ID.AM-{i}\n") for i in range(1, 7)]
        assert positions == sorted(positions)
        assert "## ID.AM\n" in text

    def test_provenance_annotations(self, fixture_store):
        resolved = resolve_chain(SourceStore(fixture_store), "am-profile.yaml")
        text = render_markdown(resolved, RenderOptions(include_provenance=True))
        assert "*Source: csf-id-am.yaml (layer 0)*" in text
        assert "*Source: ot-profile.yaml (layer 1)*" in text
        assert "*Source: am-profile.yaml (layer 2)*" in text
        without = render_markdown(resolved)
        assert "*Source:" not in without

    def test_a_part_without_provenance_gets_no_note(self, fixture_store):
        resolved = resolve_chain(SourceStore(fixture_store), "am-profile.yaml")
        provenance = dict(resolved.provenance)
        del provenance[("id.am-3", "am-specific")]
        text = render_markdown(replace(resolved, provenance=provenance),
                               RenderOptions(include_provenance=True))
        section = text[text.index("### ID.AM-3"):text.index("### ID.AM-4")]
        assert "Data flow diagrams for AM processes" in section
        assert "*Source: am-profile.yaml" not in text
        assert text.count("*Source:") == sum(len(c.parts)
                                             for c in iter_controls(resolved.catalog.controls)) - 1

    def test_prose_appears_verbatim_exactly_once_on_fixture(self, fixture_store):
        resolved = resolve_chain(SourceStore(fixture_store), "am-profile.yaml")
        text = render_markdown(resolved)
        for control in iter_controls(resolved.catalog.controls):
            for part in control.parts:
                if part.name == "statement":
                    continue  # statements are rendered inside a blockquote
                assert text.count(part.prose) == 1

    def test_deterministic_output(self, fixture_store):
        first = render_markdown(resolve_chain(SourceStore(fixture_store), "am-profile.yaml"))
        second = render_markdown(resolve_chain(SourceStore(fixture_store), "am-profile.yaml"))
        assert first == second

    def test_heading_depth_shifts_levels(self, fixture_store):
        catalog = SourceStore(fixture_store).load("csf-id-am.yaml").body
        text = render_markdown(wrap_catalog(catalog), RenderOptions(heading_depth=1))
        assert "\n# ID.AM\n" in text
        assert "## ID.AM-3" in text

    def test_heading_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            RenderOptions(heading_depth=0)

    @given(strategies.catalogs(min_controls=1))
    @settings(max_examples=50, deadline=None)
    def test_single_line_prose_is_preserved(self, catalog):
        text = render_markdown(wrap_catalog(catalog))
        for control in iter_controls(catalog.controls):
            assert control.id.upper() in text
            for part in control.parts:
                if "\n" not in part.prose:
                    assert part.prose in text

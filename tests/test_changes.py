from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings

import strategies
from oracles import brute_force_diff, entry_tuples, flatten_controls, patch_with_changeset
from layered_guidance.changes import (
    build_graph,
    diff,
    propagate,
    resolution_output_uri,
    transitive_dependents,
)
from layered_guidance import resolver
from layered_guidance.errors import CycleDetected, NotFound
from layered_guidance.model import Catalog, Control, Metadata, Part, find_control
from layered_guidance.resolver import SourceStore, resolve_chain
from layered_guidance.serialize import parse_document


def _resolved_pair(fixture_store):
    store = SourceStore(fixture_store)
    return (
        resolve_chain(store, "ot-profile.yaml").catalog,
        resolve_chain(store, "am-profile.yaml").catalog,
    )


class TestDiff:
    def test_ot_to_am_is_exactly_one_replacement(self, fixture_store):
        before, after = _resolved_pair(fixture_store)
        changes = diff(before, after)
        kinds = [(e.kind, e.control_id, e.part_name) for e in changes.entries
                 if e.kind != "metadata-modified"]
        assert kinds == [
            ("part-removed", "id.am-3", "ot-specific"),
            ("part-added", "id.am-3", "am-specific"),
        ]

    def test_removal_is_listed_before_the_replacing_addition(self, fixture_store):
        before, after = _resolved_pair(fixture_store)
        names = [e.part_name for e in diff(before, after).entries
                 if e.kind in ("part-removed", "part-added")]
        assert names == ["ot-specific", "am-specific"]

    def test_equal_catalogs_diff_empty(self, fixture_store):
        before, _ = _resolved_pair(fixture_store)
        assert diff(before, before).is_empty

    def test_single_character_prose_edit(self):
        before = Catalog(Metadata("T", "1"), (Control("c1", parts=(Part("guidance", "abcd"),)),))
        after = Catalog(Metadata("T", "1"), (Control("c1", parts=(Part("guidance", "abXd"),)),))
        changes = diff(before, after)
        assert len(changes.entries) == 1
        entry = changes.entries[0]
        assert entry.kind == "part-modified"
        assert (entry.control_id, entry.part_name) == ("c1", "guidance")
        assert (entry.before_prose, entry.after_prose) == ("abcd", "abXd")

    def test_part_reorder_reports_modifications(self):
        before = Catalog(Metadata("T", "1"),
                         (Control("c1", parts=(Part("a", "x"), Part("b", "y"))),))
        after = Catalog(Metadata("T", "1"),
                        (Control("c1", parts=(Part("b", "y"), Part("a", "x"))),))
        kinds = {e.kind for e in diff(before, after).entries}
        assert kinds == {"part-modified"}

    def test_metadata_change(self):
        before = Catalog(Metadata("T", "1"), ())
        after = Catalog(Metadata("T", "2"), ())
        (entry,) = diff(before, after).entries
        assert entry.kind == "metadata-modified"
        assert entry.part_name == "version"
        assert (entry.before_prose, entry.after_prose) == ("1", "2")

    @given(strategies.catalog_pairs())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_oracle(self, pair):
        before, after = pair
        changes = diff(before, after)
        assert Counter(entry_tuples(changes)) == Counter(brute_force_diff(before, after))

    @given(strategies.catalog_pairs())
    @settings(max_examples=150, deadline=None)
    def test_empty_iff_structurally_equal(self, pair):
        before, after = pair
        assert diff(before, after).is_empty == (before == after)

    @given(strategies.catalog_pairs())
    @settings(max_examples=150, deadline=None)
    def test_patching_before_reconstructs_after(self, pair):
        before, after = pair
        changes = diff(before, after)
        assert patch_with_changeset(before, changes, after) == flatten_controls(after)


class TestBuildGraph:
    def test_fixture_store_graph(self, fixture_store):
        graph = build_graph(SourceStore(fixture_store))
        assert set(graph.nodes) == {"csf-id-am.yaml", "ot-profile.yaml", "am-profile.yaml"}
        assert set(graph.edges) == {
            ("ot-profile.yaml", "csf-id-am.yaml"),
            ("am-profile.yaml", "ot-profile.yaml"),
        }
        assert graph.findings == ()

    def test_single_catalog_store(self, tmp_path):
        (tmp_path / "only.yaml").write_bytes(
            b"catalog:\n  metadata:\n    title: a\n    version: b\n"
        )
        graph = build_graph(SourceStore(tmp_path))
        assert graph.nodes == ("only.yaml",)
        assert graph.edges == ()

    def test_dangling_import_is_a_finding(self, tmp_path):
        (tmp_path / "p.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: a\n    version: b\n"
            b"  imports:\n    - source: missing.yaml\n"
        )
        graph = build_graph(SourceStore(tmp_path))
        assert graph.edges == ()
        assert len(graph.findings) == 1
        assert "missing.yaml" in graph.findings[0].message

    def test_importers_match_an_edge_scan(self, fixture_store):
        graph = build_graph(SourceStore(fixture_store))
        for uri in graph.nodes + ("ghost.yaml",):
            scanned = [importer for importer, source in graph.edges if source == uri]
            assert graph.importers_of(uri) == scanned


class TestPropagate:
    def _populate(self, fixture_store):
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")

    def test_initial_propagation_resolves_both_profiles(self, fixture_store):
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [r.profile_uri for r in results] == ["ot-profile.yaml", "am-profile.yaml"]
        assert all(r.initial for r in results)
        assert (fixture_store / "resolved" / "ot-profile.yaml").is_file()
        assert (fixture_store / "resolved" / "am-profile.yaml").is_file()

    def test_ot_edit_reaches_both_layers(self, fixture_store):
        self._populate(fixture_store)
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"understand the flow", b"map the movement"))

        results = propagate(SourceStore(fixture_store), "ot-profile.yaml")
        assert [r.profile_uri for r in results] == ["ot-profile.yaml", "am-profile.yaml"]
        am = results[1]
        assert not am.initial
        assert [(e.kind, e.control_id, e.part_name) for e in am.changes.entries] == [
            ("part-modified", "id.am-3", "guidance"),
        ]
        resolved_am = am.resolved.catalog
        assert find_control(resolved_am, "id.am-3").part("ot-specific") is None

    def test_catalog_edit_reaches_both_layers(self, fixture_store):
        self._populate(fixture_store)
        path = fixture_store / "csf-id-am.yaml"
        path.write_bytes(
            path.read_bytes().replace(
                b"Organizational communication and data flows are mapped",
                b"Organizational communication and data flows are fully mapped",
            )
        )
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        for result in results:
            entries = [(e.kind, e.control_id, e.part_name) for e in result.changes.entries]
            assert ("part-modified", "id.am-3", "statement") in entries

    def test_document_without_dependents(self, tmp_path):
        (tmp_path / "solo.yaml").write_bytes(
            b"catalog:\n  metadata:\n    title: a\n    version: b\n"
        )
        assert propagate(SourceStore(tmp_path), "solo.yaml") == []

    def test_edit_of_last_layer_touches_only_itself(self, fixture_store):
        self._populate(fixture_store)
        results = propagate(SourceStore(fixture_store), "am-profile.yaml")
        assert [r.profile_uri for r in results] == ["am-profile.yaml"]

    def test_touches_exactly_the_transitive_dependents(self, fixture_store):
        self._populate(fixture_store)
        store = SourceStore(fixture_store)
        graph = build_graph(store)
        for changed in graph.nodes:
            expected = [
                uri for uri in transitive_dependents(graph, changed)
                if store.load(uri).kind == "profile"
            ]
            results = propagate(SourceStore(fixture_store), changed)
            assert sorted(r.profile_uri for r in results) == sorted(expected)

    def test_changesets_match_independent_diff(self, fixture_store):
        self._populate(fixture_store)
        previous = {
            uri: parse_document((fixture_store / resolution_output_uri(uri)).read_bytes()).body
            for uri in ("ot-profile.yaml", "am-profile.yaml")
        }
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"Documenting data flows", b"Recording data flows"))
        results = propagate(SourceStore(fixture_store), "ot-profile.yaml")
        for result in results:
            expected = diff(previous[result.profile_uri], result.resolved.catalog)
            assert result.changes == expected

    def test_missing_changed_uri(self, fixture_store):
        with pytest.raises(NotFound):
            propagate(SourceStore(fixture_store), "ghost.yaml")

    def test_failing_profile_reported_in_place(self, fixture_store):
        self._populate(fixture_store)
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"name: ot-specific", b"name: renamed-part"))
        results = propagate(SourceStore(fixture_store), "ot-profile.yaml")
        by_uri = {r.profile_uri: r for r in results}
        assert by_uri["ot-profile.yaml"].error is None
        assert by_uri["am-profile.yaml"].error is not None
        assert "removal matched nothing" in str(by_uri["am-profile.yaml"].error)

    def test_each_profile_resolves_once(self, fixture_store, monkeypatch):
        resolved_uris = []
        original = resolver.resolve

        def counting_resolve(sources, profile, **kwargs):
            resolved_uris.append(profile.uri)
            return original(sources, profile, **kwargs)

        monkeypatch.setattr(resolver, "resolve", counting_resolve)
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [r.error for r in results] == [None, None]
        assert resolved_uris == ["ot-profile.yaml", "am-profile.yaml"]

    def test_failing_layer_fails_its_dependents_in_place(self, fixture_store):
        self._populate(fixture_store)
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"control-id: id.am-3", b"control-id: id.zz-9"))
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [r.profile_uri for r in results] == ["ot-profile.yaml", "am-profile.yaml"]
        for result in results:
            assert result.resolved is None
            assert "id.zz-9" in str(result.error)

    def test_the_walk_replaces_per_profile_cycle_checks(self, fixture_store, monkeypatch):
        checked = []
        original = resolver.detect_cycles

        def counting_detect_cycles(store, uri):
            checked.append(uri)
            return original(store, uri)

        monkeypatch.setattr(resolver, "detect_cycles", counting_detect_cycles)
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [r.error for r in results] == [None, None]
        assert checked == []

    def test_cycle_through_an_import_outside_the_store_graph(self, tmp_path):
        """``./g.yaml`` names no store document, so only a per-profile check sees this cycle."""
        (tmp_path / "f.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: F\n    version: \"1\"\n"
            b"  imports:\n    - source: ./g.yaml\n"
        )
        (tmp_path / "g.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: G\n    version: \"1\"\n"
            b"  imports:\n    - source: f.yaml\n"
        )
        (result,) = propagate(SourceStore(tmp_path), "g.yaml")
        assert isinstance(result.error, CycleDetected)
        assert result.error.path == ("f.yaml", "./g.yaml", "f.yaml")

    def test_persisted_resolution_is_canonical(self, fixture_store):
        self._populate(fixture_store)
        data = (fixture_store / "resolved" / "am-profile.yaml").read_bytes()
        from layered_guidance.serialize import serialize_document
        assert serialize_document(parse_document(data), "yaml") == data

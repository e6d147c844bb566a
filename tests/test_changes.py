from __future__ import annotations

import os
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies
from strategies import profile_importing
from oracles import (
    brute_force_diff,
    changes_by_full_parse,
    dependents_in_store,
    entry_tuples,
    flatten_controls,
    patch_with_changeset,
)
from layered_guidance import changes as changes_module
from layered_guidance.changes import (
    _delta,
    build_graph,
    diff,
    propagate,
    resolution_output_uri,
    transitive_dependents,
)
from layered_guidance import resolver
from layered_guidance.errors import (
    CycleDetected,
    GuidanceError,
    NotFound,
    SchemaError,
    UnknownControlId,
)
from layered_guidance.fixtures import fixture_bytes
from layered_guidance.model import Catalog, Control, DocumentEnvelope, Metadata, Part, find_control
from layered_guidance.resolver import SourceStore, resolve_chain
from layered_guidance.serialize import parse_document, serialize_document

DUPLICATE_TITLE = b"catalog:\n  metadata:\n    title: a\n    title: b\n    version: \"1\"\n"
DUPLICATE_TITLE_MESSAGE = "duplicate key 'title' (line 4, column 5)"


def _respell_am_import(store: Path, spelling: str) -> None:
    path = store / "am-profile.yaml"
    path.write_bytes(path.read_bytes().replace(b"source: ot-profile.yaml",
                                               f"source: {spelling}".encode()))


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

    @pytest.mark.parametrize("spelling", ["./ot-profile.yaml", "sub/../ot-profile.yaml"])
    def test_any_spelling_of_a_document_is_one_edge(self, fixture_store, spelling):
        _respell_am_import(fixture_store, spelling)
        graph = build_graph(SourceStore(fixture_store))
        assert ("am-profile.yaml", "ot-profile.yaml") in graph.edges
        assert graph.findings == ()

    def test_unreadable_document_is_recorded_not_raised(self, fixture_store):
        (fixture_store / "dup.yaml").write_bytes(DUPLICATE_TITLE)
        graph = build_graph(SourceStore(fixture_store))
        assert "dup.yaml" in graph.nodes
        assert str(graph.unreadable["dup.yaml"]) == DUPLICATE_TITLE_MESSAGE
        assert set(graph.unreadable) == {"dup.yaml"}
        assert graph.profiles == ("am-profile.yaml", "ot-profile.yaml")

    def test_an_imported_build_output_joins_and_no_other_is_read(self, fixture_store):
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        (fixture_store / "uses-output.yaml").write_bytes(
            profile_importing("resolved/ot-profile.yaml"))
        store = SourceStore(fixture_store)
        graph = build_graph(store)
        assert graph.nodes[-1] == "resolved/ot-profile.yaml"
        assert ("uses-output.yaml", "resolved/ot-profile.yaml") in graph.edges
        assert "resolved/ot-profile.yaml" not in graph.profiles
        assert store.load_count == len(graph.nodes) == 5  # resolved/am-profile.yaml unread

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

    def test_the_walks_visit_each_document_at_most_once(self, fixture_store, monkeypatch):
        """Each profile's walk skips the resolutions memoised before it: no per-profile re-walk."""
        walked = []
        original = resolver.detect_cycles

        def recording_detect_cycles(*args, **kwargs):
            order = original(*args, **kwargs)
            walked.extend(order)
            return order

        monkeypatch.setattr(resolver, "detect_cycles", recording_detect_cycles)
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [r.error for r in results] == [None, None]
        assert Counter(walked) == Counter(["csf-id-am.yaml", "ot-profile.yaml", "am-profile.yaml"])

    def test_cycle_through_an_import_outside_the_store_graph(self, tmp_path):
        """An import spelled ``./g.yaml`` is the edge to ``g.yaml``, so the walk sees the cycle."""
        (tmp_path / "f.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: F\n    version: \"1\"\n"
            b"  imports:\n    - source: ./g.yaml\n"
        )
        (tmp_path / "g.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: G\n    version: \"1\"\n"
            b"  imports:\n    - source: f.yaml\n"
        )
        with pytest.raises(CycleDetected) as caught:
            propagate(SourceStore(tmp_path), "g.yaml")
        assert caught.value.path == ("f.yaml", "g.yaml", "f.yaml")

    def test_a_long_lived_store_sees_an_edit(self, fixture_store):
        store = SourceStore(fixture_store)
        propagate(store, "csf-id-am.yaml")
        path = fixture_store / "csf-id-am.yaml"
        path.write_bytes(path.read_bytes().replace(b"data flows are mapped",
                                                   b"data flows are fully mapped"))
        results = propagate(store, "csf-id-am.yaml")
        assert [len(r.changes.entries) for r in results] == [1, 1]

    @pytest.mark.parametrize("spelling", ["./ot-profile.yaml", "sub/../ot-profile.yaml"])
    def test_an_edit_reaches_an_importer_under_any_spelling(self, fixture_store, spelling):
        _respell_am_import(fixture_store, spelling)
        results = propagate(SourceStore(fixture_store), "ot-profile.yaml")
        assert [r.profile_uri for r in results] == ["ot-profile.yaml", "am-profile.yaml"]
        assert [r.error for r in results] == [None, None]

    @pytest.mark.parametrize("spelling", ["./ot-profile.yaml", "sub/../ot-profile.yaml"])
    def test_each_spelling_of_a_document_parses_once(self, fixture_store, spelling):
        _respell_am_import(fixture_store, spelling)
        store = SourceStore(fixture_store)
        propagate(store, "csf-id-am.yaml")
        resolve_chain(store, "am-profile.yaml")
        assert store.load_count == 3

    def test_an_unreadable_document_fails_only_its_dependents(self, fixture_store):
        (fixture_store / "dup.yaml").write_bytes(DUPLICATE_TITLE)
        (fixture_store / "uses-dup.yaml").write_bytes(
            profile_importing("csf-id-am.yaml", "dup.yaml"))
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        by_uri = {r.profile_uri: r for r in results}
        assert set(by_uri) == {"ot-profile.yaml", "am-profile.yaml", "uses-dup.yaml"}
        assert by_uri["ot-profile.yaml"].error is None
        assert by_uri["am-profile.yaml"].error is None
        assert isinstance(by_uri["uses-dup.yaml"].error, SchemaError)
        assert str(by_uri["uses-dup.yaml"].error) == DUPLICATE_TITLE_MESSAGE
        assert not (fixture_store / "resolved" / "uses-dup.yaml").exists()

    def test_an_unreadable_unrelated_document_does_not_stop_propagation(self, fixture_store):
        (fixture_store / "dup.yaml").write_bytes(DUPLICATE_TITLE)
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [(r.profile_uri, r.error) for r in results] == [
            ("ot-profile.yaml", None), ("am-profile.yaml", None),
        ]

    def test_an_unreadable_changed_document_raises(self, fixture_store):
        (fixture_store / "dup.yaml").write_bytes(DUPLICATE_TITLE)
        with pytest.raises(SchemaError, match=r"duplicate key 'title' \(line 4, column 5\)"):
            propagate(SourceStore(fixture_store), "dup.yaml")

    def test_an_unparsable_document_is_parsed_once_while_unchanged(self, fixture_store,
                                                                   monkeypatch):
        """``build_graph`` and each importer's cycle walk reuse the first failed parse."""
        dup = fixture_store / "dup.yaml"
        dup.write_bytes(DUPLICATE_TITLE)
        fixed = b"catalog:\n  metadata:\n    title: fixed\n    version: \"1\"\n"
        importers = ["uses-dup-1.yaml", "uses-dup-2.yaml", "uses-dup-3.yaml"]
        for uri in importers:
            (fixture_store / uri).write_bytes(profile_importing("csf-id-am.yaml", "dup.yaml"))
        dup_parses = []
        original = resolver.parse_document

        def counting_parse(data, *args):
            if data in (DUPLICATE_TITLE, fixed):
                dup_parses.append(data)
            return original(data, *args)

        monkeypatch.setattr(resolver, "parse_document", counting_parse)
        store = SourceStore(fixture_store)
        results = {r.profile_uri: r.error for r in propagate(store, "csf-id-am.yaml")}
        assert dup_parses == [DUPLICATE_TITLE]
        for uri in importers:
            assert isinstance(results[uri], SchemaError)
            assert (results[uri].source, str(results[uri])) == ("dup.yaml", DUPLICATE_TITLE_MESSAGE)
        dup.write_bytes(fixed)  # a new size, so a new fingerprint
        results = {r.profile_uri: r.error for r in propagate(store, "csf-id-am.yaml")}
        assert dup_parses == [DUPLICATE_TITLE, fixed]
        assert [results[uri] for uri in importers] == [None] * 3

    def test_cycle_through_an_imported_build_output(self, tmp_path):
        (tmp_path / "p.yaml").write_bytes(profile_importing("resolved/q.yaml"))
        (tmp_path / "resolved").mkdir()
        (tmp_path / "resolved" / "q.yaml").write_bytes(profile_importing("p.yaml"))
        expected = ("p.yaml", "resolved/q.yaml", "p.yaml")
        with pytest.raises(CycleDetected) as caught:
            propagate(SourceStore(tmp_path), "p.yaml")
        assert caught.value.path == expected
        with pytest.raises(CycleDetected) as caught:
            resolve_chain(SourceStore(tmp_path), "p.yaml")
        assert caught.value.path == expected

    def test_an_imported_build_output_is_never_rewritten(self, fixture_store):
        (fixture_store / "resolved").mkdir()
        output = fixture_store / "resolved" / "q.yaml"
        output.write_bytes(profile_importing("csf-id-am.yaml"))
        (fixture_store / "p.yaml").write_bytes(profile_importing("resolved/q.yaml"))
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [(r.profile_uri, r.error) for r in results] == [
            ("ot-profile.yaml", None), ("am-profile.yaml", None), ("p.yaml", None),
        ]
        assert output.read_bytes() == profile_importing("csf-id-am.yaml")

    def test_persisted_resolution_is_canonical(self, fixture_store):
        self._populate(fixture_store)
        data = (fixture_store / "resolved" / "am-profile.yaml").read_bytes()
        from layered_guidance.serialize import serialize_document
        assert serialize_document(parse_document(data), "yaml") == data


@pytest.fixture
def parses(monkeypatch) -> list[bytes | str]:
    """The texts ``changes`` hands to ``parse_document``, in call order.

    A whole previous output is handed over as bytes, its changed blocks as text.
    """
    texts: list[bytes | str] = []
    original = changes_module.parse_document

    def recording_parse(text, *args):
        texts.append(text)
        return original(text, *args)

    monkeypatch.setattr(changes_module, "parse_document", recording_parse)
    return texts


class TestPropagateOutputs:
    """What ``propagate`` leaves under ``resolved/`` and reports about it."""

    def test_an_unchanged_output_is_neither_parsed_nor_rewritten(self, fixture_store, parses):
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        outputs = sorted((fixture_store / "resolved").iterdir())
        before = [(path.stat().st_mtime_ns, path.stat().st_ino) for path in outputs]
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [(r.error, r.initial, r.changes.entries) for r in results] == [(None, False, ())] * 2
        assert parses == []
        assert [(path.stat().st_mtime_ns, path.stat().st_ino) for path in outputs] == before

    def test_outputs_get_the_mode_the_umask_allows(self, fixture_store):
        previous = os.umask(0o027)
        try:
            propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        finally:
            os.umask(previous)
        for path in (fixture_store / "resolved").iterdir():
            assert path.stat().st_mode & 0o777 == 0o640

    def test_an_unchanged_output_keeps_its_mode(self, fixture_store):
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        output = fixture_store / "resolved" / "am-profile.yaml"
        output.chmod(0o640)
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert output.stat().st_mode & 0o777 == 0o640

    def _uses_output(self, fixture_store) -> None:
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        (fixture_store / "uses-output.yaml").write_bytes(
            profile_importing("resolved/ot-profile.yaml"))
        propagate(SourceStore(fixture_store), "ot-profile.yaml")

    def test_an_importer_of_a_build_output_is_re_resolved_after_its_writer(self, fixture_store):
        self._uses_output(fixture_store)
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"understand the flow", b"map the movement"))
        results = propagate(SourceStore(fixture_store), "ot-profile.yaml")
        assert [(r.profile_uri, r.error) for r in results] == [
            ("ot-profile.yaml", None), ("am-profile.yaml", None), ("uses-output.yaml", None),
        ]
        assert [e.kind for e in results[2].changes.entries] == ["part-modified"]
        fresh = resolve_chain(SourceStore(fixture_store), "uses-output.yaml")
        written = (fixture_store / "resolved" / "uses-output.yaml").read_bytes()
        assert written == serialize_document(DocumentEnvelope("catalog", fresh.catalog))
        assert b"map the movement" in written

    def test_a_rewritten_output_is_read_again_despite_an_equal_fingerprint(self, fixture_store,
                                                                           monkeypatch):
        """A same-size rewrite within one timestamp tick keeps ``(mtime, size)``."""
        self._uses_output(fixture_store)
        original = changes_module._write_atomic

        def same_tick_write(target, data):
            stat = target.stat()
            original(target, data)
            os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns))

        monkeypatch.setattr(changes_module, "_write_atomic", same_tick_write)
        store = SourceStore(fixture_store)
        store.load("resolved/ot-profile.yaml")
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"understand the flow", b"understand THE flow"))
        results = propagate(store, "ot-profile.yaml")
        assert [r.error for r in results] == [None, None, None]
        written = (fixture_store / "resolved" / "uses-output.yaml").read_bytes()
        assert b"understand THE flow" in written

    def test_a_changed_block_shared_by_sibling_outputs_is_parsed_and_emitted_once(
            self, tmp_path, parses, monkeypatch):
        """Three profiles over ``base.yaml`` alter ``c-1``; the edit changes ``c-1-shared``."""
        (tmp_path / "base.yaml").write_bytes(strategies.catalog_text("base", "c-1"))
        for name in ("p1", "p2", "p3"):
            (tmp_path / f"{name}.yaml").write_bytes(strategies.profile_text(name, "base.yaml", "c-1"))
        propagate(SourceStore(tmp_path), "base.yaml")
        path = tmp_path / "base.yaml"
        path.write_bytes(path.read_bytes().replace(b"shared v0", b"shared v1"))
        checked: list[str] = []
        original = changes_module.emit_control

        def recording_emit(control, indent, memo=None):
            checked.append(control.id)
            return original(control, indent, memo)

        monkeypatch.setattr(changes_module, "emit_control", recording_emit)
        results = propagate(SourceStore(tmp_path), "base.yaml")
        assert [[(e.kind, e.control_id) for e in r.changes.entries] for r in results] \
            == [[("part-modified", "c-1-shared")]] * 3
        assert len(parses) == 1 and "- id: c-1-shared" in parses[0]
        assert checked == ["c-1-shared"]

    def _failing_then(self, fixture_store, later: bytes | None) -> GuidanceError:
        """``prec.yaml`` imports a failing layer, then ``later.yaml`` (absent when ``later`` is None)."""
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"control-id: id.am-3", b"control-id: id.zz-9"))
        if later is not None:
            (fixture_store / "later.yaml").write_bytes(later)
        (fixture_store / "prec.yaml").write_bytes(
            profile_importing("ot-profile.yaml", "later.yaml"))
        expected = _outcome(lambda: resolve_chain(SourceStore(fixture_store), "prec.yaml"))
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        by_uri = {r.profile_uri: r.error for r in results}
        assert _same_failure(by_uri["prec.yaml"], expected)
        assert isinstance(by_uri["ot-profile.yaml"], UnknownControlId)
        return by_uri["prec.yaml"]

    def test_a_missing_document_outranks_an_earlier_failing_import(self, fixture_store):
        error = self._failing_then(fixture_store, None)
        assert isinstance(error, NotFound)
        assert str(error) == "document not found: later.yaml"

    def test_an_unparsable_document_outranks_an_earlier_failing_import(self, fixture_store):
        error = self._failing_then(fixture_store, DUPLICATE_TITLE)
        assert isinstance(error, SchemaError)
        assert (error.source, str(error)) == ("later.yaml", DUPLICATE_TITLE_MESSAGE)


class TestWriteAtomic:
    DATA = b"catalog:\n" + b"x" * 1000 + b"\n"

    def _leftovers(self, directory: Path) -> list[str]:
        return sorted(name for name in os.listdir(directory) if name.startswith(".out.yaml."))

    def test_short_writes_still_write_every_byte(self, tmp_path, monkeypatch):
        real_write = os.write
        sizes: list[int] = []

        def short_write(fd, data):
            written = real_write(fd, bytes(data[:7]))
            sizes.append(written)
            return written

        monkeypatch.setattr(os, "write", short_write)
        path = tmp_path / "out.yaml"
        changes_module._write_atomic(path, self.DATA)
        assert path.read_bytes() == self.DATA
        assert len(sizes) == -(-len(self.DATA) // 7) and set(sizes[:-1]) == {7}
        assert self._leftovers(tmp_path) == []

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_a_failure_leaves_the_previous_output_and_no_temp_file(self, tmp_path, monkeypatch,
                                                                   failing):
        path = tmp_path / "out.yaml"
        path.write_bytes(b"previous\n")
        closed: list[int] = []
        real_close = os.close

        def fail(*args):
            raise OSError(28, "No space left on device")

        def recording_close(fd):
            closed.append(fd)
            real_close(fd)

        monkeypatch.setattr(os, failing, fail)
        monkeypatch.setattr(os, "close", recording_close)
        with pytest.raises(OSError, match="No space left"):
            changes_module._write_atomic(path, self.DATA)
        assert path.read_bytes() == b"previous\n"
        assert self._leftovers(tmp_path) == []
        assert len(closed) == 1  # the temp file's descriptor, closed before the rename

    def test_a_missing_directory_is_made(self, tmp_path):
        path = tmp_path / "store" / "resolved" / "out.yaml"
        changes_module._write_atomic(path, self.DATA)
        assert path.read_bytes() == self.DATA
        assert self._leftovers(path.parent) == []

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077, 0o002])
    def test_the_file_gets_the_mode_the_umask_allows(self, tmp_path, umask):
        path = tmp_path / "out.yaml"
        previous = os.umask(umask)
        try:
            changes_module._write_atomic(path, self.DATA)
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


class TestChangesSince:
    """Reading only the changed controls of the previous output against a whole parse."""

    @given(strategies.catalog_pairs(), st.booleans(), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_full_parse_of_the_previous_output(self, pair, edit, long_prose, data):
        before, after = pair
        if edit:
            after = data.draw(strategies.prose_edited(after))
        if long_prose:
            before, after = strategies.with_long_prose(before), strategies.with_long_prose(after)
        _, previous = data.draw(strategies.mangled_catalog_texts(before))
        expected = _outcome(lambda: changes_by_full_parse(previous, after))
        actual = _outcome(lambda: _delta(previous, after))
        if isinstance(expected, GuidanceError):
            assert _same_failure(actual, expected)
        else:
            assert actual == expected

    def _catalog(self, *prose: str) -> Catalog:
        children = tuple(Control(f"c-{i}", parts=(Part("statement", text),))
                         for i, text in enumerate(prose))
        return Catalog(Metadata("T", "1"), (Control("top", children=children),))

    def test_folded_prose_that_reads_like_a_control_is_read_by_block(self, parses):
        line = "- id: c-9 " * 12  # folds into lines that start "- id:"
        before = self._catalog(line + "old", line + "same")
        after = self._catalog(line + "new", line + "same")
        previous = serialize_document(DocumentEnvelope("catalog", before))
        fresh = serialize_document(DocumentEnvelope("catalog", after))
        assert b"\n                - id: c-9" in fresh
        assert _delta(previous, after) == changes_by_full_parse(previous, after)
        assert len(parses) == 1
        assert "- id: c-0" in parses[0] and "- id: c-1" not in parses[0]

    def test_only_the_changed_controls_are_parsed(self, parses):
        before = self._catalog("one", "two", "three")
        after = self._catalog("one", "TWO", "three")
        previous = serialize_document(DocumentEnvelope("catalog", before))
        changes = _delta(previous, after)
        assert changes == changes_by_full_parse(previous, after)
        assert len(parses) == 1
        assert "c-1" in parses[0] and "c-0" not in parses[0] and "c-2" not in parses[0]

    @pytest.mark.parametrize("edit", [
        (b"\n", b"\r\n"),  # CRLF line ends
        (b"prose: two", b"prose: two  # a comment"),
        (b"prose: two", b"prose: 'two'"),  # not canonical
    ])
    def test_a_non_canonical_previous_output_is_parsed_whole(self, parses, edit):
        before = self._catalog("one", "two")
        after = self._catalog("one", "TWO")
        previous = serialize_document(DocumentEnvelope("catalog", before)).replace(*edit)
        assert _delta(previous, after) == changes_by_full_parse(previous, after)
        assert parses[-1] == previous

    @pytest.mark.parametrize("before, after", [
        (("one", "two", "three"), ("one", "two")),  # one control more, after the last block
        (("one", "TWO", "three"), ("one", "two")),  # one more, after a changed last block
        (("one", "two"), ("one", "two", "three")),  # one control fewer
        (("one",), ("ONE", "two")),  # one fewer, after a changed block
    ])
    def test_a_previous_output_with_another_control_count_is_parsed_whole(self, parses, before,
                                                                          after):
        previous = serialize_document(DocumentEnvelope("catalog", self._catalog(*before)))
        after_catalog = self._catalog(*after)
        assert _delta(previous, after_catalog) == changes_by_full_parse(previous, after_catalog)
        assert parses[-1] == previous


def _outcome(call):
    try:
        return call()
    except GuidanceError as error:
        return error


def _same_failure(actual, expected) -> bool:
    return type(actual) is type(expected) and str(actual) == str(expected)


def _defect_case(import_spelling: str, target: str, old: bytes, new: bytes) -> dict:
    """Profile ``p1.yaml`` over ``base.yaml``, then ``old`` replaced by ``new`` in ``target``."""
    files = {"base.yaml": strategies.catalog_text("base", "c-1"),
             "other.yaml": strategies.catalog_text("other", "o-1"),
             "p1.yaml": strategies.profile_text("p1", import_spelling, "c-1")}
    text = files.get(target, strategies.catalog_text("new", "n-1"))
    return {"files": files, "imports": {"p1.yaml": "base.yaml"},
            "edit": (target, "edit", text.replace(old, new)), "changed": "base.yaml", "tamper": []}


def _output_importer_case() -> dict:
    """``p2.yaml`` imports ``resolved/p1.yaml``, the output of ``p1.yaml`` over ``base.yaml``."""
    case = _defect_case("base.yaml", "base.yaml", b" v0\n", b" v1, edited\n")
    case["files"]["resolved/p1.yaml"] = strategies.catalog_text("stand-in", "c-1")
    case["files"]["p2.yaml"] = strategies.profile_text("p2", "resolved/p1.yaml", "c-1")
    case["imports"]["p2.yaml"] = "resolved/p1.yaml"
    return case


def _fixture_case(*tamper: tuple[str, str, int]) -> dict:
    """The shipped OT profile over the shipped catalog, as ``base.yaml``; ``id.am-2`` edited."""
    base = fixture_bytes("csf-id-am")
    files = {"base.yaml": base, "other.yaml": strategies.catalog_text("other", "o-1"),
             "ot-profile.yaml": fixture_bytes("ot-profile").replace(b"source: csf-id-am.yaml",
                                                                    b"source: base.yaml")}
    edited = base.replace(b"Software platforms", b"Software tools", 1)
    return {"files": files, "imports": {"ot-profile.yaml": "base.yaml"},
            "edit": ("base.yaml", "edit", edited), "changed": "base.yaml", "tamper": list(tamper)}


def _siblings_case(*tamper: tuple[str, str, int]) -> dict:
    """``p1``-``p3`` over ``base.yaml``, ``p4`` over ``p1``; both base controls edited."""
    case = _defect_case("base.yaml", "base.yaml", b" v0\n", b" v1, edited\n")
    for name, source in (("p2", "base.yaml"), ("p3", "base.yaml"), ("p4", "p1.yaml")):
        case["files"][f"{name}.yaml"] = strategies.profile_text(name, source, "c-1")
        case["imports"][f"{name}.yaml"] = source
    case["tamper"] = list(tamper)
    return case


class TestPropagateOracle:
    @given(strategies.edited_stores())
    # A store that parses each document once would miss the edit; one that
    # compares import spellings would miss the edge; one that parses every
    # document first would stop at the added broken one; one that follows
    # imports only would leave the importer of a build output stale.
    @example(_defect_case("base.yaml", "base.yaml", b" v0\n", b" v1, edited\n"))
    @example(_defect_case("./base.yaml", "other.yaml", b" v0\n", b" v1, edited\n"))
    @example(_defect_case("base.yaml", "new.yaml", b"    title: new\n",
                          b"    title: new\n    title: new\n"))
    @example(_output_importer_case())
    # One output read whole for one mangled or broken block; two outputs whose
    # previous texts differ for one control id.
    @example(_siblings_case(("p2.yaml", "mangle", 1)))
    @example(_siblings_case(("p3.yaml", "break", 1)))
    @example(_siblings_case(("p2.yaml", "reword", 1), ("p4.yaml", "reword", 0)))
    # Both read whole: trailing spaces after ``id.am``'s ``children:`` key;
    # an ``id.am-1`` block that parses to two controls.
    @example(_fixture_case(("ot-profile.yaml", "spaced", 0)))
    @example(_fixture_case(("ot-profile.yaml", "extra", 1)))
    @settings(max_examples=80, deadline=None)
    def test_after_any_edit_propagate_equals_a_fresh_resolve(self, case):
        """One long-lived store, one edit, one ``propagate``: as if resolved from scratch."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for uri, data in case["files"].items():
                (root / uri).parent.mkdir(exist_ok=True)
                (root / uri).write_bytes(data)
            store = SourceStore(root)
            initial = [r.profile_uri for uri in ("base.yaml", "other.yaml")
                       for r in propagate(store, uri)]
            assert sorted(initial) == sorted(case["imports"])
            target, _, edited = case["edit"]
            outputs = {uri: resolution_output_uri(uri) for uri in case["imports"]}
            for uri, kind, at in case["tamper"]:
                path = root / outputs[uri]
                path.write_bytes(strategies.tampered(path.read_bytes(), kind, at))
            before = {uri: (root / out).read_bytes() for uri, out in outputs.items()}
            (root / target).write_bytes(edited)

            results = _outcome(lambda: propagate(store, case["changed"]))

            fresh = SourceStore(root)
            changed = _outcome(lambda: fresh.load(case["changed"]))
            if isinstance(changed, GuidanceError):
                assert _same_failure(results, changed)
                return
            unreadable = {uri for uri in {*case["files"], target}
                          if isinstance(_outcome(lambda: fresh.load(uri)), GuidanceError)}
            affected = dependents_in_store(case["imports"], unreadable, changed.body.uri)
            assert not isinstance(results, GuidanceError), results
            assert {r.profile_uri for r in results} == affected & set(case["imports"])
            written = set()
            for result in results:
                expected = _outcome(lambda: resolve_chain(fresh, result.profile_uri))
                if isinstance(expected, GuidanceError):
                    assert _same_failure(result.error, expected)
                    continue
                data = serialize_document(DocumentEnvelope("catalog", expected.catalog))
                previous = before[result.profile_uri]
                changes = _outcome(lambda: changes_by_full_parse(previous, expected.catalog))
                if isinstance(changes, GuidanceError):  # a broken previous output fails alone
                    assert _same_failure(result.error, changes)
                    continue
                assert result.error is None
                assert result.resolved == expected
                assert result.changes == changes
                assert (root / result.output_uri).read_bytes() == data
                written.add(result.profile_uri)
            for uri, out in outputs.items():
                if uri not in written:
                    assert (root / out).read_bytes() == before[uri]

from __future__ import annotations

import json
import os
import signal
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
    ChangeSet,
    _delta,
    build_graph,
    diff,
    propagate,
    resolution_output_uri,
    transitive_dependents,
)
from layered_guidance import resolver, serialize
from layered_guidance.cli import main
from layered_guidance.errors import (
    CycleDetected,
    DocumentSyntaxError,
    GuidanceError,
    InvalidUri,
    NotFound,
    SchemaError,
    UnknownControlId,
    ValidationError,
)
from layered_guidance.fixtures import fixture_bytes
from layered_guidance.model import Catalog, Control, DocumentEnvelope, Metadata, Part, find_control
from layered_guidance.resolver import SourceStore, resolve_chain
from layered_guidance.serialize import (
    catalog_blocks,
    changed_blocks,
    parse_document,
    serialize_document,
)

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

    @pytest.mark.parametrize("uri", ["../x.yaml", "/etc/passwd", "link.yaml"])
    def test_a_changed_uri_out_of_the_store_raises_invalid_uri(self, fixture_store, uri):
        (fixture_store.parent / "outside.yaml").write_bytes(
            (fixture_store / "csf-id-am.yaml").read_bytes())
        (fixture_store / "link.yaml").symlink_to("../outside.yaml")
        with pytest.raises(InvalidUri, match="escapes the store root"):
            propagate(SourceStore(fixture_store), uri)

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

    def test_a_non_utf8_previous_output_fails_its_profile_in_place(self, fixture_store):
        self._populate(fixture_store)
        previous = fixture_store / "resolved" / "ot-profile.yaml"
        previous.write_bytes(b"catalog: \xff\n")
        catalog = fixture_store / "csf-id-am.yaml"
        catalog.write_bytes(catalog.read_bytes().replace(b"Physical devices and systems",
                                                         b"Physical devices, systems"))
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [r.profile_uri for r in results] == ["ot-profile.yaml", "am-profile.yaml"]
        failed, passed = results
        assert isinstance(failed.error, DocumentSyntaxError)
        assert failed.error.source == "resolved/ot-profile.yaml"
        assert str(failed.error).startswith("syntax error: invalid UTF-8: ")
        assert previous.read_bytes() == b"catalog: \xff\n"
        assert passed.error is None and len(passed.changes.entries) == 1

    def test_a_profile_shaped_previous_output_fails_its_profile_in_place(self, fixture_store):
        (fixture_store / "resolved").mkdir()
        previous = fixture_store / "resolved" / "ot-profile.yaml"
        profile = (fixture_store / "ot-profile.yaml").read_bytes()
        previous.write_bytes(profile)
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [r.profile_uri for r in results] == ["ot-profile.yaml", "am-profile.yaml"]
        failed, passed = results
        assert isinstance(failed.error, SchemaError) and failed.resolved is None
        assert (failed.error.source, str(failed.error)) == (
            "resolved/ot-profile.yaml", "expected a catalog document")
        assert previous.read_bytes() == profile
        assert passed.error is None and passed.initial
        assert (fixture_store / "resolved" / "am-profile.yaml").is_file()

    def test_a_directory_at_an_output_path_stops_the_run_with_an_os_error(self, fixture_store):
        (fixture_store / "resolved" / "ot-profile.yaml").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [path.name for path in (fixture_store / "resolved").iterdir()] == ["ot-profile.yaml"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo") or not hasattr(signal, "SIGALRM"),
                        reason="needs named pipes and SIGALRM")
    def test_a_named_pipe_at_an_output_path_is_replaced_without_being_read(self, fixture_store):
        """A pipe is no previous output: opening it to read must not wait for a writer."""
        (fixture_store / "resolved").mkdir()
        pipe = fixture_store / "resolved" / "ot-profile.yaml"
        os.mkfifo(pipe)

        def expire(signum, frame):
            pytest.fail("opening the pipe waited for a writer")

        handler = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert [(r.profile_uri, r.error, r.initial) for r in results] == [
            ("ot-profile.yaml", None, True), ("am-profile.yaml", None, True),
        ]
        assert pipe.is_file()

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
def parses(monkeypatch) -> list[bytes]:
    """The previous outputs ``changes`` hands whole to ``parse_document``, in call order."""
    texts: list[bytes] = []
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
            stat = os.stat(target)
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
        """Three profiles over ``base.yaml`` alter ``c-1``; the edit changes ``c-1-shared``.

        Each output reads ``c-1-shared`` in place, once, and nothing is
        parsed; its fresh block is emitted once for the three outputs.
        """
        (tmp_path / "base.yaml").write_bytes(strategies.catalog_text("base", "c-1"))
        for name in ("p1", "p2", "p3"):
            (tmp_path / f"{name}.yaml").write_bytes(strategies.profile_text(name, "base.yaml", "c-1"))
        propagate(SourceStore(tmp_path), "base.yaml")
        path = tmp_path / "base.yaml"
        path.write_bytes(path.read_bytes().replace(b"shared v0", b"shared v1"))
        read: list[list[tuple[int, str]]] = []
        emitted: list[str] = []
        original_read, original_emit = changes_module.changed_blocks, serialize.emit_control

        def recording_read(text, header, blocks):
            changed = original_read(text, header, blocks)
            read.append([(index, control.id) for index, control in changed])
            return changed

        def recording_emit(control, indent, memo=None):
            emitted.append(control.id)
            return original_emit(control, indent, memo)

        monkeypatch.setattr(changes_module, "changed_blocks", recording_read)
        monkeypatch.setattr(serialize, "emit_control", recording_emit)
        results = propagate(SourceStore(tmp_path), "base.yaml")
        assert [[(e.kind, e.control_id) for e in r.changes.entries] for r in results] \
            == [[("part-modified", "c-1-shared")]] * 3
        assert parses == []
        assert read == [[(1, "c-1-shared")]] * 3
        assert emitted.count("c-1-shared") == 1

    def test_a_duplicate_part_name_in_a_changed_block_fails_its_profile_in_place(
            self, fixture_store, parses):
        """The block reads in place but does not validate: the whole parse gives the error."""
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        output = fixture_store / "resolved" / "am-profile.yaml"
        part = b"            - name: statement\n              class: outcome\n"
        previous = output.read_bytes().replace(part, part + b"              prose: x\n" + part, 1)
        output.write_bytes(previous)
        fresh = resolve_chain(SourceStore(fixture_store), "am-profile.yaml").catalog
        expected = _outcome(lambda: changes_by_full_parse(previous, fresh))
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert isinstance(expected, ValidationError) and "duplicate part name" in str(expected)
        assert (results[0].profile_uri, results[0].error) == ("ot-profile.yaml", None)
        assert _same_failure(results[1].error, expected)
        assert results[1].error.source == "resolved/am-profile.yaml"
        assert parses == [previous] and output.read_bytes() == previous

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


def _spy_commits(monkeypatch, store: Path) -> list[tuple[str, str]]:
    """Each resolution and each output write of ``changes``, in call order, by store uri."""
    events: list[tuple[str, str]] = []
    resolve, write = changes_module.resolve_in_store, changes_module._write_atomic

    def recording_resolve(store_, uri, **kwargs):
        events.append(("resolve", uri))
        return resolve(store_, uri, **kwargs)

    def recording_write(path, data):
        events.append(("write", Path(path).relative_to(store).as_posix()))
        write(path, data)

    monkeypatch.setattr(changes_module, "resolve_in_store", recording_resolve)
    monkeypatch.setattr(changes_module, "_write_atomic", recording_write)
    return events


def _fresh_output(store: Path, uri: str) -> bytes:
    resolved = resolve_chain(SourceStore(store), uri)
    return serialize_document(DocumentEnvelope("catalog", resolved.catalog))


# ``x.yaml`` takes ``id.am-1`` from the AM profile and ``id.am-2`` from SOURCE.
_X_PROFILE = (b"profile:\n  metadata:\n    title: X\n    version: \"1\"\n  imports:\n"
              b"    - source: am-profile.yaml\n      include:\n        - id.am-1\n"
              b"    - source: SOURCE\n      include:\n        - id.am-2\n")


class TestCommitOrder:
    """When ``propagate`` writes its outputs, and what an escaping error leaves on disk."""

    def test_a_plain_store_writes_every_output_after_the_last_resolution(self, fixture_store,
                                                                          monkeypatch):
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        path = fixture_store / "csf-id-am.yaml"
        path.write_bytes(path.read_bytes().replace(b"Software platforms", b"Software tools"))
        events = _spy_commits(monkeypatch, fixture_store)
        results = propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        assert [(r.profile_uri, r.error, len(r.changes.entries)) for r in results] == [
            ("ot-profile.yaml", None, 1), ("am-profile.yaml", None, 1)]
        assert events == [("resolve", "ot-profile.yaml"), ("resolve", "am-profile.yaml"),
                          ("write", "resolved/ot-profile.yaml"),
                          ("write", "resolved/am-profile.yaml")]
        for uri in ("ot-profile.yaml", "am-profile.yaml"):
            assert (fixture_store / resolution_output_uri(uri)).read_bytes() \
                == _fresh_output(fixture_store, uri)

    def test_an_imported_output_is_written_before_its_importer_resolves(self, fixture_store,
                                                                        monkeypatch):
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        (fixture_store / "uses-output.yaml").write_bytes(
            profile_importing("resolved/ot-profile.yaml"))
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"understand the flow", b"map the movement"))
        events = _spy_commits(monkeypatch, fixture_store)
        results = propagate(SourceStore(fixture_store), "ot-profile.yaml")
        assert [(r.profile_uri, r.error) for r in results] == [
            ("ot-profile.yaml", None), ("am-profile.yaml", None), ("uses-output.yaml", None)]
        assert events == [("resolve", "ot-profile.yaml"), ("write", "resolved/ot-profile.yaml"),
                          ("resolve", "am-profile.yaml"), ("write", "resolved/am-profile.yaml"),
                          ("resolve", "uses-output.yaml"),
                          ("write", "resolved/uses-output.yaml")]
        assert b"map the movement" in (fixture_store / "resolved" / "uses-output.yaml").read_bytes()

    def _propagate_json(self, store: Path, capsys) -> tuple[int, list]:
        code = main(["propagate", "--store", str(store), "--changed", "csf-id-am.yaml",
                     "--format", "json"])
        return code, [(r["profile-uri"], r.get("error"), r.get("initial"),
                       [(c["kind"], c["control-id"], c["part-name"]) for c in r.get("changes", [])])
                      for r in json.loads(capsys.readouterr().out)]

    def _outputs_are_fresh(self, store: Path) -> None:
        for uri in ("ot-profile.yaml", "am-profile.yaml", "x.yaml"):
            assert (store / resolution_output_uri(uri)).read_bytes() == _fresh_output(store, uri)

    def test_a_first_run_writes_an_output_before_an_importer_of_it_resolves(self, fixture_store,
                                                                           capsys):
        """``resolved/ot-profile.yaml`` is missing when the graph is built: an import finding."""
        (fixture_store / "x.yaml").write_bytes(
            _X_PROFILE.replace(b"SOURCE", b"resolved/ot-profile.yaml"))
        assert self._propagate_json(fixture_store, capsys) == (0, [
            ("ot-profile.yaml", None, True, []), ("am-profile.yaml", None, True, []),
            ("x.yaml", None, True, [])])
        self._outputs_are_fresh(fixture_store)

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symbolic links")
    def test_a_link_to_an_output_reads_the_output_of_this_run(self, fixture_store, capsys):
        (fixture_store / "x.yaml").write_bytes(_X_PROFILE.replace(b"SOURCE", b"alias.yaml"))
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        (fixture_store / "alias.yaml").symlink_to("resolved/ot-profile.yaml")
        assert propagate(SourceStore(fixture_store), "csf-id-am.yaml")[-1].error is None
        path = fixture_store / "csf-id-am.yaml"
        path.write_bytes(path.read_bytes().replace(b"Software platforms", b"Software tools"))
        edit = [("part-modified", "id.am-2", "statement")]
        assert self._propagate_json(fixture_store, capsys) == (0, [
            ("ot-profile.yaml", None, False, edit), ("am-profile.yaml", None, False, edit),
            ("x.yaml", None, False, edit)])
        self._outputs_are_fresh(fixture_store)

    def _edited(self, fixture_store) -> dict[str, bytes]:
        """The outputs of a first run, then an edit that changes both."""
        propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        before = {path.name: path.read_bytes() for path in (fixture_store / "resolved").iterdir()}
        path = fixture_store / "csf-id-am.yaml"
        path.write_bytes(path.read_bytes().replace(b"Software platforms", b"Software tools"))
        return before

    def _leftovers(self, store: Path) -> list[str]:
        return sorted(path.name for path in (store / "resolved").iterdir()
                      if path.name.startswith("."))

    def test_an_error_reading_a_previous_output_still_writes_the_earlier_outputs(
            self, fixture_store, monkeypatch):
        before = self._edited(fixture_store)
        original, reads = changes_module.read_regular, []

        def failing_second(path):
            reads.append(path)
            if len(reads) == 2:
                raise PermissionError(13, "Permission denied", path)
            return original(path)

        monkeypatch.setattr(changes_module, "read_regular", failing_second)
        with pytest.raises(PermissionError):
            propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        resolved = fixture_store / "resolved"
        assert (resolved / "ot-profile.yaml").read_bytes() \
            == _fresh_output(fixture_store, "ot-profile.yaml") != before["ot-profile.yaml"]
        assert (resolved / "am-profile.yaml").read_bytes() == before["am-profile.yaml"]
        assert self._leftovers(fixture_store) == []

    @pytest.mark.parametrize("failing", [1, 2])
    def test_a_failed_replace_keeps_its_output_and_the_later_ones(self, fixture_store,
                                                                 monkeypatch, failing):
        before = self._edited(fixture_store)
        original, calls = os.replace, []

        def replace_failing_once(source, target):
            calls.append(target)
            if len(calls) == failing:
                raise OSError(28, "No space left on device")
            original(source, target)

        monkeypatch.setattr(os, "replace", replace_failing_once)
        with pytest.raises(OSError, match="No space left"):
            propagate(SourceStore(fixture_store), "csf-id-am.yaml")
        resolved = fixture_store / "resolved"
        for index, uri in enumerate(["ot-profile.yaml", "am-profile.yaml"], start=1):
            expected = _fresh_output(fixture_store, uri) if index < failing else before[uri]
            assert (resolved / uri).read_bytes() == expected
        assert len(calls) == failing and self._leftovers(fixture_store) == []


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

    def _read_in_place(self, previous: bytes, after: Catalog) -> list[str]:
        """The ids of the controls ``changed_blocks`` reads from ``previous``."""
        changed = changed_blocks(previous.decode("utf-8"), *catalog_blocks(after))
        return [control.id for _, control in changed]

    def test_folded_prose_that_reads_like_a_control_is_read_by_block(self, parses):
        line = "- id: c-9 " * 12  # folds into lines that start "- id:"
        before = self._catalog(line + "old", line + "same")
        after = self._catalog(line + "new", line + "same")
        previous = serialize_document(DocumentEnvelope("catalog", before))
        fresh = serialize_document(DocumentEnvelope("catalog", after))
        assert b"\n                - id: c-9" in fresh
        assert _delta(previous, after) == changes_by_full_parse(previous, after)
        assert parses == []
        assert self._read_in_place(previous, after) == ["c-0"]

    def test_only_the_changed_controls_are_parsed(self, parses):
        """Nothing is parsed: the one changed control is read in place."""
        before = self._catalog("one", "two", "three")
        after = self._catalog("one", "TWO", "three")
        previous = serialize_document(DocumentEnvelope("catalog", before))
        changes = _delta(previous, after)
        assert changes == changes_by_full_parse(previous, after)
        assert parses == []
        assert self._read_in_place(previous, after) == ["c-1"]

    @given(strategies.catalogs(), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_an_unchanged_tree_is_read_without_a_parse(self, before, long_prose, data):
        """Only prose differs, and at most one prose of the previous text is quoted or folded anew.

        Every changed block is then read in place: ``parse_document`` is never called.
        """
        after = data.draw(strategies.prose_edited(before))
        if long_prose:
            before, after = strategies.with_long_prose(before), strategies.with_long_prose(after)
        _, previous = data.draw(strategies.mangled_catalog_texts(before, ("requoted", "refolded")))
        texts: list[bytes] = []
        original = changes_module.parse_document

        def recording_parse(text, *args):
            texts.append(text)
            return original(text, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(changes_module, "parse_document", recording_parse)
            assert _delta(previous, after) == changes_by_full_parse(previous, after)
        assert texts == []

    def _edited(self, before: Catalog, old: bytes, new: bytes) -> bytes:
        """``before``'s canonical YAML with its one ``old`` replaced by ``new``."""
        text = serialize_document(DocumentEnvelope("catalog", before))
        assert text.count(old) == 1
        return text.replace(old, new)

    def test_a_quoted_prose_with_a_raw_nel_is_parsed_whole(self, parses):
        """The layout leaves a NEL to the strict loader, which folds it to a space: ``'a b'``."""
        after = self._catalog("one", "a b")
        previous = self._edited(self._catalog("one", "zz"), b"prose: zz\n",
                                'prose: "a\u0085b"\n'.encode())
        assert _delta(previous, after) == changes_by_full_parse(previous, after) == ChangeSet(())
        assert parses == [previous]

    @pytest.mark.parametrize("old, new", [
        (b"      children:\n", b""),  # the key dropped
        (b"      children:\n", b"      childern:\n"),  # misspelled
        (b"prose: one\n", b"prose: one\n          children:\n"),  # a key added
        (b"- id: c-1\n", b"- id: c-0\n"),  # a sibling's id, so a duplicate
        (b"        - id: c-1\n          parts:\n            - name: statement\n",
         b"          - id: c-1\n            parts:\n              - name: statement\n  "),
    ], ids=["children-dropped", "children-misspelled", "children-added", "duplicate-id",
            "reindented"])
    def test_a_changed_block_out_of_place_is_parsed_whole(self, parses, old, new):
        previous = self._edited(self._catalog("one", "two"), old, new)
        after = self._catalog("one", "TWO")
        expected = _outcome(lambda: changes_by_full_parse(previous, after))
        actual = _outcome(lambda: _delta(previous, after))
        assert _same_failure(actual, expected) if isinstance(expected, GuidanceError) \
            else actual == expected
        assert parses[-1] == previous

    @pytest.mark.parametrize("ending", ["ends:", "children:"])
    def test_a_childless_fold_ending_in_a_colon_is_read_in_place(self, parses, ending):
        """The fresh block ends in ``:`` and a line end, as a block with children does."""
        def prose(word: str) -> str:  # three lines at the fold width, 64: ``ending`` alone on the last
            return f"{word}{'x' * 60} {'y' * 64} {ending}"

        before, after = self._catalog(prose("old"), "two"), self._catalog(prose("new"), "two")
        previous = serialize_document(DocumentEnvelope("catalog", before))
        assert catalog_blocks(after)[1][1].endswith(f"\n{' ' * 16}{ending}\n")
        assert _delta(previous, after) == changes_by_full_parse(previous, after)
        assert parses == []
        assert self._read_in_place(previous, after) == ["c-0"]

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

from __future__ import annotations

import io
import os
import tempfile
import threading
import time
from dataclasses import replace
from functools import partial
from pathlib import Path, PurePath, PurePosixPath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from conftest import FIXTURES_DIR
from strategies import profile_importing
from layered_guidance import changes, cli, resolver
from layered_guidance.errors import (
    CycleDetected,
    DuplicateControlId,
    DuplicatePartName,
    GuidanceError,
    InvalidUri,
    NotFound,
    RemovalMatchedNothing,
    ResolutionError,
    SchemaError,
    StatementNotFirst,
    UnknownControlId,
    ValidationError,
)
from layered_guidance.fixtures import load_fixture
from layered_guidance.model import (
    ERROR,
    AddDirective,
    Alteration,
    Catalog,
    Control,
    DocumentEnvelope,
    Finding,
    ImportDirective,
    Metadata,
    Part,
    Profile,
    RemoveDirective,
    find_control,
    has_errors,
    iter_controls,
    validate_catalog,
)
from layered_guidance.resolver import (
    SourceStore,
    apply_alteration,
    detect_cycles,
    import_sources,
    resolve,
    resolve_chain,
    resolve_in_store,
)
from layered_guidance.changes import resolution_output_uri
from layered_guidance.serialize import format_of, parse_document, serialize_document


def _identity_profile(source: str = "src.yaml") -> Profile:
    return Profile(metadata=Metadata("Identity", "1"), imports=(ImportDirective(source),))


OT_ALTERATION = Alteration(
    "id.am-3",
    adds=(AddDirective(parts=(
        Part("guidance", "Data flow diagrams enable a manufacturer...", "supplemental-guidance"),
        Part("ot-specific", "Organizations should consider the impact...", "OT-specific-guidance"),
    )),),
)

AM_ALTERATION = Alteration(
    "id.am-3",
    removes=(RemoveDirective(by_name="ot-specific"),),
    adds=(AddDirective(parts=(
        Part("am-specific", "Data flow diagrams for AM processes...", "Additive-specific-guidance"),
    )),),
)


class TestApplyAlteration:
    def test_adds_append_after_statement(self):
        control = Control("id.am-3", parts=(Part("statement", "mapped"),))
        result = apply_alteration(control, OT_ALTERATION)
        assert [p.name for p in result.parts] == ["statement", "guidance", "ot-specific"]

    def test_remove_then_add_replaces(self):
        control = Control("id.am-3", parts=(
            Part("statement", "mapped"),
            Part("guidance", "dfd", "supplemental-guidance"),
            Part("ot-specific", "impact", "OT-specific-guidance"),
        ))
        result = apply_alteration(control, AM_ALTERATION)
        assert [p.name for p in result.parts] == ["statement", "guidance", "am-specific"]

    def test_by_class_selector_equals_by_name(self):
        control = Control("id.am-3", parts=(
            Part("statement", "mapped"),
            Part("ot-specific", "impact", "OT-specific-guidance"),
        ))
        by_name = apply_alteration(
            control, Alteration("id.am-3", removes=(RemoveDirective(by_name="ot-specific"),),
                                adds=(AddDirective((Part("x", "y"),)),))
        )
        by_class = apply_alteration(
            control,
            Alteration("id.am-3",
                       removes=(RemoveDirective(by_class="OT-specific-guidance"),),
                       adds=(AddDirective((Part("x", "y"),)),)),
        )
        assert by_name == by_class

    def test_a_control_that_is_not_the_target_raises(self):
        alteration = Alteration("c2", adds=(AddDirective((Part("x", "y"),)),))
        with pytest.raises(ResolutionError, match="alteration targets 'c2', control is 'c1'"):
            apply_alteration(Control("c1"), alteration)

    def test_by_class_removes_every_match(self):
        control = Control("c1", parts=(
            Part("a", "x", "Tech-guidance"),
            Part("b", "y", "Tech-guidance"),
            Part("c", "z", "other"),
        ))
        result = apply_alteration(
            control, Alteration("c1", removes=(RemoveDirective(by_class="Tech-guidance"),))
        )
        assert [p.name for p in result.parts] == ["c"]

    def test_strict_removal_raises(self):
        control = Control("c1", parts=(Part("statement", "s"),))
        with pytest.raises(RemovalMatchedNothing) as excinfo:
            apply_alteration(
                control, Alteration("c1", removes=(RemoveDirective(by_name="ghost"),))
            )
        assert "c1" in str(excinfo.value)
        assert "ghost" in str(excinfo.value)

    def test_lenient_removal_warns_instead(self):
        control = Control("c1", parts=(Part("statement", "s"),))
        warnings: list = []
        result = apply_alteration(
            control,
            Alteration("c1", removes=(RemoveDirective(by_name="ghost"),)),
            lenient=True,
            warnings=warnings,
        )
        assert result == control
        assert len(warnings) == 1
        assert "removal matched nothing" in warnings[0].message

    def test_duplicate_add_raises(self):
        control = Control("c1", parts=(Part("statement", "s"), Part("guidance", "g")))
        with pytest.raises(DuplicatePartName):
            apply_alteration(
                control, Alteration("c1", adds=(AddDirective((Part("guidance", "again"),)),))
            )

    def test_same_name_remove_then_add_succeeds(self):
        control = Control("c1", parts=(Part("statement", "s"), Part("guidance", "old")))
        result = apply_alteration(
            control,
            Alteration("c1", removes=(RemoveDirective(by_name="guidance"),),
                       adds=(AddDirective((Part("guidance", "new"),)),)),
        )
        assert result.part("guidance").prose == "new"

    def test_statement_added_behind_other_parts_raises(self):
        control = Control("c1", parts=(Part("guidance", "g"),))
        with pytest.raises(StatementNotFirst):
            apply_alteration(
                control, Alteration("c1", adds=(AddDirective((Part("statement", "s"),)),))
            )

    def test_statement_added_to_emptied_control_is_fine(self):
        control = Control("c1", parts=(Part("guidance", "g"),))
        result = apply_alteration(
            control,
            Alteration("c1", removes=(RemoveDirective(by_name="guidance"),),
                       adds=(AddDirective((Part("statement", "s"),)),)),
        )
        assert [p.name for p in result.parts] == ["statement"]


class TestResolve:
    def test_ot_layer_gains_both_guidance_parts(self):
        csf = load_fixture("csf-id-am").body
        ot = load_fixture("ot-profile").body
        resolved = resolve([replace(csf, uri="csf-id-am.yaml")], ot)
        control = find_control(resolved.catalog, "id.am-3")
        assert control.part("guidance").prose.startswith("Data flow diagrams enable a manufacturer")
        assert control.part("ot-specific").prose.startswith(
            "Organizations should consider the impact"
        )

    def test_identity_profile_returns_equal_controls(self):
        catalog = replace(load_fixture("csf-id-am").body, uri="src.yaml")
        resolved = resolve([catalog], _identity_profile())
        assert resolved.catalog.controls == catalog.controls

    def test_subset_import_matches_set_filter_oracle(self):
        catalog = replace(load_fixture("csf-id-am").body, uri="src.yaml")
        profile = Profile(
            metadata=Metadata("Subset", "1"),
            imports=(ImportDirective("src.yaml", include=("id.am-3", "id.am-5")),),
        )
        resolved = resolve([catalog], profile)
        # independent oracle: filter the fixture's own control list
        expected = [
            control for control in iter_controls(catalog.controls)
            if control.id in ("id.am-3", "id.am-5")
        ]
        assert list(resolved.catalog.controls) == expected

    def test_exclude_prunes_subtree(self):
        catalog = replace(load_fixture("csf-id-am").body, uri="src.yaml")
        profile = Profile(
            metadata=Metadata("Pruned", "1"),
            imports=(ImportDirective("src.yaml", exclude=("id.am-3",)),),
        )
        resolved = resolve([catalog], profile)
        assert find_control(resolved.catalog, "id.am-3") is None
        assert find_control(resolved.catalog, "id.am-2") is not None

    def test_unknown_alteration_target_raises(self):
        catalog = replace(load_fixture("csf-id-am").body, uri="src.yaml")
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("src.yaml"),),
            alterations=(Alteration("id.am-99", adds=(AddDirective((Part("g", "x"),)),)),),
        )
        with pytest.raises(UnknownControlId, match="id.am-99"):
            resolve([catalog], profile)

    def test_alteration_on_excluded_control_raises(self):
        catalog = replace(load_fixture("csf-id-am").body, uri="src.yaml")
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("src.yaml", exclude=("id.am-3",)),),
            alterations=(Alteration("id.am-3", adds=(AddDirective((Part("g", "x"),)),)),),
        )
        with pytest.raises(UnknownControlId):
            resolve([catalog], profile)

    def test_duplicate_id_across_sources_raises(self):
        one = Catalog(Metadata("A", "1"), (Control("c1"),), uri="a.yaml")
        two = Catalog(Metadata("B", "1"), (Control("c1"),), uri="b.yaml")
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("a.yaml"), ImportDirective("b.yaml")),
        )
        with pytest.raises(DuplicateControlId, match="c1"):
            resolve([one, two], profile)

    def test_duplicate_id_names_uri_less_sources_by_their_imports(self):
        one = Catalog(Metadata("A", "1"), (Control("c1"),))
        two = Catalog(Metadata("B", "1"), (Control("c1"),))
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("a.yaml"), ImportDirective("b.yaml")),
        )
        with pytest.raises(DuplicateControlId) as raised:
            resolve([one, two], profile)
        assert str(raised.value) == (
            "duplicate control id: 'c1' (supplied by both 'a.yaml' and 'b.yaml')"
        )

    def test_an_id_repeated_within_one_source_imported_whole_is_reported(self):
        """A catalog built in memory may repeat an id; taking it whole must not hide that."""
        source = Catalog(Metadata("A", "1"), (
            Control("c1", parts=(Part("statement", "first"),)),
            Control("c2", children=(Control("c1", parts=(Part("statement", "again"),)),)),
        ), uri="a.yaml")
        profile = Profile(Metadata("P", "1"), imports=(ImportDirective("a.yaml"),),
                          alterations=(Alteration("c2", adds=(AddDirective((Part("x", "y"),)),)),))
        with pytest.raises(DuplicateControlId) as raised:
            resolve([source], profile)
        assert str(raised.value) == (
            "duplicate control id: 'c1' (supplied by both 'a.yaml' and 'a.yaml')"
        )
        assert resolver.validate_profile(profile, [source]) == [
            Finding(ERROR, "imports/0", "duplicate control id 'c1' in selection"),
        ]
        oracles.check_against_reference([source], profile)

    def test_an_id_repeated_inside_its_own_selected_subtree_is_reported(self):
        """``a -> b -> a``: the outer ``a`` is selected first, so the inner one is the repeat.

        The alteration removes a part only the outer ``a`` has, so it matches
        nothing if the inner ``a`` were the one selected.
        """
        source = Catalog(Metadata("A", "1"), (
            Control("a", parts=(Part("statement", "outer"), Part("note", "n")), children=(
                Control("b", children=(Control("a", parts=(Part("statement", "inner"),)),)),)),
        ), uri="a.yaml")
        profile = Profile(Metadata("P", "1"), imports=(ImportDirective("a.yaml", include=("a",)),),
                          alterations=(Alteration("a", removes=(RemoveDirective("note"),)),))
        assert resolver.validate_profile(profile, [source]) == [
            Finding(ERROR, "imports/0", "duplicate control id 'a' in selection"),
        ]
        with pytest.raises(DuplicateControlId) as raised:
            resolve([source], profile)
        assert str(raised.value) == (
            "duplicate control id: 'a' (supplied by both 'a.yaml' and 'a.yaml')"
        )
        oracles.check_against_reference([source], profile)

    def test_a_root_under_a_control_another_import_excludes_keeps_document_order(self):
        """``a-2-x`` sits under the excluded ``a-2``: a root between ``a`` and ``b``."""
        inner = Control("a-2-x", parts=(Part("statement", "x"),))
        top = Control("a", children=(Control("a-1"), Control("a-2", children=(inner,))))
        later = Control("b", parts=(Part("statement", "b"),))
        source = Catalog(Metadata("S", "1"), (top, later), uri="src.yaml")
        imports = (ImportDirective("src.yaml", include=("a", "b"), exclude=("a-2",)),
                   ImportDirective("src.yaml", include=("a-2-x",)))
        for order in (imports, imports[::-1]):
            profile = Profile(Metadata("P", "1"), imports=order)
            resolved = resolve([source], profile).catalog
            assert resolved.controls == (replace(top, children=top.children[:1]), inner, later)
            assert resolved.controls[1] is inner and resolved.controls[2] is later
            oracles.check_against_reference([source], profile)

    def test_a_selected_control_whose_children_all_stay_is_the_sources_object(self):
        kept = Control("y-2", children=(Control("y-2-a"),))
        dropped = Control("y-1", children=(Control("y-1-a"), Control("y-1-b")))
        whole = Control("x", children=(Control("x-1"),))
        source = Catalog(Metadata("S", "1"), (whole, Control("y", children=(dropped, kept))),
                         uri="src.yaml")
        profile = Profile(Metadata("P", "1"),
                          imports=(ImportDirective("src.yaml", include=("x", "y"),
                                                   exclude=("y-1-a",)),))
        x, y = resolve([source], profile).catalog.controls
        assert x is whole
        assert y is not source.controls[1] and y.children[1] is kept
        assert y.children[0] is not dropped and y.children[0].children == (Control("y-1-b"),)
        assert y.children[0].children[0] is dropped.children[1]
        oracles.check_against_reference([source], profile)

    def test_an_import_naming_no_source_pairs_with_the_unnamed_source(self):
        named = Catalog(Metadata("A", "1"), (Control("a1"),), uri="a.yaml")
        unnamed = Catalog(Metadata("B", "1"), (Control("b1"),))
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("b.yaml"), ImportDirective("a.yaml")),
        )
        resolved = resolve([named, unnamed], profile)
        assert [c.id for c in resolved.catalog.controls] == ["b1", "a1"]

    def test_unpaired_imports_fail_when_the_spare_sources_differ_in_number(self):
        sources = [Catalog(Metadata("A", "1"), (Control("a1"),), uri="a.yaml"),
                   Catalog(Metadata("B", "1"), (Control("b1"),)),
                   Catalog(Metadata("C", "1"), (Control("c1"),))]
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("b.yaml"), ImportDirective("a.yaml")),
        )
        with pytest.raises(ResolutionError, match="no source supplied for import 'b.yaml'"):
            resolve(sources, profile)

    def test_an_include_string_other_than_all_is_a_validation_error(self):
        catalog = Catalog(Metadata("A", "1"), (Control("c1"),), uri="b.yaml")
        profile = Profile(metadata=Metadata("P", "1"),
                          imports=(ImportDirective("b.yaml", include="zzz"),))
        with pytest.raises(ValidationError, match="include must be \"all\""):
            resolve([catalog], profile)

    def test_empty_alteration_is_a_validation_error(self):
        catalog = Catalog(Metadata("A", "1"), (Control("c1"),), uri="a.yaml")
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("a.yaml"),),
            alterations=(Alteration("c1"),),
        )
        with pytest.raises(ValidationError):
            resolve([catalog], profile)

    def test_category_level_alteration_is_permitted(self):
        catalog = replace(load_fixture("csf-id-am").body, uri="src.yaml")
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("src.yaml"),),
            alterations=(Alteration("id.am", adds=(AddDirective((Part("note", "category note"),)),)),),
        )
        resolved = resolve([catalog], profile)
        category = find_control(resolved.catalog, "id.am")
        assert category.part("note") is not None
        assert [c.id for c in category.children] == [f"id.am-{i}" for i in range(1, 7)]

    def test_metadata_comes_from_the_profile(self):
        catalog = replace(load_fixture("csf-id-am").body, uri="src.yaml")
        resolved = resolve([catalog], _identity_profile())
        assert resolved.catalog.metadata == Metadata("Identity", "1")

    @given(strategies.catalogs())
    @settings(max_examples=100, deadline=None)
    def test_identity_property(self, catalog):
        catalog = replace(catalog, uri="src.yaml")
        resolved = resolve([catalog], _identity_profile())
        assert resolved.catalog.controls == catalog.controls
        assert not has_errors(validate_catalog(resolved.catalog))


class TestProvenance:
    def test_fixture_chain_layers(self, fixture_store):
        store = SourceStore(fixture_store)
        resolved = resolve_chain(store, "am-profile.yaml")
        prov = resolved.provenance
        assert prov[("id.am-3", "statement")].origin_uri == "csf-id-am.yaml"
        assert prov[("id.am-3", "statement")].layer_depth == 0
        assert prov[("id.am-3", "guidance")].origin_uri == "ot-profile.yaml"
        assert prov[("id.am-3", "guidance")].layer_depth == 1
        assert prov[("id.am-3", "am-specific")].origin_uri == "am-profile.yaml"
        assert prov[("id.am-3", "am-specific")].layer_depth == 2
        assert resolved.lineage == ("csf-id-am.yaml", "ot-profile.yaml", "am-profile.yaml")
        assert resolved.depth == 2

    def test_provenance_is_total(self, fixture_store):
        store = SourceStore(fixture_store)
        resolved = resolve_chain(store, "am-profile.yaml")
        for control in iter_controls(resolved.catalog.controls):
            for part in control.parts:
                assert (control.id, part.name) in resolved.provenance

    def test_depth_zero_prose_appears_verbatim_in_source(self, fixture_store):
        store = SourceStore(fixture_store)
        resolved = resolve_chain(store, "am-profile.yaml")
        csf = store.load("csf-id-am.yaml").body
        source_prose = {
            part.prose for control in iter_controls(csf.controls) for part in control.parts
        }
        for control in iter_controls(resolved.catalog.controls):
            for part in control.parts:
                if resolved.provenance[(control.id, part.name)].layer_depth == 0:
                    assert part.prose in source_prose

    def test_part_object_shared_with_a_source_is_stamped_by_the_adding_layer(self):
        shared = Part("g", "guidance shared between layers")
        catalog = Catalog(metadata=Metadata("Cat", "1"), uri="cat.yaml", controls=(
            Control("a", parts=(Part("statement", "a"), shared)),
            Control("b", parts=(Part("statement", "b"),)),
        ))
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("cat.yaml"),),
            alterations=(Alteration("b", adds=(AddDirective(parts=(shared,)),)),),
            uri="p.yaml",
        )
        resolved = resolve([catalog], profile)
        assert resolved.provenance[("b", "g")] == resolver.ProvenanceEntry("p.yaml", 1)
        assert resolved.provenance[("a", "g")] == resolver.ProvenanceEntry("cat.yaml", 0)

    def test_a_uri_less_source_is_stamped_with_its_import_source(self):
        catalog = Catalog(Metadata("Base", "1"), (Control("c1", parts=(Part("statement", "s"),)),))
        profile = Profile(metadata=Metadata("P", "1"), imports=(ImportDirective("base.yaml"),),
                          uri="p.yaml")
        resolved = resolve([catalog], profile)
        assert resolved.provenance == {("c1", "statement"): resolver.ProvenanceEntry("base.yaml", 0)}


class TestResolveChain:
    def test_am_chain_replaces_ot_guidance(self, fixture_store):
        store = SourceStore(fixture_store)
        resolved = resolve_chain(store, "am-profile.yaml")
        control = find_control(resolved.catalog, "id.am-3")
        assert [p.name for p in control.parts] == ["statement", "guidance", "am-specific"]
        assert control.part("ot-specific") is None

    def test_single_level_chain_degenerates_to_resolve(self, fixture_store):
        store = SourceStore(fixture_store)
        chained = resolve_chain(store, "ot-profile.yaml")
        direct = resolve([store.load("csf-id-am.yaml").body], load_fixture("ot-profile").body)
        assert chained.catalog == direct.catalog

    def test_staged_equals_chained_on_fixtures(self, fixture_store):
        store = SourceStore(fixture_store)
        chained = resolve_chain(store, "am-profile.yaml")
        intermediate = resolve_chain(store, "ot-profile.yaml")
        blob = serialize_document(DocumentEnvelope("catalog", intermediate.catalog), "yaml")
        reparsed = parse_document(blob).body
        staged = resolve([reparsed], load_fixture("am-profile").body)
        assert staged.catalog == chained.catalog

    def test_resolving_a_catalog_uri_is_an_error(self, fixture_store):
        store = SourceStore(fixture_store)
        with pytest.raises(ResolutionError, match="not a profile"):
            resolve_chain(store, "csf-id-am.yaml")

    def test_determinism_across_fresh_stores(self, fixture_store):
        first = resolve_chain(SourceStore(fixture_store), "am-profile.yaml")
        second = resolve_chain(SourceStore(fixture_store), "am-profile.yaml")
        one = serialize_document(DocumentEnvelope("catalog", first.catalog), "yaml")
        two = serialize_document(DocumentEnvelope("catalog", second.catalog), "yaml")
        assert one == two

    def test_shared_memo_resolves_each_layer_once(self, fixture_store, monkeypatch):
        expected = resolve_chain(SourceStore(fixture_store), "am-profile.yaml")
        resolved_uris = []

        def counting_resolve(sources, profile, **kwargs):
            resolved_uris.append(profile.uri)
            return resolve(sources, profile, **kwargs)

        monkeypatch.setattr(resolver, "resolve", counting_resolve)
        store = SourceStore(fixture_store)
        memo = {}
        intermediate = resolve_in_store(store, "ot-profile.yaml", memo=memo)
        chained = resolve_in_store(store, "am-profile.yaml", memo=memo)
        assert resolved_uris == ["ot-profile.yaml", "am-profile.yaml"]
        assert memo["ot-profile.yaml"] is intermediate
        assert chained == expected

    def test_each_walked_document_is_loaded_once(self, fixture_store, monkeypatch):
        """The resolution takes the documents the cycle walk loaded; it loads none again."""
        loaded = []
        original = SourceStore.load

        def counting_load(store, uri):
            loaded.append(uri)
            return original(store, uri)

        monkeypatch.setattr(SourceStore, "load", counting_load)
        resolve_chain(SourceStore(fixture_store), "am-profile.yaml")
        assert sorted(loaded) == ["am-profile.yaml", "csf-id-am.yaml", "ot-profile.yaml"]

    def test_failures_are_not_memoised(self, fixture_store):
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"control-id: id.am-3", b"control-id: id.zz-9"))
        store = SourceStore(fixture_store)
        memo = {}
        for _ in range(2):
            with pytest.raises(UnknownControlId, match="id.zz-9"):
                resolve_in_store(store, "am-profile.yaml", memo=memo)
            assert "ot-profile.yaml" not in memo and "am-profile.yaml" not in memo

    @given(strategies.layered_chains())
    @settings(max_examples=30, deadline=None)
    def test_chain_matches_symbolic_expectation(self, chain):
        base, p1, p2, expected_names = chain
        with tempfile.TemporaryDirectory() as root:
            store_dir = Path(root)
            (store_dir / "base.yaml").write_bytes(
                serialize_document(DocumentEnvelope("catalog", base), "yaml")
            )
            (store_dir / "p1.yaml").write_bytes(
                serialize_document(DocumentEnvelope("profile", p1), "yaml")
            )
            (store_dir / "p2.yaml").write_bytes(
                serialize_document(DocumentEnvelope("profile", p2), "yaml")
            )
            store = SourceStore(store_dir)
            resolved = resolve_chain(store, "p2.yaml")
            for control in iter_controls(resolved.catalog.controls):
                assert [p.name for p in control.parts] == expected_names[control.id]
            assert not has_errors(validate_catalog(resolved.catalog))


class TestDetectCycles:
    def test_fixture_chain_topological_order(self, fixture_store):
        store = SourceStore(fixture_store)
        assert detect_cycles(store, "am-profile.yaml") == [
            "csf-id-am.yaml", "ot-profile.yaml", "am-profile.yaml",
        ]

    def test_single_catalog(self, fixture_store):
        store = SourceStore(fixture_store)
        assert detect_cycles(store, "csf-id-am.yaml") == ["csf-id-am.yaml"]

    def test_two_profile_cycle(self, tmp_path):
        a = (b"profile:\n  metadata:\n    title: A\n    version: \"1\"\n"
             b"  imports:\n    - source: b.yaml\n")
        b = (b"profile:\n  metadata:\n    title: B\n    version: \"1\"\n"
             b"  imports:\n    - source: a.yaml\n")
        (tmp_path / "a.yaml").write_bytes(a)
        (tmp_path / "b.yaml").write_bytes(b)
        store = SourceStore(tmp_path)
        with pytest.raises(CycleDetected) as excinfo:
            detect_cycles(store, "a.yaml")
        assert list(excinfo.value.path) == ["a.yaml", "b.yaml", "a.yaml"]

    def test_missing_uri(self, fixture_store):
        store = SourceStore(fixture_store)
        with pytest.raises(NotFound):
            detect_cycles(store, "ghost.yaml")


class TestSourceStore:
    def test_path_escape_rejected(self, fixture_store):
        store = SourceStore(fixture_store)
        with pytest.raises(InvalidUri):
            store.load("../outside.yaml")
        with pytest.raises(InvalidUri):
            store.load("/etc/passwd")

    def test_missing_document(self, fixture_store):
        store = SourceStore(fixture_store)
        with pytest.raises(NotFound):
            store.load("ghost.yaml")

    def test_uri_is_attached_to_documents(self, fixture_store):
        store = SourceStore(fixture_store)
        assert store.load("csf-id-am.yaml").body.uri == "csf-id-am.yaml"

    def test_concurrent_loads_parse_once(self, fixture_store):
        store = SourceStore(fixture_store)
        results = []

        def load():
            results.append(store.load("csf-id-am.yaml"))

        threads = [threading.Thread(target=load) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.load_count == 1
        assert all(envelope is results[0] for envelope in results)

    def test_every_spelling_loads_one_document(self, fixture_store):
        store = SourceStore(fixture_store)
        envelopes = [store.load(uri) for uri in
                     ("csf-id-am.yaml", "./csf-id-am.yaml", "sub/../csf-id-am.yaml")]
        assert all(envelope is envelopes[0] for envelope in envelopes)
        assert envelopes[0].body.uri == "csf-id-am.yaml"
        assert store.load_count == 1

    def test_an_edited_document_is_parsed_again(self, fixture_store):
        store = SourceStore(fixture_store)
        store.load("csf-id-am.yaml")
        path = fixture_store / "csf-id-am.yaml"
        path.write_bytes(path.read_bytes().replace(b'version: "1.1"', b'version: "1.10"'))
        assert store.load("csf-id-am.yaml").body.metadata.version == "1.10"
        assert store.load_count == 2

    def test_a_same_size_rewrite_with_its_mtime_put_back_is_parsed_again(self, fixture_store):
        """As ``cp -p`` or ``rsync -t`` leave a file: only its change time moves on."""
        store = SourceStore(fixture_store)
        assert store.load("csf-id-am.yaml").body.metadata.version == "1.1"
        path = fixture_store / "csf-id-am.yaml"
        before = os.stat(path)
        edited = path.read_bytes().replace(b'version: "1.1"', b'version: "1.2"')
        deadline = time.monotonic() + 10
        while True:  # until the change time has moved on, whatever the clock's granularity
            path.write_bytes(edited)
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            after = os.stat(path)
            if after.st_ctime_ns != before.st_ctime_ns or time.monotonic() > deadline:
                break
            time.sleep(0.005)
        assert after.st_ctime_ns != before.st_ctime_ns
        assert (after.st_mtime_ns, after.st_size, after.st_ino) == (
            before.st_mtime_ns, before.st_size, before.st_ino)
        assert store.load("csf-id-am.yaml").body.metadata.version == "1.2"
        assert store.load_count == 2

    def test_a_failed_parse_is_raised_again_until_the_file_changes(self, fixture_store,
                                                                   monkeypatch):
        path = fixture_store / "dup.yaml"
        path.write_bytes(b"catalog:\n  metadata:\n    title: a\n    title: b\n")
        parsed = []
        original = resolver.parse_document
        monkeypatch.setattr(resolver, "parse_document",
                            lambda data, *args: parsed.append(data) or original(data, *args))
        store = SourceStore(fixture_store)
        spellings = ("dup.yaml", "./dup.yaml", "dup.yaml", "dup.yaml")
        raised, depths = [], []
        for uri in spellings:
            with pytest.raises(SchemaError) as caught:
                store.load(uri)
            raised.append((caught.value.source, str(caught.value)))
            depth, entry = 0, caught.value.__traceback__
            while entry is not None:
                depth, entry = depth + 1, entry.tb_next
            depths.append(depth)
        assert raised == [(uri, "duplicate key 'title' (line 4, column 5)") for uri in spellings]
        assert len(parsed) == 1
        assert depths[1] == depths[2] == depths[3]  # no traceback grows from load to load
        path.write_bytes(b"catalog:\n  metadata:\n    title: a\n    version: b\n")
        assert store.load("dup.yaml").body.metadata.title == "a"
        assert len(parsed) == 2 and store.load_count == 1

    def test_a_hit_resolves_no_path(self, fixture_store, monkeypatch):
        store = SourceStore(fixture_store)
        store.load("csf-id-am.yaml")
        resolved = []
        original = Path.resolve
        monkeypatch.setattr(Path, "resolve", lambda self, *a, **k: resolved.append(self)
                            or original(self, *a, **k))
        store.load("csf-id-am.yaml")
        assert resolved == []
        assert store.load_count == 1

    def test_a_deleted_document_is_not_found(self, fixture_store):
        store = SourceStore(fixture_store)
        store.load("csf-id-am.yaml")
        (fixture_store / "csf-id-am.yaml").unlink()
        with pytest.raises(NotFound):
            store.load("csf-id-am.yaml")

    def test_lists_documents_excluding_resolved_outputs(self, fixture_store):
        (fixture_store / "resolved").mkdir()
        (fixture_store / "resolved" / "x.yaml").write_bytes(b"ignored: true\n")
        store = SourceStore(fixture_store)
        assert store.list_documents() == [
            "am-profile.yaml", "csf-id-am.yaml", "ot-profile.yaml",
        ]

    def test_a_directory_that_cannot_be_scanned_is_skipped(self, fixture_store, monkeypatch):
        for name in ("sub", "shut"):
            (fixture_store / name).mkdir()
            (fixture_store / name / "x.yaml").write_bytes(b"")
        scandir = os.scandir

        def refusing(path):  # a mode alone does not stop the superuser from reading it
            if os.path.basename(path) == "shut":
                raise PermissionError(13, "Permission denied", path)
            return scandir(path)

        monkeypatch.setattr(os, "scandir", refusing)
        assert SourceStore(fixture_store).list_documents() == [
            "am-profile.yaml", "csf-id-am.yaml", "ot-profile.yaml", "sub/x.yaml",
        ]

    def test_a_store_without_links_resolves_no_path(self, fixture_store, monkeypatch):
        (fixture_store / "sub").mkdir()
        (fixture_store / "sub" / "x.yml").write_bytes(
            (fixture_store / "csf-id-am.yaml").read_bytes())
        store = SourceStore(fixture_store)
        resolved = []
        resolve, realpath = Path.resolve, os.path.realpath
        monkeypatch.setattr(Path, "resolve", lambda self, *a, **k: resolved.append(self)
                            or resolve(self, *a, **k))
        monkeypatch.setattr(os.path, "realpath", lambda path, *a, **k: resolved.append(path)
                            or realpath(path, *a, **k))
        assert store.list_documents() == [
            "am-profile.yaml", "csf-id-am.yaml", "ot-profile.yaml", "sub/x.yml",
        ]
        assert store.load("./sub/x.yml").body.uri == "sub/x.yml"
        with pytest.raises(NotFound):
            store.load("ghost.yaml")
        assert resolved == []

    @pytest.fixture
    def tangled_store(self, tmp_path):
        """A store with nested, hidden and output directories, odd names and links in and out."""
        catalog = (FIXTURES_DIR / "csf-id-am.yaml").read_bytes()
        as_json = serialize_document(parse_document(catalog), "json")
        root, outside = tmp_path / "store", tmp_path / "outside"
        for directory in ("sub/deep", ".hidden", "d.yaml", "resolved", "sub/resolved"):
            (root / directory).mkdir(parents=True)
        outside.mkdir()
        (outside / "x.yaml").write_bytes(catalog)
        for name in ("x.yaml", "x.yml", "x.YAML", "..yaml", ".yaml", "x.yaml.", "a.", "a.b.yaml",
                     "sub/x.yml", "sub/deep/x.yaml", ".hidden/x.yaml", "d.yaml/x.yaml",
                     "resolved/x.yaml", "sub/resolved/x.yaml"):
            (root / name).write_bytes(catalog)
        (root / "x.json").write_bytes(as_json)
        links = {"inlink.yaml": "x.yaml", "j.yaml": "x.json", "sub/up.yaml": "../x.yaml",
                 "out.yaml": "../outside/x.yaml", "broken.yaml": "missing.yaml",
                 "alias": "sub", "l.yaml": "sub", "outdir": "../outside"}
        for name, target in links.items():
            (root / name).symlink_to(target)
        return root, list(links)

    def test_listing_and_lookups_match_the_resolving_oracle(self, tangled_store):
        root, links = tangled_store
        store = SourceStore(root)
        listed = store.list_documents()
        assert listed == oracles.store_documents(root) == [
            "..yaml", ".hidden/x.yaml", "a.b.yaml", "d.yaml/x.yaml", "inlink.yaml", "j.yaml",
            "sub/deep/x.yaml", "sub/resolved/x.yaml", "sub/up.yaml", "sub/x.yml", "x.json",
            "x.yaml", "x.yml",
        ]

        def outcome(load, uri):
            try:
                return load(uri)
            except GuidanceError as error:
                return type(error), str(error)

        for uri in [*listed, *links, "alias/x.yml", "sub/../x.yaml", "outdir/x.yaml", "d.yaml",
                    "x.yaml/x", "ghost.yaml", "../x.yaml", "/etc/passwd"]:
            assert store.exists(uri) == oracles.store_exists(root, uri), uri
            assert outcome(store.load, uri) == outcome(lambda u: oracles.store_load(root, u), uri)

    @given(st.lists(st.text(st.sampled_from("./aybmlYAMLjson"), max_size=6), max_size=3),
           st.text(st.sampled_from(".aybmlYAMLjson"), max_size=8),
           st.sampled_from(["", ".yaml", ".yml", ".json", ".JSON", ".YAML", ".", ".."]))
    @example([], "", "")
    @example([], ".", "")
    @example(["x.json"], "", "")
    @example(["x.json"], ".", "")
    @example([], ".yaml", "")
    @example([], "..yaml", "")
    @example([], "a.", "")
    @example([], "a.b", ".yaml")
    @example([], "x.", "YAML")
    @example(["d.json", ".", ""], "x", ".yml")
    @example(["a", ".."], "..", "")
    def test_a_document_name_is_one_whose_path_suffix_is_a_document_suffix(
            self, directories, name, suffix):
        """One string rule gives the listing's test, the format and the output stem."""
        name += suffix
        path = "/".join([*directories, name])
        assert resolver._is_document_name(name) == (
            PurePath(name).suffix in (".yaml", ".yml", ".json"))
        assert format_of(path) == ("json" if PurePath(path).suffix == ".json" else "yaml")
        assert resolution_output_uri(path) == f"resolved/{PurePosixPath(path).stem}.yaml"

    def test_a_relative_root_names_the_same_files_after_a_change_of_directory(
            self, fixture_store, tmp_path, monkeypatch):
        monkeypatch.chdir(fixture_store.parent)
        store = SourceStore(fixture_store.name)
        elsewhere = tmp_path / "elsewhere" / fixture_store.name
        elsewhere.mkdir(parents=True)
        (elsewhere / "other.yaml").write_bytes((fixture_store / "csf-id-am.yaml").read_bytes())
        monkeypatch.chdir(elsewhere.parent)
        assert store.root == fixture_store
        assert store.list_documents() == ["am-profile.yaml", "csf-id-am.yaml", "ot-profile.yaml"]
        assert store.exists("csf-id-am.yaml") and not store.exists("other.yaml")
        assert store.load("csf-id-am.yaml").body.uri == "csf-id-am.yaml"
        with pytest.raises(NotFound):
            store.load("other.yaml")

    def test_a_root_with_dot_dot_after_a_link_names_the_directory_beside_its_target(
            self, fixture_store, tmp_path, monkeypatch):
        """``..`` after a link leaves the link's target, as ``ls link/../store`` does."""
        target = tmp_path / "far" / "target"
        target.mkdir(parents=True)
        (tmp_path / "far" / "store").symlink_to(fixture_store)
        (tmp_path / "near").mkdir()
        (tmp_path / "near" / "store").mkdir()
        (tmp_path / "near" / "link").symlink_to(target)
        monkeypatch.chdir(tmp_path / "near")
        store = SourceStore("link/../store")
        assert store.root == fixture_store
        assert store.list_documents() == ["am-profile.yaml", "csf-id-am.yaml", "ot-profile.yaml"]
        assert store.load("csf-id-am.yaml").body.uri == "csf-id-am.yaml"

    def test_a_root_reached_through_a_link_still_refuses_a_link_out(self, fixture_store,
                                                                     tmp_path):
        outside = tmp_path / "outside.yaml"
        outside.write_bytes((fixture_store / "csf-id-am.yaml").read_bytes())
        (fixture_store / "out.yaml").symlink_to("../outside.yaml")
        (fixture_store / "in.yaml").symlink_to("csf-id-am.yaml")
        (tmp_path / "link").symlink_to(fixture_store.name)
        store = SourceStore(tmp_path / "link")
        with pytest.raises(InvalidUri, match="escapes the store root"):
            store.load("out.yaml")
        assert not store.exists("out.yaml")
        assert store.load("in.yaml").body.uri == "in.yaml"
        assert store.list_documents() == [
            "am-profile.yaml", "csf-id-am.yaml", "in.yaml", "ot-profile.yaml"]
        # The root is not resolved: retargeting its link moves the store.
        other = tmp_path / "other"
        other.mkdir()
        (other / "csf-id-am.yaml").write_bytes(
            (fixture_store / "csf-id-am.yaml").read_bytes().replace(b'"1.1"', b'"9.9"'))
        assert store.load("csf-id-am.yaml").body.metadata.version == "1.1"
        (tmp_path / "link").unlink()
        (tmp_path / "link").symlink_to("other")
        assert store.load("csf-id-am.yaml").body.metadata.version == "9.9"
        assert store.list_documents() == ["csf-id-am.yaml"]


class _Refusing(io.FileIO):
    """A file opened as ``open`` opens it, whose every read and write is refused."""

    def readall(self):
        raise PermissionError(13, "Permission denied")

    def write(self, data):
        raise PermissionError(13, "Permission denied")


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd") or not hasattr(os, "mkfifo"),
                    reason="needs /proc/self/fd and named pipes")
class TestDescriptors:
    """Each file access closes its descriptor on every path, whatever the file is."""

    DATA = (FIXTURES_DIR / "csf-id-am.yaml").read_bytes()

    def _load(self, path: Path):
        return SourceStore(path.parent).load(path.name).body.uri

    def _read_previous(self, path: Path):
        read = changes.read_regular(os.path.join(path.parent, path.name))
        return read if read is None else read[0]

    def _cli_read(self, path: Path):
        return cli._parse_file(str(path)).kind

    def _cli_write(self, path: Path):
        return cli._write_output(self.DATA, str(path))

    @pytest.mark.parametrize("operation, outcomes", [
        ("_load", {"regular": "doc.yaml", "directory": NotFound, "fifo": NotFound,
                   "unreadable": PermissionError, "removed": "doc.yaml"}),
        ("_read_previous", {"regular": DATA, "directory": None, "fifo": None,
                            "unreadable": PermissionError, "removed": DATA}),
        ("_cli_read", {"regular": "catalog", "directory": IsADirectoryError,
                       "fifo": "catalog", "unreadable": PermissionError, "removed": "catalog"}),
        ("_cli_write", {"regular": None, "directory": IsADirectoryError, "fifo": None,
                        "unreadable": PermissionError, "removed": None}),
    ])
    @pytest.mark.parametrize("kind", ["regular", "directory", "fifo", "unreadable", "removed"])
    def test_the_descriptor_is_closed(self, tmp_path, monkeypatch, operation, outcomes, kind):
        path = tmp_path / "doc.yaml"
        writing = operation == "_cli_write"
        helpers: list = []  # the other end of a pipe
        if kind == "directory":
            path.mkdir()
        elif kind == "fifo":
            os.mkfifo(path)
            if writing:
                helpers.append(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            elif operation == "_cli_read":
                helpers.append(threading.Thread(target=path.write_bytes, args=(self.DATA,)))
                helpers[0].start()
        else:
            path.write_bytes(self.DATA if not writing else b"previous\n")
        if kind == "unreadable":  # a mode alone does not stop the superuser
            path.chmod(0)

            def refuse(*args):
                raise PermissionError(13, "Permission denied")

            monkeypatch.setattr(os, "read", refuse)
            monkeypatch.setattr(os, "write", refuse)
            monkeypatch.setattr(cli, "open", lambda name, mode, buffering=-1: _Refusing(name, mode),
                                raising=False)
        elif kind == "removed":  # between the check that it exists and the read
            real_open = os.open

            def open_then_remove(name, *args, **kwargs):
                fd = real_open(name, *args, **kwargs)
                if os.fspath(name) == str(path):
                    os.unlink(path)
                return fd

            monkeypatch.setattr(os, "open", open_then_remove)
            monkeypatch.setattr(cli, "open", partial(open, opener=lambda name, flags: os.open(
                name, flags, 0o666)), raising=False)
        before = _open_descriptors()
        try:
            outcome = getattr(self, operation)(path)
        except (GuidanceError, OSError) as error:
            outcome = type(error)
        after = _open_descriptors()
        monkeypatch.undo()
        for helper in helpers:
            if isinstance(helper, int):
                assert os.read(helper, len(self.DATA) + 1) == self.DATA
                os.close(helper)
            else:
                helper.join(10)
                assert not helper.is_alive()
        assert (outcome, after) == (outcomes[kind], before)
        assert path.exists() == (kind != "removed")
        if writing and kind == "regular":
            assert path.read_bytes() == self.DATA


# Resolving the second layer against a serialized-then-reparsed first
# resolution must equal the one-shot chained resolution.
@given(strategies.layered_chains())
@settings(max_examples=30, deadline=None)
def test_staged_equals_chained_on_random_chains(chain):
    base, p1, p2, _ = chain
    with tempfile.TemporaryDirectory() as root:
        store_dir = Path(root)
        (store_dir / "base.yaml").write_bytes(
            serialize_document(DocumentEnvelope("catalog", base), "yaml")
        )
        (store_dir / "p1.yaml").write_bytes(
            serialize_document(DocumentEnvelope("profile", p1), "yaml")
        )
        (store_dir / "p2.yaml").write_bytes(
            serialize_document(DocumentEnvelope("profile", p2), "yaml")
        )
        store = SourceStore(store_dir)
        chained = resolve_chain(store, "p2.yaml")
        intermediate = resolve_chain(store, "p1.yaml")
        blob = serialize_document(DocumentEnvelope("catalog", intermediate.catalog), "yaml")
        staged = resolve([parse_document(blob).body], store.load("p2.yaml").body)
        assert staged.catalog == chained.catalog


def _control_tree(cid: str, *children: Control) -> Control:
    return Control(cid, parts=(Part("statement", f"{cid} statement"),), children=children)


class TestReferenceResolver:
    """The resolver agrees with ``oracles.reference_resolve``, which selects every import."""

    @given(strategies.layered_chains())
    @settings(max_examples=100, deadline=None)
    def test_layered_chains(self, chain):
        """As drawn, and with each top-level control nested as the last child of the one before."""
        base, p1, p2, _ = chain
        p1, p2 = replace(p1, uri="p1.yaml"), replace(p2, uri="p2.yaml")
        nested = base.controls[-1]
        for top in base.controls[-2::-1]:
            nested = replace(top, children=(*top.children, nested))
        for controls in (base.controls, (nested,)):
            source = replace(base, controls=controls, uri="base.yaml")
            oracles.check_against_reference([source], p1)
            oracles.check_against_reference([resolve([source], p1)], p2)

    def test_an_altered_control_rebuilds_its_ancestors_and_nothing_else(self):
        leaf, sibling = _control_tree("c-1-1-1"), _control_tree("c-1-1-2")
        middle, uncle = _control_tree("c-1-1", leaf, sibling), _control_tree("c-1-2")
        top, other = _control_tree("c-1", middle, uncle), _control_tree("c-2")
        source = Catalog(Metadata("S", "1"), (top, other), uri="s.yaml")
        profile = Profile(Metadata("P", "1"), imports=(ImportDirective("s.yaml"),), alterations=(
            Alteration("c-1-1-1", adds=(AddDirective((Part("note", "n"),)),)),))
        oracles.check_against_reference([source], profile)
        [new_top, new_other] = resolve([source], profile).catalog.controls
        [new_middle, new_uncle] = new_top.children
        [new_leaf, new_sibling] = new_middle.children
        assert [p.name for p in new_leaf.parts] == ["statement", "note"]
        assert (new_other, new_uncle, new_sibling) == (other, uncle, sibling)
        assert new_other is other and new_uncle is uncle and new_sibling is sibling

    @given(strategies.edited_stores())
    @settings(max_examples=40, deadline=None)
    def test_edited_stores(self, case):
        """Each profile of the store, before and after its edit, against its resolved sources."""
        target, _, edited = case["edit"]
        for files in (case["files"], {**case["files"], target: edited}):
            with tempfile.TemporaryDirectory() as tmp:
                root = Path(tmp)
                for uri, data in files.items():
                    (root / uri).parent.mkdir(exist_ok=True)
                    (root / uri).write_bytes(data)
                store, memo = SourceStore(root), {}
                for uri in case["imports"]:
                    try:
                        profile = store.load(uri).body
                        sources = [resolve_in_store(store, source, memo=memo)
                                   for source in import_sources(store.load(uri))]
                    except GuidanceError:  # an edit that breaks a document
                        continue
                    oracles.check_against_reference(sources, profile)

    @given(strategies.edited_stores(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_shared_memo_agrees_with_the_unmemoised_route(self, case, data):
        """Every document, in a drawn order with one memo, as the reference resolves it alone.

        Before and after the edit. Beside the drawn store sit two profiles
        that fail to resolve, an importer of one, an importer of both, an
        importer of one and of a missing document, and an importer of one
        and of a two-profile cycle.
        """
        target, _, edited = case["edit"]
        sources = st.sampled_from(sorted(case["files"]))
        extra = {"fail.yaml": strategies.profile_text("fail", data.draw(sources), "zz-9"),
                 "fail-2.yaml": strategies.profile_text("fail-2", data.draw(sources), "zz-8"),
                 "over-fail.yaml": profile_importing("fail.yaml"),
                 "two-fail.yaml": profile_importing("fail-2.yaml", "fail.yaml"),
                 "fail-then-missing.yaml": profile_importing("fail.yaml", "missing.yaml"),
                 "fail-then-cycle.yaml": profile_importing("fail.yaml", "cyc-a.yaml"),
                 "cyc-a.yaml": profile_importing("cyc-b.yaml"),
                 "cyc-b.yaml": profile_importing("cyc-a.yaml")}
        lenient = data.draw(st.booleans())
        for files in (case["files"], {**case["files"], target: edited}):
            files = {**files, **extra}
            order = data.draw(st.permutations(sorted(files) + ["missing.yaml"]))
            with tempfile.TemporaryDirectory() as tmp:
                root = Path(tmp)
                for uri, text in files.items():
                    (root / uri).parent.mkdir(exist_ok=True)
                    (root / uri).write_bytes(text)
                store, reference_store, memo = SourceStore(root), SourceStore(root), {}
                for uri in order:
                    assert oracles.resolution_record(
                        lambda: resolve_in_store(store, uri, lenient=lenient, memo=memo)) \
                        == oracles.resolution_record(lambda: oracles.reference_resolve_in_store(
                            reference_store, uri, lenient=lenient)), uri

    @given(strategies.edited_stores(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_lineage_warnings_agree_with_the_chain_formula(self, case, data):
        """Every profile's lenient warnings, the whole lineage's, as ``chain_warnings`` gave them.

        Before and after the edit, beside a ``lenient_diamond`` over a drawn
        document of the store.
        """
        target, _, edited = case["edit"]
        source = data.draw(st.sampled_from(sorted(case["files"])))
        diamond = strategies.lenient_diamond(source, case["files"][source], data.draw(st.booleans()))
        for files in (case["files"], {**case["files"], target: edited}):
            with tempfile.TemporaryDirectory() as tmp:
                root = Path(tmp)
                for uri, text in {**files, **diamond}.items():
                    (root / uri).parent.mkdir(exist_ok=True)
                    (root / uri).write_bytes(text)
                store = SourceStore(root)
                for uri in [*case["imports"], *diamond]:
                    try:
                        warnings = resolve_chain(store, uri, lenient=True).warnings
                    except GuidanceError:  # an edit that breaks a document
                        continue
                    assert list(warnings) == oracles.reference_chain_warnings(
                        SourceStore(root), uri), uri
                    if uri == "d-top.yaml" and files is case["files"]:
                        assert len(warnings) == 5

    def test_fixture_chain(self, fixture_store):
        store, memo = SourceStore(fixture_store), {}
        for uri in ("ot-profile.yaml", "am-profile.yaml"):
            envelope = store.load(uri)
            sources = [resolve_in_store(store, source, memo=memo)
                       for source in import_sources(envelope)]
            oracles.check_against_reference(sources, envelope.body)

from __future__ import annotations

import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

import strategies
from layered_guidance import resolver
from layered_guidance.errors import (
    CycleDetected,
    DuplicateControlId,
    DuplicatePartName,
    InvalidUri,
    NotFound,
    RemovalMatchedNothing,
    ResolutionError,
    StatementNotFirst,
    UnknownControlId,
    ValidationError,
)
from layered_guidance.fixtures import load_fixture
from layered_guidance.model import (
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
    find_control,
    has_errors,
    iter_controls,
    validate_catalog,
)
from layered_guidance.resolver import (
    SourceStore,
    apply_alteration,
    detect_cycles,
    resolve,
    resolve_chain,
)
from layered_guidance.serialize import parse_document, serialize_document


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
        intermediate = resolve_chain(store, "ot-profile.yaml", memo=memo)
        chained = resolve_chain(store, "am-profile.yaml", memo=memo)
        assert resolved_uris == ["ot-profile.yaml", "am-profile.yaml"]
        assert memo["ot-profile.yaml"] is intermediate
        assert chained == expected

    def test_failures_are_not_memoised(self, fixture_store):
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"control-id: id.am-3", b"control-id: id.zz-9"))
        store = SourceStore(fixture_store)
        memo = {}
        for _ in range(2):
            with pytest.raises(UnknownControlId, match="id.zz-9"):
                resolve_chain(store, "am-profile.yaml", memo=memo)
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

from __future__ import annotations

import copy
import importlib
import inspect
import pickle
import pkgutil
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from layered_guidance.changes import ChangeEntry, ChangeSet, DependencyGraph, PropagationResult
from layered_guidance.cli import main
from layered_guidance import errors as errors_module
from layered_guidance.errors import (
    CycleDetected,
    DocumentSyntaxError,
    DuplicateControlId,
    DuplicatePartName,
    GuidanceError,
    InvalidUri,
    NotFound,
    RemovalMatchedNothing,
    ResolutionError,
    SchemaError,
    StatementNotFirst,
    StoreError,
    UnknownControlId,
    UnknownFixture,
    ValidationError,
)
from layered_guidance.fixtures import load_fixture
from layered_guidance.model import (
    ERROR,
    WARNING,
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
    _Record,
    find_control,
    has_errors,
    iter_controls,
    profile_structure_findings,
    validate_catalog,
)
from layered_guidance.render import RenderOptions
from layered_guidance.resolver import (
    ProvenanceEntry,
    ResolvedCatalog,
    SourceStore,
    resolve,
    resolve_chain,
    validate_profile,
)
from oracles import check_against_reference, selection_outline, simulate_profile_findings


def _catalog(*controls: Control) -> Catalog:
    return Catalog(metadata=Metadata("Test", "1.0"), controls=controls)


def _control(cid: str, *part_names: str) -> Control:
    return Control(cid, parts=tuple(Part(name, f"{name} prose") for name in part_names))


class TestValidateCatalog:
    def test_fixture_catalog_is_clean(self):
        catalog = load_fixture("csf-id-am").body
        assert validate_catalog(catalog) == []

    def test_duplicate_control_id(self):
        catalog = _catalog(_control("id.am-3", "statement"), _control("id.am-3"))
        findings = validate_catalog(catalog)
        assert len(findings) == 1
        assert "duplicate control id" in findings[0].message

    def test_duplicate_id_across_levels(self):
        catalog = _catalog(Control("id.am", children=(_control("id.am"),)))
        assert any("duplicate control id" in f.message for f in validate_catalog(catalog))

    def test_statement_must_be_first(self):
        catalog = _catalog(_control("c1", "guidance", "statement"))
        findings = validate_catalog(catalog)
        assert [f.message for f in findings] == ["statement must be first"]
        assert findings[0].path == "controls/c1/parts/1"

    def test_duplicate_part_name(self):
        control = Control("c1", parts=(Part("a", "x"), Part("a", "y")))
        findings = validate_catalog(_catalog(control))
        assert any("duplicate part name" in f.message for f in findings)

    def test_bad_identifiers(self):
        catalog = _catalog(Control("3id", parts=(Part("ok name", "prose"),)))
        messages = [f.message for f in validate_catalog(catalog)]
        assert any("'3id' is not a valid identifier" in m for m in messages)
        assert any("'ok name' is not a valid identifier" in m for m in messages)

    def test_uppercase_ids_are_normalized_not_flagged(self):
        catalog = _catalog(Control("ID.AM-3", parts=(Part("STATEMENT", "prose"),)))
        assert validate_catalog(catalog) == []
        assert catalog.controls[0].id == "id.am-3"
        assert catalog.controls[0].parts[0].name == "statement"

    def test_empty_prose(self):
        catalog = _catalog(Control("c1", parts=(Part("a", "   "),)))
        assert any("prose is empty" in f.message for f in validate_catalog(catalog))

    def test_nested_path_addressing(self):
        bad = Control("id.am", children=(Control("id.am-3", parts=(Part("g", " "),)),))
        findings = validate_catalog(_catalog(bad))
        assert findings[0].path == "controls/id.am/children/id.am-3/parts/0"


class TestFindControl:
    def test_finds_nested_subcategory(self):
        catalog = load_fixture("csf-id-am").body
        control = find_control(catalog, "id.am-3")
        assert control is not None
        assert control.part("statement").prose == (
            "Organizational communication and data flows are mapped"
        )

    def test_absent_id(self):
        catalog = load_fixture("csf-id-am").body
        assert find_control(catalog, "id.am-99") is None

    def test_empty_catalog(self):
        assert find_control(_catalog(), "id.am") is None

    def test_lookup_is_case_insensitive(self):
        catalog = load_fixture("csf-id-am").body
        assert find_control(catalog, "ID.AM-3") is not None

    @given(strategies.catalogs())
    @settings(max_examples=50, deadline=None)
    def test_every_id_resolves_uniquely_in_valid_catalogs(self, catalog):
        assert not has_errors(validate_catalog(catalog))
        for control in iter_controls(catalog.controls):
            found = find_control(catalog, control.id)
            assert found is control


class TestValidateProfile:
    def test_am_profile_against_resolved_ot_is_clean(self, fixture_store):
        store = SourceStore(fixture_store)
        resolved_ot = resolve_chain(store, "ot-profile.yaml").catalog
        am = load_fixture("am-profile").body
        assert validate_profile(am, [resolved_ot]) == []

    def test_unknown_alteration_target(self):
        catalog = replace(_catalog(_control("c1", "statement")), uri="src.yaml")
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("src.yaml"),),
            alterations=(Alteration("id.am-99", adds=(AddDirective((Part("g", "x"),)),)),),
        )
        findings = validate_profile(profile, [catalog])
        assert any("unknown control id" in f.message for f in findings)

    def test_removal_matching_nothing(self):
        catalog = replace(_catalog(_control("c1", "statement")), uri="src.yaml")
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("src.yaml"),),
            alterations=(Alteration("c1", removes=(RemoveDirective(by_name="ot-specific"),)),),
        )
        findings = validate_profile(profile, [catalog])
        assert any("removal matched nothing" in f.message for f in findings)

    def test_empty_alteration_rejected(self):
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("src.yaml"),),
            alterations=(Alteration("c1"),),
        )
        catalog = replace(_catalog(_control("c1")), uri="src.yaml")
        findings = validate_profile(profile, [catalog])
        assert any("no removes and no adds" in f.message for f in findings)

    def test_duplicate_alterations_rejected(self):
        alt = Alteration("c1", adds=(AddDirective((Part("g", "x"),)),))
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("src.yaml"),),
            alterations=(alt, alt),
        )
        catalog = replace(_catalog(_control("c1", "statement")), uri="src.yaml")
        findings = validate_profile(profile, [catalog])
        assert any("duplicate alteration" in f.message for f in findings)

    def test_include_exclude_overlap(self):
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("src.yaml", include=("c1",), exclude=("c1",)),),
        )
        catalog = replace(_catalog(_control("c1")), uri="src.yaml")
        findings = validate_profile(profile, [catalog])
        assert any("overlap" in f.message for f in findings)

    def test_include_miss_is_a_warning_only(self):
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("src.yaml", include=("c1", "ghost")),),
        )
        catalog = replace(_catalog(_control("c1")), uri="src.yaml")
        findings = validate_profile(profile, [catalog])
        assert findings and all(f.severity == "warning" for f in findings)

    @pytest.mark.parametrize("include", ["zzz", "c-1"])
    def test_an_include_string_other_than_all_is_reported_once(self, include):
        profile = Profile(
            metadata=Metadata("P", "1"),
            imports=(ImportDirective("src.yaml", include=include),),
        )
        catalog = replace(_catalog(_control("c1")), uri="src.yaml")
        expected = [Finding(ERROR, "imports/0",
                            f"include must be \"all\" or a list of control ids, got {include!r}")]
        assert profile_structure_findings(profile) == expected
        assert validate_profile(profile, [catalog]) == expected


_PROFILE = ('profile:\n  metadata:\n    title: P\n    version: "1"\n'
            '  imports:\n    - source: base.yaml\n')
_PART = "            - name: g\n              prose: x\n"
_ADD = "    - control-id: c1\n      adds:\n        - parts:\n" + _PART
_EMPTY_ADD = "    - control-id: c1\n      adds:\n        - parts: []\n"
_CATALOG = ('catalog:\n  metadata:\n    title: C\n    version: "1"\n  controls:\n'
            '    - id: c1\n      class: outcome\n      parts:\n        - name: statement\n'
            '          class: outcome\n          prose: s\n')
_SOURCE = Catalog(Metadata("C", "1"), (_control("c1", "statement"),), uri="base.yaml")
_NO_SELECTOR = Profile(
    metadata=Metadata("P", "1"),
    imports=(ImportDirective("base.yaml"),),
    alterations=(Alteration("c1", removes=(RemoveDirective(),)),),
)
_TWO_IMPORTS = Profile(
    metadata=Metadata("P", "1"),
    imports=(ImportDirective("base.yaml"), ImportDirective("other.yaml")),
)
_AT_START = Profile(
    metadata=Metadata("P", "1"),
    imports=(ImportDirective("base.yaml"),),
    alterations=(Alteration("c1", adds=(AddDirective((Part("g", "x"),), position="start"),)),),
)


# One case per finding: a document the parser reads goes through
# ``guidance validate``; the others are built in memory.
@pytest.mark.parametrize("document, severity, path, message", [
    pytest.param(_PROFILE.replace('version: "1"', 'version: ""'),
                 WARNING, "metadata/version", "version is empty", id="profile-empty-version"),
    pytest.param(_PROFILE.replace("\n    - source: base.yaml", " []"),
                 ERROR, "imports", "profile must import at least one source", id="no-imports"),
    pytest.param(_PROFILE.replace("base.yaml", '""'),
                 ERROR, "imports/0", "import source is empty", id="empty-import-source"),
    pytest.param(_PROFILE + "      include: [1bad]\n",
                 ERROR, "imports/0", "include id '1bad' is not a valid identifier",
                 id="invalid-include-id"),
    pytest.param(_PROFILE + "      exclude: [1bad]\n",
                 ERROR, "imports/0", "exclude id '1bad' is not a valid identifier",
                 id="invalid-exclude-id"),
    pytest.param(_PROFILE + "  alterations:\n" + _ADD * 2,
                 ERROR, "alterations/c1", "duplicate alteration for control 'c1'",
                 id="duplicate-alteration-target"),
    pytest.param(_PROFILE + "  alterations:\n" + _ADD.replace("c1", "1bad"),
                 ERROR, "alterations/1bad", "control-id '1bad' is not a valid identifier",
                 id="invalid-alteration-target"),
    pytest.param(lambda: validate_profile(_TWO_IMPORTS, []),
                 ERROR, "imports/0", "no source supplied for import 'base.yaml'",
                 id="first-import-without-source"),
    pytest.param(lambda: validate_profile(_TWO_IMPORTS, []),
                 ERROR, "imports/1", "no source supplied for import 'other.yaml'",
                 id="second-import-without-source"),
    pytest.param(_PROFILE + "  alterations:\n" + _EMPTY_ADD,
                 ERROR, "alterations/c1/adds/0", "add directive has no parts", id="add-no-parts"),
    pytest.param(_PROFILE + "  alterations:\n" + _ADD + _PART,
                 ERROR, "alterations/c1/adds/0/parts/1", "duplicate part name 'g'",
                 id="duplicate-part-in-one-add"),
    pytest.param(lambda: validate_profile(_NO_SELECTOR, [_SOURCE]),
                 ERROR, "alterations/c1/removes/0", "exactly one selector must be populated",
                 id="remove-no-selector"),
    pytest.param(lambda: validate_profile(_NO_SELECTOR, [_SOURCE]),
                 ERROR, "alterations/c1/removes/0", "removal matched nothing (by-name '')",
                 id="remove-no-selector-matches-nothing"),
    pytest.param(lambda: profile_structure_findings(_AT_START),
                 ERROR, "alterations/c1/adds/0", "unsupported position 'start'",
                 id="unsupported-position"),
    pytest.param(_CATALOG.replace("title: C", 'title: ""'),
                 WARNING, "metadata/title", "title is empty", id="catalog-empty-title"),
    pytest.param(_CATALOG.replace('version: "1"', 'version: ""'),
                 WARNING, "metadata/version", "version is empty", id="catalog-empty-version"),
    pytest.param(_CATALOG.replace("name: statement", 'name: ""'),
                 ERROR, "controls/c1/parts/0", "part name is empty", id="empty-part-name"),
    pytest.param(_CATALOG.replace("          class: outcome", '          class: "1x"'),
                 ERROR, "controls/c1/parts/0", "part class '1x' is not a valid identifier",
                 id="invalid-part-class"),
    pytest.param(_CATALOG.replace("id: c1", 'id: ""'),
                 ERROR, "controls/", "control id is empty", id="empty-control-id"),
    pytest.param(_CATALOG.replace("class: outcome", 'class: "1x"', 1),
                 ERROR, "controls/c1", "control class '1x' is not a valid identifier",
                 id="invalid-control-class"),
])
def test_each_finding_is_reported_at_its_path(tmp_path, capsys, document, severity, path,
                                              message):
    if callable(document):
        assert Finding(severity, path, message) in document()
        return
    file = tmp_path / "doc.yaml"
    file.write_text(document)
    assert main(["validate", str(file)]) == (1 if severity == ERROR else 0)
    assert f"{severity}: {file}: {path}: {message}" in capsys.readouterr().err.splitlines()


@st.composite
def _import_directive(draw, source: str, ids: list[str]) -> ImportDirective:
    include = "all" if draw(st.booleans()) else tuple(
        draw(st.lists(st.sampled_from(ids), unique=True, min_size=1, max_size=3))
    )
    exclude = tuple(draw(st.lists(st.sampled_from(ids + ["zz.ghost"]), unique=True, max_size=2)))
    if not isinstance(include, str):
        exclude = tuple(e for e in exclude if e not in include)
    return ImportDirective(source, include=include, exclude=exclude)


# Randomized profiles, valid and invalid alike: the report must equal the
# independent simulation's, an error-free report must mean strict resolution
# succeeds, and any error finding must mean it fails.
def _deepened(catalog: Catalog) -> Catalog:
    """``catalog`` with its later top-level controls moved under the first one's first child."""
    first, *rest = catalog.controls
    if not first.children or not rest:
        return catalog
    child = replace(first.children[0], children=first.children[0].children + tuple(rest))
    return replace(catalog, controls=(replace(first, children=(child, *first.children[1:])),))


def _with_child(controls: tuple[Control, ...], parent_id: str, child: Control) -> tuple:
    """``controls`` with ``child`` appended to the children of one control ``parent_id``."""
    done = False

    def add(control: Control) -> Control:
        nonlocal done
        children = tuple(add(c) for c in control.children)
        if control.id == parent_id and not done:
            done = True
            children += (child,)
        return control if children == control.children else replace(control, children=children)

    return tuple(add(control) for control in controls)


@st.composite
def resolution_cases(draw, second=st.sampled_from(["src.yaml", "other.yaml", None]),
                     repeats=st.just(0)):
    """A source catalog, a profile importing it, and at times a second import or source.

    ``repeats`` draws how many ids the source catalog, built in memory
    without validation, repeats: each adds a childless control with an
    existing id under a drawn control, which may be inside the first
    control of that id (``a -> b -> a``) or anywhere else.
    """
    catalog = draw(strategies.catalogs(min_controls=1, max_controls=5))
    if draw(st.booleans()):
        catalog = _deepened(catalog)
    for _ in range(draw(repeats)):
        existing = [c.id for c in iter_controls(catalog.controls)]
        repeated = Control(draw(st.sampled_from(existing)), parts=(Part("statement", "again"),))
        catalog = replace(catalog, controls=_with_child(
            catalog.controls, draw(st.sampled_from(existing)), repeated))
    catalog = replace(catalog, uri="src.yaml")
    ids = list(dict.fromkeys(c.id for c in iter_controls(catalog.controls)))
    sources = [catalog]
    imports = [draw(_import_directive("src.yaml", ids))]
    # A second import either re-selects from the same source, which adds
    # what it selects to the first's selection, in either order, or reads a
    # second catalog holding one of the same ids beside a fresh one.
    second = draw(second)
    if second == "src.yaml":
        imports.insert(draw(st.sampled_from([0, 1])), draw(_import_directive("src.yaml", ids)))
    elif second == "other.yaml":
        other_ids = [draw(st.sampled_from(ids)), "zz.other"]
        other = _catalog(*(_control(cid, "statement") for cid in other_ids))
        sources.append(replace(other, uri="other.yaml"))
        imports.append(draw(_import_directive("other.yaml", other_ids)))
        ids = ids + ["zz.other"]

    targets = draw(st.lists(st.sampled_from(ids + ["zz.missing"]), unique=True, max_size=2))
    alterations = []
    for cid in targets:
        control = find_control(catalog, cid)
        names = [p.name for p in control.parts] if control else []
        class_values = [p.classifier for p in (control.parts if control else ()) if p.classifier]
        selectors: list[RemoveDirective] = []
        for name in draw(st.lists(st.sampled_from(names + ["zz-nope"]), unique=True, max_size=2)):
            selectors.append(RemoveDirective(by_name=name))
        if class_values and draw(st.booleans()):
            selectors.append(RemoveDirective(by_class=draw(st.sampled_from(class_values))))
        add_pool = names + ["zadd1", "zadd2", "statement"]
        add_names = draw(st.lists(st.sampled_from(add_pool), unique=True, max_size=2))
        adds = (
            (AddDirective(parts=tuple(Part(n, "added prose") for n in add_names)),)
            if add_names
            else ()
        )
        if not selectors and not adds:
            adds = (AddDirective(parts=(Part("zadd1", "added prose"),)),)
        alterations.append(Alteration(cid, removes=tuple(selectors), adds=adds))

    profile = Profile(
        metadata=Metadata("Case", "1"),
        imports=tuple(imports),
        alterations=tuple(alterations),
    )
    return sources, profile


@given(resolution_cases())
@settings(max_examples=200, deadline=None)
def test_validate_profile_predicts_resolution_outcome(case):
    sources, profile = case
    findings = validate_profile(profile, sources)
    assert findings == simulate_profile_findings(profile, sources)
    if has_errors(findings):
        with pytest.raises(GuidanceError):
            resolve(sources, profile)
    else:
        result = resolve(sources, profile)
        # part-name uniqueness and statement ordering survive resolution
        assert not has_errors(validate_catalog(result.catalog))


@given(resolution_cases(repeats=st.integers(0, 2)))
@settings(max_examples=300, deadline=None)
def test_resolution_agrees_with_the_reference_resolver(case):
    sources, profile = case
    check_against_reference(sources, profile)


def _outline(controls, parent=None) -> list[tuple[str, str | None]]:
    return [entry for control in controls
            for entry in [(control.id, parent), *_outline(control.children, control.id)]]


@given(resolution_cases(second=st.just("src.yaml")))
@settings(max_examples=200, deadline=None)
def test_imports_of_one_source_select_a_union_in_either_order(case):
    sources, profile = case
    swapped = replace(profile, imports=profile.imports[::-1])
    outcomes = []
    for imports in (profile, swapped):
        try:
            outcomes.append(resolve(sources, imports).catalog)
        except GuidanceError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], Catalog):
        [expected] = selection_outline(list(zip(profile.imports, sources * 2))).values()
        assert _outline(outcomes[0].controls) == [(cid, parent) for cid, parent, _ in expected]


def test_a_control_whose_parent_is_not_selected_is_a_root():
    """``x`` without ``x-2``, and ``x-2-a`` under it: the union keeps ``x-2-a`` a root."""
    grandchild = Control("x-2-a", parts=(Part("statement", "a"),))
    top = Control("x", children=(_control("x-1", "statement"), Control("x-2", children=(grandchild,))))
    source = replace(_catalog(top, _control("y", "statement")), uri="src.yaml")
    imports = (ImportDirective("src.yaml", include=("x",), exclude=("x-2",)),
               ImportDirective("src.yaml", include=("x-2-a",)))
    for order in (imports, imports[::-1]):
        profile = Profile(Metadata("P", "1"), imports=order)
        resolved = resolve([source], profile).catalog
        assert resolved.controls == (replace(top, children=top.children[:1]), grandchild)


@pytest.mark.parametrize("first, second", [("id.am-1", "id.am"), ("id.am", "id.am-1")])
def test_a_source_imported_twice_resolves_in_either_order(tmp_path, first, second):
    """Before, ``id.am-1`` then ``id.am`` failed as a duplicate ``id.am-1``."""
    from layered_guidance import write_fixture_store
    write_fixture_store(tmp_path)
    (tmp_path / "twice.yaml").write_text(
        "profile:\n  metadata:\n    title: T\n    version: \"1\"\n  imports:\n"
        f"    - source: csf-id-am.yaml\n      include: [{first}]\n"
        f"    - source: csf-id-am.yaml\n      include: [{second}]\n"
    )
    resolved = resolve_chain(SourceStore(tmp_path), "twice.yaml").catalog
    source = load_fixture("csf-id-am").body
    assert resolved.controls == (find_control(source, "id.am"),)


# ---------------------------------------------------------------------------
# Constructor invariants: every type stays a frozen dataclass whose
# constructor normalises its fields, whatever code builds it.

def _invariant_cases() -> dict[str, tuple]:
    """Per type: an instance, one field to assign, its repr and its constructor's parameters."""
    part = Part("Guidance", "Some prose", "OT-specific")
    add = AddDirective([Part("G", "y")])
    catalog = Catalog(Metadata("T", "1"), [Control("C1")], uri="c.yaml")
    catalog_repr = ("Catalog(metadata=Metadata(title='T', version='1'), controls=(Control(id='c1', "
                    "classifier=None, parts=(), children=()),), uri='c.yaml')")
    entry = ProvenanceEntry("c.yaml", 0)
    changes = ChangeSet((ChangeEntry("control-added", "c2"),))
    return {
        "Part": (
            part, "name",
            "Part(name='guidance', prose='Some prose', classifier='OT-specific')",
            "(name: 'str', prose: 'str', classifier: 'str | None' = None)",
        ),
        "Control": (
            Control("ID.AM-3", "Outcome", [Part("Statement", "x")], [Control("ID.AM-3a")]), "id",
            "Control(id='id.am-3', classifier='Outcome', parts=(Part(name='statement', prose='x', "
            "classifier=None),), children=(Control(id='id.am-3a', classifier=None, parts=(), "
            "children=()),))",
            "(id: 'str', classifier: 'str | None' = None, parts: 'tuple[Part, ...]' = (), "
            "children: 'tuple[Control, ...]' = ())",
        ),
        "RemoveDirective": (
            RemoveDirective(by_name="OT-Specific"), "by_name",
            "RemoveDirective(by_name='ot-specific', by_class=None)",
            "(by_name: 'str | None' = None, by_class: 'str | None' = None)",
        ),
        "AddDirective": (
            add, "parts",
            "AddDirective(parts=(Part(name='g', prose='y', classifier=None),), position='ending')",
            "(parts: 'tuple[Part, ...]', position: 'str' = 'ending')",
        ),
        "Alteration": (
            Alteration("ID.AM-3", [RemoveDirective(by_name="X")], [add]), "control_id",
            "Alteration(control_id='id.am-3', removes=(RemoveDirective(by_name='x', "
            "by_class=None),), adds=(AddDirective(parts=(Part(name='g', prose='y', "
            "classifier=None),), position='ending'),))",
            "(control_id: 'str', removes: 'tuple[RemoveDirective, ...]' = (), "
            "adds: 'tuple[AddDirective, ...]' = ())",
        ),
        "ImportDirective": (
            ImportDirective("base.yaml", ["ID.AM-1", "id.am-2"], ["ID.AM-3"]), "include",
            "ImportDirective(source='base.yaml', include=('id.am-1', 'id.am-2'), "
            "exclude=('id.am-3',))",
            "(source: 'str', include: 'str | tuple[str, ...]' = 'all', "
            "exclude: 'tuple[str, ...]' = ())",
        ),
        "Catalog": (
            Catalog(Metadata("T", "1"), [Control("C1")], uri="c.yaml"), "controls",
            "Catalog(metadata=Metadata(title='T', version='1'), controls=(Control(id='c1', "
            "classifier=None, parts=(), children=()),), uri='c.yaml')",
            "(metadata: 'Metadata', controls: 'tuple[Control, ...]' = (), uri: 'str' = '')",
        ),
        "Profile": (
            Profile(Metadata("P", "1"), [ImportDirective("c.yaml")], [], uri="p.yaml"), "imports",
            "Profile(metadata=Metadata(title='P', version='1'), imports=(ImportDirective("
            "source='c.yaml', include='all', exclude=()),), alterations=(), uri='p.yaml')",
            "(metadata: 'Metadata', imports: 'tuple[ImportDirective, ...]' = (), "
            "alterations: 'tuple[Alteration, ...]' = (), uri: 'str' = '')",
        ),
        "Metadata": (
            Metadata("T", "1"), "title",
            "Metadata(title='T', version='1')",
            "(title: 'str', version: 'str')",
        ),
        "DocumentEnvelope": (
            DocumentEnvelope("catalog", catalog), "body",
            f"DocumentEnvelope(kind='catalog', body={catalog_repr})",
            "(kind: 'str', body: 'Catalog | Profile')",
        ),
        "Finding": (
            Finding(ERROR, "controls/c1", "control id is empty"), "message",
            "Finding(severity='error', path='controls/c1', message='control id is empty')",
            "(severity: 'str', path: 'str', message: 'str')",
        ),
        "ProvenanceEntry": (
            entry, "layer_depth",
            "ProvenanceEntry(origin_uri='c.yaml', layer_depth=0)",
            "(origin_uri: 'str', layer_depth: 'int')",
        ),
        "ResolvedCatalog": (
            ResolvedCatalog(catalog, {("c1", "statement"): entry}, ("c.yaml",), 0), "provenance",
            f"ResolvedCatalog(catalog={catalog_repr}, provenance={{('c1', 'statement'): "
            "ProvenanceEntry(origin_uri='c.yaml', layer_depth=0)}, lineage=('c.yaml',), depth=0, "
            "warnings=())",
            "(catalog: 'Catalog', provenance: 'Mapping[tuple[str, str], ProvenanceEntry]', "
            "lineage: 'tuple[str, ...]', depth: 'int', "
            "warnings: 'tuple[tuple[str, Finding], ...]' = ())",
        ),
        "ChangeEntry": (
            ChangeEntry("part-modified", "c1", "statement", "a", "b"), "after_prose",
            "ChangeEntry(kind='part-modified', control_id='c1', part_name='statement', "
            "before_prose='a', after_prose='b')",
            "(kind: 'str', control_id: 'str | None' = None, part_name: 'str | None' = None, "
            "before_prose: 'str | None' = None, after_prose: 'str | None' = None)",
        ),
        "ChangeSet": (
            changes, "entries",
            "ChangeSet(entries=(ChangeEntry(kind='control-added', control_id='c2', part_name=None, "
            "before_prose=None, after_prose=None),))",
            "(entries: 'tuple[ChangeEntry, ...]')",
        ),
        "DependencyGraph": (
            DependencyGraph(("a.yaml", "p.yaml"), (("p.yaml", "a.yaml"),), profiles=("p.yaml",)),
            "edges",
            "DependencyGraph(nodes=('a.yaml', 'p.yaml'), edges=(('p.yaml', 'a.yaml'),), "
            "findings=(), profiles=('p.yaml',), unreadable={})",
            "(nodes: 'tuple[str, ...]', edges: 'tuple[tuple[str, str], ...]', "
            "findings: 'tuple[Finding, ...]' = (), profiles: 'tuple[str, ...]' = (), "
            "unreadable: 'dict[str, GuidanceError]' = <factory>)",
        ),
        "PropagationResult": (
            PropagationResult("p.yaml", "resolved/p.yaml", changes=changes, initial=True),
            "initial",
            "PropagationResult(profile_uri='p.yaml', output_uri='resolved/p.yaml', resolved=None, "
            "changes=ChangeSet(entries=(ChangeEntry(kind='control-added', control_id='c2', "
            "part_name=None, before_prose=None, after_prose=None),)), initial=True, error=None)",
            "(profile_uri: 'str', output_uri: 'str', resolved: 'ResolvedCatalog | None' = None, "
            "changes: 'ChangeSet | None' = None, initial: 'bool' = False, "
            "error: 'GuidanceError | None' = None)",
        ),
        "RenderOptions": (
            RenderOptions(include_provenance=True), "heading_depth",
            "RenderOptions(include_provenance=True, heading_depth=2)",
            "(include_provenance: 'bool' = False, heading_depth: 'int' = 2)",
        ),
    }


_INVARIANT_CASES = _invariant_cases()
# These hold a dict, so hashing them raises ``TypeError``, as ``dataclass`` does.
_UNHASHABLE = {"ResolvedCatalog", "DependencyGraph"}


def _assert_equal_values(copied, instance) -> None:
    """``copied`` equals ``instance`` and hashes alike, or both fail to hash."""
    assert copied == instance
    if type(instance).__name__ in _UNHASHABLE:
        for value in (copied, instance):
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(value)
    else:
        assert hash(copied) == hash(instance)


@pytest.fixture(params=sorted(_INVARIANT_CASES))
def invariant_case(request):
    return _INVARIANT_CASES[request.param]


def _package_record_types() -> list[type]:
    """Every dataclass defined in a module of the package."""
    import layered_guidance
    types = []
    for info in pkgutil.iter_modules(layered_guidance.__path__):
        module = importlib.import_module(f"layered_guidance.{info.name}")
        types += [value for value in vars(module).values() if isinstance(value, type)
                  and is_dataclass(value) and value.__module__ == module.__name__]
    return types


class TestConstructorInvariants:
    def test_every_record_type_shares_one_set_of_value_methods(self):
        """``dataclass(frozen=True)`` would generate these per type, at about 1 ms of import each."""
        types = _package_record_types()
        assert sorted(cls.__name__ for cls in types) == sorted(_INVARIANT_CASES)
        for cls in types:
            for name in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
                assert getattr(cls, name) is getattr(_Record, name), f"{cls.__name__}.{name}"

    def test_assignment_and_deletion_raise(self, invariant_case):
        instance, field_name, _, _ = invariant_case
        with pytest.raises(FrozenInstanceError):
            setattr(instance, field_name, getattr(instance, field_name))
        with pytest.raises(FrozenInstanceError):
            delattr(instance, field_name)

    def test_repr_and_signature_are_unchanged(self, invariant_case):
        instance, _, expected_repr, expected_signature = invariant_case
        assert repr(instance) == expected_repr
        signature = inspect.signature(type(instance))
        assert str(signature.replace(return_annotation=signature.empty)) == expected_signature

    def test_fields_and_replace_round_trip(self, invariant_case):
        instance = invariant_case[0]
        values = {f.name: getattr(instance, f.name) for f in fields(instance)}
        assert list(values) == list(inspect.signature(type(instance)).parameters)
        _assert_equal_values(type(instance)(**values), instance)
        assert replace(instance) == instance

    def test_pickle_and_deepcopy_give_equal_objects(self, invariant_case):
        instance = invariant_case[0]
        for copied in (pickle.loads(pickle.dumps(instance)), copy.deepcopy(instance)):
            _assert_equal_values(copied, instance)
            assert repr(copied) == repr(instance)
            with pytest.raises(FrozenInstanceError):
                setattr(copied, invariant_case[1], None)

    @pytest.mark.parametrize("copier", ["pickle", "deepcopy"])
    def test_every_error_copies_with_its_message_args_and_fields(self, copier):
        """``args`` holds the formatted message: a copy must not format it a second time."""
        copied_by = {"pickle": lambda value: pickle.loads(pickle.dumps(value)),
                     "deepcopy": copy.deepcopy}[copier]
        errors = [
            GuidanceError("plain"),
            DocumentSyntaxError("bad token", 3, 4),
            SchemaError("expected a list, got str", "catalog/controls"),
            ValidationError([Finding(ERROR, "metadata/title", "title is empty")]),
            StoreError("no such store"),
            NotFound("b.yaml"),
            InvalidUri("../x.yaml", "escapes the store root"),
            ResolutionError("no source supplied for import 'a.yaml'"),
            UnknownControlId("x", "profile p"),
            DuplicateControlId("x", "supplied by both 'a.yaml' and 'b.yaml'"),
            RemovalMatchedNothing("c1", "by-name", "ghost"),
            DuplicatePartName("c1", "guidance"),
            StatementNotFirst("c1"),
            CycleDetected(["a.yaml", "b.yaml", "a.yaml"]),
            UnknownFixture("nope"),
        ]
        defined = {value for value in vars(errors_module).values()
                   if isinstance(value, type) and issubclass(value, GuidanceError)}
        assert {type(error) for error in errors} == defined
        errors[5].source = "a.yaml"
        for error in errors:
            copied = copied_by(error)
            assert type(copied) is type(error)
            assert (str(copied), copied.args, vars(copied)) == (
                str(error), error.args, vars(error))
        held = PropagationResult("p.yaml", "resolved/p.yaml", error=errors[5])
        copied = copied_by(held).error
        assert (type(copied), str(copied), copied.args, vars(copied)) == (
            NotFound, "document not found: b.yaml", ("document not found: b.yaml",),
            {"uri": "b.yaml", "source": "a.yaml"})

    def test_identifiers_are_lowercased_by_the_constructor_and_by_replace(self):
        part = Part("Guidance", "p")
        assert part.name == "guidance" and replace(part, name="OT-Specific").name == "ot-specific"
        control = Control("ID.AM-3")
        assert control.id == "id.am-3" and replace(control, id="ID.AM-4").id == "id.am-4"
        remove = RemoveDirective(by_name="OT-Specific")
        assert remove.by_name == "ot-specific"
        assert replace(remove, by_name="Guidance").by_name == "guidance"
        assert RemoveDirective(by_class="OT-Guidance").by_class == "OT-Guidance"
        alteration = Alteration("ID.AM-3")
        assert alteration.control_id == "id.am-3"
        assert replace(alteration, control_id="ID.AM-9").control_id == "id.am-9"
        directive = ImportDirective("Base.yaml", ["ID.AM-1"], ["ID.AM-2"])
        assert (directive.source, directive.include, directive.exclude) == (
            "Base.yaml", ("id.am-1",), ("id.am-2",))
        changed = replace(directive, include=["ID.AM-5"], exclude=("ID.AM-6",))
        assert (changed.include, changed.exclude) == (("id.am-5",), ("id.am-6",))
        assert ImportDirective("b.yaml", "ALL").include == "ALL"  # a string stays as given
        assert Part("p", "Prose", "OT-Specific").classifier == "OT-Specific"

    def test_sequences_become_tuples(self):
        part = Part("g", "x")
        control = Control("c", None, [part], iter([Control("d")]))
        assert control.parts == (part,) and type(control.parts) is tuple
        assert control.children == (Control("d"),) and type(control.children) is tuple
        assert type(replace(control, parts=[part]).parts) is tuple
        assert type(AddDirective([part]).parts) is tuple
        alteration = Alteration("c", [RemoveDirective(by_name="g")], [AddDirective([part])])
        assert type(alteration.removes) is tuple and type(alteration.adds) is tuple
        directive = ImportDirective("s", iter(["A"]), iter(["B"]))
        assert (directive.include, directive.exclude) == (("a",), ("b",))
        catalog = Catalog(Metadata("T", "1"), [control])
        assert type(catalog.controls) is tuple
        profile = Profile(Metadata("P", "1"), [directive], [alteration])
        assert type(profile.imports) is tuple and type(profile.alterations) is tuple

    def test_equality_and_hash_ignore_only_the_uri(self):
        catalog = Catalog(Metadata("T", "1"), [Control("c")], uri="a.yaml")
        moved = replace(catalog, uri="b.yaml")
        assert moved == catalog and hash(moved) == hash(catalog) and moved.uri == "b.yaml"
        assert replace(catalog, controls=()) != catalog
        profile = Profile(Metadata("P", "1"), [ImportDirective("a.yaml")], uri="p.yaml")
        assert replace(profile, uri="q.yaml") == profile
        assert hash(replace(profile, uri="q.yaml")) == hash(profile)
        assert replace(profile, imports=()) != profile
        assert Part("G", "x") == Part("g", "x") and hash(Part("G", "x")) == hash(Part("g", "x"))
        assert Part("g", "x") != Part("g", "x", "c")
        assert Control("C", parts=[Part("g", "x")]) == Control("c", parts=(Part("g", "x"),))
        assert ImportDirective("s", ["A"]) == ImportDirective("s", ("a",))
        assert ImportDirective("s", "all") != ImportDirective("s", ())

    def test_a_render_heading_depth_below_one_raises(self):
        with pytest.raises(ValueError, match="heading_depth must be >= 1"):
            RenderOptions(heading_depth=0)
        with pytest.raises(ValueError, match="heading_depth must be >= 1"):
            replace(RenderOptions(), heading_depth=0)

    def test_each_dependency_graph_gets_its_own_unreadable_dict(self):
        first, second = DependencyGraph((), ()), DependencyGraph((), ())
        assert first.unreadable == second.unreadable == {}
        assert first.unreadable is not second.unreadable

    def test_profile_structure_findings_are_computed_once(self, monkeypatch):
        import layered_guidance.model as model_module
        calls = []
        original = model_module.profile_structure_findings
        monkeypatch.setattr(model_module, "profile_structure_findings",
                            lambda profile: calls.append(profile) or original(profile))
        profile = Profile(Metadata("P", ""), [ImportDirective("s.yaml")])
        first = profile.structure_findings
        assert first == (Finding(WARNING, "metadata/version", "version is empty"),)
        assert profile.structure_findings is first and calls == [profile]
        assert pickle.loads(pickle.dumps(profile)).structure_findings == first

from __future__ import annotations

import json

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from conftest import FIXTURES_DIR
from layered_guidance import changes, serialize, write_fixture_store
from layered_guidance.changes import propagate
from layered_guidance.errors import DocumentSyntaxError, SchemaError, ValidationError
from layered_guidance.model import (
    Catalog,
    Control,
    DocumentEnvelope,
    ImportDirective,
    Metadata,
    Part,
    Profile,
    iter_controls,
)
from layered_guidance.resolver import SourceStore
from layered_guidance.serialize import parse_document, serialize_document

CONTROL_SNIPPET = b"""\
catalog:
  metadata:
    title: Snippet
    version: "1.0"
  controls:
    - id: id.am-3
      class: subcategory
      parts:
        - name: statement
          class: outcome
          prose: Organizational communication and
            data flows are mapped
"""

PROFILE_SNIPPET = b"""\
profile:
  metadata:
    title: Snippet
    version: "1.0"
  imports:
    - source: ot-catalog.yaml
  alterations:
    - control-id: id.am-3
      removes:
        - by-name: ot-specific
      adds:
        - parts:
            - name: am-specific
              class: Additive-specific-guidance
              prose: Data flow diagrams for AM processes...
"""


class TestParse:
    def test_subcategory_snippet(self):
        envelope = parse_document(CONTROL_SNIPPET)
        control = envelope.body.controls[0]
        assert control == Control(
            "id.am-3",
            classifier="subcategory",
            parts=(Part("statement",
                        "Organizational communication and data flows are mapped",
                        "outcome"),),
        )

    def test_profile_snippet(self):
        envelope = parse_document(PROFILE_SNIPPET)
        alteration = envelope.body.alterations[0]
        assert alteration.control_id == "id.am-3"
        assert alteration.removes[0].by_name == "ot-specific"
        (add,) = alteration.adds
        (part,) = add.parts
        assert part.name == "am-specific"
        assert part.classifier == "Additive-specific-guidance"

    def test_both_top_level_keys(self):
        text = b"catalog:\n  metadata: {title: a, version: b}\nprofile:\n  metadata: {title: a, version: b}\n  imports: []\n"
        with pytest.raises(SchemaError, match="exactly one"):
            parse_document(text)

    def test_unknown_key(self):
        text = b"catalog:\n  metadata:\n    title: a\n    version: b\n  bogus: 1\n"
        with pytest.raises(SchemaError, match="unknown key 'bogus'"):
            parse_document(text)

    def test_unknown_nested_key_carries_path(self):
        text = (b"catalog:\n  metadata:\n    title: a\n    version: b\n"
                b"  controls:\n    - id: c1\n      extra: true\n")
        with pytest.raises(SchemaError, match="catalog/controls/0"):
            parse_document(text)

    def test_missing_required_key(self):
        with pytest.raises(SchemaError, match="missing required key 'version'"):
            parse_document(b"catalog:\n  metadata:\n    title: a\n")

    def test_wrong_type(self):
        text = b"catalog:\n  metadata:\n    title: a\n    version: 1.0\n"
        with pytest.raises(SchemaError, match="expected a string"):
            parse_document(text)

    def test_duplicate_yaml_key(self):
        text = b"catalog:\n  metadata:\n    title: a\n    title: b\n    version: c\n"
        with pytest.raises(SchemaError, match="duplicate key 'title'"):
            parse_document(text)

    def test_duplicate_json_key(self):
        text = b'{"catalog": {"metadata": {"title": "a", "title": "b", "version": "c"}}}'
        with pytest.raises(SchemaError, match="duplicate key 'title'"):
            parse_document(text)

    def test_malformed_yaml_has_line_and_column(self):
        with pytest.raises(DocumentSyntaxError) as excinfo:
            parse_document(b"catalog:\n  metadata: [unclosed\n")
        assert excinfo.value.line is not None
        assert excinfo.value.column is not None
        assert "line" in str(excinfo.value)

    def test_malformed_json_has_line_and_column(self):
        with pytest.raises(DocumentSyntaxError) as excinfo:
            parse_document(b'{"catalog": ', "json")
        assert excinfo.value.line == 1

    def test_invalid_utf8(self):
        with pytest.raises(DocumentSyntaxError, match="UTF-8"):
            parse_document(b"\xff\xfe42")

    def test_lone_surrogate_is_a_syntax_error(self):
        text = "catalog:\n  metadata:\n    title: \ud800x\n    version: b\n"
        with pytest.raises(DocumentSyntaxError, match="#xd800"):
            parse_document(text)

    def test_invariant_violations_raise_validation_error(self):
        text = (b"catalog:\n  metadata:\n    title: a\n    version: b\n"
                b"  controls:\n    - id: c1\n    - id: c1\n")
        with pytest.raises(ValidationError, match="duplicate control id"):
            parse_document(text)

    def test_unsupported_position(self):
        text = (b"profile:\n  metadata:\n    title: a\n    version: b\n"
                b"  imports:\n    - source: x.yaml\n"
                b"  alterations:\n    - control-id: c1\n      adds:\n"
                b"        - position: starting\n          parts:\n"
                b"            - name: g\n              prose: x\n")
        with pytest.raises(SchemaError, match="unsupported position"):
            parse_document(text)

    def test_explicit_ending_position_is_accepted_and_normalized(self):
        text = (b"profile:\n  metadata:\n    title: a\n    version: b\n"
                b"  imports:\n    - source: x.yaml\n"
                b"  alterations:\n    - control-id: c1\n      adds:\n"
                b"        - position: ending\n          parts:\n"
                b"            - name: g\n              prose: x\n")
        envelope = parse_document(text)
        assert envelope.body.alterations[0].adds[0].position == "ending"
        assert b"position" not in serialize_document(envelope, "yaml")

    def test_by_class_selector_round_trips(self):
        text = (b"profile:\n  metadata:\n    title: a\n    version: b\n"
                b"  imports:\n    - source: x.yaml\n"
                b"  alterations:\n    - control-id: c1\n      removes:\n"
                b"        - by-class: OT-specific-guidance\n")
        envelope = parse_document(text)
        assert envelope.body.alterations[0].removes[0].by_class == "OT-specific-guidance"
        data = serialize_document(envelope, "yaml")
        assert b"by-class: OT-specific-guidance" in data
        assert parse_document(data) == envelope

    def test_remove_selector_must_be_single(self):
        text = (b"profile:\n  metadata:\n    title: a\n    version: b\n"
                b"  imports:\n    - source: x.yaml\n"
                b"  alterations:\n    - control-id: c1\n      removes:\n"
                b"        - by-name: a\n          by-class: b\n")
        with pytest.raises(SchemaError, match="exactly one of by-name/by-class"):
            parse_document(text)

    def test_auto_detection(self):
        yaml_env = parse_document(CONTROL_SNIPPET, "auto")
        json_bytes = serialize_document(yaml_env, "json")
        assert parse_document(json_bytes, "auto") == yaml_env


class TestCanonicalForm:
    @pytest.mark.parametrize("name", ["csf-id-am.yaml", "ot-profile.yaml", "am-profile.yaml"])
    def test_golden_fixtures_are_byte_stable(self, name):
        data = (FIXTURES_DIR / name).read_bytes()
        assert serialize_document(parse_document(data), "yaml") == data

    def test_serialization_is_deterministic(self):
        envelope = parse_document((FIXTURES_DIR / "csf-id-am.yaml").read_bytes())
        assert serialize_document(envelope, "yaml") == serialize_document(envelope, "yaml")
        assert serialize_document(envelope, "json") == serialize_document(envelope, "json")

    def test_non_canonical_input_normalizes(self):
        flow = b"catalog:\n  metadata: {title: a, version: b}\n  controls: [{id: c1}]\n"
        envelope = parse_document(flow)
        canonical = serialize_document(envelope, "yaml")
        assert canonical == (
            b"catalog:\n  metadata:\n    title: a\n    version: b\n"
            b"  controls:\n    - id: c1\n"
        )

    def test_long_prose_folds(self):
        data = (FIXTURES_DIR / "csf-id-am.yaml").read_bytes()
        envelope = parse_document(data)
        text = serialize_document(envelope, "yaml").decode()
        from layered_guidance.model import iter_controls
        long_proses = [
            part.prose
            for control in iter_controls(envelope.body.controls)
            for part in control.parts
            if len(part.prose) > 80
        ]
        assert long_proses, "fixture should exercise folding"
        for prose in long_proses:
            assert prose not in text  # folded across lines, never on one line
        assert ">-" in text

    def test_json_output_is_parseable_json(self):
        envelope = parse_document((FIXTURES_DIR / "am-profile.yaml").read_bytes())
        payload = json.loads(serialize_document(envelope, "json"))
        assert list(payload) == ["profile"]
        assert payload["profile"]["alterations"][0]["control-id"] == "id.am-3"
        assert payload["profile"]["alterations"][0]["removes"][0]["by-name"] == "ot-specific"

    def test_an_include_string_is_emitted_as_written(self):
        profile = Profile(Metadata("P", "1"), imports=(ImportDirective("b.yaml", include="zzz"),))
        text = serialize_document(DocumentEnvelope("profile", profile), "yaml")
        assert text.endswith(b"  imports:\n    - source: b.yaml\n      include: zzz\n")

    def test_an_empty_include_list_round_trips(self):
        """A bare ``include:`` would read back as null and fail to parse."""
        profile = Profile(Metadata("P", "1"), imports=(ImportDirective("a.yaml", include=()),))
        envelope = DocumentEnvelope("profile", profile)
        text = serialize_document(envelope, "yaml")
        assert text.endswith(b"  imports:\n    - source: a.yaml\n      include: []\n")
        assert parse_document(text) == envelope
        assert oracles.emit_yaml(serialize.document_plain(envelope)).encode("utf-8") == text


class TestEmissionMemo:
    @given(st.lists(strategies.catalogs(), min_size=1, max_size=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_catalogs_sharing_parts_emit_the_same_bytes(self, catalogs, data):
        """Later catalogs carry parts and parts tuples of the first, at other depths too.

        The second catalog rebuilds each control of the first with other
        children objects, as a selection does, and replaces at most one of
        its id, class, parts tuple or children (with none), in place or one
        level deeper.
        """
        first = catalogs[0]
        shared = [part for control in iter_controls(first.controls) for part in control.parts]

        def share(control: Control) -> Control:
            parts = control.parts
            if shared and data.draw(st.booleans()):
                part = data.draw(st.sampled_from(shared))
                parts = (part, *(p for p in parts if p.name != part.name))
            return Control(control.id, control.classifier, parts,
                           tuple(share(child) for child in control.children))

        def rebuild(control: Control) -> Control:
            replaced = data.draw(st.sampled_from([None, "id", "class", "parts", "children"]))
            return Control("other" if replaced == "id" else control.id,
                           "other" if replaced == "class" else control.classifier,
                           control.parts[1:] if replaced == "parts" else control.parts,
                           () if replaced == "children" else tuple(map(rebuild, control.children)))

        rebuilt = tuple(rebuild(control) for control in first.controls)
        if data.draw(st.booleans()):
            rebuilt = (Control("top", children=rebuilt),)
        memo: dict = {}
        for catalog in [first, Catalog(first.metadata, rebuilt)] + [
                Catalog(c.metadata, tuple(share(x) for x in c.controls)) for c in catalogs[1:]]:
            envelope = DocumentEnvelope("catalog", catalog)
            assert serialize_document(envelope, memo=memo) == serialize_document(envelope)

    def test_a_rebuilt_controls_own_block_is_emitted_once_per_indent(self, monkeypatch):
        """A control rebuilt with other children, as a selection rebuilds it, keeps its block."""
        parts = (Part("statement", "shared words " * 10 + "end"), Part("note", "a note"))
        catalogs = [Catalog(Metadata(f"T{i}", "1"), controls) for i, controls in enumerate([
            (Control("c-1", "Zk", parts, (Control("c-2"), Control("c-3"))),),
            (Control("c-1", "Zk", parts, (Control("c-3"),)),),
            (Control("top", children=(Control("c-1", "Zk", parts, (Control("c-2"),)),)),),
            (Control("c-1", "Zk", parts),
             Control("c-2", "Zk", parts, (Control("c-3", parts=parts[1:]),))),
        ])]
        expected = [serialize_document(DocumentEnvelope("catalog", c)) for c in catalogs]
        emitted: list[tuple[str, int]] = []  # (control id, indent) of each own block emitted
        original = serialize.emit_control

        def recording_emit(control: Control, indent: int, memo: dict | None = None) -> str:
            emitted.append((control.id, indent))
            return original(control, indent, memo)

        monkeypatch.setattr(serialize, "emit_control", recording_emit)
        memo: dict = {}
        assert [serialize_document(DocumentEnvelope("catalog", c), memo=memo)
                for c in catalogs] == expected
        assert emitted == [("c-1", 4), ("c-2", 8), ("c-3", 8),  # the second catalog adds none
                           ("top", 4), ("c-1", 8), ("c-2", 12),
                           ("c-1", 4), ("c-2", 4), ("c-3", 8)]
        assert serialize_document(DocumentEnvelope("catalog", catalogs[0]), "json", memo=memo) \
            == serialize_document(DocumentEnvelope("catalog", catalogs[0]), "json")


# Scalars that exercise each branch of the scalar rule: plain, quoted for
# ``": "``, ``" #"``, a trailing colon, a word YAML reads as another type, a
# leading indicator, a control or separator character or outer spaces, and
# long prose that folds or, with a double space or a control character,
# cannot.
_TRICKY_SCALARS = [
    "plain words", "a: b", "a #b", "trailing:", "yes", "No", "null", "~", "y", "-dash",
    "?q", "[x", "{y", "#c", "&a", "*b", "!t", "|l", ">f", "'s", '"d', "%p", "@a", "`b",
    ",c", " lead", "trail ", "tab\there", "line\nbreak", "bell\x07", "nel\x85", "ls\u2028x",
    "bom\ufeffx", "back\\slash", 'quote"mark', "ünïcode wörds", "1.5", "0x1f", "2024-01-01",
]
_LONG_WORDS = st.lists(st.sampled_from(["folded", "words", "of", "prose", "a", "x:", "#tag", "ünï",
                                        "averyveryverylongword" * 3]), min_size=14, max_size=40)
tricky_scalars = st.one_of(
    st.sampled_from(_TRICKY_SCALARS),
    strategies.prose_text,
    _LONG_WORDS.map(" ".join),
    _LONG_WORDS.map("  ".join),
    st.tuples(_LONG_WORDS, st.sampled_from(["\t", "\x07", "\u2028", " ", "\n"])).map(
        lambda drawn: " ".join(drawn[0]) + drawn[1]),
)


@st.composite
def tricky_controls(draw) -> Control:
    names = draw(st.lists(st.sampled_from(["statement", "guidance", "note", "yes", "a-b"]),
                          unique=True, max_size=3))
    parts = tuple(Part(name, draw(tricky_scalars), draw(st.none() | tricky_scalars))
                  for name in names)
    children = (Control("child"),) if draw(st.booleans()) else ()
    return Control(draw(st.sampled_from(["c-1", "yes", "x.y", "true"])),
                   draw(st.none() | tricky_scalars), parts, children)


class TestOwnBlocks:
    @given(tricky_controls(), st.integers(4, 16), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_an_own_block_is_the_reference_emitters(self, control, indent, with_memo):
        memo: dict | None = {} if with_memo else None
        expected = oracles.reference_emit_control(control, indent)
        assert serialize.emit_control(control, indent, memo) == expected
        assert serialize.emit_control(control, indent, memo) == expected

    @given(st.lists(tricky_controls(), min_size=1, max_size=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_memo_over_controls_at_several_indents_gives_the_bytes_of_none(self, controls,
                                                                             data):
        memo: dict = {}
        for control in controls + controls:
            indent = data.draw(st.sampled_from([4, 8, 12, 16]))
            assert serialize.emit_control(control, indent, memo) \
                == serialize.emit_control(control, indent)

    def test_long_prose_shared_at_two_indents_keeps_each_indents_fold(self):
        """Fold widths differ by indent, so a memo keyed by the prose alone gives wrong bytes."""
        prose = " ".join(["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"] * 4)
        part = Part("statement", prose)
        top = Catalog(Metadata("T", "1"), (Control("c-1", parts=(part,)),))
        nested = Catalog(Metadata("T", "1"), (Control("top", children=(
            Control("c-2", parts=(Part("statement", prose),)),)),))
        texts = [serialize_document(DocumentEnvelope("catalog", c)) for c in (top, nested)]
        folds = [[line.strip() for line in text.decode().split("prose: >-\n")[1].splitlines()]
                 for text in texts]
        assert folds[0] != folds[1]  # the two widths wrap differently
        for order in ([top, nested], [nested, top]):
            memo: dict = {}
            assert [serialize_document(DocumentEnvelope("catalog", c), memo=memo)
                    for c in order] == [texts[0] if c is top else texts[1] for c in order]

    @given(st.lists(strategies.catalogs(), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_one_memo_over_catalogs_at_two_depths_gives_the_bytes_of_none(self, catalogs):
        """Each catalog with long prose, then the same controls one level deeper."""
        memo: dict = {}
        for catalog in map(strategies.with_long_prose, catalogs):
            for shifted in (catalog, Catalog(catalog.metadata,
                                             (Control("top", children=catalog.controls),))):
                envelope = DocumentEnvelope("catalog", shifted)
                assert serialize_document(envelope, memo=memo) == serialize_document(envelope)


class TestCatalogBlocks:
    @given(strategies.catalogs(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_header_and_blocks_are_the_yaml_cut_before_each_control(self, catalog, long_prose):
        if long_prose:
            catalog = strategies.with_long_prose(catalog)
        envelope = DocumentEnvelope("catalog", catalog)
        header, blocks = serialize.catalog_blocks(catalog)
        data = serialize_document(envelope)
        assert (header + "".join(blocks)).encode("utf-8") == data
        assert oracles.emit_yaml(serialize.document_plain(envelope)).encode("utf-8") == data
        assert len(blocks) == len(list(iter_controls(catalog.controls)))
        split_header, pieces = strategies.split_controls(data)
        if len(pieces) == len(blocks):  # no folded line reads ``- id:``
            assert header.encode("utf-8") == split_header
            assert [block.encode("utf-8") for block in blocks] == [piece for _, piece in pieces]
        memo: dict = {}
        assert serialize_document(envelope, memo=memo) == data
        assert serialize.catalog_blocks(catalog, memo) == (header, blocks)

    def test_a_childless_controls_block_is_its_emitted_yaml(self):
        control = Control("c-1", "Zk", (Part("statement", "words " * 20 + "end"),))
        block = serialize.emit_control(control, 8)
        assert block.startswith("        - id: c-1\n          class: Zk\n          parts:\n")
        parent = Catalog(Metadata("T", "1"), (Control("top", children=(control,)),))
        assert serialize.catalog_blocks(parent)[1] == ["    - id: top\n      children:\n", block]


class TestSchemaErrors:
    @pytest.mark.parametrize("metadata, message", [
        pytest.param("{bogus: x}", "unknown key 'bogus'", id="unknown-before-missing"),
        pytest.param("{version: b, zz: x, aa: y}", "unknown key 'zz'", id="first-unknown-in-order"),
        pytest.param("{}", "missing required key 'title'", id="missing-in-sorted-order"),
        pytest.param("{title: a}", "missing required key 'version'", id="one-missing"),
    ])
    def test_key_error_precedence(self, metadata, message):
        text = f"catalog:\n  metadata: {metadata}\n".encode()
        with pytest.raises(SchemaError) as excinfo:
            parse_document(text)
        assert str(excinfo.value) == f"catalog/metadata: {message}"

    @pytest.mark.parametrize("text, path", [
        pytest.param("catalog:\n  metadata: {title: a, version: b}\n  controls:\n"
                     "    - id: c1\n      parts:\n        - {name: s, prose: p}\n"
                     "        - {name: t, prose: [p]}\n",
                     "catalog/controls/0/parts/1/prose", id="prose"),
        pytest.param("catalog:\n  metadata: {title: a, version: b}\n  controls:\n"
                     "    - id: c1\n      children:\n        - id: c2\n"
                     "          parts:\n            - {name: {n: 1}, prose: p}\n",
                     "catalog/controls/0/children/0/parts/0/name", id="name"),
        pytest.param("catalog:\n  metadata: {title: a, version: b}\n  controls:\n"
                     "    - {id: c1, class: [x]}\n",
                     "catalog/controls/0/class", id="control-class"),
        pytest.param("catalog:\n  metadata: {title: a, version: b}\n  controls:\n"
                     "    - {id: [c1]}\n",
                     "catalog/controls/0/id", id="id"),
        pytest.param("catalog:\n  metadata: {title: [a], version: b}\n",
                     "catalog/metadata/title", id="title"),
        pytest.param("catalog:\n  metadata: {title: a, version: 1.0}\n",
                     "catalog/metadata/version", id="version"),
        pytest.param("catalog:\n  metadata: {title: a, version: b}\n  controls: {}\n",
                     "catalog/controls", id="controls-list"),
        pytest.param("profile:\n  metadata: {title: a, version: b}\n"
                     "  imports:\n    - {source: s.yaml, include: [a, [b]]}\n",
                     "profile/imports/0/include/1", id="include-item"),
        pytest.param("profile:\n  metadata: {title: a, version: b}\n"
                     "  imports:\n    - {source: s.yaml}\n  alterations:\n"
                     "    - control-id: c1\n      adds:\n        - parts:\n"
                     "            - {name: n, prose: p, class: {}}\n",
                     "profile/alterations/0/adds/0/parts/0/class", id="added-part-class"),
    ])
    def test_leaf_paths(self, text, path):
        with pytest.raises(SchemaError) as excinfo:
            parse_document(text.encode())
        assert excinfo.value.path == path
        assert str(excinfo.value).startswith(f"{path}: expected a ")

    @given(strategies.mangled_trees())
    @settings(max_examples=400, deadline=None)
    def test_the_builder_agrees_with_the_reference_builder(self, mangled):
        """The same model, or a ``SchemaError`` with the same message and path."""
        kind, tree = mangled
        build = serialize._build_catalog if kind == "catalog" else serialize._build_profile
        outcomes = []
        for builder in (lambda: build(tree, kind, "doc.yaml"),
                        lambda: oracles.reference_build(tree, kind, "doc.yaml")):
            try:
                model = builder()
            except Exception as error:  # noqa: BLE001 -- the kind of failure is compared too
                outcomes.append((type(error), str(error), getattr(error, "path", None)))
            else:
                outcomes.append((model, repr(model)))
        assert outcomes[0] == outcomes[1]


# Words, separators and characters that decide between a fold, a plain and a quoted scalar.
_SCALAR_PIECES = ["word", "a", "Title", "x" * 30, " ", " ", " ", "  ", "\u2028", "\ufffe",
                  "\xa0", "nb\xa0sp", ": ", " #", "\t", "\n", "é", "-", "yes", '"']

# Words of up to 70 characters, so some outgrow the narrowest wrap width of 20.
_WORDS = st.text(alphabet="abcZé\xa0-", min_size=1, max_size=70)


class TestEmitterOracle:
    """The emitter writes what the word-by-word reference in ``oracles`` writes."""

    @given(value=st.one_of(st.lists(st.sampled_from(_SCALAR_PIECES), max_size=80).map("".join),
                           st.lists(_WORDS, min_size=2, max_size=30).map(" ".join),
                           st.text(max_size=200)),
           anchor=st.sampled_from(["-", "prose:"]),
           indent=st.sampled_from([0, 2, 4, 10, 12, 56, 58, 60, 70]))
    @settings(max_examples=500, deadline=None)
    def test_scalars(self, value, anchor, indent):
        lines: list[str] = []
        serialize._emit_scalar(" " * indent + anchor, value, indent, lines)
        expected: list[str] = []
        oracles.emit_scalar(anchor, value, indent, expected)
        assert "\n".join(lines) == "\n".join(expected)

    @pytest.mark.parametrize("value, folds", [
        ("one two " * 11, False),
        (" one two" * 11, False),
        ("one  two " * 11 + "x", False),
        ("one\u2028two " * 11 + "x", False),
        ("one\xa0two " * 11 + "x", True),
        ("x" * 90 + " y", True),
    ])
    def test_fold_safety(self, value, folds):
        assert oracles.fold_safe(value) == folds
        lines: list[str] = []
        serialize._emit_scalar("prose:", value, 0, lines)
        assert "\n".join(lines).startswith("prose: >-\n") == folds

    @given(strategies.documents())
    @settings(max_examples=200, deadline=None)
    def test_documents(self, envelope: DocumentEnvelope):
        plain = serialize.document_plain(envelope)
        assert serialize._emit_yaml(plain) == oracles.emit_yaml(plain)


class TestRoundTrip:
    @given(strategies.documents())
    @settings(max_examples=150, deadline=None)
    def test_yaml_round_trip(self, envelope: DocumentEnvelope):
        data = serialize_document(envelope, "yaml")
        assert parse_document(data, "yaml") == envelope

    @given(strategies.documents())
    @settings(max_examples=150, deadline=None)
    def test_json_round_trip(self, envelope: DocumentEnvelope):
        data = serialize_document(envelope, "json")
        assert parse_document(data, "json") == envelope

    @given(strategies.documents())
    @settings(max_examples=100, deadline=None)
    def test_cross_format_equivalence(self, envelope: DocumentEnvelope):
        from_yaml = parse_document(serialize_document(envelope, "yaml"))
        from_json = parse_document(serialize_document(envelope, "json"))
        assert from_yaml == from_json

    @given(strategies.documents())
    @settings(max_examples=100, deadline=None)
    def test_canonical_idempotence(self, envelope: DocumentEnvelope):
        first = serialize_document(envelope, "yaml")
        second = serialize_document(parse_document(first), "yaml")
        assert first == second

    @pytest.mark.parametrize("char", ["\ufffe", "\uffff"])
    def test_noncharacters_are_escaped(self, char):
        prose = " ".join(["Long", f"pro{char}se"] + ["that folds across lines"] * 6)
        catalog = Catalog(
            metadata=Metadata(title=f"Title{char}", version="1"),
            controls=(Control("c1", parts=(Part("statement", prose),)),),
        )
        envelope = DocumentEnvelope("catalog", catalog)
        data = serialize_document(envelope, "yaml")
        assert parse_document(data, "yaml") == envelope
        assert char.encode("utf-8") not in data

    @given(strategies.catalogs())
    @settings(max_examples=100, deadline=None)
    def test_order_preservation(self, catalog):
        envelope = DocumentEnvelope("catalog", catalog)
        reparsed = parse_document(serialize_document(envelope, "yaml")).body
        assert [c.id for c in reparsed.controls] == [c.id for c in catalog.controls]
        for original, parsed in zip(catalog.controls, reparsed.controls):
            assert [p.name for p in parsed.parts] == [p.name for p in original.parts]


class _PurePythonLoader(yaml.SafeLoader):
    """The strict loader rebuilt on PyYAML's pure-Python parser."""


_PurePythonLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, serialize._construct_mapping
)


def _raw(loader, text: str):
    try:
        return yaml.load(text, Loader=loader)
    except yaml.YAMLError:
        return yaml.YAMLError  # both loaders must reject the same texts


def _outcome(loader, data: bytes):
    """What ``parse_document`` makes of ``data`` with ``loader`` as the strict loader."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_StrictLoader", loader)
        try:
            return parse_document(data)
        except DocumentSyntaxError as exc:  # wording follows the parser, marks do not
            return DocumentSyntaxError, exc.line, exc.column
        except SchemaError as exc:
            return SchemaError, str(exc)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
class TestLoaderEquivalence:
    """libyaml and the pure-Python parser agree on every document."""

    def test_strict_loader_uses_libyaml(self):
        assert issubclass(serialize._StrictLoader, yaml.CSafeLoader)

    @given(strategies.documents())
    @settings(max_examples=150, deadline=None)
    def test_serialized_documents_load_identically(self, envelope: DocumentEnvelope):
        data = serialize_document(envelope, "yaml")
        text = data.decode("utf-8")
        assert _raw(_PurePythonLoader, text) == _raw(serialize._StrictLoader, text)
        assert _outcome(_PurePythonLoader, data) == _outcome(serialize._StrictLoader, data)

    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_quoted_scalars_load_identically(self, value: str):
        text = f"key: {serialize._quote(value)}\n"
        assert _raw(_PurePythonLoader, text) == _raw(serialize._StrictLoader, text)

    @pytest.mark.parametrize("data", [
        pytest.param(b"catalog:\n  metadata:\n    title: a\n    title: b\n", id="duplicate-key"),
        pytest.param(b"catalog:\n  metadata:\n    1: a\n", id="integer-key"),
        pytest.param(b"catalog:\n  metadata:\n    ? [a]\n    : b\n", id="sequence-key"),
    ])
    def test_key_errors_match(self, data):
        pure = _outcome(_PurePythonLoader, data)
        assert pure[0] is SchemaError and "(line " in pure[1]
        assert _outcome(serialize._StrictLoader, data) == pure

    @pytest.mark.parametrize("data", [
        pytest.param(b"catalog:\n  metadata:\n    title: a\n   version: b\n",
                     id="bad-indentation"),
        pytest.param(b"catalog:\n\tmetadata: {}\n", id="leading-tab"),
        pytest.param(b"catalog:\n  metadata:\n    title: a\n    version\xc2\x85: b\n",
                     id="next-line"),
    ])
    def test_syntax_error_marks_match(self, data):
        pure = _outcome(_PurePythonLoader, data)
        assert pure[0] is DocumentSyntaxError and pure[1] is not None
        assert _outcome(serialize._StrictLoader, data) == pure


def _load_outcome(text: str, reader: bool = True):
    """``_load_yaml``'s value, or the error it raises.

    The value is compared as its repr, so types and key order count.
    Without ``reader`` this is ``yaml.load(text, Loader=_StrictLoader)``
    mapped to the package's errors.
    """
    with pytest.MonkeyPatch.context() as patch:
        if not reader:
            patch.setattr(serialize, "_read_block", lambda text: serialize._DECLINED)
        try:
            return repr(serialize._load_yaml(text))
        except DocumentSyntaxError as exc:
            return DocumentSyntaxError, str(exc), exc.line, exc.column
        except SchemaError as exc:
            return SchemaError, str(exc)


# Each choice below is between forms inside the block reader's subset and
# forms outside it: other scalars, keys and styles, near misses of the
# subset, or text YAML reads otherwise. A text draws one mix for all its
# choices (``_Mix``), so some texts lie wholly inside the subset.
_SCALARS = (["a", "b c", "x-y", "title", '"a"', '"yes"', '"\\u00e9 b"', '"a\\nb"', "[]", "a:b",
             "a#b", "a,b]", "...", '"a\\/b"', '"\\"\\\\"', '""'],
            ["'1'", "''", "'it''s'", "off", "", "~", "1", "yes", "<<", "=", "null", "-2.5",
             "a #b", "-a", "?a", ":a", "a:", "a: b", '"a" b', '"\\ud83d\\ude00"', '"\\x41"',
             '"\\e"', '"\\U0001F600"', '"\\udc00"', '"a', "[a]", "{}", "&k a", "&k 1",
             "!!str 1", "! b", "!!int 1", "!!float 2", "!!null ''", "!x a", "*k"])
_KEYS = (["a", "b", "c", "d-e", "title", "k" * 200],
         ['"d"', "'e'", '""', "1", "yes", "~", "<<", "=", "[a]", "{a: b}", "&k a", "*k",
          "!!str 1", "! b", "a #b", "-k", "k" * 300, "k" * 1100])
# Lines of a block scalar's body; None is a blank line, " " a line of spaces.
_BLOCK_LINES = (["word", "two words", "a: b", "# kept", "- item"],
                ["  indented", "trailing ", None, " "])
_STEPS = ([2], [0, 1, 3, 4])  # columns from a key or dash to its nested block or body
_VALUE_KINDS = (["inline", "inline", "folded"],
                ["flow", "literal", "plain-lines", "folded-other"])
_COLLECTION_PREFIXES = ([""], [" &k", " !", " !x"])
_MUTATIONS = ([None], ["crlf", "no final newline", "bom", "char"])
# Characters the block reader leaves to the strict loader, inserted anywhere.
_FOREIGN_CHARS = ["\t", "\r", "\x07", "\x7f", "\x85", "\u2028", "\u2029", "\ufeff", "\ufffe",
                  "\ud800", "\xa0"]


class _Mix:
    """The choices of one text.

    With ``inside_weight`` 0 it draws only forms inside the subset; otherwise
    each inside form is ``inside_weight`` times as likely as each outside one.
    """

    def __init__(self, draw) -> None:
        self.draw = draw
        self.inside_weight = draw(st.sampled_from([0, 1, 8, 40]))

    def __call__(self, choices: tuple[list, list]):
        inside, outside = choices
        if not self.inside_weight:
            return self.draw(st.sampled_from(inside))
        return self.draw(st.sampled_from(inside * self.inside_weight + outside))


def _flow_node(mix: _Mix, depth: int) -> str:
    kind = mix.draw(st.integers(0, 2 if depth else 0))
    if kind == 0:
        return mix(_SCALARS)
    items = [_flow_node(mix, depth - 1) for _ in range(mix.draw(st.integers(0, 3)))]
    if kind == 1:
        return "[" + ", ".join(items) + "]"
    return "{" + ", ".join(f"{mix(_KEYS)}: {item}" for item in items) + "}"


def _block_value(mix: _Mix, indent: int, depth: int, item: bool = False) -> str:
    """What follows ``key:``, or ``-`` if ``item``, at ``indent``, up to the end of the node."""
    inside, outside = _VALUE_KINDS
    if depth:  # a nested block: after a dash, the subset has only the compact ``- key:``
        nested = ["mapping", "sequence"] * 2
        inside, outside = (inside, outside + nested) if item else (inside + nested, outside)
    kind = mix((inside, outside))
    if kind == "inline":
        return " " + mix(_SCALARS) + "\n"
    if kind == "flow":
        return " " + _flow_node(mix, 2) + "\n"
    inner = " " * (indent + mix(_STEPS))
    if kind == "plain-lines":
        lines = mix.draw(st.lists(st.sampled_from(["a", "b c", "d: e"]), min_size=1, max_size=2))
        return " word\n" + "".join(inner + line + "\n" for line in lines)
    if kind in ("folded", "folded-other", "literal"):
        header = "-" if kind == "folded" else mix.draw(st.sampled_from(["-", "", "+"]))
        lines = [mix(_BLOCK_LINES) for _ in range(mix.draw(st.integers(1, 3)))]
        indicator = "|" if kind == "literal" else ">"
        return f" {indicator}{header}\n" + "".join("\n" if line is None else inner + line + "\n"
                                                   for line in lines)
    prefix = mix(_COLLECTION_PREFIXES)
    if kind == "mapping":
        return prefix + "\n" + _block_mapping(mix, len(inner), depth - 1)
    return prefix + "\n" + _block_sequence(mix, len(inner), depth - 1)


def _block_mapping(mix: _Mix, indent: int, depth: int) -> str:
    keys = mix.draw(st.lists(st.sampled_from(_KEYS[0]), min_size=1, max_size=4, unique=True))
    keys = [mix(([key], _KEYS[1] + keys[:1])) for key in keys]  # outside: other keys, a repeat
    return "".join(" " * indent + key + ":" + _block_value(mix, indent, depth) for key in keys)


def _block_sequence(mix: _Mix, indent: int, depth: int) -> str:
    items = []
    for _ in range(mix.draw(st.integers(1, 3))):
        if depth and mix.draw(st.booleans()):  # a compact ``- key:`` item
            mapping = _block_mapping(mix, indent + 2, depth - 1)
            items.append(" " * indent + "- " + mapping[indent + 2:])
        else:
            items.append(" " * indent + "-" + _block_value(mix, indent, depth, item=True))
    return "".join(items)


@st.composite
def yaml_texts(draw) -> str:
    """Small YAML streams, valid or not, inside and outside the block reader's subset."""
    mix = _Mix(draw)
    documents = []
    for _ in range(mix(([1], [1] * 8 + [0, 2]))):
        kind = mix((["mapping", "mapping", "sequence"], ["flow", "scalar"]))
        if kind == "mapping":
            documents.append(_block_mapping(mix, 0, 2))
        elif kind == "sequence":
            documents.append(_block_sequence(mix, 0, 2))
        elif kind == "flow":
            documents.append(_flow_node(mix, 2) + "\n")
        else:
            documents.append(mix(_SCALARS) + "\n")
    if not documents:
        return draw(st.sampled_from(["", "# only a comment\n", "---\n", "...\n"]))
    if len(documents) == 1 and mix(([True], [False])):
        text = documents[0]
    else:
        text = "".join("---\n" + document for document in documents)
    mutation = mix(_MUTATIONS)
    if mutation == "crlf":
        return text.replace("\n", "\r\n")
    if mutation == "no final newline":
        return text[:-1]
    if mutation == "bom":
        return "\ufeff" + text
    if mutation == "char":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(_FOREIGN_CHARS)) + text[at:]
    return text


_LOADERS = [pytest.param(serialize._StrictLoader, id="strict"),
            pytest.param(_PurePythonLoader, id="pure-python")]


class TestEventPath:
    """``_load_yaml``'s block reader builds what the strict loader builds, or declines.

    The reader asks the loader class's resolver, and a decline goes to that
    loader, so each property runs with libyaml's loader and its pure-Python
    twin.
    """

    @pytest.mark.parametrize("loader", _LOADERS)
    @given(envelope=strategies.documents())
    @settings(max_examples=150, deadline=None)
    def test_serialized_documents_never_decline(self, loader, envelope: DocumentEnvelope):
        text = serialize_document(envelope, "yaml").decode("utf-8")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "_StrictLoader", loader)
            tree = serialize._read_block(text)
            assert tree is not serialize._DECLINED
            assert repr(tree) == repr(yaml.load(text, Loader=loader))

    @pytest.mark.parametrize("loader", _LOADERS)
    @given(text=yaml_texts())
    @settings(max_examples=400, deadline=None)
    def test_any_text_loads_like_the_strict_loader(self, loader, text: str):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "_StrictLoader", loader)
            assert _load_outcome(text) == _load_outcome(text, reader=False)

    @pytest.mark.parametrize("text, declines", [
        ("a: b\nc: [d, 'e', \"f\"]\n", True),
        ("a: b\nj: |\n  k\n", True),
        ("title: name\nnot: off-by-one\n", False),
        ("a: ''\n", True),
        ("plain", True),
        ("a:\n", True),
        ("a: ~\n", True),
        ("a: 1\n", True),
        ("a: yes\n", True),
        ("<<: a\n", True),
        ("a: =\n", True),
        ("a: !!str 1\n", True),
        ("a: ! b\n", True),
        ("a: &x b\nc: *x\n", True),
        ("a: b\na: c\n", True),
        ("[a]: b\n", True),
        ("1: b\n", True),
        ("", True),
        ("a: b\n---\nc: d\n", True),
        ("a: [b\n", True),
        # the canonical emitter's grammar
        ("a:\n  - b: c\n    d: >-\n      e\n      f\n  - g\n  - >-\n    h\n    i\nj: []\n", False),
        ("a:\n  b:\n    - \"c\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\"\n", False),
        ("a: b,c] d#e f:g\n...: h\n", False),
        # folded bodies at another indent, or with a line YAML reads otherwise
        ("a: >-\n b\n", True),
        ("a: >-\n   b\n", True),
        ("a: >-\n    b\n", True),
        ("a:\n  - >-\n     b\n", True),
        ("a: >-\n  b\n\n  c\n", True),
        ("a: >-\n  b \n  c\n", True),
        ("a: >-\n  b\n    c\n", True),
        ("a: >-\nb: c\n", True),
        # other indents, lines and keys
        ("a: b\n  c\n", True),
        ("a:\n- b\n", True),
        ("a:\n   b: c\n", True),
        ("a: b\n\nc: d\n", True),
        ("a: b\n# c\n", True),
        ("a: b # c\n", True),
        ("a: b: c\n", True),
        ("- a: b: c\n", True),
        ("a : b\n", True),
        ("a: b \n", True),
        (" a: b\n", True),
        pytest.param("k" * 300 + ": b\n", True, id="key-of-300-characters"),
        # quoted scalars that do not end the line, escapes outside JSON's, surrogate escapes
        ('a: "b" c\n', True),
        ('a: "b"c"\n', True),
        ('a: "b\n', True),
        ('- "\n', True),
        ('a: "\\ud83d\\ude00"\n', True),
        ('a: "\\x41"\n', True),
        ('a: "\\e"\n', True),
        ('a: "\\U0001F600"\n', True),
        # characters and line ends
        ("a: b\x85c\n", True),
        ("a: b\u2028c\n", True),
        ("\ufeffa: b\n", True),
        ("a: b\tc\n", True),
        ("a: b\r\n", True),
        ("a: b", True),
    ])
    def test_what_declines(self, text, declines):
        assert (serialize._read_block(text) is serialize._DECLINED) == declines
        assert _load_outcome(text) == _load_outcome(text, reader=False)

    def test_the_fixture_store_its_outputs_and_changed_blocks_never_decline(self, tmp_path,
                                                                           monkeypatch):
        """The shipped store, its propagated outputs and the blocks ``_delta`` parses are read."""
        store = write_fixture_store(tmp_path / "store")
        propagate(SourceStore(store), "csf-id-am.yaml")
        parse, changed_blocks = changes.parse_document, []

        def recording(text, *args):
            if isinstance(text, str):  # ``_delta`` parses the changed blocks as one text
                changed_blocks.append(text)
            return parse(text, *args)

        monkeypatch.setattr(changes, "parse_document", recording)
        catalog = store / "csf-id-am.yaml"
        catalog.write_bytes(catalog.read_bytes().replace(b"Physical devices and systems",
                                                         b"Physical devices, systems"))
        propagate(SourceStore(store), "csf-id-am.yaml")
        texts = [path.read_text("utf-8") for path in [*store.glob("*.yaml"),
                                                      *store.glob("resolved/*.yaml")]]
        assert len(texts) == 5 and changed_blocks
        declined = [text for text in texts + changed_blocks
                    if serialize._read_block(text) is serialize._DECLINED]
        assert declined == []

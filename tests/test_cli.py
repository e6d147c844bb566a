from __future__ import annotations

import gc
import io
import json
import sys
import weakref
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR
from layered_guidance import resolver
from layered_guidance.cli import main
from layered_guidance.model import find_control
from layered_guidance.serialize import parse_document, serialize_document

DIFF_GOLDEN = """\
~ metadata title
id.am-3:
  - part ot-specific
  + part am-specific
"""


def _resolve_both(store: Path, tmp_path: Path) -> tuple[Path, Path]:
    ot_out = tmp_path / "ot.yaml"
    am_out = tmp_path / "am.yaml"
    assert main(["resolve", "ot-profile.yaml", "--store", str(store), "-o", str(ot_out)]) == 0
    assert main(["resolve", "am-profile.yaml", "--store", str(store), "-o", str(am_out)]) == 0
    return ot_out, am_out


class TestResolveCommand:
    def test_resolve_am_profile(self, tmp_path):
        out = tmp_path / "out.yaml"
        code = main(["resolve", "am-profile.yaml", "--store", str(FIXTURES_DIR), "-o", str(out)])
        assert code == 0
        catalog = parse_document(out.read_bytes()).body
        control = find_control(catalog, "id.am-3")
        assert [p.name for p in control.parts] == ["statement", "guidance", "am-specific"]

    def test_resolve_to_stdout_is_deterministic(self, tmp_path):
        first = tmp_path / "a.yaml"
        second = tmp_path / "b.yaml"
        assert main(["resolve", "am-profile.yaml", "--store", str(FIXTURES_DIR), "-o", str(first)]) == 0
        assert main(["resolve", "am-profile.yaml", "--store", str(FIXTURES_DIR), "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_json_output_parses(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(["resolve", "am-profile.yaml", "--store", str(FIXTURES_DIR),
                     "--format", "json", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["catalog"]

    def test_store_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GUIDANCE_STORE", str(FIXTURES_DIR))
        out = tmp_path / "out.yaml"
        assert main(["resolve", "am-profile.yaml", "-o", str(out)]) == 0

    def test_resolve_then_validate_own_output(self, tmp_path):
        out = tmp_path / "out.yaml"
        assert main(["resolve", "am-profile.yaml", "--store", str(FIXTURES_DIR), "-o", str(out)]) == 0
        assert main(["validate", str(out)]) == 0

    def test_missing_store_is_usage_error(self, monkeypatch):
        monkeypatch.delenv("GUIDANCE_STORE", raising=False)
        assert main(["resolve", "am-profile.yaml"]) == 4

    def test_missing_profile_uri_is_io_error(self, capsys):
        assert main(["resolve", "ghost.yaml", "--store", str(FIXTURES_DIR)]) == 3
        assert "ghost.yaml" in capsys.readouterr().err


class TestValidateCommand:
    def test_valid_catalog(self, capsys):
        code = main(["validate", str(FIXTURES_DIR / "csf-id-am.yaml")])
        assert code == 0
        assert "0 errors" in capsys.readouterr().out

    def test_profile_with_store(self, capsys):
        code = main(["validate", str(FIXTURES_DIR / "am-profile.yaml"),
                     "--store", str(FIXTURES_DIR)])
        assert code == 0
        assert "0 errors" in capsys.readouterr().out

    def test_invalid_catalog_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(
            b"catalog:\n  metadata:\n    title: a\n    version: b\n"
            b"  controls:\n    - id: c1\n    - id: c1\n"
        )
        assert main(["validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "duplicate control id" in captured.err

    def test_malformed_yaml_exits_3_with_location(self, tmp_path, capsys):
        bad = tmp_path / "broken.yaml"
        bad.write_bytes(b"catalog:\n  metadata: [unclosed\n")
        assert main(["validate", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_shared_base_is_parsed_once(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "base.yaml").write_bytes(
            b"catalog:\n  metadata:\n    title: Base\n    version: \"1\"\n"
            b"  controls:\n    - id: c1\n"
        )
        for name in ("a", "b"):
            (tmp_path / f"{name}.yaml").write_bytes(
                b"profile:\n  metadata:\n    title: P\n    version: \"1\"\n"
                b"  imports:\n    - source: base.yaml\n"
            )
        store_parses = []

        def counting_parse(data, *args):
            store_parses.append(data)
            return parse_document(data, *args)

        monkeypatch.setattr(resolver, "parse_document", counting_parse)
        assert main(["validate", str(tmp_path / "a.yaml"), str(tmp_path / "b.yaml"),
                     "--store", str(tmp_path)]) == 0
        assert "0 errors" in capsys.readouterr().out
        assert len(store_parses) == 1

    def test_shared_middle_profile_resolves_once(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "base.yaml").write_bytes(
            b"catalog:\n  metadata:\n    title: Base\n    version: \"1\"\n"
            b"  controls:\n    - id: c1\n"
        )
        (tmp_path / "mid.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: Mid\n    version: \"1\"\n"
            b"  imports:\n    - source: base.yaml\n"
        )
        for name in ("a", "b"):
            (tmp_path / f"{name}.yaml").write_bytes(
                b"profile:\n  metadata:\n    title: P\n    version: \"1\"\n"
                b"  imports:\n    - source: mid.yaml\n"
            )
        resolved_uris = []
        original = resolver.resolve

        def counting_resolve(sources, profile, **kwargs):
            resolved_uris.append(profile.uri)
            return original(sources, profile, **kwargs)

        monkeypatch.setattr(resolver, "resolve", counting_resolve)
        assert main(["validate", str(tmp_path / "a.yaml"), str(tmp_path / "b.yaml"),
                     "--store", str(tmp_path)]) == 0
        assert "0 errors" in capsys.readouterr().out
        assert resolved_uris == ["mid.yaml"]

    @pytest.mark.parametrize("with_store", [False, True])
    def test_profile_warnings_are_reported(self, tmp_path, capsys, with_store):
        (tmp_path / "base.yaml").write_bytes(
            b"catalog:\n  metadata:\n    title: Base\n    version: \"1\"\n"
        )
        profile = tmp_path / "p.yaml"
        profile.write_bytes(
            b"profile:\n  metadata:\n    title: ''\n    version: \"1\"\n"
            b"  imports:\n    - source: base.yaml\n"
        )
        args = ["validate", str(profile)] + (["--store", str(tmp_path)] if with_store else [])
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: {profile}: metadata/title: title is empty\n"
        assert captured.out == "0 errors\n"


    def test_upstream_failure_is_reported_and_validation_goes_on(self, tmp_path, capsys):
        for name, source in (("cyc-a", "cyc-b.yaml"), ("cyc-b", "cyc-a.yaml")):
            (tmp_path / f"{name}.yaml").write_bytes(
                b"profile:\n  metadata:\n    title: C\n    version: \"1\"\n"
                b"  imports:\n    - source: " + source.encode() + b"\n"
            )
        (tmp_path / "base.yaml").write_bytes(
            b"catalog:\n  metadata:\n    title: Base\n    version: \"1\"\n"
        )
        empty = tmp_path / "empty.yaml"
        empty.write_bytes(
            b"profile:\n  metadata:\n    title: ''\n    version: \"1\"\n"
            b"  imports:\n    - source: base.yaml\n"
        )
        cyclic = tmp_path / "cyc-a.yaml"
        assert main(["validate", str(cyclic), str(empty), "--store", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {cyclic}: imports/0: import cycle: cyc-b.yaml -> cyc-a.yaml -> cyc-b.yaml\n"
            f"warning: {empty}: metadata/title: title is empty\n"
        )
        assert captured.out == "1 errors\n"


class TestDiffCommand:
    def test_text_report(self, fixture_store, tmp_path, capsys):
        ot_out, am_out = _resolve_both(fixture_store, tmp_path)
        assert main(["diff", str(ot_out), str(am_out)]) == 0
        assert capsys.readouterr().out == DIFF_GOLDEN

    def test_equal_catalogs(self, fixture_store, tmp_path, capsys):
        ot_out, _ = _resolve_both(fixture_store, tmp_path)
        assert main(["diff", str(ot_out), str(ot_out)]) == 0
        assert capsys.readouterr().out == "no differences\n"

    def test_json_report(self, fixture_store, tmp_path, capsys):
        ot_out, am_out = _resolve_both(fixture_store, tmp_path)
        assert main(["diff", str(ot_out), str(am_out), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        kinds = [(e["kind"], e.get("part-name")) for e in payload["entries"]]
        assert ("part-removed", "ot-specific") in kinds
        assert ("part-added", "am-specific") in kinds


class TestRenderCommand:
    def test_render_resolved_catalog(self, fixture_store, tmp_path):
        _, am_out = _resolve_both(fixture_store, tmp_path)
        rendered = tmp_path / "out.md"
        assert main(["render", str(am_out), "-o", str(rendered)]) == 0
        text = rendered.read_text()
        assert "### ID.AM-3" in text
        assert "Additive-specific Guidance" in text

    def test_render_with_provenance(self, fixture_store, tmp_path):
        _, am_out = _resolve_both(fixture_store, tmp_path)
        rendered = tmp_path / "out.md"
        assert main(["render", str(am_out), "--provenance", "-o", str(rendered)]) == 0
        assert "*Source:" in rendered.read_text()


class TestGraphCommand:
    def test_text_output(self, capsys):
        assert main(["graph", "--store", str(FIXTURES_DIR)]) == 0
        out = capsys.readouterr().out
        assert "ot-profile.yaml -> csf-id-am.yaml" in out
        assert "am-profile.yaml -> ot-profile.yaml" in out

    def test_json_output(self, capsys):
        assert main(["graph", "--store", str(FIXTURES_DIR), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["nodes"]) == [
            "am-profile.yaml", "csf-id-am.yaml", "ot-profile.yaml",
        ]

    def test_dangling_source_exits_1(self, tmp_path, capsys):
        (tmp_path / "p.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: a\n    version: b\n"
            b"  imports:\n    - source: missing.yaml\n"
        )
        assert main(["graph", "--store", str(tmp_path)]) == 1
        assert "missing.yaml" in capsys.readouterr().out


class TestStoreIdentity:
    DUPLICATE_TITLE = b"catalog:\n  metadata:\n    title: a\n    title: b\n    version: \"1\"\n"

    @pytest.mark.parametrize("spelling", ["./ot-profile.yaml", "sub/../ot-profile.yaml"])
    def test_graph_lists_a_respelled_import_as_an_edge(self, fixture_store, capsys, spelling):
        path = fixture_store / "am-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"source: ot-profile.yaml",
                                                   f"source: {spelling}".encode()))
        assert main(["graph", "--store", str(fixture_store)]) == 0
        assert "  am-profile.yaml -> ot-profile.yaml\n" in capsys.readouterr().out

    def test_resolve_cycle_witness_names_each_document_once(self, tmp_path, capsys):
        (tmp_path / "f.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: F\n    version: \"1\"\n"
            b"  imports:\n    - source: ./g.yaml\n")
        (tmp_path / "g.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: G\n    version: \"1\"\n"
            b"  imports:\n    - source: sub/../f.yaml\n")
        assert main(["resolve", "f.yaml", "--store", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "resolution error: import cycle: f.yaml -> g.yaml -> f.yaml\n")

    def test_graph_of_a_store_with_an_unreadable_document_exits_3(self, fixture_store, capsys):
        (fixture_store / "dup.yaml").write_bytes(self.DUPLICATE_TITLE)
        assert main(["graph", "--store", str(fixture_store)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dup.yaml: duplicate key 'title' (line 4, column 5)\n"

    def test_propagate_of_an_unreadable_document_exits_3(self, fixture_store, capsys):
        (fixture_store / "dup.yaml").write_bytes(self.DUPLICATE_TITLE)
        assert main(["propagate", "--store", str(fixture_store), "--changed", "dup.yaml"]) == 3
        assert capsys.readouterr().err == (
            "error: dup.yaml: duplicate key 'title' (line 4, column 5)\n")

    def test_propagate_past_an_unreadable_document_exits_0(self, fixture_store, capsys):
        (fixture_store / "dup.yaml").write_bytes(self.DUPLICATE_TITLE)
        code = main(["propagate", "--store", str(fixture_store), "--changed", "csf-id-am.yaml"])
        assert code == 0
        assert capsys.readouterr().out.count("re-resolved") == 2


class TestStoreLinks:
    """A link out of the store is not one of its documents."""

    @pytest.fixture
    def linked_store(self, fixture_store):
        outside = fixture_store.parent / "outside.yaml"
        outside.write_bytes((fixture_store / "csf-id-am.yaml").read_bytes())
        (fixture_store / "link.yaml").symlink_to("../outside.yaml")
        return fixture_store

    def test_graph_skips_the_link(self, linked_store, capsys):
        assert main(["graph", "--store", str(linked_store), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == ["am-profile.yaml", "csf-id-am.yaml", "ot-profile.yaml"]

    def test_propagate_skips_the_link(self, linked_store, capsys):
        assert main(["propagate", "--store", str(linked_store),
                     "--changed", "csf-id-am.yaml", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [item["profile-uri"] for item in payload] == ["ot-profile.yaml", "am-profile.yaml"]
        assert "link.yaml" not in json.dumps(payload)


class TestPropagateCommand:
    def test_edit_then_propagate(self, fixture_store, capsys):
        assert main(["propagate", "--store", str(fixture_store),
                     "--changed", "csf-id-am.yaml"]) == 0
        capsys.readouterr()

        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"understand the flow", b"map the movement"))
        assert main(["propagate", "--store", str(fixture_store),
                     "--changed", "ot-profile.yaml", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [item["profile-uri"] for item in payload] == [
            "ot-profile.yaml", "am-profile.yaml",
        ]
        am_changes = payload[1]["changes"]
        assert am_changes == [
            {"kind": "part-modified", "control-id": "id.am-3", "part-name": "guidance",
             "before-prose": am_changes[0]["before-prose"],
             "after-prose": am_changes[0]["after-prose"]},
        ]

    def test_unrelated_cycle_does_not_stop_propagation(self, fixture_store, capsys):
        for name, source in (("cyc-a", "cyc-b.yaml"), ("cyc-b", "cyc-a.yaml")):
            (fixture_store / f"{name}.yaml").write_bytes(
                b"profile:\n  metadata:\n    title: C\n    version: \"1\"\n"
                b"  imports:\n    - source: " + source.encode() + b"\n"
            )
        assert main(["propagate", "--store", str(fixture_store),
                     "--changed", "csf-id-am.yaml", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [(item["profile-uri"], item["initial"]) for item in payload] == [
            ("ot-profile.yaml", True), ("am-profile.yaml", True),
        ]

    def test_cycle_upstream_of_a_changed_document_exits_2(self, fixture_store, capsys):
        (fixture_store / "cyc-a.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: A\n    version: \"1\"\n"
            b"  imports:\n    - source: csf-id-am.yaml\n    - source: cyc-b.yaml\n"
        )
        (fixture_store / "cyc-b.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: B\n    version: \"1\"\n"
            b"  imports:\n    - source: cyc-a.yaml\n"
        )
        assert main(["propagate", "--store", str(fixture_store),
                     "--changed", "csf-id-am.yaml"]) == 2
        assert "import cycle: cyc-a.yaml -> cyc-b.yaml -> cyc-a.yaml" in capsys.readouterr().err

    @pytest.mark.parametrize("copy, fmt", [("a/ot-profile.yaml", "yaml"),
                                           ("ot-profile.json", "json")])
    def test_shared_output_path_fails_both_profiles(self, fixture_store, capsys, copy, fmt):
        original = parse_document((fixture_store / "ot-profile.yaml").read_bytes())
        (fixture_store / copy).parent.mkdir(exist_ok=True)
        (fixture_store / copy).write_bytes(serialize_document(original, fmt))
        assert main(["propagate", "--store", str(fixture_store),
                     "--changed", "csf-id-am.yaml"]) == 2
        assert sorted(capsys.readouterr().out.splitlines()) == sorted([
            f"failed {copy}: output resolved/ot-profile.yaml is also the output of ot-profile.yaml",
            f"failed ot-profile.yaml: output resolved/ot-profile.yaml is also the output of {copy}",
            "re-resolved am-profile.yaml -> resolved/am-profile.yaml (initial resolution)",
        ])
        assert sorted(p.name for p in (fixture_store / "resolved").iterdir()) == ["am-profile.yaml"]

    def test_no_dependents(self, tmp_path, capsys):
        (tmp_path / "solo.yaml").write_bytes(
            b"catalog:\n  metadata:\n    title: a\n    version: b\n"
        )
        assert main(["propagate", "--store", str(tmp_path), "--changed", "solo.yaml"]) == 0
        assert "nothing depends on solo.yaml" in capsys.readouterr().out


class TestOutputStreams:
    def test_redirected_stdout_is_not_retained(self, monkeypatch):
        graph = ["graph", "--store", str(FIXTURES_DIR), "--format", "json"]
        for args, check in ((graph, lambda out: json.loads(out)["nodes"]),
                            (["--help"], lambda out: out.startswith("Usage:")),
                            (["resolve", "--help"], lambda out: out.startswith("Usage:"))):
            stream = io.StringIO()
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(args) == 0
            assert check(stream.getvalue())
            monkeypatch.undo()
            released = weakref.ref(stream)
            del stream
            gc.collect()
            assert released() is None, args


class TestFailureModes:
    def test_removal_matched_nothing_exits_2(self, fixture_store, capsys):
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"name: ot-specific", b"name: renamed-part"))
        code = main(["resolve", "am-profile.yaml", "--store", str(fixture_store)])
        assert code == 2
        err = capsys.readouterr().err
        assert "id.am-3" in err
        assert "by-name" in err and "ot-specific" in err

    def test_lenient_downgrades_to_warning(self, fixture_store, tmp_path, capsys):
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"name: ot-specific", b"name: renamed-part"))
        out = tmp_path / "out.yaml"
        code = main(["resolve", "am-profile.yaml", "--store", str(fixture_store),
                     "--lenient", "-o", str(out)])
        assert code == 0
        assert "removal matched nothing" in capsys.readouterr().err
        catalog = parse_document(out.read_bytes()).body
        names = [p.name for p in find_control(catalog, "id.am-3").parts]
        assert names == ["statement", "guidance", "renamed-part", "am-specific"]

    def test_import_cycle_exits_2_naming_path(self, tmp_path, capsys):
        (tmp_path / "a.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: A\n    version: \"1\"\n"
            b"  imports:\n    - source: b.yaml\n"
        )
        (tmp_path / "b.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: B\n    version: \"1\"\n"
            b"  imports:\n    - source: a.yaml\n"
        )
        assert main(["resolve", "a.yaml", "--store", str(tmp_path)]) == 2
        assert "a.yaml -> b.yaml -> a.yaml" in capsys.readouterr().err

    def test_malformed_yaml_exits_3(self, tmp_path, capsys):
        (tmp_path / "broken.yaml").write_bytes(b"profile:\n  metadata: [oops\n")
        assert main(["resolve", "broken.yaml", "--store", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 4

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

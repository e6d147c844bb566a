from __future__ import annotations

import gc
import io
import json
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import FIXTURES_DIR, REPO_ROOT
from strategies import profile_importing
from layered_guidance import cli as cli_module
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

    def test_without_output_writes_to_stdout(self, tmp_path, capsysbinary):
        out = tmp_path / "out.yaml"
        assert main(["resolve", "am-profile.yaml", "--store", str(FIXTURES_DIR), "-o", str(out)]) == 0
        assert main(["resolve", "am-profile.yaml", "--store", str(FIXTURES_DIR)]) == 0
        assert capsysbinary.readouterr() == (out.read_bytes(), b"")

    def test_a_structural_error_is_a_validation_error(self, tmp_path, capsys):
        (tmp_path / "bad.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: P\n    version: \"1\"\n  imports: []\n"
        )
        assert main(["resolve", "bad.yaml", "--store", str(tmp_path)]) == 1
        assert capsys.readouterr() == (
            "", "validation error: bad.yaml: imports: profile must import at least one source\n"
        )

    def test_output_into_a_missing_directory_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.yaml"
        assert main(["resolve", "am-profile.yaml", "--store", str(FIXTURES_DIR), "-o", str(out)]) == 3
        assert capsys.readouterr() == (
            "", f"i/o error: [Errno 2] No such file or directory: {str(out)!r}\n"
        )


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

    @pytest.mark.parametrize("broken", [None, b"catalog:\n  metadata:\n    title: [\n"])
    def test_a_missing_or_unreadable_import_is_reported_and_validation_goes_on(
            self, tmp_path, capsys, broken):
        """``missing.yaml`` is absent, or present but not a parsable document."""
        if broken is not None:
            (tmp_path / "missing.yaml").write_bytes(broken)
        miss = tmp_path / "miss.yaml"
        miss.write_bytes(b"profile:\n  metadata:\n    title: M\n    version: \"1\"\n"
                         b"  imports:\n    - source: missing.yaml\n")
        (tmp_path / "base.yaml").write_bytes(
            b"catalog:\n  metadata:\n    title: Base\n    version: \"1\"\n"
        )
        empty = tmp_path / "empty.yaml"
        empty.write_bytes(
            b"profile:\n  metadata:\n    title: ''\n    version: \"1\"\n"
            b"  imports:\n    - source: base.yaml\n"
        )
        assert main(["validate", str(miss), str(empty), "--store", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        first, second = captured.err.splitlines()
        if broken is None:
            assert first == f"error: {miss}: imports/0: document not found: missing.yaml"
        else:
            assert first.startswith(f"error: {miss}: imports/0: missing.yaml: syntax error")
        assert second == f"warning: {empty}: metadata/title: title is empty"
        assert captured.out == "1 errors\n"


class TestDocumentFormat:
    """A file is JSON when its name ends in ``.json`` and YAML otherwise, for every command."""

    FLOW = (b'{catalog: {metadata: {title: Flow, version: "1"},\n'
            b'  controls: [{id: c1, parts: [{name: statement, prose: Do it}]}]}}\n')
    BLOCK = b'catalog:\n  metadata:\n    title: Block\n    version: "1"\n'

    @pytest.mark.parametrize("args, out", [
        (["validate", "flow.yaml"], "0 errors\n"),
        (["diff", "flow.yaml", "flow.yaml"], "no differences\n"),
        (["render", "flow.yaml"], "# Flow\n\nVersion: 1\n\n## C1\n\n> Do it\n"),
    ], ids=["validate", "diff", "render"])
    def test_flow_style_yaml_is_read_as_yaml(self, tmp_path, monkeypatch, capsys, args, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "flow.yaml").write_bytes(self.FLOW)
        assert main(args) == 0
        assert capsys.readouterr() == (out, "")

    def test_block_yaml_named_json_fails_validate_as_it_fails_resolve(self, tmp_path, capsys):
        yamlish = tmp_path / "yamlish.json"
        yamlish.write_bytes(self.BLOCK)
        (tmp_path / "p.yaml").write_bytes(b'profile:\n  metadata:\n    title: P\n    version: "1"\n'
                                          b"  imports:\n    - source: yamlish.json\n")
        message = "syntax error at line 1, column 1: Expecting value"
        assert main(["validate", str(yamlish)]) == 3
        assert capsys.readouterr() == ("", f"error: {yamlish}: {message}\n")
        assert main(["resolve", "p.yaml", "--store", str(tmp_path)]) == 3
        assert capsys.readouterr() == ("", f"error: yamlish.json: {message}\n")


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

    def test_added_and_removed_controls(self, tmp_path, capsys):
        for name, cid in (("a", "c2"), ("b", "c3")):
            (tmp_path / f"{name}.yaml").write_bytes(
                b"catalog:\n  metadata:\n    title: A\n    version: \"1\"\n"
                b"  controls:\n    - id: c1\n    - id: " + cid.encode() + b"\n"
            )
        assert main(["diff", str(tmp_path / "a.yaml"), str(tmp_path / "b.yaml")]) == 0
        assert capsys.readouterr() == ("- control c2\n+ control c3\n", "")

    def test_a_profile_is_not_a_catalog(self, capsys):
        profile = str(FIXTURES_DIR / "ot-profile.yaml")
        assert main(["diff", profile, str(FIXTURES_DIR / "csf-id-am.yaml")]) == 3
        assert capsys.readouterr() == ("", f"error: {profile}: expected a catalog document\n")


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

    def test_without_output_writes_to_stdout(self, fixture_store, tmp_path, capsysbinary):
        _, am_out = _resolve_both(fixture_store, tmp_path)
        rendered = tmp_path / "out.md"
        assert main(["render", str(am_out), "-o", str(rendered)]) == 0
        assert main(["render", str(am_out)]) == 0
        assert capsysbinary.readouterr() == (rendered.read_bytes(), b"")


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

    @pytest.mark.parametrize("uri", ["../x.yaml", "/etc/passwd", "link.yaml"])
    def test_a_changed_uri_out_of_the_store_is_an_invalid_uri(self, linked_store, capsys, uri):
        """``propagate --changed`` names an escape as ``resolve`` does, not as a missing file."""
        expected = ("", f"error: invalid uri {uri!r}: escapes the store root\n")
        assert main(["resolve", uri, "--store", str(linked_store)]) == 3
        assert capsys.readouterr() == expected
        assert main(["propagate", "--store", str(linked_store), "--changed", uri]) == 3
        assert capsys.readouterr() == expected


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

    def test_text_output_counts_and_lists_changes(self, fixture_store, capsys):
        args = ["propagate", "--store", str(fixture_store), "--changed", "ot-profile.yaml"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr() == (
            "re-resolved ot-profile.yaml -> resolved/ot-profile.yaml (no changes)\n"
            "re-resolved am-profile.yaml -> resolved/am-profile.yaml (no changes)\n", ""
        )
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"understand the flow", b"map the movement")
                         .replace(b"should consider", b"must consider"))
        assert main(args) == 0
        assert capsys.readouterr() == (
            "re-resolved ot-profile.yaml -> resolved/ot-profile.yaml (2 changes)\n"
            "  id.am-3:\n"
            "    ~ part guidance\n"
            "    ~ part ot-specific\n"
            "re-resolved am-profile.yaml -> resolved/am-profile.yaml (1 change)\n"
            "  id.am-3:\n"
            "    ~ part guidance\n", ""
        )

    def test_json_output_reports_a_failed_profile(self, fixture_store, capsys):
        path = fixture_store / "ot-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"control-id: id.am-3", b"control-id: id.am-99"))
        assert main(["propagate", "--store", str(fixture_store),
                     "--changed", "ot-profile.yaml", "--format", "json"]) == 2
        error = "unknown control id: 'id.am-99' (profile ot-profile.yaml)"
        expected = [
            {"profile-uri": "ot-profile.yaml", "output-uri": "resolved/ot-profile.yaml",
             "error": error},
            {"profile-uri": "am-profile.yaml", "output-uri": "resolved/am-profile.yaml",
             "error": error},
        ]
        assert capsys.readouterr() == (json.dumps(expected, indent=2) + "\n", "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_failed_result_names_the_document_that_failed(self, fixture_store, capsys, fmt):
        (fixture_store / "dup.yaml").write_bytes(TestStoreIdentity.DUPLICATE_TITLE)
        (fixture_store / "p.yaml").write_bytes(
            b"profile:\n  metadata:\n    title: P\n    version: \"1\"\n"
            b"  imports:\n    - source: csf-id-am.yaml\n    - source: dup.yaml\n")
        error = "dup.yaml: duplicate key 'title' (line 4, column 5)"
        assert main(["resolve", "p.yaml", "--store", str(fixture_store)]) == 3
        assert capsys.readouterr().err == f"error: {error}\n"
        assert main(["propagate", "--store", str(fixture_store),
                     "--changed", "csf-id-am.yaml", "--format", fmt]) == 2
        out = capsys.readouterr().out
        if fmt == "json":
            assert [item.get("error") for item in json.loads(out)] == [None, None, error]
        else:
            assert out.splitlines()[-1] == f"failed p.yaml: {error}"

    def test_a_failed_result_names_its_unparsable_previous_output(self, fixture_store, capsys):
        (fixture_store / "resolved").mkdir()
        (fixture_store / "resolved" / "ot-profile.yaml").write_bytes(b"catalog: \xff\n")
        assert main(["propagate", "--store", str(fixture_store),
                     "--changed", "csf-id-am.yaml"]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "failed ot-profile.yaml: resolved/ot-profile.yaml: syntax error: invalid UTF-8: "
            "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte",
            "re-resolved am-profile.yaml -> resolved/am-profile.yaml (initial resolution)",
        ]

    def test_a_failed_result_names_its_profile_shaped_previous_output(self, fixture_store, capsys):
        (fixture_store / "resolved").mkdir()
        shutil.copy(fixture_store / "ot-profile.yaml", fixture_store / "resolved" / "ot-profile.yaml")
        assert main(["propagate", "--store", str(fixture_store),
                     "--changed", "csf-id-am.yaml"]) == 2
        assert capsys.readouterr() == (
            "failed ot-profile.yaml: resolved/ot-profile.yaml: expected a catalog document\n"
            "re-resolved am-profile.yaml -> resolved/am-profile.yaml (initial resolution)\n", "")

    def test_a_directory_at_an_output_path_is_an_io_error(self, fixture_store, capsys):
        output = fixture_store / "resolved" / "ot-profile.yaml"
        output.mkdir(parents=True)
        assert main(["propagate", "--store", str(fixture_store),
                     "--changed", "csf-id-am.yaml"]) == 3
        out, err = capsys.readouterr()
        temp = f"{fixture_store}/resolved/.ot-profile.yaml."
        assert out == "" and re.fullmatch(
            re.escape(f"i/o error: [Errno 21] Is a directory: '{temp}") + "[0-9a-f]{16}"
            + re.escape(f"' -> '{output}'") + "\n", err)
        assert [path.name for path in output.parent.iterdir()] == ["ot-profile.yaml"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_lenient_warnings_are_printed(self, fixture_store, tmp_path, capsys, fmt):
        path = fixture_store / "am-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"by-name: ot-specific",
                                                   b"by-name: nothing-here"))
        warning = "alterations/id.am-3: removal matched nothing (by-name 'nothing-here')"
        out = tmp_path / "am.yaml"
        assert main(["resolve", "am-profile.yaml", "--store", str(fixture_store), "--lenient",
                     "-o", str(out)]) == 0
        assert capsys.readouterr().err == f"warning: {warning}\n"
        assert main(["propagate", "--store", str(fixture_store), "--changed", "am-profile.yaml",
                     "--lenient", "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: am-profile.yaml: {warning}\n"
        if fmt == "json":
            assert json.loads(captured.out) == [
                {"profile-uri": "am-profile.yaml", "output-uri": "resolved/am-profile.yaml",
                 "initial": True, "changes": []}]
        else:
            assert captured.out == (
                "re-resolved am-profile.yaml -> resolved/am-profile.yaml (initial resolution)\n")
        assert (fixture_store / "resolved" / "am-profile.yaml").read_bytes() == out.read_bytes()

    def _imported_warning_store(self, store: Path) -> str:
        """``top.yaml`` imports ``am-profile.yaml``, whose removal matches nothing."""
        path = store / "am-profile.yaml"
        path.write_bytes(path.read_bytes().replace(b"by-name: ot-specific",
                                                   b"by-name: nothing-here"))
        (store / "top.yaml").write_bytes(
            b'profile:\n  metadata:\n    title: Top\n    version: "1"\n'
            b"  imports:\n    - source: am-profile.yaml\n")
        return "alterations/id.am-3: removal matched nothing (by-name 'nothing-here')"

    def test_an_imported_profiles_lenient_warning_is_printed_naming_it(self, fixture_store,
                                                                       tmp_path, capsys):
        warning = self._imported_warning_store(fixture_store)
        out = tmp_path / "top.yaml"
        assert main(["resolve", "top.yaml", "--store", str(fixture_store), "--lenient",
                     "-o", str(out)]) == 0
        assert capsys.readouterr().err == f"warning: am-profile.yaml: {warning}\n"
        assert main(["resolve", "top.yaml", "--store", str(fixture_store), "-o", str(out)]) == 2
        assert "removal matched nothing" in capsys.readouterr().err

    @pytest.mark.parametrize("changed", ["top.yaml", "am-profile.yaml"])
    def test_propagate_prints_each_lenient_warning_once_naming_its_profile(
            self, fixture_store, capsys, changed):
        warning = self._imported_warning_store(fixture_store)
        assert main(["propagate", "--store", str(fixture_store), "--changed", changed,
                     "--lenient", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: am-profile.yaml: {warning}\n"
        assert [item["profile-uri"] for item in json.loads(captured.out)] == (
            ["top.yaml"] if changed == "top.yaml" else ["am-profile.yaml", "top.yaml"])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_diamond_prints_each_profiles_lenient_warnings_once_in_lineage_order(
            self, fixture_store, tmp_path, capsys, fmt):
        """``top.yaml`` imports ``right.yaml`` then ``left.yaml``; both import ``am-profile.yaml``.

        ``left.yaml`` raises the same warning twice, and keeps both.
        """
        am_warning = self._imported_warning_store(fixture_store)
        head = b'profile:\n  metadata:\n    title: %s\n    version: "1"\n  imports:\n'
        (fixture_store / "left.yaml").write_bytes(
            head % b"Left" + b"    - source: am-profile.yaml\n      include:\n        - id.am-1\n"
            b"  alterations:\n    - control-id: id.am-1\n      removes:\n"
            b"        - by-name: gone\n        - by-name: gone\n")
        (fixture_store / "right.yaml").write_bytes(
            head % b"Right" + b"    - source: am-profile.yaml\n      include:\n        - id.am-3\n")
        (fixture_store / "top.yaml").write_bytes(
            head % b"Top" + b"    - source: right.yaml\n    - source: left.yaml\n"
            b"  alterations:\n    - control-id: id.am-3\n      removes:\n"
            b"        - by-class: nothing\n")
        left_warning = "alterations/id.am-1: removal matched nothing (by-name 'gone')"
        top_warning = "alterations/id.am-3: removal matched nothing (by-class 'nothing')"
        inherited = (f"warning: am-profile.yaml: {am_warning}\n"
                     + f"warning: left.yaml: {left_warning}\n" * 2)
        out = tmp_path / "top.out"
        assert main(["resolve", "top.yaml", "--store", str(fixture_store), "--lenient",
                     "--format", "json" if fmt == "json" else "yaml", "-o", str(out)]) == 0
        assert capsys.readouterr() == ("", inherited + f"warning: {top_warning}\n")
        assert main(["propagate", "--store", str(fixture_store), "--changed", "csf-id-am.yaml",
                     "--lenient", "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == inherited + f"warning: top.yaml: {top_warning}\n"
        profiles = ["ot-profile.yaml", "am-profile.yaml", "left.yaml", "right.yaml", "top.yaml"]
        if fmt == "json":
            assert [item["profile-uri"] for item in json.loads(captured.out)] == profiles
            assert json.loads(out.read_bytes())["catalog"]["metadata"]["title"] == "Top"
        else:
            assert captured.out == "".join(
                f"re-resolved {uri} -> resolved/{uri} (initial resolution)\n" for uri in profiles)
            assert (fixture_store / "resolved" / "top.yaml").read_bytes() == out.read_bytes()

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

    def test_a_deleted_resolved_directory_is_made_again(self, fixture_store, capsys):
        args = ["propagate", "--store", str(fixture_store), "--changed", "csf-id-am.yaml"]
        assert main(args) == 0
        resolved = fixture_store / "resolved"
        outputs = {path.name: path.read_bytes() for path in resolved.iterdir()}
        assert sorted(outputs) == ["am-profile.yaml", "ot-profile.yaml"]
        shutil.rmtree(resolved)
        assert main(args) == 0
        assert {path.name: path.read_bytes() for path in resolved.iterdir()} == outputs

    def test_a_file_in_place_of_the_resolved_directory_is_an_io_error(self, fixture_store,
                                                                       capsys):
        (fixture_store / "resolved").write_bytes(b"")
        assert main(["propagate", "--store", str(fixture_store),
                     "--changed", "csf-id-am.yaml"]) == 3
        assert capsys.readouterr().err == (
            f"i/o error: [Errno 17] File exists: '{fixture_store}/resolved'\n"
        )
        assert sorted(path.name for path in fixture_store.iterdir()) == [
            "am-profile.yaml", "csf-id-am.yaml", "ot-profile.yaml", "resolved",
        ]


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

    @pytest.mark.parametrize("name, edit, message", [
        ("inc.yaml", lambda text: text.replace("include: all", "include: zzz"),
         "profile/imports/0/include: include must be \"all\" or a list of control ids, "
         "got 'zzz'"),
        ("top.yaml", lambda text: text + "extra: 1\n", "unknown key 'extra'"),
    ])
    def test_a_schema_error_exits_3_naming_the_document(self, fixture_store, capsys, name, edit,
                                                         message):
        text = (fixture_store / "am-profile.yaml").read_text()
        (fixture_store / name).write_text(edit(text))
        assert main(["resolve", name, "--store", str(fixture_store)]) == 3
        assert capsys.readouterr() == ("", f"error: {name}: {message}\n")

    def test_an_unexpected_exception_is_an_internal_error(self, monkeypatch, capsys):
        def failing(store):
            raise RuntimeError("boom")

        monkeypatch.setattr("layered_guidance.cli.build_graph", failing)
        assert main(["graph", "--store", str(FIXTURES_DIR)]) == 3
        assert capsys.readouterr() == ("", "internal error: boom\n")

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


STORE = str(FIXTURES_DIR)
CATALOG = str(FIXTURES_DIR / "csf-id-am.yaml")
MISSING = str(FIXTURES_DIR / "missing.yaml")

# Each invocation, and a string its usage message must name: the offending
# argument, option or value.
USAGE_ERRORS = {
    "no arguments": ([], "COMMAND"),
    "unknown command": (["frobnicate"], "frobnicate"),
    "missing argument": (["resolve"], "PROFILE_URI"),
    "no store": (["resolve", "x"], "--store"),
    "unknown choice": (["resolve", "am-profile.yaml", "--store", STORE, "--format", "xml"], "xml"),
    "unknown option": (["resolve", "am-profile.yaml", "--store", STORE, "--bogus"], "--bogus"),
    "unknown option first": (["--bogus"], "--bogus"),
    "abbreviated option": (["resolve", "am-profile.yaml", "--store", STORE, "--len"], "--len"),
    "store is a file": (["resolve", "am-profile.yaml", "--store", CATALOG], "--store"),
    "store is missing": (["graph", "--store", MISSING], "--store"),
    "render a missing file": (["render", MISSING], MISSING),
    "render a directory": (["render", STORE], STORE),
    "render into a directory": (["render", CATALOG, "-o", STORE], "--output"),
    "resolve into a directory": (["resolve", "am-profile.yaml", "--store", STORE, "-o", STORE],
                                 "--output"),
    "render into an empty name": (["render", CATALOG, "-o", ""], "--output"),
    "resolve into an empty name": (["resolve", "am-profile.yaml", "--store", STORE, "--output", ""],
                                   "--output"),
    "validate no file": (["validate"], "FILES"),
    "validate a missing file": (["validate", CATALOG, MISSING], MISSING),
    "diff a missing file": (["diff", MISSING, CATALOG], MISSING),
    "diff one file": (["diff", CATALOG], "CATALOG_B"),
    "propagate unchanged": (["propagate", "--store", STORE], "--changed"),
    "option without value": (["propagate", "--store", STORE, "--changed"], "--changed"),
    "extra argument": (["graph", "--store", STORE, "extra"], "extra"),
    "version": (["--version"], "--version"),
}

# Each command and every option its help must name; the top level names its commands.
HELP = {
    (): ["--help", "resolve", "validate", "diff", "render", "graph", "propagate"],
    ("resolve",): ["--store", "-o", "--output", "--format", "--lenient", "--help"],
    ("validate",): ["--store", "--help"],
    ("diff",): ["--format", "--help"],
    ("render",): ["-o", "--output", "--provenance", "--help"],
    ("graph",): ["--store", "--format", "--help"],
    ("propagate",): ["--store", "--changed", "--format", "--lenient", "--help"],
}


class TestUsage:
    """Every usage error exits 4 with ``usage error:`` on stderr and nothing on stdout."""

    @pytest.mark.parametrize("args, named", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error(self, args, named, monkeypatch, capsys):
        monkeypatch.delenv("GUIDANCE_STORE", raising=False)
        assert main(args) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ")
        assert named in err

    def test_options_between_files_keep_every_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(
            b"catalog:\n  metadata:\n    title: a\n    version: b\n"
            b"  controls:\n    - id: c1\n    - id: c1\n"
        )
        assert main(["validate", CATALOG, "--store", STORE, str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "1 errors\n"
        assert err.startswith(f"error: {bad}: ") and "duplicate control id" in err

    @pytest.mark.parametrize("command, options", HELP.items(),
                             ids=[" ".join(command) or "guidance" for command in HELP])
    def test_help(self, command, options, capsys):
        assert main([*command, "--help"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith("Usage:")
        for option in options:
            assert option in out, option

    def test_store_option_wins_over_environment(self, monkeypatch, capsys):
        monkeypatch.setenv("GUIDANCE_STORE", MISSING)
        assert main(["graph", "--store", STORE]) == 0
        assert "am-profile.yaml" in capsys.readouterr().out

    def test_the_cli_imports_no_click(self):
        code = "import sys, layered_guidance.cli; sys.exit('click' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT / "src").returncode == 0

    def test_empty_environment_store_is_unset(self, monkeypatch, capsys):
        monkeypatch.setenv("GUIDANCE_STORE", "")
        assert main(["resolve", "am-profile.yaml"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ") and "--store" in err


class TestCollectorPause:
    """``main`` runs a command with the cyclic collector off and leaves it as it found it."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def _store(self, root: Path) -> Path:
        for name, source in (("dangling", "missing"), ("a", "b"), ("b", "a")):
            (root / f"{name}.yaml").write_bytes(profile_importing(f"{source}.yaml"))
        return root

    @pytest.mark.parametrize("args, code", [
        (["graph", "--store", STORE], 0),
        (["graph", "--store", "{store}"], 1),
        (["resolve", "a.yaml", "--store", "{store}"], 2),
        (["resolve", "missing.yaml", "--store", STORE], 3),
        (["frobnicate"], 4),
        (["--help"], 0),
        (["propagate", "--store", "{store}", "--changed", "missing.yaml"], 3),
    ])
    def test_every_exit_leaves_the_collector_as_it_was(self, tmp_path, capsys, collecting, args,
                                                      code):
        store = str(self._store(tmp_path))
        assert main([arg.format(store=store) for arg in args]) == code
        assert gc.isenabled() is collecting

    def test_an_internal_error_leaves_the_collector_as_it_was(self, monkeypatch, capsys,
                                                              collecting):
        def failing(store):
            raise RuntimeError("boom")

        monkeypatch.setattr("layered_guidance.cli.build_graph", failing)
        assert main(["graph", "--store", STORE]) == 3
        assert capsys.readouterr().err == "internal error: boom\n"
        assert gc.isenabled() is collecting

    def test_a_command_runs_with_the_collector_paused(self, monkeypatch, capsys, collecting):
        seen: list[bool] = []
        original = cli_module.build_graph

        def spying(store):
            seen.append(gc.isenabled())
            return original(store)

        monkeypatch.setattr(cli_module, "build_graph", spying)
        assert main(["graph", "--store", STORE]) == 0
        assert seen == [False]
        assert gc.isenabled() is collecting

"""The benchmark's trace spans still find every boundary they wrap.

``perfbench/spans.py`` wraps functions by module and name; its ``Tracer``
raises ``TraceError`` when one is missing. Constructing it here makes a
renamed or moved boundary fail these tests, not only a traced benchmark run.
"""

from __future__ import annotations

import importlib.util

import pytest
import yaml

from conftest import FIXTURES_DIR, REPO_ROOT
from strategies import profile_importing
from layered_guidance import changes, cli, resolver, serialize
from layered_guidance.resolver import SourceStore, resolve_chain


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  REPO_ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(spans):
    spans.Tracer("layered_guidance")


def test_a_missing_name_is_reported(spans, monkeypatch):
    monkeypatch.delattr(resolver, "detect_cycles")
    with pytest.raises(spans.TraceError, match="detect_cycles"):
        spans.Tracer("layered_guidance")


def test_strict_resolution_calls_apply_alteration_for_each_alteration(fixture_store,
                                                                        monkeypatch):
    """The span ``resolver.apply_alteration`` wraps the module binding: every call goes through it."""
    calls = []
    original = resolver.apply_alteration
    monkeypatch.setattr(resolver, "apply_alteration",
                        lambda *args, **kwargs: calls.append(args[1]) or original(*args, **kwargs))
    store = SourceStore(fixture_store)
    resolve_chain(store, "am-profile.yaml")
    applied = [alteration for uri in ("ot-profile.yaml", "am-profile.yaml")
               for alteration in store.load(uri).body.alterations]
    assert applied and calls == applied


@pytest.mark.parametrize("command", [
    ["resolve", "miss.yaml"],
    ["validate", "{store}/miss.yaml"],
    ["propagate", "--changed", "csf-id-am.yaml"],
])
def test_every_cycle_walk_goes_through_the_resolver_binding(fixture_store, monkeypatch,
                                                            capsys, command):
    """The span ``resolver.detect_cycles`` sees the walks of all three commands, on a broken store.

    No other module holds a binding of its own that would hide a walk.
    """
    (fixture_store / "miss.yaml").write_bytes(profile_importing("csf-id-am.yaml", "missing.yaml"))
    calls = []
    original = resolver.detect_cycles

    def counting_detect_cycles(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(resolver, "detect_cycles", counting_detect_cycles)
    args = [arg.format(store=fixture_store) for arg in command]
    cli.main([*args, "--store", str(fixture_store)])
    assert calls
    assert not hasattr(cli, "detect_cycles") and not hasattr(changes, "detect_cycles")


class _CountingYaml:
    """``yaml`` with ``load`` counted, as the span ``serialize.yaml_load`` replaces it."""

    def __init__(self, calls: list[str]) -> None:
        self.load = lambda *args, **kwargs: calls.append("yaml.load") or yaml.load(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(yaml, name)


@pytest.mark.parametrize("name, expected", [
    ("csf-id-am.yaml", ["yaml.load", "validate_catalog"]),
    ("am-profile.yaml", ["yaml.load"]),
])
def test_a_canonical_document_is_loaded_and_validated_through_the_traced_bindings(monkeypatch,
                                                                                name, expected):
    """The spans ``serialize.yaml_load`` and ``model.validate_catalog`` see one call per parse."""
    calls: list[str] = []
    original = serialize.validate_catalog
    monkeypatch.setattr(serialize, "yaml", _CountingYaml(calls))
    monkeypatch.setattr(serialize, "validate_catalog",
                        lambda catalog: calls.append("validate_catalog") or original(catalog))
    serialize.parse_document((FIXTURES_DIR / name).read_bytes())
    assert calls == expected

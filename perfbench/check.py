"""Output checks. Each returns None when the output is right, else a reason.

The checks read the program's outputs with PyYAML's own safe loader and
the standard ``json`` module and compare them with the generator's
expected model, so no check relies on the package under test.
"""

from __future__ import annotations

import json

import yaml

from gen import Store

_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Properties the benchmark does not check, reported with every result.
UNCHECKED = [
    "render provenance origins: rendering from a file labels every part layer 0 "
    "(known defect, ROADMAP item 5), so origins are not compared",
]


def resolved_model(data: bytes) -> list[tuple[str, tuple[str, ...]]]:
    document = yaml.load(data, Loader=_SAFE_LOADER)
    model = []

    def walk(control: dict) -> None:
        model.append((control["id"], tuple(p["name"] for p in control.get("parts", []))))
        for child in control.get("children", []):
            walk(child)

    for control in document["catalog"].get("controls", []):
        walk(control)
    return model


def check_resolved(data: bytes, store: Store) -> str | None:
    try:
        model = resolved_model(data)
    except (yaml.YAMLError, KeyError, TypeError, AttributeError) as exc:
        return f"resolved file does not parse as a catalog: {exc!r}"
    if model != store.expected_model:
        wrong = next((i for i, (a, b) in enumerate(zip(model, store.expected_model)) if a != b),
                     min(len(model), len(store.expected_model)))
        return f"resolved model differs from expected at control {wrong}"
    return None


def check_render(markdown: str, store: Store) -> str | None:
    headings = sum(1 for line in markdown.split("\n") if line.startswith("#"))
    if headings != store.expected_headings:
        return f"render has {headings} headings, expected {store.expected_headings}"
    return None


def check_validate(stdout: str) -> str | None:
    return None if stdout == "0 errors\n" else f"validate printed {stdout!r}"


def check_propagate(stdout: str, store: Store, before: int) -> str | None:
    """Every downstream profile reports exactly the toggled parts it keeps."""
    try:
        results = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"propagate output is not JSON: {exc}"
    if sorted(r.get("profile-uri") for r in results) != sorted(store.expected_changes):
        return "propagate re-resolved another set of profiles"
    for result in results:
        if "error" in result or result.get("initial") is not False:
            return f"propagate of {result['profile-uri']} failed or was initial"
        seen = {}
        for entry in result["changes"]:
            if entry["kind"] != "part-modified":
                return f"unexpected {entry['kind']} in {result['profile-uri']}"
            seen[(entry["control-id"], entry["part-name"])] = (entry["before-prose"],
                                                               entry["after-prose"])
        expected = {key: (proses[before], proses[1 - before])
                    for key, proses in store.expected_changes[result["profile-uri"]].items()}
        if len(seen) != len(result["changes"]) or seen != expected:
            return f"propagate changes of {result['profile-uri']} differ from expected"
    return None

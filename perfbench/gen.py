"""Seeded synthetic stores and the expected outputs that go with them.

Each generator writes guidance documents into a store directory and
returns a ``Store``: the documents the four commands act on, the two
versions of the base catalog that the propagate edit toggles between, and
the expected outputs. The expected outputs come from the generator's own
record of what it wrote (which controls each layer selects, which parts it
removes and adds); nothing in this module calls the package under test,
apart from ``write_fixture_store`` for the shipped corpus.

Only the sizes below and the seed decide a store: the same seed gives the
same bytes. The seed chooses words, alteration targets and toggled parts;
the sizes fix the amount of work, so stores of one workload differ by
seed only in content.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

# Per-workload sizes. chain-deep: T top controls, each with C children with G
# children each, so N = T * (1 + C * (1 + G)); D chained layers of A
# alterations. fanout-wide: P sibling profiles over one base, each with A
# alterations and E excludes. K prose parts differ between the two base
# versions.
SIZES = {
    "chain-deep": {"T": 2, "C": 3, "G": 4, "D": 5, "A": 12, "K": 6},
    "fanout-wide": {"T": 3, "C": 3, "G": 3, "P": 12, "A": 6, "E": 2, "K": 6},
    "corpus": {"K": 2},
}

_VOCABULARY = (
    "access account activity analysis application asset audit authority baseline boundary "
    "business capability change component configuration control critical data decision "
    "dependency design device document environment event external facility function "
    "governance hardware identity impact incident information integrity interface inventory "
    "maintenance management manufacturing media monitoring network operation organization "
    "owner partner personnel physical platform policy priority procedure process product "
    "protection record recovery relationship requirement resource response review risk role "
    "schedule security service software source stakeholder strategy supplier system "
    "technology threat tool traffic update user value vendor vulnerability workforce "
    "accurate approved assigned authorized automated current defined documented established "
    "identified maintained mapped periodic prioritized protected recorded reviewed managed "
    "across among between during for from into through under with within"
).split()

_WORDS_RE = re.compile(r"[A-Za-z]+(?: [A-Za-z]+)*\.?")
_PLAIN_RE = re.compile(r"[A-Za-z][A-Za-z0-9._-]*(?: [A-Za-z0-9._-]+)*")
_AMBIGUOUS = {"true", "false", "yes", "no", "on", "off", "null", "y", "n"}
_FOLD_AT = 72
_WIDTH = 76

STATEMENT = "statement"


# ---------------------------------------------------------------------------
# A small YAML emitter for the generated documents. Long word-only prose is
# folded as the shipped corpus is; anything else not safe as a plain scalar
# is written as a JSON string, which is a valid double-quoted YAML scalar.


def _scalar(anchor: str, value: str, indent: int, lines: list[str]) -> None:
    if len(value) > _FOLD_AT and _WORDS_RE.fullmatch(value):
        lines.append(f"{anchor} >-")
        pad = " " * (indent + 2)
        line = ""
        for word in value.split(" "):
            if line and len(pad) + len(line) + 1 + len(word) > _WIDTH:
                lines.append(pad + line)
                line = word
            else:
                line = f"{line} {word}" if line else word
        lines.append(pad + line)
    elif _PLAIN_RE.fullmatch(value) and value.lower() not in _AMBIGUOUS:
        lines.append(f"{anchor} {value}")
    else:
        lines.append(f"{anchor} {json.dumps(value)}")


def _mapping(mapping: dict, indent: int, lines: list[str]) -> None:
    pad = " " * indent
    for key, value in mapping.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            _mapping(value, indent + 2, lines)
        elif isinstance(value, list):
            lines.append(f"{pad}{key}:")
            _sequence(value, indent + 2, lines)
        else:
            _scalar(f"{pad}{key}:", value, indent, lines)


def _sequence(items: list, indent: int, lines: list[str]) -> None:
    for item in items:
        if isinstance(item, dict):
            sub: list[str] = []
            _mapping(item, indent + 2, sub)
            sub[0] = " " * indent + "- " + sub[0][indent + 2:]
            lines.extend(sub)
        else:
            _scalar(" " * indent + "-", item, indent, lines)


def emit_yaml(document: dict) -> bytes:
    lines: list[str] = []
    _mapping(document, 0, lines)
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# The generator's record of a document's controls


@dataclass
class GenPart:
    name: str
    cls: str
    prose: str
    origin: str  # uri of the document that contributed the part

    def plain(self) -> dict:
        return {"name": self.name, "class": self.cls, "prose": self.prose}


@dataclass
class GenControl:
    id: str
    cls: str
    parts: list[GenPart]
    children: list[GenControl] = field(default_factory=list)

    def plain(self) -> dict:
        plain: dict = {"id": self.id, "class": self.cls, "parts": [p.plain() for p in self.parts]}
        if self.children:
            plain["children"] = [c.plain() for c in self.children]
        return plain


def _walk(controls: list[GenControl]):
    for control in controls:
        yield control
        yield from _walk(control.children)


def _prose(rng: random.Random, words: int) -> str:
    text = " ".join(rng.choice(_VOCABULARY) for _ in range(words))
    return text[0].upper() + text[1:] + "."


@dataclass
class Store:
    """A generated store plus everything the checks compare against."""

    root: Path
    target: str  # profile uri that resolve and validate act on
    base: str  # catalog uri the propagate edit toggles
    versions: tuple[bytes, bytes]  # base bytes, version 0 written first
    expected_model: list[tuple[str, tuple[str, ...]]]  # target: control ids and part names
    # profile uri -> {(control id, part name): (prose in version 0, prose in version 1)}
    expected_changes: dict[str, dict[tuple[str, str], tuple[str, str]]]
    sizes: dict

    @property
    def expected_headings(self) -> int:
        """Title, one per control, one per part other than the statement."""
        return 1 + sum(1 + sum(1 for n in names if n != STATEMENT)
                       for _, names in self.expected_model)

    def store_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.root.rglob("*")
                   if p.is_file() and not p.relative_to(self.root).as_posix().startswith("resolved/"))


def _model(state: dict[str, list[GenPart]], order: list[str]) -> list[tuple[str, tuple[str, ...]]]:
    return [(cid, tuple(p.name for p in state[cid])) for cid in order]


def _changes(state: dict[str, list[GenPart]], base_uri: str,
             toggles: dict[tuple[str, str], tuple[str, str]]) -> dict:
    """Toggled base parts that survive, unreplaced, into one layer's output."""
    expected = {}
    for (cid, name), proses in toggles.items():
        if any(p.name == name and p.origin == base_uri for p in state.get(cid, ())):
            expected[(cid, name)] = proses
    return expected


def _base_catalog(rng: random.Random, top: int, children: int, grandchildren: int,
                  words: tuple[int, int, int], uri: str) -> list[GenControl]:
    """Three levels of controls; the part mix depends on document position only."""
    counter = itertools.count()

    def control(cid: str, cls: str) -> GenControl:
        index = next(counter)
        parts = [GenPart(STATEMENT, "outcome", _prose(rng, words[0]), uri)]
        if index % 2 == 0:
            parts.append(GenPart("guidance", "supplemental-guidance", _prose(rng, words[1]), uri))
        if index % 3 == 0:
            parts.append(GenPart("example", "informative", _prose(rng, words[2]), uri))
        return GenControl(cid, cls, parts)

    tops = []
    for t in range(top):
        family = control(f"c{t:02d}", "family")
        for c in range(children):
            category = control(f"c{t:02d}.{c:02d}", "category")
            for g in range(grandchildren):
                category.children.append(control(f"c{t:02d}.{c:02d}.{g:02d}", "subcategory"))
            family.children.append(category)
        tops.append(family)
    return tops


def _alterations(rng: random.Random, state: dict[str, list[GenPart]], targets: list[str],
                 uri: str, tag: str, words: int) -> list[dict]:
    """Alterations on distinct targets; applies each to ``state`` as it goes.

    Targets cycle through three kinds: replace a part by name, remove a
    class and add a note, and add a part. A target without a part other
    than its statement gets an add.
    """
    alterations = []
    for index, cid in enumerate(targets):
        parts = state[cid]
        others = [p for p in parts if p.name != STATEMENT]
        kind = index % 3 if others else 2
        if kind == 0:
            victim = rng.choice(others).name
            removes = [{"by-name": victim}]
            added = [GenPart(victim, f"{tag}-guidance", _prose(rng, words), uri)]
            kept = [p for p in parts if p.name != victim]
        elif kind == 1:
            cls = rng.choice(sorted({p.cls for p in others}))
            removes = [{"by-class": cls}]
            added = [GenPart(f"{tag}-note", f"{tag}-note", _prose(rng, words), uri)]
            kept = [p for p in parts if p.cls != cls]
        else:
            removes = []
            added = [GenPart(f"{tag}-add", "addition", _prose(rng, words), uri)]
            kept = list(parts)
        state[cid] = kept + added
        alteration: dict = {"control-id": cid}
        if removes:
            alteration["removes"] = removes
        alteration["adds"] = [{"parts": [p.plain() for p in added]}]
        alterations.append(alteration)
    return alterations


def _toggles(rng: random.Random, base: list[GenControl], count: int,
             words: int) -> dict[tuple[str, str], tuple[str, str]]:
    candidates = [(c.id, p.name, p.prose) for c in _walk(base) for p in c.parts]
    return {(cid, name): (prose, _prose(rng, words))
            for cid, name, prose in rng.sample(candidates, count)}


def _catalog_doc(title: str, controls: list[GenControl]) -> dict:
    return {"catalog": {"metadata": {"title": title, "version": "1.0"},
                        "controls": [c.plain() for c in controls]}}


def _profile_doc(title: str, imports: list[dict], alterations: list[dict]) -> dict:
    return {"profile": {"metadata": {"title": title, "version": "1.0"},
                        "imports": imports, "alterations": alterations}}


def _with_prose(controls: list[GenControl], toggles: dict, version: int) -> list[GenControl]:
    def copy(control: GenControl) -> GenControl:
        parts = [GenPart(p.name, p.cls, toggles.get((control.id, p.name), (p.prose,) * 2)[version],
                         p.origin) for p in control.parts]
        return GenControl(control.id, control.cls, parts, [copy(c) for c in control.children])
    return [copy(c) for c in controls]


def _write(root: Path, files: dict[str, bytes]) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for uri, data in files.items():
        (root / uri).write_bytes(data)


def chain_deep(root: Path, seed: int, sizes: dict) -> Store:
    """Terse base catalog under D chained profiles of A alterations each."""
    rng = random.Random(f"chain-deep/{seed}")
    base_uri = "base.yaml"
    base = _base_catalog(rng, sizes["T"], sizes["C"], sizes["G"], (4, 5, 4), base_uri)
    order = [c.id for c in _walk(base)]
    state = {c.id: list(c.parts) for c in _walk(base)}
    toggles = _toggles(rng, base, sizes["K"], 4)

    files: dict[str, bytes] = {}
    expected_changes = {}
    source = base_uri
    for k in range(1, sizes["D"] + 1):
        uri = f"layer-{k}.yaml"
        targets = rng.sample(order, sizes["A"])
        alterations = _alterations(rng, state, targets, uri, f"l{k}", 4)
        files[uri] = emit_yaml(_profile_doc(f"Layer {k} profile",
                                            [{"source": source, "include": "all"}], alterations))
        expected_changes[uri] = _changes(state, base_uri, toggles)
        source = uri

    versions = tuple(emit_yaml(_catalog_doc("Synthetic base catalog", _with_prose(base, toggles, v)))
                     for v in (0, 1))
    files[base_uri] = versions[0]
    _write(root, files)
    return Store(root, source, base_uri, versions, _model(state, order), expected_changes,
                 {**sizes, "N": len(order)})


def _select(base: list[GenControl], include: set[str], exclude: set[str]) -> list[str]:
    """Control ids a profile selects, in document order (documented semantics)."""
    selected: list[str] = []

    def take(control: GenControl) -> None:
        if control.id in exclude:
            return
        selected.append(control.id)
        for child in control.children:
            take(child)

    def walk(control: GenControl) -> None:
        if control.id in exclude:
            return
        if control.id in include:
            take(control)
            return
        for child in control.children:
            walk(child)

    for control in base:
        walk(control)
    return selected


def fanout_wide(root: Path, seed: int, sizes: dict) -> Store:
    """Base catalog with long folded prose under P sibling profiles."""
    rng = random.Random(f"fanout-wide/{seed}")
    base_uri = "base.yaml"
    base = _base_catalog(rng, sizes["T"], sizes["C"], sizes["G"], (12, 24, 16), base_uri)
    base_parts = {c.id: c.parts for c in _walk(base)}
    toggles = _toggles(rng, base, sizes["K"], 12)

    files: dict[str, bytes] = {}
    expected_changes = {}
    models = {}
    for p in range(1, sizes["P"] + 1):
        uri = f"profile-{p:02d}.yaml"
        included_tops = rng.sample(base, len(base) // 2)
        include = [c.id for c in included_tops]
        for top in base:
            if top.id not in include:
                include += [c.id for c in rng.sample(top.children, 2)]
        beneath = [c.id for top in included_tops for c in _walk(top.children)]
        exclude = rng.sample(beneath, sizes["E"])
        order = _select(base, set(include), set(exclude))
        state = {cid: list(base_parts[cid]) for cid in order}
        alterations = _alterations(rng, state, rng.sample(order, sizes["A"]), uri, f"p{p}", 16)
        files[uri] = emit_yaml(_profile_doc(
            f"Sibling profile {p}",
            [{"source": base_uri, "include": sorted(include), "exclude": sorted(exclude)}],
            alterations))
        expected_changes[uri] = _changes(state, base_uri, toggles)
        models[uri] = _model(state, order)

    versions = tuple(emit_yaml(_catalog_doc("Synthetic base catalog", _with_prose(base, toggles, v)))
                     for v in (0, 1))
    files[base_uri] = versions[0]
    _write(root, files)
    target = "profile-01.yaml"
    return Store(root, target, base_uri, versions, models[target], expected_changes,
                 {**sizes, "N": len(base_parts)})


# The shipped corpus resolved through am-profile.yaml, as the README documents it.
_CORPUS_MODEL = [
    ("id.am", (STATEMENT,)),
    ("id.am-1", (STATEMENT,)),
    ("id.am-2", (STATEMENT,)),
    ("id.am-3", (STATEMENT, "guidance", "am-specific")),
    ("id.am-4", (STATEMENT,)),
    ("id.am-5", (STATEMENT,)),
    ("id.am-6", (STATEMENT,)),
]


def corpus(root: Path, seed: int, sizes: dict, write_fixture_store) -> Store:
    """The shipped CSF ID.AM / OT / AM store; the edit rewords K statements."""
    rng = random.Random(f"corpus/{seed}")
    write_fixture_store(root)
    base_uri = "csf-id-am.yaml"
    original = (root / base_uri).read_bytes()
    document = yaml.safe_load(original)
    statements = [(control["id"], control["parts"][0])
                  for top in document["catalog"]["controls"]
                  for control in [top, *top.get("children", [])]]
    toggles = {}
    for control_id, part in rng.sample(statements, sizes["K"]):
        before = part["prose"]
        part["prose"] = f"{before} {_prose(rng, 4)}"
        toggles[(control_id, STATEMENT)] = (before, part["prose"])
    changed = {"ot-profile.yaml": dict(toggles), "am-profile.yaml": dict(toggles)}
    return Store(root, "am-profile.yaml", base_uri, (original, emit_yaml(document)),
                 list(_CORPUS_MODEL), changed, {**sizes, "N": len(statements)})


WORKLOADS = ("chain-deep", "fanout-wide", "corpus")


def generate(workload: str, root: Path, seed: int, package=None, sizes: dict | None = None) -> Store:
    """Write the workload's store under ``root`` and describe it.

    ``package`` is the imported ``layered_guidance``; only the corpus
    workload uses it, to write the shipped fixtures.
    """
    sizes = dict(SIZES[workload] if sizes is None else sizes)
    if workload == "chain-deep":
        return chain_deep(root, seed, sizes)
    if workload == "fanout-wide":
        return fanout_wide(root, seed, sizes)
    if workload == "corpus":
        return corpus(root, seed, sizes, package.write_fixture_store)
    raise ValueError(f"unknown workload {workload!r}")

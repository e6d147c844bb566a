"""Spans around the package's layer boundaries, recorded from outside it.

``Tracer.install`` replaces each traced function in every module that
calls it: a from-import binds the name per module, so ``parse_document``
is replaced in ``resolver``, ``changes`` and ``cli`` alike.
``Tracer.uninstall`` puts the originals back. Each span records its name,
start, end, parent span and operation (one CLI invocation). Spans stay in
memory until ``write`` dumps them as JSON lines.

Per-layer metrics come from self times: a span's duration minus the
durations of its direct children. Calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

# span name -> (modules whose binding is replaced, attribute name)
BOUNDARIES = {
    "serialize.parse": (("resolver", "changes", "cli"), "parse_document"),
    "serialize.emit": (("changes", "cli"), "serialize_document"),
    "model.validate_catalog": (("serialize", "cli"), "validate_catalog"),
    "model.validate_profile": (("cli",), "validate_profile"),
    "resolver.detect_cycles": (("resolver",), "detect_cycles"),
    "resolver.resolve": (("resolver",), "resolve"),
    "resolver.apply_alteration": (("resolver",), "apply_alteration"),
    "resolver.wrap_catalog": (("resolver", "cli"), "wrap_catalog"),
    "changes.build_graph": (("changes", "cli"), "build_graph"),
    "changes.diff": (("changes", "cli"), "diff"),
    "changes.propagate": (("cli",), "propagate"),
    "render.render": (("cli",), "render_markdown"),
}
# Spans with a special installation: SourceStore.load, yaml.load as called
# from serialize, and the whole CLI invocation.
STORE_LOAD = "resolver.store_load"
YAML_LOAD = "serialize.yaml_load"
COMMAND = "cli"


def _count_controls(controls) -> int:
    return sum(1 + _count_controls(c.children) for c in controls)


# span name -> size recorded with the span, from (args, result)
_SIZES = {
    "serialize.parse": lambda args, result: len(args[0]),
    "serialize.emit": lambda args, result: len(result),
    "resolver.resolve": lambda args, result: _count_controls(result.catalog.controls),
    "changes.diff": lambda args, result: len(result.entries),
    "changes.propagate": lambda args, result: len(result),
    "render.render": lambda args, result: len(result.encode("utf-8")),
}


class TraceError(RuntimeError):
    """A traced name is missing, or a layer recorded no spans."""


class _ModuleProxy:
    """Stands in for a module, with some attributes overridden."""

    def __init__(self, module, **overrides) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


class Tracer:
    """Records spans at the layer boundaries of the imported package."""

    def __init__(self, package_name: str) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op, size]
        self.commands: dict[int, str] = {}  # op id -> CLI command name
        self._stack: list[int] = []
        self._op = 0
        self._bindings: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        modules = {name: importlib.import_module(f"{package_name}.{name}")
                   for name in ("serialize", "resolver", "changes", "cli")}
        for span, (owners, attr) in BOUNDARIES.items():
            for owner in owners:
                original = self._lookup(modules[owner], attr)
                self._bindings.append((modules[owner], attr, original,
                                       self._wrap(span, original, _SIZES.get(span))))
        store_class = self._lookup(modules["resolver"], "SourceStore")
        load = self._lookup(store_class, "load")
        self._lookup(store_class("."), "load_count")  # the parse counter store_parses reads
        self._bindings.append((store_class, "load", load, self._wrap_store_load(load)))
        yaml_module = self._lookup(modules["serialize"], "yaml")
        yaml_load = self._lookup(yaml_module, "load")
        proxy = _ModuleProxy(yaml_module, load=self._wrap(YAML_LOAD, yaml_load, None))
        self._bindings.append((modules["serialize"], "yaml", yaml_module, proxy))

    @staticmethod
    def _lookup(owner, attr: str):
        if not hasattr(owner, attr):
            raise TraceError(f"traced name {getattr(owner, '__name__', owner)}.{attr} is missing")
        return getattr(owner, attr)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _record(self, name: str, fn, args, kwargs, size):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, 0]
        self.spans.append(span)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            span[1] = start
            self._stack.pop()
        if size is not None:
            span[5] = size(args, result)
        return result

    def _wrap(self, name: str, fn, size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs, size)
        return wrapper

    def _wrap_store_load(self, load):
        @functools.wraps(load)
        def wrapper(store, *args, **kwargs):
            before = store.load_count
            return self._record(STORE_LOAD, load, (store, *args), kwargs,
                                lambda _args, _result: store.load_count - before)
        return wrapper

    def command(self, main, args: list[str]) -> int:
        """Run one CLI invocation as the root span of a new operation."""
        self._op += 1
        self.commands[self._op] = args[0]
        return self._record(COMMAND, main, (args,), {}, None)

    def require(self) -> None:
        """Fail unless every traced layer recorded spans."""
        names = {span[0] for span in self.spans}
        missing = sorted((set(BOUNDARIES) | {STORE_LOAD, YAML_LOAD, COMMAND}) - names)
        if missing:
            raise TraceError(f"no spans recorded for {', '.join(missing)}")

    def layer_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics of the spans with index in ``[first, last)``."""
        spans = self.spans[first:last]
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        size: dict[str, int] = {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:  # a cycle's spans all descend from its commands
                child_time[parent - first] += end - start
        propagate_resolves = 0
        for offset, (name, start, end, _, op, amount) in enumerate(spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[offset]
            calls[name] = calls.get(name, 0) + 1
            size[name] = size.get(name, 0) + amount
            if name == "resolver.resolve" and self.commands[op] == "propagate":
                propagate_resolves += 1

        def s(name):
            return self_time.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        loads, parses = n(STORE_LOAD), size.get(STORE_LOAD, 0)
        reresolved = size.get("changes.propagate", 0)
        return {
            "serialize.parse_s": s("serialize.parse"),
            "serialize.parse_calls": n("serialize.parse"),
            "serialize.parse_bytes": size.get("serialize.parse", 0),
            "serialize.yaml_load_s": s(YAML_LOAD),
            "serialize.emit_s": s("serialize.emit"),
            "serialize.emit_calls": n("serialize.emit"),
            "serialize.emit_bytes": size.get("serialize.emit", 0),
            "model.validate_catalog_s": s("model.validate_catalog"),
            "model.validate_profile_s": s("model.validate_profile"),
            "resolver.store_loads": loads,
            "resolver.store_parses": parses,
            "resolver.store_hit_ratio": (loads - parses) / loads if loads else 0.0,
            "resolver.detect_cycles_s": s("resolver.detect_cycles"),
            "resolver.detect_cycles_calls": n("resolver.detect_cycles"),
            "resolver.resolve_s": s("resolver.resolve"),
            "resolver.resolve_calls": n("resolver.resolve"),
            "resolver.apply_alteration_s": s("resolver.apply_alteration"),
            "resolver.apply_alteration_calls": n("resolver.apply_alteration"),
            "resolver.wrap_catalog_s": s("resolver.wrap_catalog"),
            "resolver.wrap_catalog_calls": n("resolver.wrap_catalog"),
            "resolver.resolve_calls_per_profile":
                propagate_resolves / reresolved if reresolved else 0.0,
            "resolver.controls_out": size.get("resolver.resolve", 0),
            "changes.build_graph_s": s("changes.build_graph"),
            "changes.diff_s": s("changes.diff"),
            "changes.diff_calls": n("changes.diff"),
            "changes.diff_entries": size.get("changes.diff", 0),
            "changes.propagate_self_s": s("changes.propagate"),
            "changes.profiles_reresolved": reresolved,
            "render.render_s": s("render.render"),
            "render.output_bytes": size.get("render.render", 0),
            "cli.self_s": s(COMMAND),
        }

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, op, amount in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op,
                                         "command": self.commands[op], "size": amount}) + "\n")

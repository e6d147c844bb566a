"""End-to-end benchmark of the ``guidance`` CLI on seeded synthetic stores.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload chain-deep --seed 1 --seconds 10 --trace 0

The run generates the workload's store from the seed, then repeats a cycle
of the four user commands for ``--seconds`` seconds, each as one in-process
call of ``layered_guidance.cli.main`` (so each gets a fresh SourceStore, as
the real CLI does):

    resolve <target> --store S -o F
    render F --provenance -o M
    validate S/<target> --store S
    (untimed edit: toggle the base catalog to its other version)
    propagate --store S --changed <base> --format json

Every output is checked against the generator's expected model; a failed
check counts the operation as failed and the run goes on. ``--trace 0``
reports the end-to-end metrics: the median time of each command, the
median of several set-ups and peak RSS. ``--trace 1`` alternates untraced
and traced cycles and reports per-layer metrics from the traced ones
(medians over cycles of the per-cycle totals) plus the tracing overhead.

Reported times are scaled for machine speed. Before every command the run
times a fixed pure-Python task, the probe. On a shared machine the host's
speed drifts by 1.5x or more between runs a few minutes apart; the probe
slows with it. Every time is multiplied by ``PROBE_REFERENCE_S`` divided by
the run's median probe time: it is the time the command would take on a
machine where the probe takes ``PROBE_REFERENCE_S``. The records keep the
unscaled samples.

The last line of standard output is a JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A record with the environment,
the sizes and all samples goes to ``.perfbench/results/``, and the traced
run's spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import yaml

import check
import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "layered_guidance"
WORK = ROOT / ".perfbench"
COMMANDS = ("resolve", "render", "validate", "propagate")
# Set-ups per untraced run; setup_s is their median.
SETUPS = {"chain-deep": 9, "fanout-wide": 9, "corpus": 15}

# The probe: PyYAML's pure-Python loader on a fixed small catalog, the same
# kind of work that dominates the commands. The reference is its time on an
# unloaded 2-vCPU x86_64 machine with Python 3.11.
PROBE_DOCUMENT = gen.emit_yaml({"catalog": {
    "metadata": {"title": "Probe", "version": "1.0"},
    "controls": [{"id": f"p{i}", "class": "probe",
                  "parts": [{"name": "statement", "class": "outcome",
                             "prose": "A fixed statement that the probe parses."}]}
                 for i in range(12)],
}})
PROBE_REFERENCE_S = 0.005

END_TO_END_UNITS = {
    "setup_s": "s", "resolve_s": "s", "render_s": "s", "validate_s": "s", "propagate_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    pass


def import_package():
    """Import the package from ``src/`` afresh, as a new CLI process would."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(f"{PACKAGE}.")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"{PACKAGE} was imported from {package.__file__}, not from {SRC}")
    return package


class Bench:
    """One store, the CLI that acts on it, and the tally of checked operations."""

    def __init__(self, cli, store: gen.Store, directory: Path) -> None:
        self.cli = cli
        self.store = store
        self.resolved = directory / "target-resolved.yaml"
        self.markdown = directory / "target.md"
        self.version = 0  # which base version the store holds
        self.verified: list[bytes | None] = [None, None]  # checked resolve output per version
        self.tracer: spans.Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.probes: list[float] = []

    def invoke(self, args: list[str]) -> tuple[int, str, float]:
        out, err = io.StringIO(), io.StringIO()
        fresh_heap()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if self.tracer is None:
                code = self.cli.main(args)
            else:
                code = self.tracer.command(self.cli.main, args)
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), elapsed

    def _run(self, times: dict[str, list[float]], args: list[str], verify) -> None:
        self.probes.append(probe())
        code, stdout, elapsed = self.invoke(args)
        self.attempted += 1
        times.setdefault(args[0], []).append(elapsed)
        try:
            problem = f"exit code {code}" if code != 0 else verify(stdout)
        except (KeyError, IndexError, TypeError, AttributeError) as exc:
            problem = f"output has an unexpected shape: {exc!r}"
        if problem is not None:
            self.failures.append(f"{args[0]}: {problem}")

    def _verify_resolved(self, _stdout: str) -> str | None:
        if not self.resolved.is_file():
            return "no resolved file written"
        data = self.resolved.read_bytes()
        known = self.verified[self.version]
        if known is not None:
            return None if data == known else "resolve bytes differ from an earlier iteration"
        problem = check.check_resolved(data, self.store)
        if problem is None:
            self.verified[self.version] = data
        return problem

    def _verify_render(self, _stdout: str) -> str | None:
        if not self.markdown.is_file():
            return "no markdown written"
        return check.check_render(self.markdown.read_text(encoding="utf-8"), self.store)

    def propagate_args(self) -> list[str]:
        return ["propagate", "--store", str(self.store.root), "--changed", self.store.base,
                "--format", "json"]

    def cycle(self, times: dict[str, list[float]]) -> None:
        store = self.store
        self.resolved.unlink(missing_ok=True)
        self.markdown.unlink(missing_ok=True)
        self._run(times, ["resolve", store.target, "--store", str(store.root),
                          "-o", str(self.resolved)], self._verify_resolved)
        self._run(times, ["render", str(self.resolved), "--provenance", "-o", str(self.markdown)],
                  self._verify_render)
        self._run(times, ["validate", str(store.root / store.target), "--store", str(store.root)],
                  check.check_validate)
        before = self.version
        (store.root / store.base).write_bytes(store.versions[1 - before])
        self.version = 1 - before
        self._run(times, self.propagate_args(),
                  lambda stdout: check.check_propagate(stdout, store, before))


def fresh_heap(full: bool = False) -> None:
    """Collect garbage and exempt what is left from later collections.

    A CLI process starts with a small heap; here the heap also holds the
    benchmark and earlier invocations. Without this, full collections land
    on random invocations and scan objects a real process would not have.
    ``full`` also collects what was exempted before, such as the modules a
    new set-up's import replaced.
    """
    if full:
        gc.unfreeze()
    gc.collect()
    gc.freeze()


def probe() -> float:
    start = time.perf_counter()
    yaml.load(PROBE_DOCUMENT, Loader=yaml.SafeLoader)
    return time.perf_counter() - start


def setup(workload: str, seed: int, directory: Path,
          sizes: dict | None = None) -> tuple[float, Bench]:
    """Import the package, write the store and fill ``resolved/``; returns seconds taken."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    fresh_heap(full=True)
    start = time.perf_counter()
    package = import_package()
    store = gen.generate(workload, directory / "store", seed, package, sizes)
    bench = Bench(package.cli, store, directory)
    code, stdout, _ = bench.invoke(bench.propagate_args())
    elapsed = time.perf_counter() - start
    results = json.loads(stdout) if code == 0 else []
    if code != 0 or sorted(r["profile-uri"] for r in results) != sorted(store.expected_changes) \
            or not all(r.get("initial") for r in results):
        raise SetupError(f"warm-up propagate failed (exit code {code})")
    return elapsed, bench


def summary(samples: list[float]) -> dict:
    """Fastest, median, count, and the highest percentile with ten samples above it."""
    ordered = sorted(samples)
    record = {"min": ordered[0], "median": statistics.median(ordered), "n": len(ordered)}
    if len(ordered) > 10:
        rank = len(ordered) - 11
        record[f"p{100 * (rank + 1) // len(ordered)}"] = ordered[rank]
    return record


def environment(workload: str, seed: int, store: gen.Store) -> dict:
    return {
        "python": platform.python_version(),
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "sizes": store.sizes,
        "store_bytes": store.store_bytes(),
    }


def measure(bench: Bench, seconds: float, setup_again, setups: int) -> dict:
    """Cycles for ``seconds``, with ``setups`` more set-ups spread evenly over them.

    Machine speed drifts over tens of seconds, so set-ups are timed across
    the run like the commands; the time they take does not count against
    ``seconds``.
    """
    times: dict[str, list[float]] = {}
    setup_times: list[float] = []
    start = time.perf_counter()
    paused = 0.0
    while (elapsed := time.perf_counter() - start - paused) < seconds:
        bench.cycle(times)
        if len(setup_times) < setups and elapsed >= seconds * (len(setup_times) + 1) / (setups + 1):
            begin = time.perf_counter()
            setup_times.append(setup_again())
            paused += time.perf_counter() - begin
    return {"times": times, "setup_times": setup_times}


def measure_traced(bench: Bench, seconds: float) -> dict:
    """Untraced and traced cycles for ``seconds``; per-layer metrics of the traced ones.

    Each pair of cycles runs in alternating order, so drift in machine speed
    falls on both sides of the overhead ratio.
    """
    tracer = spans.Tracer(PACKAGE)
    times: dict[str, list[float]] = {}
    traced_times: dict[str, list[float]] = {}
    per_cycle = []
    deadline = time.perf_counter() + seconds
    pair = 0
    while time.perf_counter() < deadline:
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            if not with_trace:
                bench.cycle(times)
                continue
            first = len(tracer.spans)
            tracer.install()
            bench.tracer = tracer
            try:
                bench.cycle(traced_times)
            finally:
                bench.tracer = None
                tracer.uninstall()
            per_cycle.append(tracer.layer_metrics(first, len(tracer.spans)))
        pair += 1
    tracer.require()
    layers = {name: statistics.median(m[name] for m in per_cycle) for name in per_cycle[0]}
    untraced = sum(statistics.median(times[c]) for c in COMMANDS)
    with_trace = sum(statistics.median(traced_times[c]) for c in COMMANDS)
    layers["trace.overhead_frac"] = with_trace / untraced - 1
    return {"times": times, "traced_times": traced_times, "layers": layers, "tracer": tracer}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_per_profile"):
        return "calls/profile"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import click  # noqa: F401  imported before set-up so every set-up pays the same

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def setup_again() -> float:
        elapsed, extra = setup(args.workload, args.seed, work / "setup-again")
        shutil.rmtree(extra.store.root.parent)
        return elapsed

    try:
        elapsed, bench = setup(args.workload, args.seed, work / "setup")
        if args.trace:
            result = measure_traced(bench, args.seconds)
        else:
            result = measure(bench, args.seconds, setup_again, SETUPS[args.workload] - 1)
    except (SetupError, spans.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_times = [elapsed, *result.get("setup_times", [])]

    times = result["times"]
    speed = PROBE_REFERENCE_S / statistics.median(bench.probes)
    if args.trace:
        metrics = {name: {"value": value * speed if name.endswith("_s") else value,
                          "unit": layer_unit(name)}
                   for name, value in result["layers"].items()}
    else:
        values = {"setup_s": statistics.median(setup_times) * speed}
        values.update({f"{c}_s": statistics.median(times[c]) * speed for c in COMMANDS})
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    failed = len(bench.failures)
    env = environment(args.workload, args.seed, bench.store)
    record = {
        "env": env,
        "attempted": bench.attempted,
        "failed": failed,
        "failed_frac": failed / bench.attempted,
        "failures": bench.failures[:20],
        "unchecked": check.UNCHECKED,
        "probe": summary(bench.probes),
        "speed": speed,
        "setup_s": setup_times,
        "commands": {c: summary(times[c]) for c in COMMANDS},
        "samples": {c: times[c] for c in COMMANDS},
        "metrics": metrics,
    }
    if args.trace:
        record["traced_commands"] = {c: summary(result["traced_times"][c]) for c in COMMANDS}
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        result["tracer"].write(traces / f"{args.workload}-seed{args.seed}.jsonl")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(work)

    print("env " + json.dumps(env))
    print(f"speed = {speed:.4g} (probe median {statistics.median(bench.probes):.4g} s); "
          "command lines below are unscaled seconds")
    for command in COMMANDS:
        print(f"{command}: " + json.dumps(record["commands"][command]))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {record['failed_frac']:.6g} ({failed} of {bench.attempted})")
    for failure in record["failures"]:
        print(f"failure: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

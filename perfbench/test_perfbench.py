"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``.

They use small stores, so they take seconds; the sizes keep every
structural feature of the full workloads.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMALL = {
    "chain-deep": {"T": 2, "C": 2, "G": 2, "D": 5, "A": 4, "K": 3},
    "fanout-wide": {"T": 2, "C": 3, "G": 2, "P": 3, "A": 3, "E": 1, "K": 3},
    "corpus": {"K": 2},
}


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_same_store_bytes(tmp_path, workload):
    package = run.import_package()
    stores = [gen.generate(workload, tmp_path / name, seed, package, SMALL[workload])
              for name, seed in (("a", 7), ("b", 7), ("c", 8))]
    assert _files(stores[0].root) == _files(stores[1].root)
    assert stores[0].versions == stores[1].versions
    assert stores[0].versions != stores[2].versions


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_checker_accepts_outputs_at_this_commit(tmp_path, workload):
    _, bench = run.setup(workload, 3, tmp_path, SMALL[workload])
    times: dict[str, list[float]] = {}
    for _ in range(3):
        bench.cycle(times)
    assert bench.failures == []
    assert bench.attempted == 12


def test_checker_rejects_corrupted_outputs(tmp_path):
    _, bench = run.setup("chain-deep", 3, tmp_path, SMALL["chain-deep"])
    bench.cycle({})
    assert bench.failures == []
    good = bench.verified[0]
    assert check.check_resolved(good, bench.store) is None

    missing_part = good.replace(b"name: statement", b"name: statemenx", 1)
    assert check.check_resolved(missing_part, bench.store) is not None
    assert check.check_resolved(b"catalog: [", bench.store) is not None

    code, stdout, _ = bench.invoke(bench.propagate_args())  # no edit: nothing changed
    assert code == 0
    assert check.check_propagate(stdout, bench.store, bench.version) is not None

    # Output that differs from the bytes verified earlier for the same base
    # version is a failure even before the model is compared.
    bench.version = 0
    bench.resolved.write_bytes(good + b"\n")
    assert bench._verify_resolved("") is not None


def _traced_cycle(tmp_path: Path, workload: str, sizes: dict) -> dict[str, float]:
    _, bench = run.setup(workload, 5, tmp_path, sizes)
    tracer = spans.Tracer(run.PACKAGE)
    tracer.install()
    bench.tracer = tracer
    try:
        bench.cycle({})
    finally:
        tracer.uninstall()
    assert bench.failures == []
    tracer.require()
    return tracer.layer_metrics(0, len(tracer.spans))


@pytest.mark.parametrize("depth", [2, 5])
def test_resolve_calls_per_profile_on_chain_deep(tmp_path, depth):
    metrics = _traced_cycle(tmp_path, "chain-deep", {**SMALL["chain-deep"], "D": depth})
    assert metrics["changes.profiles_reresolved"] == depth
    assert metrics["resolver.resolve_calls_per_profile"] == (depth + 1) / 2


def test_resolve_calls_per_profile_on_corpus(tmp_path):
    metrics = _traced_cycle(tmp_path, "corpus", SMALL["corpus"])
    assert metrics["resolver.resolve_calls_per_profile"] == 1.5
    assert metrics["changes.diff_entries"] == 2 * SMALL["corpus"]["K"]


def test_missing_traced_name_fails_loudly(monkeypatch):
    run.import_package()
    resolver = sys.modules[f"{run.PACKAGE}.resolver"]
    monkeypatch.delattr(resolver, "apply_alteration")
    with pytest.raises(spans.TraceError, match="apply_alteration"):
        spans.Tracer(run.PACKAGE)


def test_layer_without_spans_fails_loudly(tmp_path):
    _, bench = run.setup("corpus", 1, tmp_path, SMALL["corpus"])
    tracer = spans.Tracer(run.PACKAGE)
    tracer.install()
    bench.tracer = tracer
    try:
        bench.invoke(["render", str(bench.store.root / "csf-id-am.yaml"), "-o",
                      str(tmp_path / "catalog.md")])
    finally:
        tracer.uninstall()
    with pytest.raises(spans.TraceError, match="resolver.resolve"):
        tracer.require()


def test_result_line_has_the_contract_keys(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setitem(gen.SIZES, "chain-deep", SMALL["chain-deep"])
    assert run.main(["--workload", "chain-deep", "--seed", "2", "--seconds", "0.1",
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert "trace.overhead_frac" in result["metrics"]

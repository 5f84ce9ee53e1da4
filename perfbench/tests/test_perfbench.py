"""Self-tests of the benchmark: span arithmetic, the correctness checks
against stub mechanisms, tiny runs of every workload, and the agreement of
BENCHMARK.json with the code."""
import json
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, run
from perfbench.bench import Tally, run_traced, run_untraced
from perfbench.spans import Span, Tracer, self_times
from perfbench.workloads import TINY, WORKLOADS
from privtext.randomizers import Mechanism

ROOT = Path(__file__).resolve().parents[2]
SEED = 1


def test_self_time_on_hand_built_tree():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("d", 2.0, 3.0, 1),
        Span("c", 5.0, 8.0, 0),
        Span("d", 6.0, 6.5, 3),
        Span("b", 20.0, 21.5, -1),
    ]
    got = self_times(spans)
    assert got["a"] == (1, pytest.approx(10.0 - 3.0 - 3.0))
    assert got["b"] == (2, pytest.approx((3.0 - 1.0) + 1.5))
    assert got["c"] == (1, pytest.approx(3.0 - 0.5))
    assert got["d"] == (2, pytest.approx(1.0 + 0.5))


def test_tracer_rebinds_imported_names_and_restores():
    owner, user = types.ModuleType("owner"), types.ModuleType("user")

    def leaf(x):
        return x + 1

    owner.leaf = leaf
    user.leaf = leaf
    user.outer = lambda x: user.leaf(x) * 2
    ticks = iter(range(100))
    with Tracer(clock=lambda: float(next(ticks))) as tracer:
        tracer.patch([owner, user], owner, "leaf", "m.leaf",
                     lambda counts, args, kwargs, result: counts.update(n=counts["n"] + args[0]))
        tracer.patch([owner, user], user, "outer", "m.outer")
        assert user.outer(3) == 8
        assert owner.leaf(1) == 2
    assert owner.leaf is leaf and user.leaf is leaf
    assert [(s.name, s.parent) for s in tracer.spans] == [("m.outer", -1), ("m.leaf", 0), ("m.leaf", -1)]
    assert tracer.counts["n"] == 4


def _identity(self, rng, w, n):
    return np.full(n, int(w), dtype=np.int64)


def _uniform(self, rng, w, n):
    return rng.gen.integers(len(self.store), size=n)


def _op_checks(workload, workdir):
    inputs = workload.prepare(SEED, workdir)
    return dict(workload.op(inputs, workload.setup(inputs), 0).checks)


@pytest.mark.parametrize("name", ["lac-smooth-5k-d300", "lac-wide-1k", "audit-1k"])
def test_checks_pass_real_and_reject_stub_mechanisms(name, tmp_path, monkeypatch):
    workload = TINY[name]
    assert all(_op_checks(workload, str(tmp_path)).values())
    for stub in (_identity, _uniform):
        monkeypatch.setattr(Mechanism, "perturb_batch", stub)
        checks = _op_checks(workload, str(tmp_path))
        failed = [check for check, ok in checks.items() if not ok]
        assert any("band" in check for check in failed), (stub.__name__, checks)


def test_density_check_rejects_identity(tmp_path, monkeypatch):
    workload = TINY["cli-density-5k"]
    monkeypatch.setattr(Mechanism, "perturb_batch", _identity)
    inputs = workload.prepare(SEED, str(tmp_path))
    op = workload.op(inputs, workload.setup(inputs), 0)
    assert all(ok for _, ok in op.checks)
    assert [ok for _, ok in workload.run_checks(inputs)] == [False]


@pytest.fixture(scope="module")
def tiny_traced():
    """Per-layer metrics of a traced tiny run of every workload."""
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, workload in TINY.items():
            tally = Tally()
            metrics = run_traced(workload, workload.prepare(SEED, workdir), 0.0, tally)
            out[name] = (tally, metrics)
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_untraced_run(name, tmp_path):
    workload, tally = TINY[name], Tally()
    metrics, named, n_ops = run_untraced(workload, workload.prepare(SEED, str(tmp_path)), 0.0, tally)
    assert tally.failed == 0 and tally.attempted > n_ops >= 1
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in [*metrics.values(), *named.values()])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_is_byte_identical(name, tiny_traced):
    tally, metrics = tiny_traced[name]
    assert tally.failed == 0
    assert metrics["trace.overhead_frac"]["value"] > -1.0


def test_every_per_layer_metric_is_live_on_some_workload(tiny_traced):
    dead = [
        metric for metric, _ in layers.per_layer_spec()
        if metric != "trace.overhead_frac"
        and all(metrics[metric]["value"] == 0 for _, metrics in tiny_traced.values())
    ]
    assert dead == []


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [w["name"] for w in spec["workloads"]] == [n for n in WORKLOADS if n != "lac-wide-1k"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lac-wide-1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Tests of the benchmark's own code.

    python3 -m pytest bench/check_bench.py

The hand-count test pins the package's current call structure; a change
that restructures those calls updates the hand counts in workloads.py with
it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def set_ups():
    return {name: workloads.set_up(w) for name, w in workloads.WORKLOADS.items()}


def test_self_time_arithmetic_on_a_synthetic_nest():
    # outer 0..100 holds leaf 10..15 and mid 30..70; mid holds leaf 40..60.
    ticks = iter([0, 10, 15, 30, 40, 60, 70, 100])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda: None, "leaf")
    mid = tracer.wrap(lambda: leaf(), "mid")

    def body():
        leaf()
        mid()
        return "done"

    assert tracer.wrap(body, "outer")() == "done"
    assert tracer.stats["leaf"] == [2, 25, 25]
    assert tracer.stats["mid"] == [1, 40, 20]
    assert tracer.stats["outer"] == [1, 100, 55]
    assert tracer.total_ns() == 100


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in list(e2e) + list(layer) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert spec["command"] == ["python3", "bench/run.py"]


# The residual identity resolves the c2 sign only once a nonzero residual
# enters the c2 sum, which takes at least 4 steps.
@pytest.mark.parametrize("name, steps", [("fig1-cell", 3), ("wide-d", 3), ("oracle-replay", 5)])
def test_each_workload_runs_a_few_steps_with_hand_counted_spans(name, steps, set_ups):
    workload = workloads.WORKLOADS[name]
    G, inputs = set_ups[name]
    modules = spans.package_modules()
    plain = workload.run_round(G, inputs, 5, steps=steps)

    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        traced = workload.run_round(G, inputs, 5, steps=steps)
    finally:
        tracer.restore()

    assert spans.leftover_probes(modules) == []
    assert [op.error for op in traced] == [None] * len(traced)
    assert [op.steps for op in traced] == [steps] * len(traced)
    assert [op.digest for op in traced] == [op.digest for op in plain]
    expected: dict = {}
    for op in traced:
        for span, count in op.counts.items():
            expected[span] = expected.get(span, 0) + count
    for span, count in expected.items():
        assert run.span_totals(tracer.stats, (span,))[0] == count, span


def test_hand_counts_per_step(set_ups):
    """The per-step counts the issue names: 2n / n keyed draws per STORM / IGT
    step, n+1 compress and filter calls, no compressor draws for top_k and
    one_bit."""
    G, _ = set_ups["fig1-cell"]
    problem = G.problems.ProblemSpec(kind="lin_reg", dim=20, n_samples=512, seed=3)

    def per_step(config):
        a, b = workloads.hand_counts(config, 5), workloads.hand_counts(config, 6)
        return {k: b[k] - a[k] for k in a}

    for estimator, draws in (("storm", 16), ("igt", 8)):
        config = G.simulator.RunConfig(problem=problem, estimator=estimator, n_workers=8,
                                       compressor=G.compression.CompressorSpec("one_bit"))
        step = per_step(config)
        assert step["rng.keyed_generator"] == draws
        assert step["compression.compress"] == step["compensation.filter_update"] == 9

    wide_g, wide_inputs = set_ups["wide-d"]
    wide = workloads.WORKLOADS["wide-d"]
    for compressor in wide_inputs["compressors"]:
        config = wide.config(wide_g, wide_inputs, compressor, 0, 3)
        draws = workloads.hand_counts(config, 3)["rng.keyed_generator"]
        assert (draws == 0) == (compressor.kind in ("top_k", "one_bit"))


def _bench(args, cwd, timeout=120):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_launcher_prints_every_metric(trace):
    done = _bench(["--workload", "fig1-cell", "--seed", "3", "--seconds", "0.1", "--trace", trace], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]]
    assert list(result["metrics"]) == names
    for name in names:
        assert f"metric {name} " in done.stdout


def test_launcher_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(["--workload", "wide-d", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

"""gradcomp benchmark launcher.

    python3 bench/run.py --workload fig1-cell --seed 1 --seconds 15 --trace 0

Runs one workload in this process, with one thread and one BLAS thread, and
prints every metric by name with its unit, then one JSON line.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` repeats the workload's first
round untraced and then traced, and reports the per-layer metrics.  Metric
definitions, the JSON schema and the reason for each workload are in
README.md next to this file.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in the set-up probes this process starts.
BLAS_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_us_p50": "us",
    "step_us_p90": "us",
    "peak_rss_mb": "MiB",
    "ok_rate": "ratio",
}

# (span name or prefix, statistic, unit); the metric is named "<span>.<statistic>".
# A prefix covers every span below it: compression.compress sums the per-kind
# compress spans.
LAYER_STATS = (
    ("rng.keyed_generator", "calls_per_step", "count"),
    ("rng.keyed_generator", "us_per_step", "us"),
    ("problems.minibatch_indices", "calls_per_step", "count"),
    ("problems.minibatch_indices", "self_us_per_step", "us"),
    ("problems.stoch_grad", "calls_per_step", "count"),
    ("problems.stoch_grad", "self_us_per_step", "us"),
    ("problems.make_problem", "ms_per_op", "ms"),
    ("estimators.eval_a", "self_us_per_step", "us"),
    ("estimators.update_v", "us_per_step", "us"),
    ("estimators.fixed_order_mean", "calls_per_step", "count"),
    ("estimators.fixed_order_mean", "us_per_step", "us"),
    ("compensation.filter_update", "calls_per_step", "count"),
    ("compensation.filter_update", "us_per_step", "us"),
    ("compensation.compensate", "us_per_step", "us"),
    ("compression.compress", "calls_per_step", "count"),
    ("compression.compress", "self_us_per_step", "us"),
    *(
        (f"compression.compress.{kind}", "self_us_per_call", "us")
        for kind in ("top_k", "rand_k", "stoch_quant", "one_bit", "identity")
    ),
    ("simulator.run_step", "self_us_per_step", "us"),
    ("simulator.record", "us_per_step", "us"),
    ("simulator.run", "self_ms_per_op", "ms"),
    ("oracle.ghost_run", "ms_per_op", "ms"),
    ("oracle.verify_residual_identity", "self_ms_per_op", "ms"),
    ("oracle.residual_closed_form", "calls_per_op", "count"),
    ("harness.parse_run_config", "us_per_op", "us"),
)
PER_LAYER = (
    {f"{span}.{statistic}": unit for span, statistic, unit in LAYER_STATS}
    | {"compression.bits_per_step": "bit", "tracing.overhead_pct": "%"}
    | {f"share.{layer}_pct": "%" for layer in spans.LAYERS}
)


def git_commit() -> str:
    """HEAD's commit read from .git, or "none" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def environment(G, seed: int) -> dict:
    try:
        blas = G.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": G.np.__version__,
        "blas_build": blas_build,
        "blas_threads_env": BLAS_ENV,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def probe_setup(workload: str) -> list[float]:
    """Cold set-up times, each measured in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def run_rounds(workload, G, inputs, seeds, seconds: float):
    """Run whole rounds, one per seed, until seconds have passed.

    Returns the rounds' ops, each round's duration, the elapsed time and the
    duration of every simulator.run_step call.
    """
    rounds, durations = [], []
    timer = spans.StepTimer(spans.package_modules())
    try:
        start = time.perf_counter()
        for seed in seeds:
            began = time.perf_counter()
            rounds.append(workload.run_round(G, inputs, seed))
            durations.append(time.perf_counter() - began)
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
    finally:
        timer.restore()
    return rounds, durations, elapsed, timer.samples


def round_seeds(seed: int):
    """Round seeds drawn from the workload seed; the same seed gives the same rounds."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def end_to_end(workload, G, inputs, seed: int, seconds: float):
    rounds, _, elapsed, samples = run_rounds(workload, G, inputs, round_seeds(seed), seconds)
    ops = [op for ops in rounds for op in ops]
    metrics = {
        "steps_per_s": sum(op.steps for op in ops) / elapsed,
        "step_us_p50": statistics.median(samples) / 1e3,
        "step_us_p90": statistics.quantiles(samples, n=10)[8] / 1e3,
    }
    info = {"step_samples": len(samples), "rounds": len(rounds), "timed_s": elapsed}
    return ops, metrics, info, []


def _under(name: str, prefixes) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def span_totals(stats: dict, prefixes) -> tuple[int, int, int]:
    """Calls, total ns and self ns of every span under any of the prefixes."""
    calls = total = self_ns = 0
    for name, (c, t, s) in stats.items():
        if _under(name, prefixes):
            calls, total, self_ns = calls + c, total + t, self_ns + s
    return calls, total, self_ns


def span_stat(stats: dict, prefix: str, statistic: str, steps: int, ops: int) -> float:
    calls, total, self_ns = span_totals(stats, (prefix,))
    return {
        "calls_per_step": calls / steps,
        "us_per_step": total / 1e3 / steps,
        "self_us_per_step": self_ns / 1e3 / steps,
        "calls_per_op": calls / ops,
        "us_per_op": total / 1e3 / ops,
        "ms_per_op": total / 1e6 / ops,
        "self_ms_per_op": self_ns / 1e6 / ops,
        "self_us_per_call": self_ns / 1e3 / calls if calls else 0.0,
    }[statistic]


def purpose_line(workload, stats: dict) -> str:
    """Whether the workload's target spans hold the largest self-time share."""
    total = sum(s for _, _, s in stats.values())
    own = span_totals(stats, workload.purpose)[2]
    others: dict = {}
    for name, (_, _, s) in stats.items():
        if not _under(name, workload.purpose):
            layer = name.split(".")[0]
            others[layer] = others.get(layer, 0) + s
    top = max(others, key=others.get)
    verdict = "largest" if own > others[top] else "NOT largest"
    return (
        f"{'+'.join(workload.purpose)} {100 * own / total:.1f}% is {verdict}; "
        f"next {top} {100 * others[top] / total:.1f}%"
    )


def per_layer(workload, G, inputs, seed: int, seconds: float):
    """The first round, repeated untraced and then traced, half the time each."""
    first = itertools.repeat(next(round_seeds(seed)))
    plain_rounds, plain_times, _, _ = run_rounds(workload, G, inputs, first, seconds / 2)
    modules = spans.package_modules()
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        traced_rounds, traced_times, _, _ = run_rounds(workload, G, inputs, first, seconds / 2)
    finally:
        tracer.restore()

    problems = []
    leftovers = spans.leftover_probes(modules)
    if leftovers:
        problems.append(f"probes left installed: {leftovers}")
    reference = [op.digest for op in plain_rounds[0]]
    if any([op.digest for op in ops] != reference for ops in plain_rounds + traced_rounds):
        problems.append("final_x differs between repetitions or between traced and untraced rounds")

    ops = [op for ops in traced_rounds for op in ops]
    steps = sum(op.steps for op in ops)
    stats = tracer.stats
    metrics = {
        f"{span}.{statistic}": span_stat(stats, span, statistic, steps, len(ops))
        for span, statistic, _ in LAYER_STATS
    }
    metrics["compression.bits_per_step"] = sum(op.bits for op in ops) / steps
    metrics["tracing.overhead_pct"] = 100.0 * (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    )
    total = tracer.total_ns()
    for layer in spans.LAYERS:
        metrics[f"share.{layer}_pct"] = 100.0 * span_totals(stats, (layer,))[2] / total

    expected: dict = {}
    for op in ops:
        for name, count in op.counts.items():
            expected[name] = expected.get(name, 0) + count
    measured = {name: span_totals(stats, (name,))[0] for name in expected}
    info = {
        "rounds_untraced": len(plain_rounds),
        "rounds_traced": len(traced_rounds),
        "hand_count_mismatches": {
            name: (measured[name], count) for name, count in expected.items() if measured[name] != count
        },
        "purpose": purpose_line(workload, stats),
    }
    all_ops = [op for ops in plain_rounds + traced_rounds for op in ops]
    return all_ops, metrics, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="time one set-up and exit")
    args = parser.parse_args(argv)

    if not (SRC / "gradcomp" / "__init__.py").is_file():
        print(f"gradcomp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        start = time.perf_counter()
        workloads.set_up(workload)
        print(time.perf_counter() - start)
        return 0

    setup_samples = [] if args.trace else probe_setup(args.workload)
    G, inputs = workloads.set_up(workload)
    if not Path(G.gradcomp.__file__).resolve().is_relative_to(SRC):
        print(f"gradcomp imported from {G.gradcomp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(G, args.seed), sort_keys=True))

    measure = per_layer if args.trace else end_to_end
    ops, metrics, info, problems = measure(workload, G, inputs, args.seed, args.seconds)
    failed = sum(op.error is not None for op in ops)
    problems += [op.error for op in ops if op.error is not None]
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        metrics["setup_s"] = statistics.median(setup_samples)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_rate"] = 1.0 - failed / len(ops)
        info["setup_samples_s"] = setup_samples
    info.update(ops=len(ops), failed=failed, error_rate=failed / len(ops))

    for key, value in info.items():
        print(f"info {key} {value}")
    for problem in problems:
        print(f"check FAILED {problem}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
inline; each carries the measured quantities and the runtime budget.  Every
threshold is asserted at its stated tolerance, never loosened.
"""

import math
import time

import numpy as np
import pytest

from gradcomp import (
    AlphaSchedule,
    CompressorSpec,
    ProblemSpec,
    RunConfig,
    SchemeSpec,
    compress,
    full_grad,
    ghost_run,
    loss,
    make_problem,
    partition_data,
    residual_sum_comparison,
    run,
    scheme_coefficients,
    uncompressed_reference,
    variance_sigma2,
    verify_residual_identity,
)
from gradcomp.harness import execute_run, figure1_experiment, write_metrics_csv

DEFAULT_LIN = ProblemSpec(
    kind="lin_reg", dim=20, n_samples=512, noise_std=0.1, condition=10.0, batch_size=1, seed=3
)
SMALL_LIN = ProblemSpec(
    kind="lin_reg", dim=10, n_samples=64, noise_std=0.1, condition=10.0, batch_size=1, seed=3
)


def _report(num, name, ok, detail, elapsed, limit):
    verdict = "PASS" if ok else "FAIL"
    line = f"CRITERION {num:02d} {name}: {verdict} ({detail}; {elapsed:.1f}s of {limit:.0f}s)"
    print(line, flush=True)
    assert ok, line
    assert elapsed < limit, f"criterion {num} ran {elapsed:.1f}s, budget {limit:.0f}s"


# ---------------------------------------------------------------------------


def test_criterion_01_compressor_exactness():
    """compressed + residual reconstructs the input bitwise, 1e4 vectors per kind."""
    start = time.perf_counter()
    d = 8
    specs = [
        CompressorSpec("identity"),
        CompressorSpec("one_bit"),
        CompressorSpec("top_k", k=4),
        CompressorSpec("rand_k", k=4, seed=3),
        CompressorSpec("stoch_quant", levels=4, seed=3),
    ]
    rng = np.random.default_rng(12)
    n_vectors = 10_000
    mags = np.exp(rng.uniform(math.log(0.95), math.log(1.05), size=(n_vectors, d)))
    signs = rng.choice([-1.0, 1.0], size=(n_vectors, d))
    vectors = mags * signs
    failures = 0
    for spec in specs:
        for i in range(n_vectors):
            result = compress(vectors[i], spec, step=i)
            if not np.array_equal(result.compressed + result.residual, vectors[i]):
                failures += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "compressor_exactness",
        failures == 0,
        f"{failures} mismatches over {len(specs)}x{n_vectors} vectors",
        elapsed,
        5.0,
    )


def test_criterion_02_unbiasedness():
    """StochQuant and rescaled RandK pass a 4-standard-error mean test over
    1e5 draws; unrescaled RandK must fail the same test."""
    start = time.perf_counter()
    n_draws = 100_000
    x = np.linspace(0.5, 1.4, 10) * np.where(np.arange(10) % 2 == 0, 1.0, -1.0)

    def mean_test(spec):
        s1 = np.zeros(10)
        s2 = np.zeros(10)
        for i in range(n_draws):
            c = compress(x, spec, step=i).compressed
            s1 += c
            s2 += c * c
        mean = s1 / n_draws
        var = (s2 - n_draws * mean * mean) / (n_draws - 1)
        se = np.sqrt(np.maximum(var, 0.0) / n_draws)
        return np.abs(mean - x) <= 4.0 * se + 1e-15

    quant_ok = mean_test(CompressorSpec("stoch_quant", levels=2, seed=21)).all()
    randk_ok = mean_test(CompressorSpec("rand_k", k=3, seed=22)).all()
    unrescaled = mean_test(CompressorSpec("rand_k", k=3, seed=23, rescale=False))
    must_fail = not unrescaled.all()
    elapsed = time.perf_counter() - start
    _report(
        2,
        "unbiasedness",
        quant_ok and randk_ok and must_fail,
        f"stoch_quant within 4se: {quant_ok}, rand_k within 4se: {randk_ok}, "
        f"unrescaled rand_k fails as required: {must_fail} "
        f"({int((~unrescaled).sum())}/10 coordinates out)",
        elapsed,
        30.0,
    )


def test_criterion_03_residual_identity_grid():
    """Ghost-sequence residual matches the closed form to 1e-9 across the
    scheme x alpha x fleet x codec grid, with exactly one resolved sign."""
    start = time.perf_counter()
    worst = 0.0
    resolved_signs = set()
    cells = 0
    for alpha_c in (0.1, 0.5, 1.0):
        for scheme_kind in ("none", "single", "two_step"):
            for n in (1, 4):
                for comp in ("one_bit", "top_k"):
                    config = RunConfig(
                        problem=SMALL_LIN,
                        estimator="momentum",
                        schedule=AlphaSchedule(kind="constant", alpha=alpha_c),
                        scheme=SchemeSpec(kind=scheme_kind, beta=1.0),
                        compressor=CompressorSpec(comp, k=3),
                        n_workers=n,
                        steps=200,
                        gamma=0.01,
                        b0=4,
                        seed=9,
                        record_history=True,
                    )
                    report = verify_residual_identity(run(config))
                    worst = max(worst, report.max_rel_error)
                    if report.resolved_sign is not None:
                        resolved_signs.add(report.resolved_sign)
                    cells += 1
    elapsed = time.perf_counter() - start
    _report(
        3,
        "residual_identity",
        worst < 1e-9 and resolved_signs == {1},
        f"max rel error {worst:.3e} over {cells} cells, resolved c2 sign "
        f"{sorted(resolved_signs)}",
        elapsed,
        10.0,
    )


def test_criterion_04_residual_sum_ordering():
    """Summed squared gaps order strictly (two_step < single < none), the
    two-step gap never exceeds 2 gamma eps_hat, and the uncompensated
    residual grows at least tenfold from step 100 to step 1e4."""
    start = time.perf_counter()
    base = dict(
        problem=DEFAULT_LIN,
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=0.05),
        compressor=CompressorSpec("one_bit"),
        n_workers=4,
        gamma=1e-3,
        b0=4,
        seed=9,
        record_history=True,
    )
    traces = {}
    for scheme_kind in ("two_step", "single", "none"):
        config = RunConfig(scheme=SchemeSpec(kind=scheme_kind, beta=1.0), steps=2000, **base)
        trace, diverged_at = execute_run(config)
        traces[scheme_kind] = None if diverged_at is not None else trace
    comparison = residual_sum_comparison(traces)
    ordering = comparison.ordering_ok()
    per_step = comparison.ecx_per_step_bound_ok(slack=2.0)

    growth_config = RunConfig(scheme=SchemeSpec(kind="none", beta=1.0), steps=10_000, **base)
    growth_trace, _ = execute_run(growth_config)
    gaps = np.linalg.norm(ghost_run(growth_trace).residuals(), axis=1)
    growth = float(gaps.max() / gaps[: 101].max())
    elapsed = time.perf_counter() - start
    sums = {k: comparison.sums.get(k, float("nan")) for k in ("two_step", "single", "none")}
    bound = 2.0 * comparison.gamma * comparison.eps_hat["two_step"]
    _report(
        4,
        "residual_sum_ordering",
        ordering and per_step and growth >= 10.0,
        f"sums two_step {sums['two_step']:.3e} < single {sums['single']:.3e} < "
        f"none {sums['none']:.3e}; per-step max {comparison.per_step_max['two_step']:.3e} "
        f"<= {bound:.3e}; uncompensated growth x{growth:.1f}",
        elapsed,
        60.0,
    )


def test_criterion_05_degenerate_reductions():
    """(a) identity codec reproduces the uncompressed trajectory bitwise for
    every scheme; (b) schemes coincide at alpha 1; (c) momentum at alpha 1
    is sgd; (d) storm and root_sgd are the same path."""
    start = time.perf_counter()
    problem = ProblemSpec(
        kind="lin_reg", dim=8, n_samples=64, noise_std=0.1, condition=10.0, batch_size=1, seed=3
    )

    def bitwise(a, b):
        return np.array_equal(a.history.x, b.history.x) and np.array_equal(a.final_x, b.final_x)

    # (a) identity compressor, dyadic alpha with a fleet and odd alpha solo
    identity_ok = True
    for alpha_c, n, topology in ((0.5, 4, "double_compression"), (0.3, 1, "single_worker")):
        for scheme_kind in ("none", "single", "two_step"):
            config = RunConfig(
                problem=problem,
                estimator="momentum",
                schedule=AlphaSchedule(kind="constant", alpha=alpha_c),
                scheme=SchemeSpec(kind=scheme_kind, beta=0.3),
                compressor=CompressorSpec("identity"),
                topology=topology,
                n_workers=n,
                steps=150,
                gamma=0.01,
                b0=4,
                seed=5,
                record_history=True,
            )
            trace = run(config)
            x_hist, _, final_x = uncompressed_reference(config)
            identity_ok = identity_ok and np.array_equal(
                trace.history.x, x_hist
            ) and np.array_equal(trace.final_x, final_x)

    # (b) alpha = 1: single and two_step collapse onto each other
    collapse = {}
    for scheme_kind in ("single", "two_step"):
        collapse[scheme_kind] = run(
            RunConfig(
                problem=problem,
                estimator="momentum",
                schedule=AlphaSchedule(kind="constant", alpha=1.0),
                scheme=SchemeSpec(kind=scheme_kind, beta=0.3),
                compressor=CompressorSpec("one_bit"),
                n_workers=4,
                steps=150,
                gamma=0.01,
                b0=4,
                seed=5,
                record_history=True,
            )
        )
    alpha1_ok = bitwise(collapse["single"], collapse["two_step"])

    # (c) momentum with a flat unit schedule is sgd
    pair = {}
    for estimator in ("momentum", "sgd"):
        pair[estimator] = run(
            RunConfig(
                problem=problem,
                estimator=estimator,
                schedule=AlphaSchedule(kind="constant", alpha=1.0),
                scheme=SchemeSpec(kind="two_step", beta=0.3),
                compressor=CompressorSpec("one_bit"),
                n_workers=2,
                steps=150,
                gamma=0.01,
                b0=4,
                seed=5,
                record_history=True,
            )
        )
    sgd_ok = bitwise(pair["momentum"], pair["sgd"])

    # (d) storm and root_sgd share the recursion under equal schedules
    twins = {}
    for estimator in ("storm", "root_sgd"):
        twins[estimator] = run(
            RunConfig(
                problem=problem,
                estimator=estimator,
                schedule=AlphaSchedule(kind="inverse_t"),
                scheme=SchemeSpec(kind="two_step", beta=0.3),
                compressor=CompressorSpec("one_bit"),
                n_workers=2,
                steps=150,
                gamma=0.01,
                b0=4,
                seed=5,
                record_history=True,
            )
        )
    storm_ok = bitwise(twins["storm"], twins["root_sgd"])

    elapsed = time.perf_counter() - start
    _report(
        5,
        "degenerate_reductions",
        identity_ok and alpha1_ok and sgd_ok and storm_ok,
        f"identity {identity_ok}, alpha1 collapse {alpha1_ok}, momentum-as-sgd {sgd_ok}, "
        f"storm-as-root_sgd {storm_ok}, all bitwise",
        elapsed,
        10.0,
    )


def test_criterion_06_aggregated_update_lemma():
    """Recorded v_t recombines from the aggregates to relative 1e-12:
    v_t = (1-a) v_(t-1) + a abar_t + eta2 ebar_t - eta1 dbar_t."""
    start = time.perf_counter()
    alpha_c = 0.3
    config = RunConfig(
        problem=DEFAULT_LIN,
        estimator="momentum",
        schedule=AlphaSchedule(kind="constant", alpha=alpha_c),
        scheme=SchemeSpec(kind="two_step", beta=0.3),
        compressor=CompressorSpec("one_bit"),
        n_workers=4,
        steps=500,
        gamma=0.01,
        b0=4,
        seed=2,
        record_history=True,
    )
    trace = run(config)
    hist = trace.history
    eta1, eta2, _, _ = scheme_coefficients(config.scheme, alpha_c)
    worst = 0.0
    for t in range(1, trace.t_effective):
        predicted = (
            (1.0 - alpha_c) * hist.v[t - 1]
            + alpha_c * hist.a_bar[t]
            + eta2 * hist.e_bar[t]
            - eta1 * hist.delta_bar[t]
        )
        err = np.linalg.norm(predicted - hist.v[t]) / max(1e-30, np.linalg.norm(hist.v[t]))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(
        6,
        "aggregated_update_lemma",
        worst < 1e-12,
        f"max per-step rel error {worst:.3e} over {trace.t_effective - 1} steps",
        elapsed,
        5.0,
    )


def test_criterion_07_figure_reproduction():
    """Two-step compensation lands within 0.5 log10 of the uncompressed
    final squared gradient norm while single compensation is at least a full
    decade worse, for both bias-corrected estimators."""
    start = time.perf_counter()
    summary = figure1_experiment(estimators=("storm", "igt"), steps=10_000, seed=17)
    ok = True
    parts = []
    for estimator in ("storm", "igt"):
        block = summary[estimator]
        two_step = block["two_step"]["log10_grad_gap"]
        single = block["single"]["log10_grad_gap"]
        control = block["identity_control"]["log10_grad_gap"]
        ok = ok and two_step <= 0.5 and single >= 1.0 and abs(control) <= 1e-9
        parts.append(
            f"{estimator}: gamma {block['tuned_gamma']:g}, two_step {two_step:+.3f} (<= 0.5), "
            f"single {single:+.3f} (>= 1.0), control {control:+.1e}"
        )
    elapsed = time.perf_counter() - start
    _report(7, "figure_reproduction", ok, "; ".join(parts), elapsed, 300.0)


def test_criterion_08_gradient_correctness():
    """full_grad against central finite differences at 10 random points per
    problem kind, relative error below 1e-6."""
    start = time.perf_counter()
    specs = [
        ProblemSpec(kind="quadratic", spectrum=(0.5, 1.0, 2.0, 4.0)),
        ProblemSpec(kind="lin_reg", dim=6, n_samples=48, noise_std=0.1, condition=10.0, seed=3),
        ProblemSpec(kind="log_reg", dim=5, n_samples=40, l2_reg=0.05, condition=8.0, seed=3),
    ]
    rng = np.random.default_rng(0)
    worst = 0.0
    for spec in specs:
        problem = make_problem(spec)
        for _ in range(10):
            x = rng.standard_normal(problem.dim)
            g = full_grad(problem, x)
            fd = np.zeros_like(x)
            h = 1e-6
            for i in range(x.size):
                step = np.zeros_like(x)
                step[i] = h
                fd[i] = (loss(problem, x + step) - loss(problem, x - step)) / (2.0 * h)
            worst = max(worst, float(np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))))
    elapsed = time.perf_counter() - start
    _report(
        8,
        "gradient_correctness",
        worst < 1e-6,
        f"max rel error {worst:.3e} over 3 kinds x 10 points",
        elapsed,
        5.0,
    )


def test_criterion_09_rate_trend():
    """With gamma = min(alpha/(12 L), sqrt(n/(T sigma2))), the time-averaged
    squared gradient norm falls by a factor in [1.4, 2.9] per horizon
    quadrupling (about 2 for a 1/sqrt(T) leading term)."""
    start = time.perf_counter()
    alpha_c = 0.9
    problem = make_problem(DEFAULT_LIN)
    smooth_l = problem.smoothness()
    shard = partition_data(problem, 1, DEFAULT_LIN.seed)[0]
    sigma2 = variance_sigma2(problem, shard, np.ones(DEFAULT_LIN.dim), trials=4096)

    horizons = (1000, 4000, 16000)
    averages = {T: [] for T in horizons}
    for T in horizons:
        gamma = min(alpha_c / (12.0 * smooth_l), math.sqrt(1.0 / (T * sigma2)))
        for seed in range(1, 6):
            config = RunConfig(
                problem=DEFAULT_LIN,
                estimator="momentum",
                schedule=AlphaSchedule(kind="constant", alpha=alpha_c),
                scheme=SchemeSpec(kind="none", beta=0.3),
                compressor=CompressorSpec("identity"),
                topology="single_worker",
                n_workers=1,
                steps=T,
                gamma=gamma,
                b0=8,
                seed=seed,
            )
            trace = run(config)
            averages[T].append(float(trace.grad_norm_sq.mean()))

    ratios = []
    for small, large in ((1000, 4000), (4000, 16000)):
        per_seed = [a / b for a, b in zip(averages[small], averages[large])]
        ratios.append(float(np.median(per_seed)))
    ok = all(1.4 <= r <= 2.9 for r in ratios)
    elapsed = time.perf_counter() - start
    _report(
        9,
        "rate_trend",
        ok,
        f"median decay factors {ratios[0]:.3f} (1k to 4k) and {ratios[1]:.3f} (4k to 16k), "
        f"sigma2 {sigma2:.1f}",
        elapsed,
        120.0,
    )


def test_criterion_10_csv_determinism(tmp_path):
    """Representative runs spanning estimators, codecs, schemes, and
    topologies re-run to byte-identical CSV output."""
    start = time.perf_counter()
    configs = {
        "ordering_ecx": RunConfig(
            problem=DEFAULT_LIN,
            estimator="momentum",
            schedule=AlphaSchedule(kind="constant", alpha=0.05),
            scheme=SchemeSpec(kind="two_step", beta=1.0),
            compressor=CompressorSpec("one_bit"),
            n_workers=4,
            steps=300,
            gamma=1e-3,
            b0=4,
            seed=9,
            record_history=True,
        ),
        "figure_single": RunConfig(
            problem=DEFAULT_LIN,
            estimator="storm",
            schedule=AlphaSchedule(kind="inverse_t"),
            scheme=SchemeSpec(kind="single", beta=0.3),
            compressor=CompressorSpec("one_bit"),
            n_workers=8,
            steps=200,
            gamma=0.1,
            b0=8,
            seed=17,
        ),
        "randomized_codecs": RunConfig(
            problem=DEFAULT_LIN,
            estimator="igt",
            schedule=AlphaSchedule(kind="inverse_linear", c0=0.05),
            scheme=SchemeSpec(kind="two_step", beta=0.3),
            compressor=CompressorSpec("rand_k", k=5),
            server_compressor=CompressorSpec("stoch_quant", levels=4),
            n_workers=4,
            steps=200,
            gamma=0.01,
            b0=4,
            seed=3,
        ),
        "single_round_sgd": RunConfig(
            problem=DEFAULT_LIN,
            estimator="sgd",
            schedule=AlphaSchedule(kind="constant", alpha=1.0),
            scheme=SchemeSpec(kind="single", beta=1.0),
            compressor=CompressorSpec("top_k", k=2),
            topology="single_round",
            n_workers=2,
            steps=200,
            gamma=0.01,
            b0=2,
            seed=1,
        ),
    }
    mismatched = []
    for label, config in configs.items():
        payloads = []
        for attempt in ("a", "b"):
            trace, _ = execute_run(config)
            ghost_norms = None
            if config.record_history:
                ghost_norms = np.linalg.norm(ghost_run(trace).residuals()[:-1], axis=1)
            path = tmp_path / f"{label}_{attempt}.csv"
            write_metrics_csv(trace, path, ghost_norms)
            payloads.append(path.read_bytes())
        if payloads[0] != payloads[1]:
            mismatched.append(label)
    elapsed = time.perf_counter() - start
    _report(
        10,
        "csv_determinism",
        not mismatched,
        f"{len(configs)} configs re-run byte-identical"
        + (f", mismatches: {mismatched}" if mismatched else ""),
        elapsed,
        60.0,
    )

"""CLI front-end: configs, metric CSVs, comparisons, sweeps, verification.

Config files are YAML with one top-level section named after the subcommand
that consumes it:

    run:
      seed: 7
      steps: 2000
      gamma: 0.01
      b0: 8
      n_workers: 8
      topology: double_compression     # single_round | single_worker
      estimator: storm                 # sgd | momentum | storm | root_sgd | igt
      heterogeneity: 0.0
      x0_scale: 1.0
      record_ghost: false
      schedule: {kind: inverse_t}      # constant(alpha) | inverse_linear(c0)
                                       # | power_two_thirds(horizon)
      scheme: {kind: two_step, beta: 0.3}
      compressor: {kind: one_bit}      # top_k/rand_k(k), stoch_quant(levels),
                                       # rand_k(rescale), optional seed
      server_compressor: null          # defaults to the worker compressor
      problem: {kind: lin_reg, dim: 20, n_samples: 512, noise_std: 0.1,
                condition: 10.0, batch_size: 1, seed: 0}

    compare:
      base: {...run fields...}
      variants:                        # label -> overrides deep-merged on base
        uncompressed: {scheme: {kind: none}, compressor: {kind: identity}}
        two_step: {scheme: {kind: two_step}}

    sweep:
      base: {...run fields...}
      gammas: [0.5, 0.1, 0.001]
      c0s: [0.1, 0.05, 0.001]          # or alphas: [...] for constant schedules

Exit codes: 0 success, 1 usage or config error, 2 verification failure,
3 unexpected divergence (a run with compensation diverged; a "none"-scheme
run diverging is the expected outcome and is only noted in the summary).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from .compensation import SchemeSpec
from .compression import CompressorSpec
from .errors import ConfigError, DivergenceError, VerificationError
from .estimators import AlphaSchedule
from .oracle import ghost_run, residual_sum_comparison, verify_residual_identity
from .problems import ProblemSpec
from .simulator import RunConfig, RunTrace, run

# Search grids and reported-best defaults for the tuning knobs.
GAMMA_GRID = (0.5, 0.1, 0.001)
C0_GRID = (0.1, 0.05, 0.001)
BEST_GAMMA = 0.01
BEST_C0 = 0.05
DEFAULT_BETA = 0.3

CSV_COLUMNS = (
    "step",
    "loss",
    "grad_norm_sq",
    "v_norm",
    "worker_delta_norm",
    "server_delta_norm",
    "cum_bits",
)


def default_problem_mapping() -> dict:
    """The small linear-regression benchmark used throughout."""
    return {
        "kind": "lin_reg",
        "dim": 20,
        "n_samples": 512,
        "noise_std": 0.1,
        "condition": 10.0,
        "batch_size": 1,
        "seed": 0,
    }


# ---------------------------------------------------------------------------
# config parsing / serialization


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return dict(value)


def _take(mapping: dict, path: str, known: dict):
    """Pop known keys with defaults; reject unknown ones by name."""
    out = {}
    for key, default in known.items():
        out[key] = mapping.pop(key, default)
    if mapping:
        bad = ", ".join(sorted(mapping))
        raise ConfigError(f"{path}: unknown field(s): {bad}")
    return out


def parse_problem(value, path: str) -> ProblemSpec:
    m = _require_mapping(value, path)
    fields = _take(
        m,
        path,
        {
            "kind": "lin_reg",
            "spectrum": (),
            "dim": 0,
            "n_samples": 0,
            "noise_std": 0.0,
            "l2_reg": 0.0,
            "condition": 10.0,
            "batch_size": 1,
            "seed": 0,
        },
    )
    fields["spectrum"] = tuple(fields["spectrum"])
    return ProblemSpec(**fields)


def parse_schedule(value, path: str) -> AlphaSchedule:
    m = _require_mapping(value, path)
    fields = _take(m, path, {"kind": "constant", "alpha": 1.0, "c0": BEST_C0, "horizon": 1})
    return AlphaSchedule(**fields)


def parse_scheme(value, path: str) -> SchemeSpec:
    m = _require_mapping(value, path)
    fields = _take(m, path, {"kind": "two_step", "beta": DEFAULT_BETA})
    return SchemeSpec(**fields)


def parse_compressor(value, path: str) -> CompressorSpec:
    m = _require_mapping(value, path)
    fields = _take(m, path, {"kind": "identity", "k": 1, "levels": 1, "rescale": True, "seed": None})
    return CompressorSpec(**fields)


def parse_run_config(value, path: str = "run") -> RunConfig:
    m = _require_mapping(value, path)
    fields = _take(
        m,
        path,
        {
            "problem": None,
            "estimator": "momentum",
            "schedule": {"kind": "constant", "alpha": 0.1},
            "scheme": {"kind": "two_step", "beta": DEFAULT_BETA},
            "compressor": {"kind": "identity"},
            "server_compressor": None,
            "topology": "double_compression",
            "n_workers": 1,
            "steps": 100,
            "gamma": BEST_GAMMA,
            "b0": 1,
            "seed": 0,
            "heterogeneity": 0.0,
            "x0_scale": 1.0,
            "record_ghost": False,
        },
    )
    if fields["problem"] is None:
        fields["problem"] = default_problem_mapping()
    record_ghost = bool(fields.pop("record_ghost"))
    server = fields["server_compressor"]
    try:
        config = RunConfig(
            problem=parse_problem(fields["problem"], f"{path}.problem"),
            estimator=str(fields["estimator"]),
            schedule=parse_schedule(fields["schedule"], f"{path}.schedule"),
            scheme=parse_scheme(fields["scheme"], f"{path}.scheme"),
            compressor=parse_compressor(fields["compressor"], f"{path}.compressor"),
            server_compressor=(
                None if server is None else parse_compressor(server, f"{path}.server_compressor")
            ),
            topology=str(fields["topology"]),
            n_workers=int(fields["n_workers"]),
            steps=int(fields["steps"]),
            gamma=float(fields["gamma"]),
            b0=int(fields["b0"]),
            seed=int(fields["seed"]),
            heterogeneity=float(fields["heterogeneity"]),
            x0_scale=float(fields["x0_scale"]),
            record_history=record_ghost,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config


def problem_to_mapping(spec: ProblemSpec) -> dict:
    out = {
        "kind": spec.kind,
        "batch_size": spec.batch_size,
        "seed": spec.seed,
    }
    if spec.kind == "quadratic":
        out["spectrum"] = [float(v) for v in spec.spectrum]
    else:
        out.update(
            {
                "dim": spec.dim,
                "n_samples": spec.n_samples,
                "condition": spec.condition,
            }
        )
        if spec.kind == "lin_reg":
            out["noise_std"] = spec.noise_std
        else:
            out["l2_reg"] = spec.l2_reg
    return out


def schedule_to_mapping(schedule: AlphaSchedule) -> dict:
    out = {"kind": schedule.kind}
    if schedule.kind == "constant":
        out["alpha"] = schedule.alpha
    elif schedule.kind == "inverse_linear":
        out["c0"] = schedule.c0
    elif schedule.kind == "power_two_thirds":
        out["horizon"] = schedule.horizon
    return out


def compressor_to_mapping(spec: CompressorSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.kind in ("top_k", "rand_k"):
        out["k"] = spec.k
    if spec.kind == "rand_k":
        out["rescale"] = spec.rescale
    if spec.kind == "stoch_quant":
        out["levels"] = spec.levels
    if spec.seed is not None:
        out["seed"] = spec.seed
    return out


def run_config_to_mapping(config: RunConfig) -> dict:
    out = {
        "problem": problem_to_mapping(config.problem),
        "estimator": config.estimator,
        "schedule": schedule_to_mapping(config.schedule),
        "scheme": {"kind": config.scheme.kind, "beta": config.scheme.beta},
        "compressor": compressor_to_mapping(config.compressor),
        "topology": config.topology,
        "n_workers": config.n_workers,
        "steps": config.steps,
        "gamma": config.gamma,
        "b0": config.b0,
        "seed": config.seed,
        "heterogeneity": config.heterogeneity,
        "x0_scale": config.x0_scale,
        "record_ghost": config.record_history,
    }
    if config.server_compressor is not None:
        out["server_compressor"] = compressor_to_mapping(config.server_compressor)
    return out


def serialize_config(mapping: dict) -> str:
    """Canonical text form: sorted keys, stable formatting."""
    return yaml.safe_dump(mapping, sort_keys=True, default_flow_style=False)


def load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    return _require_mapping(data, str(path))


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# metric emission


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_metrics_csv(trace: RunTrace, path, ghost_residual_norm=None) -> None:
    """One row per recorded step; 17 significant digits for reproducibility."""
    columns = list(CSV_COLUMNS)
    if ghost_residual_norm is not None:
        columns.insert(columns.index("cum_bits"), "ghost_residual_norm")
    lines = [",".join(columns)]
    for i in range(trace.steps.size):
        row = [
            str(int(trace.steps[i])),
            _fmt(trace.loss[i]),
            _fmt(trace.grad_norm_sq[i]),
            _fmt(trace.v_norm[i]),
            _fmt(trace.worker_delta_norm[i]),
            _fmt(trace.server_delta_norm[i]),
        ]
        if ghost_residual_norm is not None:
            row.append(_fmt(ghost_residual_norm[i]))
        row.append(str(int(trace.cum_bits[i])))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary(path, entries: dict) -> None:
    lines = []
    for key, value in entries.items():
        if isinstance(value, float):
            value = _fmt(value)
        lines.append(f"{key} {value}")
    Path(path).write_text("\n".join(lines) + "\n")


def _trace_summary(trace: RunTrace, diverged_at: int | None = None) -> dict:
    out = {
        "t_effective": trace.t_effective,
        "final_loss": trace.final_loss,
        "final_grad_norm_sq": trace.final_grad_norm_sq,
        "eps_hat": trace.eps_hat(),
        "total_bits": int(trace.cum_bits[-1]) if trace.cum_bits.size else 0,
        "diverged": diverged_at is not None,
    }
    if diverged_at is not None:
        out["divergence_step"] = diverged_at
    return out


def execute_run(config: RunConfig) -> tuple[RunTrace, int | None]:
    """Run, catching divergence; returns (trace, step it diverged at or None)."""
    try:
        return run(config), None
    except DivergenceError as exc:
        if exc.trace is None:
            raise
        return exc.trace, exc.step


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(config_mapping: dict, out_dir: Path, seed: int | None, record_ghost: bool) -> int:
    section = _require_mapping(config_mapping, "config").get("run")
    if section is None:
        raise ConfigError("config file has no top-level 'run' section")
    config = parse_run_config(section)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    if record_ghost:
        config = dataclasses.replace(config, record_history=True)

    out_dir.mkdir(parents=True, exist_ok=True)
    trace, diverged_at = execute_run(config)

    ghost_norms = None
    if config.record_history and trace.history is not None:
        ghost = ghost_run(trace)
        ghost_norms = np.linalg.norm(trace.history.x - ghost.x_hat, axis=1)
    write_metrics_csv(trace, out_dir / "metrics.csv", ghost_norms)
    (out_dir / "config.yaml").write_text(serialize_config(run_config_to_mapping(config)))
    write_summary(out_dir / "summary.txt", _trace_summary(trace, diverged_at))

    if diverged_at is not None and config.scheme.kind != "none":
        print(f"run diverged at step {diverged_at} (scheme {config.scheme.kind})")
        return 3
    if diverged_at is not None:
        print(f"run diverged at step {diverged_at}, the expected outcome without compensation")
    return 0


def cmd_compare(config_mapping: dict, out_dir: Path, seed: int | None, record_ghost: bool) -> int:
    section = _require_mapping(config_mapping, "config").get("compare")
    if section is None:
        raise ConfigError("config file has no top-level 'compare' section")
    section = _require_mapping(section, "compare")
    fields = _take(section, "compare", {"base": {}, "variants": None})
    if not fields["variants"]:
        raise ConfigError("compare.variants: need at least one variant")
    variants = _require_mapping(fields["variants"], "compare.variants")

    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    unexpected = False
    for label in variants:
        merged = _deep_merge(_require_mapping(fields["base"], "compare.base"),
                             _require_mapping(variants[label], f"compare.variants.{label}"))
        config = parse_run_config(merged, path=f"compare.variants.{label}")
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
        if record_ghost:
            config = dataclasses.replace(config, record_history=True)
        trace, diverged_at = execute_run(config)
        ghost_norms = None
        if config.record_history and trace.history is not None:
            ghost = ghost_run(trace)
            ghost_norms = np.linalg.norm(trace.history.x - ghost.x_hat, axis=1)
        write_metrics_csv(trace, out_dir / f"metrics_{label}.csv", ghost_norms)
        results[label] = (config, trace, diverged_at)
        if diverged_at is not None and config.scheme.kind != "none":
            unexpected = True

    summary: dict = {}
    reference = results.get("uncompressed")
    for label, (config, trace, diverged_at) in results.items():
        prefix = f"{label}."
        summary[prefix + "final_grad_norm_sq"] = trace.final_grad_norm_sq
        summary[prefix + "final_loss"] = trace.final_loss
        summary[prefix + "t_effective"] = trace.t_effective
        summary[prefix + "diverged"] = diverged_at is not None
        if diverged_at is not None:
            summary[prefix + "divergence_step"] = diverged_at
            summary[prefix + "divergence_expected"] = config.scheme.kind == "none"
        if reference is not None and trace.final_grad_norm_sq > 0.0:
            ref_gnsq = reference[1].final_grad_norm_sq
            if ref_gnsq > 0.0:
                gap = math.log10(trace.final_grad_norm_sq) - math.log10(ref_gnsq)
                summary[prefix + "log10_grad_gap_vs_uncompressed"] = gap
    write_summary(out_dir / "summary.txt", summary)
    for key, value in summary.items():
        print(f"{key} {value}")
    return 3 if unexpected else 0


def cmd_sweep(config_mapping: dict, out_dir: Path, seed: int | None) -> int:
    section = _require_mapping(config_mapping, "config").get("sweep")
    if section is None:
        raise ConfigError("config file has no top-level 'sweep' section")
    section = _require_mapping(section, "sweep")
    fields = _take(
        section,
        "sweep",
        {"base": {}, "gammas": list(GAMMA_GRID), "c0s": None, "alphas": None},
    )
    base = _require_mapping(fields["base"], "sweep.base")
    if fields["c0s"] is not None and fields["alphas"] is not None:
        raise ConfigError("sweep: give either c0s or alphas, not both")

    cells = []
    for gamma in fields["gammas"]:
        if fields["alphas"] is not None:
            for alpha in fields["alphas"]:
                overrides = {"gamma": gamma, "schedule": {"kind": "constant", "alpha": alpha}}
                cells.append((f"gamma_{gamma:g}_alpha_{alpha:g}", overrides))
        elif fields["c0s"] is not None:
            for c0 in fields["c0s"]:
                overrides = {"gamma": gamma, "schedule": {"kind": "inverse_linear", "c0": c0}}
                cells.append((f"gamma_{gamma:g}_c0_{c0:g}", overrides))
        else:
            cells.append((f"gamma_{gamma:g}", {"gamma": gamma}))

    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {}
    for label, overrides in cells:
        config = parse_run_config(_deep_merge(base, overrides), path=f"sweep.{label}")
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
        trace, diverged_at = execute_run(config)
        write_metrics_csv(trace, out_dir / f"metrics_{label}.csv")
        summary[f"{label}.final_grad_norm_sq"] = trace.final_grad_norm_sq
        summary[f"{label}.diverged"] = diverged_at is not None
    write_summary(out_dir / "summary.txt", summary)
    for key, value in summary.items():
        print(f"{key} {value}")
    return 0


# ---------------------------------------------------------------------------
# verification suite


class _Checker:
    def __init__(self):
        self.lines: list[str] = []
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str) -> None:
        mark = "PASS" if ok else "FAIL"
        if not ok:
            self.failures += 1
        self.lines.append(f"{name} {mark} {detail}")

    def note(self, name: str, detail: str) -> None:
        self.lines.append(f"{name} INFO {detail}")


def _verify_problem(seed: int = 3) -> ProblemSpec:
    return ProblemSpec(
        kind="lin_reg", dim=10, n_samples=64, noise_std=0.1, condition=10.0, batch_size=1, seed=seed
    )


def verify_suite(seed: int = 9) -> tuple[bool, str]:
    """Self-contained oracle checks; returns (all_passed, report text)."""
    checker = _Checker()
    problem = _verify_problem()

    # Closed-form residual identity across schemes, alphas, fleet sizes.
    resolved_signs = set()
    worst = 0.0
    for alpha_val in (0.1, 0.5, 1.0):
        for scheme_kind in ("none", "single", "two_step"):
            for n in (1, 4):
                for comp in ("one_bit", "top_k"):
                    config = RunConfig(
                        problem=problem,
                        estimator="momentum",
                        schedule=AlphaSchedule("constant", alpha=alpha_val),
                        scheme=SchemeSpec(scheme_kind, beta=1.0),
                        compressor=CompressorSpec(comp, k=3),
                        n_workers=n,
                        steps=200,
                        gamma=0.01,
                        b0=4,
                        seed=seed,
                        record_history=True,
                    )
                    try:
                        report = verify_residual_identity(run(config))
                    except VerificationError as exc:
                        checker.check(
                            f"residual_identity[{scheme_kind},a={alpha_val},n={n},{comp}]",
                            False,
                            str(exc),
                        )
                        continue
                    worst = max(worst, report.max_rel_error)
                    if report.resolved_sign is not None:
                        resolved_signs.add(report.resolved_sign)
    checker.check(
        "residual_identity_grid",
        worst < 1e-9,
        f"max_rel_error {worst:.3e} over schemes x alpha {{0.1,0.5,1.0}} x n {{1,4}} x "
        "{one_bit,top_k}",
    )
    checker.check(
        "c2_sign_resolution",
        resolved_signs == {1},
        f"resolved signs {sorted(resolved_signs)} (expected exactly +1, in the x - ghost-x "
        "orientation with the filter's minus convention)",
    )

    # Residual-sum ordering across schemes on a shared-seed triplet.
    traces = {}
    ordering_problem = ProblemSpec(
        kind="lin_reg", dim=20, n_samples=512, noise_std=0.1, condition=10.0, batch_size=1, seed=3
    )
    for scheme_kind in ("two_step", "single", "none"):
        config = RunConfig(
            problem=ordering_problem,
            estimator="momentum",
            schedule=AlphaSchedule("constant", alpha=0.05),
            scheme=SchemeSpec(scheme_kind, beta=1.0),
            compressor=CompressorSpec("one_bit"),
            n_workers=4,
            steps=2000,
            gamma=1e-3,
            b0=4,
            seed=seed,
            record_history=True,
        )
        trace, diverged_at = execute_run(config)
        traces[scheme_kind] = None if diverged_at is not None else trace
    comparison = residual_sum_comparison(traces)
    checker.check(
        "residual_sum_ordering",
        comparison.ordering_ok(),
        " ".join(f"{k}={comparison.sums.get(k, float('nan')):.3e}" for k in ("two_step", "single", "none")),
    )
    checker.check(
        "ecx_per_step_bound",
        comparison.ecx_per_step_bound_ok(),
        f"max gap {comparison.per_step_max.get('two_step', float('nan')):.3e} vs "
        f"2*gamma*eps_hat {2 * comparison.gamma * comparison.eps_hat.get('two_step', float('nan')):.3e}",
    )
    checker.note(
        "ecx_sum_bound",
        f"sum {comparison.sums.get('two_step', float('nan')):.3e} vs gamma^2 eps_hat^2 "
        f"{comparison.gamma**2 * comparison.eps_hat.get('two_step', float('nan'))**2:.3e} "
        f"(informational; tight form multiplies by alpha^2 = {comparison.alpha**2:.3e})",
    )

    # alpha = 1 collapse: two_step and single coincide bitwise.
    collapse = {}
    for scheme_kind in ("single", "two_step"):
        config = RunConfig(
            problem=problem,
            estimator="momentum",
            schedule=AlphaSchedule("constant", alpha=1.0),
            scheme=SchemeSpec(scheme_kind, beta=0.3),
            compressor=CompressorSpec("one_bit"),
            n_workers=4,
            steps=100,
            gamma=0.01,
            b0=4,
            seed=seed,
            record_history=True,
        )
        collapse[scheme_kind] = run(config)
    same = np.array_equal(collapse["single"].history.x, collapse["two_step"].history.x) and np.array_equal(
        collapse["single"].final_x, collapse["two_step"].final_x
    )
    checker.check("alpha1_collapse", same, "single vs two_step trajectories at alpha=1")

    report_lines = checker.lines + [
        f"checks_failed {checker.failures}",
    ]
    return checker.failures == 0, "\n".join(report_lines) + "\n"


def cmd_verify(out_dir: Path | None, seed: int | None) -> int:
    ok, report = verify_suite(seed if seed is not None else 9)
    sys.stdout.write(report)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "verify.txt").write_text(report)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# Figure-style comparison experiment


def figure1_experiment(
    estimators: tuple = ("storm", "igt"),
    steps: int = 10_000,
    gamma: float | None = None,
    seed: int = 9,
    out_dir=None,
    problem: ProblemSpec | None = None,
) -> dict:
    """Convergence comparison of compensation schemes under aggressive
    compression, one block per estimator.

    With gamma=None the step size is grid searched per estimator: the
    uncompressed control runs once per GAMMA_GRID value and the best final
    squared gradient norm wins, after which every variant reuses that step
    size.  Gaps are log10 ratios of the final squared gradient norm against
    the uncompressed control (the metric the CSV records).  The
    identity_control variant differs from the control only in going through
    the full message plumbing with the identity compressor, so its gap must
    sit at zero.
    """
    if problem is None:
        problem = ProblemSpec(
            kind="lin_reg",
            dim=20,
            n_samples=512,
            noise_std=0.1,
            condition=10.0,
            batch_size=1,
            seed=3,
        )
    variants = {
        "uncompressed": {"scheme": SchemeSpec("none", beta=DEFAULT_BETA), "compressor": CompressorSpec("identity")},
        "identity_control": {"scheme": SchemeSpec("two_step", beta=DEFAULT_BETA), "compressor": CompressorSpec("identity")},
        "no_compensation": {"scheme": SchemeSpec("none", beta=DEFAULT_BETA), "compressor": CompressorSpec("one_bit")},
        "single": {"scheme": SchemeSpec("single", beta=DEFAULT_BETA), "compressor": CompressorSpec("one_bit")},
        "two_step": {"scheme": SchemeSpec("two_step", beta=DEFAULT_BETA), "compressor": CompressorSpec("one_bit")},
    }

    def one_run(estimator, parts, step_size):
        config = RunConfig(
            problem=problem,
            estimator=estimator,
            schedule=AlphaSchedule("inverse_t"),
            scheme=parts["scheme"],
            compressor=parts["compressor"],
            topology="double_compression",
            n_workers=8,
            steps=steps,
            gamma=step_size,
            b0=8,
            seed=seed,
        )
        return execute_run(config)

    summary: dict = {}
    for estimator in estimators:
        if gamma is None:
            candidates = []
            for grid_gamma in GAMMA_GRID:
                trace, diverged_at = one_run(estimator, variants["uncompressed"], grid_gamma)
                if diverged_at is None:
                    candidates.append((trace.final_grad_norm_sq, grid_gamma))
            if not candidates:
                raise DivergenceError(
                    0, message=f"{estimator}: uncompressed control diverged at every grid step size"
                )
            _, tuned_gamma = min(candidates)
        else:
            tuned_gamma = gamma
        block: dict = {"tuned_gamma": tuned_gamma}
        for label, parts in variants.items():
            trace, diverged_at = one_run(estimator, parts, tuned_gamma)
            block[label] = {
                "final_grad_norm_sq": trace.final_grad_norm_sq,
                "diverged": diverged_at is not None,
                "t_effective": trace.t_effective,
            }
            if out_dir is not None:
                out = Path(out_dir)
                out.mkdir(parents=True, exist_ok=True)
                write_metrics_csv(trace, out / f"metrics_{estimator}_{label}.csv")
        ref = block["uncompressed"]["final_grad_norm_sq"]
        for label, entry in block.items():
            if label == "tuned_gamma":
                continue
            if not entry["diverged"] and entry["final_grad_norm_sq"] > 0.0 and ref > 0.0:
                entry["log10_grad_gap"] = math.log10(entry["final_grad_norm_sq"]) - math.log10(ref)
        summary[estimator] = block
    return summary


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradcomp",
        description="Deterministic simulator for compressed distributed optimization "
        "with error compensation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("run", True), ("compare", True), ("verify", False), ("sweep", True)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, help="YAML config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--record-ghost", action="store_true", help="record the ghost trajectory")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            out = Path(args.out) if args.out else None
            return cmd_verify(out, args.seed)
        if args.out is None:
            raise ConfigError(f"{args.command} needs --out")
        mapping = load_config_file(args.config)
        out = Path(args.out)
        if args.command == "run":
            return cmd_run(mapping, out, args.seed, args.record_ghost)
        if args.command == "compare":
            return cmd_compare(mapping, out, args.seed, args.record_ghost)
        return cmd_sweep(mapping, out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"unexpected divergence at step {exc.step}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

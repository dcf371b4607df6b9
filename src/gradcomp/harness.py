"""CLI front-end: configs, metric CSVs, comparisons, sweeps, verification.

Run it as ``python -m gradcomp <subcommand> ...`` (or the ``gradcomp``
script of an installed package).  Each subcommand takes only the flags it
reads:

    run | compare | sweep   --config FILE --out DIR [--seed N] [--record-ghost]
    verify                  [--out DIR] [--seed N]

--seed overrides every run's seed (a negative or non-integer N is a usage
error), and --record-ghost records each run's history and adds the
ghost_residual_norm column to its metrics CSV.

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

Sections are decoded by walking the fields and type hints of the spec
dataclasses (RunConfig, ProblemSpec, AlphaSchedule, SchemeSpec,
CompressorSpec, CompareSection, SweepSection).  Types are checked strictly,
and nothing is coerced except an int given for a float field:

    int      an int; true/false and 2.0 are rejected
    float    a float, or an int stored as float; true and "0.1" are rejected
    bool     true or false only
    str      a string only
    tuple    a list, each item checked against the item type
    dict     a mapping (the base and variants of compare and sweep)
    X | None null, or an X

An unknown key, a wrong type or an out-of-range value raises a ConfigError
that names the dotted path of the field, e.g. ``run.compressor.k``; the CLI
prints it as ``config error: ...`` and exits 1.  A saved config.yaml holds
only the fields that a spec's kind uses (the "kinds" metadata of its
dataclass fields), so it decodes back to the same config.

Each spec checks its own values when it is built, RunConfig its memory
bound too, and a subcommand decodes every run it will make before it
creates --out, so a config error leaves no output behind.

Exit codes: 0 success, 1 usage error (an unknown, missing or malformed
flag) or config error, 2 verification failure, 3 unexpected divergence (a
run or compare variant with compensation diverged; a "none"-scheme run
diverging is the expected outcome and is only noted in the summary).
sweep records "diverged" for each cell in its summary and exits 0 whatever
diverged: a grid is expected to hold step sizes that do.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .compensation import SchemeSpec
from .compression import CompressorSpec
from .errors import ConfigError, DivergenceError, VerificationError
from .estimators import AlphaSchedule
from .oracle import ghost_gap_norms, residual_sum_comparison, verify_residual_identity
from .problems import ProblemSpec
from .simulator import RunConfig, RunTrace, run

# Search grids and reported-best defaults for the tuning knobs.
GAMMA_GRID = (0.5, 0.1, 0.001)
BEST_GAMMA = 0.01
DEFAULT_BETA = 0.3
# The figure-1 problem, which verify's residual-sum ordering check also uses,
# and the smaller problem of verify's other checks.
FIGURE1_PROBLEM = ProblemSpec(
    kind="lin_reg", dim=20, n_samples=512, noise_std=0.1, condition=10.0, batch_size=1, seed=3
)
VERIFY_PROBLEM = replace(FIGURE1_PROBLEM, dim=10, n_samples=64)

CSV_COLUMNS = (
    "step",
    "loss",
    "grad_norm_sq",
    "v_norm",
    "worker_delta_norm",
    "server_delta_norm",
    "cum_bits",
)


# ---------------------------------------------------------------------------
# config decoding / encoding


@dataclass(frozen=True)
class CompareSection:
    """The compare section: label -> overrides deep-merged on base."""

    variants: dict = field(default_factory=dict)
    base: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.variants:
            raise ConfigError("need at least one variant", "variants")
        # A label's str() names the variant's metrics file and summary keys.
        printed: dict = {}
        for label, overrides in self.variants.items():
            text = str(label)
            if any(sep and sep in text for sep in ("/", os.sep, os.altsep, "\0")):
                raise ConfigError("a label cannot hold a path separator or NUL", f"variants.{label}")
            if text in printed:
                raise ConfigError(
                    f"the labels {printed[text]!r} and {label!r} would share metrics_{text}.csv",
                    f"variants.{label}",
                )
            printed[text] = label
            if not isinstance(overrides, dict):
                raise ConfigError(
                    f"expected a mapping, got {type(overrides).__name__}", f"variants.{label}"
                )


@dataclass(frozen=True)
class SweepSection:
    """The sweep section: a grid over gamma and at most one schedule axis."""

    base: dict = field(default_factory=dict)
    gammas: tuple[float, ...] = GAMMA_GRID
    c0s: tuple[float, ...] | None = None
    alphas: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.c0s is not None and self.alphas is not None:
            raise ConfigError("give either c0s or alphas, not both", "c0s")
        for axis in ("gammas", "alphas", "c0s"):
            values = getattr(self, axis)
            if values == ():
                raise ConfigError("need at least one value", axis)
            # Cell labels print each value with :g, and a label names the cell's outputs.
            labels: dict = {}
            for value in values or ():
                text = f"{value:g}"
                if text in labels:
                    raise ConfigError(f"{labels[text]!r} and {value!r} share the cell label {text}", axis)
                labels[text] = value


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return dict(value)


@functools.cache
def _type_hints(cls) -> dict:
    """Resolved field types of a spec class (resolving takes ~0.1 ms a class)."""
    return typing.get_type_hints(cls)


def decode(cls, value, path: str):
    """Build the dataclass cls from a YAML mapping, checking every type strictly.

    Missing keys take CONFIG_DEFAULTS, then the dataclass defaults; unknown
    keys are an error.  A field whose metadata key is None has no key, so it
    keeps its default.  Every error names the dotted path of its field: a
    ConfigError the constructor raises for one field gets path prepended.
    """
    mapping = {**CONFIG_DEFAULTS.get(cls, {}), **_require_mapping(value, path)}
    hints = _type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
        if key is not None and key in mapping:
            kwargs[f.name] = _decode_value(hints[f.name], mapping.pop(key), f"{path}.{key}")
    if mapping:
        raise ConfigError(f"{path}: unknown field(s): {', '.join(sorted(map(str, mapping)))}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(exc.reason, f"{path}.{exc.field}" if exc.field else path) from exc


def _decode_value(hint, value, path: str):
    if dataclasses.is_dataclass(hint):
        return decode(hint, value, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else _decode_value(args[0], value, path)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        return tuple(_decode_value(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if hint is dict:
        return _require_mapping(value, path)
    if hint is float and type(value) is int:
        if abs(value) > sys.float_info.max:
            raise ConfigError(f"{path}: integer too large for a float")
        return float(value)
    if type(value) is not hint:
        raise ConfigError(f"{path}: expected {hint.__name__}, got {type(value).__name__}")
    return value


def encode(spec) -> dict:
    """The YAML mapping of a spec dataclass, the inverse of decode.

    A field whose metadata lists "kinds" is written only for those kinds,
    and a field that is None, or whose metadata key is None, is left out.
    """
    out = {}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        key = f.metadata.get("key", f.name)
        kinds = f.metadata.get("kinds")
        if value is None or key is None or (kinds is not None and spec.kind not in kinds):
            continue
        if dataclasses.is_dataclass(value):
            value = encode(value)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


# The harness's own defaults for a run section, where they differ from the
# dataclasses' or where a dataclass has none: the figure-1 problem with seed
# 0, and a constant alpha of 0.1.
CONFIG_DEFAULTS = {
    RunConfig: {
        "problem": encode(replace(FIGURE1_PROBLEM, seed=0)),
        "schedule": {"kind": "constant", "alpha": 0.1},
    },
    ProblemSpec: {"kind": "lin_reg"},
    CompressorSpec: {"kind": "identity"},
}


def parse_run_config(value, path: str = "run") -> RunConfig:
    return decode(RunConfig, value, path)


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
    """One row per recorded step; 17 significant digits for reproducibility.

    A trace run without record_objective has no loss or grad_norm_sq
    column, and is refused rather than written with empty ones.
    """
    if trace.loss is None or trace.grad_norm_sq is None:
        raise ConfigError("the trace has no loss or grad_norm_sq column to write", "record_objective")
    columns = list(CSV_COLUMNS)
    floats = [getattr(trace, name) for name in columns[1:-1]]
    if ghost_residual_norm is not None:
        columns.insert(-1, "ghost_residual_norm")
        floats.append(ghost_residual_norm)
    lines = [",".join(columns)]
    for i in range(trace.steps.size):
        row = [str(int(trace.steps[i])), *(_fmt(column[i]) for column in floats), str(int(trace.cum_bits[i]))]
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
        "total_bits": int(trace.cum_bits[-1]),
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
        return exc.trace, exc.step


# ---------------------------------------------------------------------------
# subcommands


def _section(config_mapping: dict, name: str) -> dict:
    section = _require_mapping(config_mapping, "config").get(name)
    if section is None:
        raise ConfigError(f"config file has no top-level '{name}' section")
    return section


def _configure(mapping, path: str, seed: int | None, record_ghost: bool = False) -> RunConfig:
    """Decode one run as the file gives it, then with the --seed and
    --record-ghost overrides, so that a value an override replaces is still
    checked; decode names every rejected value by its dotted path."""
    config = parse_run_config(mapping, path)
    overrides = {} if seed is None else {"seed": seed}
    if record_ghost:
        overrides["record_ghost"] = True
    return parse_run_config({**mapping, **overrides}, path) if overrides else config


def _run_and_record(config: RunConfig, csv_path) -> tuple[RunTrace, int | None]:
    """Run and write the metrics CSV, with the ghost gap when history is recorded."""
    trace, diverged_at = execute_run(config)
    ghost_norms = None
    if config.record_history and trace.history is not None:
        ghost_norms = list(itertools.islice(ghost_gap_norms(trace), trace.t_effective))
    write_metrics_csv(trace, csv_path, ghost_norms)
    return trace, diverged_at


def cmd_run(config_mapping: dict, out_dir: Path, seed: int | None, record_ghost: bool) -> int:
    config = _configure(_section(config_mapping, "run"), "run", seed, record_ghost)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace, diverged_at = _run_and_record(config, out_dir / "metrics.csv")
    (out_dir / "config.yaml").write_text(serialize_config(encode(config)))
    write_summary(out_dir / "summary.txt", _trace_summary(trace, diverged_at))

    if diverged_at is not None and config.scheme.kind != "none":
        print(f"run diverged at step {diverged_at} (scheme {config.scheme.kind})")
        return 3
    if diverged_at is not None:
        print(f"run diverged at step {diverged_at}, the expected outcome without compensation")
    return 0


def cmd_compare(config_mapping: dict, out_dir: Path, seed: int | None, record_ghost: bool) -> int:
    section = decode(CompareSection, _section(config_mapping, "compare"), "compare")
    configs = {
        label: _configure(
            _deep_merge(section.base, overrides), f"compare.variants.{label}", seed, record_ghost
        )
        for label, overrides in section.variants.items()
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    unexpected = False
    for label, config in configs.items():
        trace, diverged_at = _run_and_record(config, out_dir / f"metrics_{label}.csv")
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


def cmd_sweep(config_mapping: dict, out_dir: Path, seed: int | None, record_ghost: bool) -> int:
    section = decode(SweepSection, _section(config_mapping, "sweep"), "sweep")
    cells = []
    for gamma in section.gammas:
        if section.alphas is not None:
            for alpha in section.alphas:
                overrides = {"gamma": gamma, "schedule": {"kind": "constant", "alpha": alpha}}
                cells.append((f"gamma_{gamma:g}_alpha_{alpha:g}", overrides))
        elif section.c0s is not None:
            for c0 in section.c0s:
                overrides = {"gamma": gamma, "schedule": {"kind": "inverse_linear", "c0": c0}}
                cells.append((f"gamma_{gamma:g}_c0_{c0:g}", overrides))
        else:
            cells.append((f"gamma_{gamma:g}", {"gamma": gamma}))
    configs = {
        label: _configure(_deep_merge(section.base, overrides), f"sweep.{label}", seed, record_ghost)
        for label, overrides in cells
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {}
    for label, config in configs.items():
        trace, diverged_at = _run_and_record(config, out_dir / f"metrics_{label}.csv")
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


def verify_suite(seed: int = 9) -> tuple[bool, str]:
    """Self-contained oracle checks; returns (all_passed, report text)."""
    checker = _Checker()
    base = RunConfig(
        problem=VERIFY_PROBLEM,
        estimator="momentum",
        compressor=CompressorSpec("one_bit"),
        n_workers=4,
        gamma=0.01,
        b0=4,
        seed=seed,
        record_history=True,
    )

    def config(scheme: str, alpha: float, beta: float = 1.0, **changes) -> RunConfig:
        schedule = AlphaSchedule("constant", alpha=alpha)
        return replace(base, schedule=schedule, scheme=SchemeSpec(scheme, beta=beta), **changes)

    # Closed-form residual identity across schemes, alphas, fleet sizes.
    resolved_signs = set()
    worst = 0.0
    for alpha_val in (0.1, 0.5, 1.0):
        for scheme_kind in ("none", "single", "two_step"):
            for n in (1, 4):
                for comp in ("one_bit", "top_k"):
                    cell = config(scheme_kind, alpha_val, compressor=CompressorSpec(comp, k=3),
                                  n_workers=n, steps=200)
                    try:
                        report = verify_residual_identity(run(cell))
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
    for scheme_kind in ("two_step", "single", "none"):
        trace, diverged_at = execute_run(
            config(scheme_kind, 0.05, problem=FIGURE1_PROBLEM, steps=2000, gamma=1e-3)
        )
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
    collapse = {kind: run(config(kind, 1.0, beta=0.3, steps=100)) for kind in ("single", "two_step")}
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
    problem: ProblemSpec = FIGURE1_PROBLEM,
) -> dict:
    """Convergence comparison of compensation schemes under aggressive
    compression, one block per estimator.

    With gamma=None the step size is grid searched per estimator: the
    uncompressed control runs once per GAMMA_GRID value and the best final
    squared gradient norm wins, after which every variant reuses that step
    size; the winning control run is the uncompressed variant.  Gaps are
    log10 ratios of the final squared gradient norm against the
    uncompressed control (the metric the CSV records).  The
    identity_control variant differs from the control only in going through
    the full message plumbing with the identity compressor, so its gap must
    sit at zero.

    The summary reads only each run's final values, so the runs record the
    per-step loss and grad_norm_sq columns (record_objective) only when
    out_dir is given and their CSVs are written; the summary is the same
    either way.
    """
    base = RunConfig(
        problem=problem, schedule=AlphaSchedule("inverse_t"), n_workers=8, steps=steps, b0=8, seed=seed,
        record_objective=out_dir is not None,
    )
    variants = {
        label: {"scheme": SchemeSpec(scheme, beta=DEFAULT_BETA), "compressor": CompressorSpec(codec)}
        for label, scheme, codec in (
            ("uncompressed", "none", "identity"),
            ("identity_control", "two_step", "identity"),
            ("no_compensation", "none", "one_bit"),
            ("single", "single", "one_bit"),
            ("two_step", "two_step", "one_bit"),
        )
    }

    def one_run(estimator, parts, step_size):
        return execute_run(replace(base, estimator=estimator, gamma=step_size, **parts))

    summary: dict = {}
    for estimator in estimators:
        control = None
        if gamma is None:
            candidates = []
            for grid_gamma in GAMMA_GRID:
                trace, diverged_at = one_run(estimator, variants["uncompressed"], grid_gamma)
                if diverged_at is None:
                    candidates.append((trace.final_grad_norm_sq, grid_gamma, trace))
            if not candidates:
                raise DivergenceError(
                    0, message=f"{estimator}: uncompressed control diverged at every grid step size"
                )
            _, tuned_gamma, control = min(candidates, key=lambda c: c[:2])
        else:
            tuned_gamma = gamma
        block: dict = {"tuned_gamma": tuned_gamma}
        for label, parts in variants.items():
            if label == "uncompressed" and control is not None:
                trace, diverged_at = control, None
            else:
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


def _seed_flag(text: str) -> int:
    """--seed's argparse type: a non-negative int, as RunConfig.seed takes."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradcomp",
        description="Deterministic simulator for compressed distributed optimization "
        "with error compensation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"run": cmd_run, "compare": cmd_compare, "sweep": cmd_sweep}
    for name in (*commands, "verify"):
        p = sub.add_parser(name)
        if name != "verify":
            p.add_argument("--config", required=True, help="YAML config file")
            p.add_argument("--record-ghost", action="store_true", help="record the ghost trajectory")
        p.add_argument("--out", required=name != "verify", help="output directory")
        p.add_argument("--seed", type=_seed_flag, default=None, help="override the run seed")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (status 0) or a usage error (its
        # status 2, which this CLI keeps for a failed verification).
        return 1 if exc.code else 0
    try:
        if args.command == "verify":
            return cmd_verify(Path(args.out) if args.out else None, args.seed)
        mapping = load_config_file(args.config)
        return commands[args.command](mapping, Path(args.out), args.seed, args.record_ghost)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"unexpected divergence at step {exc.step}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

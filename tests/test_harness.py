"""Harness tests: config parsing, CSV emission, CLI exit codes, sweeps."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import gradcomp
from gradcomp import harness, simulator
from gradcomp import (
    AlphaSchedule,
    CompressorSpec,
    ConfigError,
    DivergenceError,
    ProblemSpec,
    RunConfig,
    SchemeSpec,
    VerificationError,
    run,
)
from gradcomp.harness import (
    FIGURE1_PROBLEM,
    GAMMA_GRID,
    encode,
    figure1_experiment,
    load_config_file,
    main,
    parse_run_config,
    serialize_config,
    write_metrics_csv,
    write_summary,
)

QUAD_RUN = """
run:
  problem: {kind: quadratic, spectrum: [1.0, 2.0], batch_size: 1, seed: 0}
  estimator: momentum
  schedule: {kind: constant, alpha: 0.5}
  scheme: {kind: two_step, beta: 0.3}
  compressor: {kind: one_bit}
  topology: single_worker
  n_workers: 1
  steps: 12
  gamma: 0.05
"""

DIVERGING_RUN = """
run:
  problem: {kind: quadratic, spectrum: [1.0], batch_size: 1, seed: 0}
  estimator: momentum
  schedule: {kind: constant, alpha: 1.0}
  scheme: {kind: %s, beta: 0.3}
  compressor: {kind: one_bit}
  topology: single_worker
  n_workers: 1
  steps: 60
  gamma: 3.0
"""


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_defaults_fill_an_empty_run_section():
    config = parse_run_config({})
    assert config.estimator == "momentum"
    assert config.steps == 100
    assert config.gamma == harness.BEST_GAMMA
    assert config.scheme.beta == harness.DEFAULT_BETA
    assert config.problem.kind == "lin_reg"
    assert config.problem.dim == 20
    assert config.problem.n_samples == 512


def test_unknown_fields_are_rejected_by_name():
    with pytest.raises(ConfigError, match="stepz"):
        parse_run_config({"stepz": 5})
    with pytest.raises(ConfigError, match="run.problem"):
        parse_run_config({"problem": {"dims": 3}})


def test_bad_field_values_become_config_errors():
    with pytest.raises(ConfigError):
        parse_run_config({"steps": "plenty"})
    with pytest.raises(ConfigError):
        parse_run_config({"schedule": {"kind": "constant", "alpha": 2.0}})
    with pytest.raises(ConfigError):
        parse_run_config({"problem": []})


def test_record_ghost_maps_to_history_recording():
    assert parse_run_config({"record_ghost": True}).record_history
    assert not parse_run_config({}).record_history


def test_server_compressor_is_optional():
    config = parse_run_config(
        {"compressor": {"kind": "one_bit"}, "server_compressor": {"kind": "top_k", "k": 2}}
    )
    assert config.server_compressor.kind == "top_k"
    assert parse_run_config({}).server_compressor is None


def test_config_round_trip_is_idempotent():
    mapping = {
        "problem": {"kind": "quadratic", "spectrum": [1.0, 3.0], "batch_size": 1, "seed": 2},
        "estimator": "storm",
        "schedule": {"kind": "inverse_t"},
        "scheme": {"kind": "single", "beta": 0.5},
        "compressor": {"kind": "rand_k", "k": 2, "rescale": False},
        "server_compressor": {"kind": "stoch_quant", "levels": 3, "seed": 8},
        "topology": "double_compression",
        "n_workers": 2,
        "steps": 7,
        "gamma": 0.5,
        "seed": 4,
    }
    once = serialize_config(encode(parse_run_config(mapping)))
    twice = serialize_config(encode(parse_run_config(yaml.safe_load(once))))
    assert once == twice


def _number(low, high):
    """A float field's YAML value: an int or a float, since both decode to float."""
    return st.one_of(st.integers(math.ceil(low), math.floor(high)), st.floats(low, high))


@st.composite
def compressor_mappings(draw, dim):
    """A compressor for vectors of dimension dim (top_k and rand_k keep k <= dim)."""
    kind = draw(st.sampled_from(["one_bit", "top_k", "rand_k", "stoch_quant", "identity"]))
    mapping = {"kind": kind}
    if kind in ("top_k", "rand_k"):
        mapping["k"] = draw(st.integers(1, dim))
    if kind == "rand_k":
        mapping["rescale"] = draw(st.booleans())
    if kind == "stoch_quant":
        mapping["levels"] = draw(st.integers(1, 8))
    if draw(st.booleans()):
        mapping["seed"] = draw(st.integers(0, 99))
    return mapping


@st.composite
def run_mappings(draw):
    """A valid run mapping, with every field given."""
    kind = draw(st.sampled_from(["quadratic", "lin_reg", "log_reg"]))
    problem = {"kind": kind, "batch_size": draw(st.integers(1, 4)), "seed": draw(st.integers(0, 9))}
    if kind == "quadratic":
        problem["spectrum"] = draw(st.lists(_number(0.0, 10.0), min_size=1, max_size=4))
        dim, max_workers = len(problem["spectrum"]), 16
    else:
        dim = draw(st.integers(1, 8))
        problem.update(dim=dim, n_samples=dim + draw(st.integers(0, 50)), condition=draw(_number(1.0, 100.0)))
        max_workers = min(16, problem["n_samples"])
        problem["noise_std" if kind == "lin_reg" else "l2_reg"] = draw(_number(0.0, 1.0))
    schedule = {"kind": draw(st.sampled_from(["constant", "inverse_t", "inverse_linear", "power_two_thirds"]))}
    if schedule["kind"] == "constant":
        schedule["alpha"] = draw(st.floats(0.01, 1.0))
    elif schedule["kind"] == "inverse_linear":
        schedule["c0"] = draw(_number(0.01, 10.0))
    elif schedule["kind"] == "power_two_thirds":
        schedule["horizon"] = draw(st.integers(1, 10_000))
    topology = draw(st.sampled_from(["double_compression", "single_round", "single_worker"]))
    mapping = {
        "problem": problem,
        "estimator": draw(st.sampled_from(["momentum", "storm", "root_sgd", "igt"])),
        "schedule": schedule,
        "scheme": {"kind": draw(st.sampled_from(["none", "single", "two_step"])),
                   "beta": draw(st.floats(0.01, 1.0))},
        "compressor": draw(compressor_mappings(dim)),
        "topology": topology,
        "n_workers": 1 if topology == "single_worker" else draw(st.integers(1, max_workers)),
        "steps": draw(st.integers(1, 10_000)),
        "gamma": draw(_number(0.0, 1.0)),
        "b0": draw(st.integers(1, 16)),
        "seed": draw(st.integers(0, 99)),
        "heterogeneity": draw(_number(0.0, 1.0)),
        "x0_scale": draw(_number(0.0, 2.0)),
        "record_ghost": draw(st.booleans()),
    }
    if draw(st.booleans()):
        mapping["server_compressor"] = draw(compressor_mappings(dim))
    return mapping


@settings(max_examples=300, deadline=None)
@given(run_mappings())
def test_codec_decodes_like_the_constructors_and_round_trips(mapping):
    config = parse_run_config(mapping)
    problem = dict(mapping["problem"], spectrum=tuple(mapping["problem"].get("spectrum", ())))
    server = mapping.get("server_compressor")
    direct = RunConfig(
        problem=ProblemSpec(**problem),
        schedule=AlphaSchedule(**mapping["schedule"]),
        scheme=SchemeSpec(**mapping["scheme"]),
        compressor=CompressorSpec(**mapping["compressor"]),
        server_compressor=None if server is None else CompressorSpec(**server),
        record_history=mapping["record_ghost"],
        **{k: v for k, v in mapping.items()
           if k not in ("problem", "schedule", "scheme", "compressor", "server_compressor", "record_ghost")},
    )
    assert config == direct
    once = serialize_config(encode(config))
    assert serialize_config(encode(parse_run_config(yaml.safe_load(once)))) == once


@pytest.mark.parametrize(
    "mapping, path",
    [
        ({"steps": 2.7}, "run.steps"),
        ({"n_workers": True}, "run.n_workers"),
        ({"record_ghost": "false"}, "run.record_ghost"),
        ({"gamma": "0.1"}, "run.gamma"),
        ({"gamma": 10**400}, "run.gamma"),
        ({"compressor": {"kind": "top_k", "k": 2.0}}, "run.compressor.k"),
        ({"compressor": {"kind": "rand_k", "k": 2, "rescale": "no"}}, "run.compressor.rescale"),
        ({"problem": {"kind": "quadratic", "spectrum": "abc"}}, "run.problem.spectrum"),
        ({"problem": {"kind": "lin_reg", "dim": 2, "n_samples": 4, "batch_size": 1.5}},
         "run.problem.batch_size"),
        ({"schedule": {"kind": "power_two_thirds", "horizon": 2.5}}, "run.schedule.horizon"),
    ],
)
def test_mistyped_values_are_rejected_by_dotted_path(mapping, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        parse_run_config(mapping)


@pytest.mark.parametrize(
    "mapping, message",
    [
        ({"problem": {"kind": "lin_reg", "dim": 2, "n_samples": 4, "noise_std": float("nan")}},
         "run.problem.noise_std: must be finite, got nan"),
        ({"problem": {"kind": "quadratic", "spectrum": [1, float("inf")]}},
         "run.problem.spectrum: must be finite, got inf"),
        ({"schedule": {"kind": "inverse_linear", "c0": float("inf")}},
         "run.schedule.c0: must be finite, got inf"),
    ],
)
def test_non_finite_values_are_rejected_by_dotted_path(mapping, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_run_config(mapping)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("run: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    listy = tmp_path / "list.yaml"
    listy.write_text("- a\n- b\n")
    with pytest.raises(ConfigError):
        load_config_file(listy)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert load_config_file(empty) == {}


# ---------------------------------------------------------------------------
# metric emission


def small_trace(record_history=False):
    config = RunConfig(
        problem=ProblemSpec(kind="quadratic", spectrum=(1.0, 2.0)),
        schedule=AlphaSchedule(kind="constant", alpha=0.5),
        scheme=SchemeSpec(kind="two_step", beta=0.3),
        compressor=CompressorSpec("one_bit"),
        topology="single_worker",
        steps=6,
        gamma=0.05,
        record_history=record_history,
    )
    return run(config)


def test_metrics_csv_layout(tmp_path):
    trace = small_trace()
    path = tmp_path / "metrics.csv"
    write_metrics_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,grad_norm_sq,v_norm,worker_delta_norm,server_delta_norm,cum_bits"
    assert len(lines) == 1 + trace.t_effective
    first = lines[1].split(",")
    assert first[0] == "0"
    assert int(first[-1]) == trace.cum_bits[0]


def test_metrics_csv_ghost_column_sits_before_bits(tmp_path):
    trace = small_trace(record_history=True)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(trace, path, ghost_residual_norm=np.zeros(trace.t_effective))
    header = path.read_text().splitlines()[0].split(",")
    assert header[-2:] == ["ghost_residual_norm", "cum_bits"]


def test_metrics_csv_refuses_a_trace_without_the_objective(tmp_path):
    trace = run(dataclasses.replace(small_trace().config, record_objective=False))
    path = tmp_path / "metrics.csv"
    with pytest.raises(ConfigError) as excinfo:
        write_metrics_csv(trace, path)
    assert excinfo.value.field == "record_objective"
    assert not path.exists()


def test_record_objective_has_no_yaml_key(tmp_path, capsys):
    """Only a caller in Python can turn the objective columns off, so every
    run the CLI makes can write its metrics CSV; config.yaml never holds it."""
    with pytest.raises(ConfigError, match=re.escape("run: unknown field(s): record_objective")):
        parse_run_config({"record_objective": False})
    config = parse_run_config({})
    assert encode(dataclasses.replace(config, record_objective=False)) == encode(config)
    assert "record_objective" not in serialize_config(encode(config))

    text = QUAD_RUN + "  record_objective: false\n"
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: run: unknown field(s): record_objective")
    assert not out.exists()


def test_seventeen_digit_serialization(tmp_path):
    path = tmp_path / "summary.txt"
    write_summary(path, {"third": 1.0 / 3.0, "label": "x"})
    text = path.read_text()
    assert "third 0.33333333333333331" in text
    assert "label x" in text


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_writes_the_experiment_directory(tmp_path):
    config = write_config(tmp_path, QUAD_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "config.yaml").exists()
    summary = (out / "summary.txt").read_text()
    assert "final_loss" in summary
    assert "diverged False" in summary


def test_cli_run_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path, QUAD_RUN)
    assert main(["run", "--config", config, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", config, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b


def test_cli_seed_override_changes_the_run(tmp_path):
    config = write_config(
        tmp_path,
        """
run:
  problem: {kind: lin_reg, dim: 6, n_samples: 48, noise_std: 0.1, seed: 3}
  schedule: {kind: constant, alpha: 0.3}
  compressor: {kind: one_bit}
  scheme: {kind: two_step, beta: 0.3}
  n_workers: 2
  steps: 20
  gamma: 0.01
""",
    )
    assert main(["run", "--config", config, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", config, "--out", str(tmp_path / "b"), "--seed", "9"]) == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a != b


def test_cli_record_ghost_adds_the_column(tmp_path):
    config = write_config(tmp_path, QUAD_RUN)
    out = tmp_path / "ghost"
    assert main(["run", "--config", config, "--out", str(out), "--record-ghost"]) == 0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert "ghost_residual_norm" in header


def test_cli_config_errors_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.yaml")
    assert main(["run", "--config", missing, "--out", str(tmp_path / "o")]) == 1

    no_section = write_config(tmp_path, "compare: {}\n", name="nosec.yaml")
    assert main(["run", "--config", no_section, "--out", str(tmp_path / "o")]) == 1

    typo = write_config(tmp_path, "run: {stepz: 3}\n", name="typo.yaml")
    assert main(["run", "--config", typo, "--out", str(tmp_path / "o")]) == 1

    no_out = write_config(tmp_path, QUAD_RUN, name="noout.yaml")
    assert main(["run", "--config", no_out]) == 1
    capsys.readouterr()

    mistyped = {
        "run.compressor.k": ("run", QUAD_RUN.replace("{kind: one_bit}", "{kind: top_k, k: 2.0}")),
        "run.compressor.rescale": (
            "run", QUAD_RUN.replace("{kind: one_bit}", "{kind: rand_k, k: 1, rescale: \"no\"}")),
        "sweep.gammas": ("sweep", "sweep: {base: {steps: 2}, gammas: 0.1}\n"),
        "sweep.gammas[0]": ("sweep", "sweep: {base: {steps: 2}, gammas: [fast]}\n"),
    }
    for i, (path, (command, text)) in enumerate(mistyped.items()):
        config = write_config(tmp_path, text, name=f"mistyped{i}.yaml")
        assert main([command, "--config", config, "--out", str(tmp_path / f"m{i}")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}:")
        assert "Traceback" not in err

    # An empty sweep axis would run no cell at all.
    for i, axis in enumerate(("gammas", "alphas", "c0s")):
        config = write_config(tmp_path, f"sweep: {{base: {{steps: 2}}, {axis}: []}}\n", f"empty{i}.yaml")
        assert main(["sweep", "--config", config, "--out", str(tmp_path / f"e{i}")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sweep.{axis}:")
        assert "Traceback" not in err

    # Values that print alike under :g would share one cell label and its outputs.
    colliding = {
        "gammas": ("gammas: [0.1234567, 0.1234568, 0.01]", "0.1234567", "0.1234568"),
        "alphas": ("gammas: [0.1], alphas: [0.5, 0.5]", "0.5", "0.5"),
        "c0s": ("gammas: [0.1], c0s: [0.1, 0.10000001]", "0.1", "0.10000001"),
    }
    for i, (axis, (text, first, second)) in enumerate(colliding.items()):
        config = write_config(tmp_path, f"sweep: {{base: {{steps: 2}}, {text}}}\n", f"same{i}.yaml")
        assert main(["sweep", "--config", config, "--out", str(tmp_path / f"s{i}")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sweep.{axis}: {first} and {second} ")
        assert "Traceback" not in err
        assert not (tmp_path / f"s{i}").exists()

    # A compare label names a metrics file, so it cannot hold a directory.
    nested = write_config(
        tmp_path, "compare: {base: {steps: 2}, variants: {a/b: {}}}\n", "nested.yaml"
    )
    assert main(["compare", "--config", nested, "--out", str(tmp_path / "n")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: compare.variants.a/b:")
    assert "Traceback" not in err

    # The labels 1 and "1" differ as YAML keys but would share metrics_1.csv.
    twins = write_config(
        tmp_path, "compare: {base: {steps: 2}, variants: {1: {gamma: 0.1}, \"1\": {gamma: 0.2}}}\n",
        "twins.yaml",
    )
    assert main(["compare", "--config", twins, "--out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: compare.variants.1: the labels 1 and '1' ")
    assert "Traceback" not in err
    assert not (tmp_path / "t").exists()

    # Usage errors exit 1 too: status 2 means a failed verification.
    usage = {
        "verify takes neither --config nor --record-ghost": [
            "verify", "--config", missing, "--record-ghost", "--out", str(tmp_path / "v")],
        "run needs --config": ["run", "--out", str(tmp_path / "r")],
    }
    for why, argv in usage.items():
        assert main(argv) == 1, why
        err = capsys.readouterr().err
        assert "error:" in err, why
        assert "Traceback" not in err
    assert not (tmp_path / "v").exists()
    assert not (tmp_path / "r").exists()


def test_module_entry_point_runs_a_config(tmp_path):
    config = write_config(tmp_path, QUAD_RUN)
    src = str(Path(gradcomp.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gradcomp", "run", "--config", config, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert (tmp_path / "out" / "metrics.csv").exists()


def test_cli_rejects_a_run_whose_metric_columns_exceed_memory(tmp_path, monkeypatch, capsys):
    def no_problem(spec):
        raise AssertionError("make_problem ran before the trace check")

    monkeypatch.setattr(simulator, "make_problem", no_problem)
    text = "run: {steps: 1000000000000, problem: {kind: quadratic, spectrum: [1.0, 2.0]}}\n"
    config = write_config(tmp_path, text, name="long.yaml")
    assert main(["run", "--config", config, "--out", str(tmp_path / "long")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: run.steps:")
    assert "Traceback" not in err


BIG = 10**400  # an int no float can hold


UNUSABLE = (  # (command, config text, dotted path the error names)
    ("run", "run: {compressor: {kind: top_k, k: 21}}", "run.compressor.k"),
    ("run", "run: {server_compressor: {kind: rand_k, k: 21}}", "run.server_compressor.k"),
    ("run", "run: {steps: 10, schedule: {kind: inverse_linear, c0: 1.0e+308}}", "run.schedule.c0"),
    ("run", f"run: {{compressor: {{kind: stoch_quant, levels: {BIG}}}}}", "run.compressor.levels"),
    ("run", f"run: {{server_compressor: {{kind: stoch_quant, levels: {BIG}}}}}",
     "run.server_compressor.levels"),
    ("run", f"run: {{schedule: {{kind: power_two_thirds, horizon: {BIG}}}}}", "run.schedule.horizon"),
    ("run", "run: {n_workers: 5, problem: {kind: lin_reg, dim: 2, n_samples: 4}}", "run.n_workers"),
    ("run", "run: {problem: {kind: lin_reg, dim: 2, n_samples: 4, batch_size: 1000000000000000}}",
     "run.problem.batch_size"),
    ("run", f"run: {{steps: {BIG}}}", "run.steps"),
    ("run", "run: {heterogeneity: 2.0}", "run.heterogeneity"),
    ("run", "run: {estimator: foo}", "run.estimator"),
    # the CLI's default schedule is a constant alpha of 0.1, and sgd needs 1
    ("run", "run: {estimator: sgd}", "run.estimator"),
    ("compare", "compare: {base: {steps: 2}, variants: {a: {}, b: {compressor: {kind: top_k, k: 21}}}}",
     "compare.variants.b.compressor.k"),
    ("compare", "compare: {base: {steps: 2}, variants: {a: {}, b: {steps: 1000000000000}}}",
     "compare.variants.b.steps"),
    ("compare", "compare: {base: {steps: 2}, variants: {a: 5}}", "compare.variants.a"),
    ("sweep", "sweep: {base: {steps: 10}, gammas: [0.1], c0s: [0.5, 1.0e+308]}",
     "sweep.gamma_0.1_c0_1e+308.schedule.c0"),
    ("sweep", "sweep: {base: {steps: 1000000000000}, gammas: [0.1]}", "sweep.gamma_0.1.steps"),
    ("sweep", "sweep: {base: {steps: 2}, gammas: [0.1], alphas: [0.5], c0s: [0.05]}", "sweep.c0s"),
)


@pytest.mark.parametrize("command, text, path", UNUSABLE, ids=[case[2] for case in UNUSABLE])
def test_cli_rejects_unusable_values_before_any_output(tmp_path, capsys, command, text, path):
    """Values no run can use fail by field before --out exists, instead of
    mid-run, with an unnamed error or a traceback, after it was created."""
    config = write_config(tmp_path, text + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_checks_the_values_its_flags_override(tmp_path, capsys):
    """--seed and --record-ghost replace a value of the file, but the file's
    own value must still be one a run can take, and the run with the
    overrides must still fit in memory; all before --out exists."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    # metric columns of half the memory; the (steps, 64) history is 6.7 times it
    steps = physical // (2 * 8 * len(simulator.METRIC_COLUMNS))
    wide = f"{{steps: {steps}, problem: {{kind: quadratic, spectrum: {[1.0] * 64}}}}}"
    cases = {  # config text -> (flags, the dotted path the error names)
        "run: {seed: fast}": (["--seed", "3"], "run.seed"),
        "run: {seed: 1.5}": (["--seed", "3"], "run.seed"),
        "run: {seed: -1}": (["--seed", "3"], "run.seed"),
        "run: {record_ghost: yes please}": (["--record-ghost"], "run.record_ghost"),
        f"run: {wide}": (["--record-ghost"], "run.record_ghost"),
        f"compare: {{variants: {{a: {wide}}}}}": (["--record-ghost"], "compare.variants.a.record_ghost"),
    }
    for i, (text, (flags, path)) in enumerate(cases.items()):
        config = write_config(tmp_path, text + "\n", name=f"flags{i}.yaml")
        command = text.split(":")[0]
        out = tmp_path / f"out{i}"
        assert main([command, "--config", config, "--out", str(out), *flags]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: "), (text, err)
        assert "Traceback" not in err
        assert not out.exists()


SECTIONS = {
    "run": QUAD_RUN,
    "compare": "compare: {base: {steps: 2}, variants: {a: {}}}\n",
    "sweep": "sweep: {base: {steps: 2}, gammas: [0.1]}\n",
}


@pytest.mark.parametrize("command", [*SECTIONS, "verify"])
@pytest.mark.parametrize("seed", ["-1", "fast", "1.5"])
def test_cli_seed_flag_takes_only_a_non_negative_int(tmp_path, capsys, command, seed):
    """A bad --seed is a usage error that names the flag, before --out exists."""
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--seed", seed]
    if command in SECTIONS:
        argv += ["--config", write_config(tmp_path, SECTIONS[command])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_the_ghost_column_streams_the_gap_norms(tmp_path, monkeypatch):
    """The ghost column holds O(d) state on top of the run: at T = 64 and
    d = 4096 one (T, d) float64 array is 2 MiB, and writing the CSV must
    stay far below it.  Its bytes are those of the (T, d) computation."""
    dim, steps = 4096, 64
    config = RunConfig(
        problem=ProblemSpec(kind="quadratic", spectrum=tuple(np.geomspace(1.0, 0.01, dim))),
        schedule=AlphaSchedule(kind="constant", alpha=0.5),
        scheme=SchemeSpec(kind="single", beta=0.3),
        compressor=CompressorSpec("one_bit"),
        n_workers=2,
        steps=steps,
        gamma=0.1,
        record_history=True,
    )
    trace = run(config)
    monkeypatch.setattr(harness, "execute_run", lambda config: (trace, None))
    tracemalloc.start()
    try:
        harness._run_and_record(config, tmp_path / "streamed.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < trace.history.x.nbytes / 8, (peak, trace.history.x.nbytes)

    full = np.linalg.norm(trace.history.x - gradcomp.ghost_run(trace).x_hat, axis=1)
    assert full[1:].max() > 0.0
    write_metrics_csv(trace, tmp_path / "full.csv", full)
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_cli_divergence_exit_codes(tmp_path):
    unexpected = write_config(tmp_path, DIVERGING_RUN % "single", name="single.yaml")
    code = main(["run", "--config", unexpected, "--out", str(tmp_path / "u")])
    assert code == 3
    summary = (tmp_path / "u" / "summary.txt").read_text()
    assert "diverged True" in summary

    expected = write_config(tmp_path, DIVERGING_RUN % "none", name="none.yaml")
    code = main(["run", "--config", expected, "--out", str(tmp_path / "e")])
    assert code == 0
    assert "diverged True" in (tmp_path / "e" / "summary.txt").read_text()


def test_cli_verify_maps_outcomes_to_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "verify_suite", lambda seed=9: (True, "stub PASS\n"))
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 0
    assert (out / "verify.txt").read_text() == "stub PASS\n"
    capsys.readouterr()

    monkeypatch.setattr(harness, "verify_suite", lambda seed=9: (False, "stub FAIL\n"))
    assert main(["verify"]) == 2
    capsys.readouterr()

    monkeypatch.undo()

    def diverging(config):
        raise DivergenceError(7, run(dataclasses.replace(config, steps=2)))

    monkeypatch.setattr(harness, "run", diverging)
    assert main(["verify", "--out", str(tmp_path / "d")]) == 3
    assert capsys.readouterr().err == "unexpected divergence at step 7\n"
    assert not (tmp_path / "d").exists()


def test_verify_reports_a_cell_whose_identity_check_fails(monkeypatch, capsys):
    def failing(trace):
        raise VerificationError("stub identity failure")

    monkeypatch.setattr(harness, "verify_residual_identity", failing)
    assert main(["verify"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "residual_identity[none,a=0.1,n=1,one_bit] FAIL stub identity failure" in lines
    assert sum(" FAIL stub identity failure" in line for line in lines) == 36
    assert "c2_sign_resolution FAIL resolved signs [] (expected" in "\n".join(lines)


def test_verify_suite_passes_every_check():
    """The real suite, not a stub.  Its {:.3e} error digits are BLAS rounding
    noise, so only the line names and marks are pinned."""
    ok, report = harness.verify_suite()
    assert ok
    assert [line.split(" ")[:2] for line in report.splitlines()] == [
        ["residual_identity_grid", "PASS"],
        ["c2_sign_resolution", "PASS"],
        ["residual_sum_ordering", "PASS"],
        ["ecx_per_step_bound", "PASS"],
        ["ecx_sum_bound", "INFO"],
        ["alpha1_collapse", "PASS"],
        ["checks_failed", "0"],
    ]


def test_cli_compare_reports_gaps(tmp_path, capsys):
    config = write_config(
        tmp_path,
        """
compare:
  base:
    problem: {kind: lin_reg, dim: 6, n_samples: 48, noise_std: 0.1, seed: 3}
    schedule: {kind: constant, alpha: 0.3}
    topology: single_worker
    n_workers: 1
    steps: 25
    gamma: 0.01
  variants:
    uncompressed:
      scheme: {kind: none, beta: 0.3}
      compressor: {kind: identity}
    identity_control:
      scheme: {kind: two_step, beta: 0.3}
      compressor: {kind: identity}
    quantized:
      scheme: {kind: two_step, beta: 0.3}
      compressor: {kind: one_bit}
""",
    )
    out = tmp_path / "cmp"
    assert main(["compare", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    for label in ("uncompressed", "identity_control", "quantized"):
        assert (out / f"metrics_{label}.csv").exists()
    summary = dict(
        line.split(" ", 1) for line in (out / "summary.txt").read_text().splitlines()
    )
    gap = float(summary["identity_control.log10_grad_gap_vs_uncompressed"])
    assert gap == 0.0
    assert "quantized.log10_grad_gap_vs_uncompressed" in summary


def test_cli_compare_merges_a_variant_into_the_nested_base(tmp_path, capsys):
    """A variant that overrides one key of the base's problem keeps the
    base's other problem keys; a shallow merge would drop them."""
    problem = "{kind: lin_reg, dim: %d, n_samples: 64, batch_size: 2, seed: 1}"
    compare = write_config(tmp_path, f"""
compare:
  base: {{steps: 6, problem: {problem % 20}}}
  variants: {{narrow: {{problem: {{dim: 10}}}}}}
""")
    merged = write_config(tmp_path, f"run: {{steps: 6, problem: {problem % 10}}}\n", "run.yaml")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", compare, "--out", str(out)]) == 0
    assert main(["run", "--config", merged, "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert (out / "metrics_narrow.csv").read_bytes() == (tmp_path / "run" / "metrics.csv").read_bytes()


def test_cli_compare_flags_unexpected_divergence(tmp_path, capsys):
    config = write_config(
        tmp_path,
        """
compare:
  base:
    problem: {kind: quadratic, spectrum: [1.0], batch_size: 1, seed: 0}
    schedule: {kind: constant, alpha: 1.0}
    compressor: {kind: one_bit}
    topology: single_worker
    n_workers: 1
    steps: 60
    gamma: 3.0
  variants:
    runaway:
      scheme: {kind: single, beta: 0.3}
""",
    )
    assert main(["compare", "--config", config, "--out", str(tmp_path / "o")]) == 3
    capsys.readouterr()


def test_cli_compare_needs_variants(tmp_path):
    config = write_config(tmp_path, "compare: {base: {}, variants: {}}\n")
    assert main(["compare", "--config", config, "--out", str(tmp_path / "o")]) == 1


def test_cli_sweep_writes_one_csv_per_cell(tmp_path, capsys):
    config = write_config(
        tmp_path,
        """
sweep:
  base:
    problem: {kind: quadratic, spectrum: [1.0, 2.0], batch_size: 1, seed: 0}
    scheme: {kind: two_step, beta: 0.3}
    compressor: {kind: one_bit}
    topology: single_worker
    n_workers: 1
    steps: 10
  gammas: [0.1, 0.01]
  alphas: [1.0, 0.5]
""",
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    cells = sorted(p.name for p in out.glob("metrics_*.csv"))
    assert len(cells) == 4
    assert "metrics_gamma_0.1_alpha_1.csv" in cells
    summary = (out / "summary.txt").read_text()
    assert summary.count("final_grad_norm_sq") == 4


def test_cli_sweep_cells_match_single_runs_byte_for_byte(tmp_path, capsys):
    plain = """
    problem: {kind: lin_reg, dim: 4, n_samples: 32, batch_size: 2, seed: 1}
    estimator: storm
    scheme: {kind: two_step, beta: 0.3}
    compressor: {kind: rand_k, k: 2}
    n_workers: 3
    steps: 15
    seed: 4
"""
    # With record_ghost in the base, or with the --record-ghost flag, every
    # cell must carry the ghost column that run --record-ghost writes.
    cases = (
        ("ghost_False", False, plain, []),
        ("ghost_True", True, plain + "    record_ghost: true\n", []),
        ("ghost_flag", True, plain, ["--record-ghost"]),
    )
    for name, ghost, base, sweep_flags in cases:
        root = tmp_path / name
        root.mkdir()
        config = write_config(
            root, "sweep:\n  base:" + base + "  gammas: [0.1, 0.01]\n  alphas: [1.0, 0.5]\n"
        )
        out = root / "sweep"
        assert main(["sweep", "--config", config, "--out", str(out)] + sweep_flags) == 0
        capsys.readouterr()

        summary = []
        for gamma in (0.1, 0.01):
            for alpha in (1.0, 0.5):
                label = f"gamma_{gamma:g}_alpha_{alpha:g}"
                cell = (
                    "run:" + plain + f"    gamma: {gamma}\n"
                    f"    schedule: {{kind: constant, alpha: {alpha}}}\n"
                )
                single = root / label
                flags = ["--record-ghost"] if ghost else []
                assert main(["run", "--config", write_config(root, cell, f"{label}.yaml"),
                             "--out", str(single)] + flags) == 0
                capsys.readouterr()
                csv = (out / f"metrics_{label}.csv").read_bytes()
                assert csv == (single / "metrics.csv").read_bytes()
                assert (b"ghost_residual_norm" in csv.splitlines()[0]) == ghost
                run_summary = dict(
                    line.split(" ", 1) for line in (single / "summary.txt").read_text().splitlines()
                )
                summary += [
                    f"{label}.final_grad_norm_sq {run_summary['final_grad_norm_sq']}",
                    f"{label}.diverged {run_summary['diverged']}",
                ]
        assert (out / "summary.txt").read_text() == "\n".join(summary) + "\n"


def test_cli_sweep_rejects_two_schedule_axes(tmp_path):
    config = write_config(
        tmp_path,
        "sweep: {base: {}, gammas: [0.1], alphas: [0.5], c0s: [0.05]}\n",
    )
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "o")]) == 1


# ---------------------------------------------------------------------------
# comparison experiment plumbing


def test_figure_experiment_structure():
    problem = ProblemSpec(
        kind="lin_reg", dim=8, n_samples=64, noise_std=0.1, condition=10.0, batch_size=1, seed=3
    )
    summary = figure1_experiment(
        estimators=("momentum",), steps=40, gamma=0.1, seed=1, problem=problem
    )
    block = summary["momentum"]
    assert block["tuned_gamma"] == 0.1
    expected_variants = {
        "uncompressed",
        "identity_control",
        "no_compensation",
        "single",
        "two_step",
    }
    assert expected_variants <= set(block)
    assert block["uncompressed"]["log10_grad_gap"] == 0.0
    control = block["identity_control"]
    assert not control["diverged"]
    assert abs(control["log10_grad_gap"]) < 1e-9


FIGURE1_VARIANTS = (  # (scheme, compressor) of each variant, in run order
    ("none", "identity"),
    ("two_step", "identity"),
    ("none", "one_bit"),
    ("single", "one_bit"),
    ("two_step", "one_bit"),
)


def figure1_config(problem, estimator, scheme, compressor, steps, gamma, seed):
    """A figure-1 run's config, every field written out."""
    return RunConfig(
        problem=problem,
        estimator=estimator,
        schedule=AlphaSchedule(kind="inverse_t"),
        scheme=SchemeSpec(kind=scheme, beta=0.3),
        compressor=CompressorSpec(kind=compressor),
        server_compressor=None,
        topology="double_compression",
        n_workers=8,
        steps=steps,
        gamma=gamma,
        b0=8,
        seed=seed,
        heterogeneity=0.0,
        x0_scale=1.0,
        record_history=False,
        record_objective=False,
    )


def test_figure_experiment_runs_the_configs_written_out(monkeypatch):
    """The bench's fig1-cell call, then a grid-searched call, run exactly
    these configs in this order."""
    calls = []
    execute_run = harness.execute_run
    monkeypatch.setattr(harness, "execute_run", lambda config: calls.append(config) or execute_run(config))

    harness.figure1_experiment(estimators=("storm", "igt"), steps=300, gamma=0.1, seed=11)
    assert calls == [
        figure1_config(FIGURE1_PROBLEM, estimator, scheme, compressor, 300, 0.1, 11)
        for estimator in ("storm", "igt")
        for scheme, compressor in FIGURE1_VARIANTS
    ]

    calls.clear()
    problem = ProblemSpec(
        kind="lin_reg", dim=6, n_samples=48, noise_std=0.1, condition=10.0, batch_size=1, seed=3
    )
    summary = harness.figure1_experiment(estimators=("momentum",), steps=20, seed=1, problem=problem)
    tuned = summary["momentum"]["tuned_gamma"]
    assert calls == [
        figure1_config(problem, "momentum", "none", "identity", 20, gamma, 1) for gamma in GAMMA_GRID
    ] + [
        figure1_config(problem, "momentum", scheme, compressor, 20, tuned, 1)
        for scheme, compressor in FIGURE1_VARIANTS[1:]
    ]


def test_figure_experiment_reports_a_diverged_grid_without_a_trace():
    problem = ProblemSpec(kind="quadratic", spectrum=(1e6, 1e6))
    with pytest.raises(DivergenceError) as excinfo:
        figure1_experiment(estimators=("momentum",), steps=20, seed=1, problem=problem)
    assert excinfo.value.trace is None
    assert "uncompressed control diverged at every grid step size" in str(excinfo.value)


def test_figure_experiment_grid_search_picks_from_the_grid():
    problem = ProblemSpec(
        kind="lin_reg", dim=6, n_samples=48, noise_std=0.1, condition=10.0, batch_size=1, seed=3
    )
    summary = figure1_experiment(estimators=("momentum",), steps=30, seed=1, problem=problem)
    assert summary["momentum"]["tuned_gamma"] in harness.GAMMA_GRID


def test_figure_experiment_reuses_the_grid_winner_as_the_control(tmp_path, monkeypatch):
    """The grid's winning control run is the uncompressed variant: the grid
    runs it once per step size, the other four variants once each, and the
    result is byte for byte that of a run at the tuned step size."""
    problem = ProblemSpec(
        kind="lin_reg", dim=6, n_samples=48, noise_std=0.1, condition=10.0, batch_size=1, seed=3
    )
    estimators = ("momentum", "storm")
    calls = []
    execute_run = harness.execute_run

    def counting(config):
        calls.append(config)
        return execute_run(config)

    monkeypatch.setattr(harness, "execute_run", counting)
    tuned = figure1_experiment(
        estimators=estimators, steps=30, seed=1, problem=problem, out_dir=tmp_path / "tuned"
    )
    assert len(calls) == len(estimators) * (len(harness.GAMMA_GRID) + 4)
    for estimator in estimators:
        fixed_calls = len(calls)
        fixed = figure1_experiment(
            estimators=(estimator,),
            steps=30,
            gamma=tuned[estimator]["tuned_gamma"],
            seed=1,
            problem=problem,
            out_dir=tmp_path / "fixed",
        )
        assert len(calls) - fixed_calls == 5
        assert fixed[estimator] == tuned[estimator]
    written = sorted(path.name for path in (tmp_path / "tuned").iterdir())
    assert len(written) == len(estimators) * 5
    assert written == sorted(path.name for path in (tmp_path / "fixed").iterdir())
    for name in written:
        assert (tmp_path / "tuned" / name).read_bytes() == (tmp_path / "fixed" / name).read_bytes()


@pytest.mark.parametrize("gamma", [0.1, None], ids=["fixed", "grid"])
def test_figure_experiment_summary_does_not_depend_on_out_dir(tmp_path, gamma):
    """Without out_dir the runs skip the per-step objective columns; the
    summary, which reads only final values, stays the same to the bit."""
    problem = ProblemSpec(
        kind="lin_reg", dim=6, n_samples=48, noise_std=0.1, condition=10.0, batch_size=1, seed=3
    )
    kwargs = dict(estimators=("storm", "igt"), steps=30, gamma=gamma, seed=1, problem=problem)
    written = figure1_experiment(**kwargs, out_dir=tmp_path)
    assert repr(figure1_experiment(**kwargs)) == repr(written)
    assert len(list(tmp_path.iterdir())) == 10

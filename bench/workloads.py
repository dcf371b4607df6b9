"""The benchmark's workloads, their output checks and their hand counts.

Each workload drives gradcomp through its public API only.  A round is the
smallest balanced unit of work (every variant or compressor once), so a run
that stops after a whole round always measures the same mix.  Every op in a
round is one simulator run plus, on oracle-replay, its oracle checks; it
fails on an unexpected exception, on a DivergenceError of a run whose
scheme is not ``none``, or on a failed output check.

numpy and gradcomp are imported inside set_up(), never at module level,
because set-up time includes importing them.
"""

from __future__ import annotations

import hashlib
import sys
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

# Compressor kinds that draw from the keyed RNG.
RANDOMIZED = ("rand_k", "stoch_quant")
# Width of one raw float on the wire; step 0 sends v0 uncompressed.
FLOAT_BITS = 64


@dataclass
class Op:
    """Outcome of one op: what the benchmark counts and checks."""

    steps: int                # t_effective of the simulator run
    bits: int                 # cum_bits[-1]
    digest: str               # hash of final_x's bytes, for bitwise comparison
    error: str | None = None
    counts: dict = field(default_factory=dict)  # hand counts of span calls


def set_up(workload) -> tuple[SimpleNamespace, dict]:
    """Import gradcomp and build the problems and partitions the workload uses."""
    import numpy

    import gradcomp
    from gradcomp import (
        compensation,
        compression,
        estimators,
        harness,
        oracle,
        problems,
        simulator,
    )

    G = SimpleNamespace(
        np=numpy,
        gradcomp=gradcomp,
        compensation=compensation,
        compression=compression,
        estimators=estimators,
        harness=harness,
        oracle=oracle,
        problems=problems,
        simulator=simulator,
    )
    return G, workload.build(G)


def bits_error(G, config, trace) -> str | None:
    """cum_bits[-1] must be step-0 bits plus (t_effective - 1) per-step totals."""
    if config.topology != "double_compression":
        raise ValueError("the benchmark's workloads all use double_compression")
    n, dim = config.n_workers, trace.x0.size
    worker, server = config.resolved_compressors()
    per_step = n * G.compression.message_bits(worker, dim) + G.compression.message_bits(server, dim)
    expected = (n + 1) * dim * FLOAT_BITS + (trace.t_effective - 1) * per_step
    actual = int(trace.cum_bits[-1])
    if actual != expected:
        return f"cum_bits[-1] {actual} != {expected} expected"
    return None


def hand_counts(config, t_effective: int) -> dict:
    """Span calls one simulator run makes, counted by hand from its config.

    Pins the call structure of the current code: a change that restructures
    calls (say, one RNG per step instead of one per sample) changes these,
    and the benchmark's own tests with them.
    """
    n = config.n_workers
    steps = t_effective - 1  # protocol steps after the uncompressed step 0
    dataset = config.problem.kind != "quadratic"
    grads = 2 if config.estimator in ("storm", "root_sgd") else 1
    sampled = config.b0 + steps * n * grads
    worker, server = config.resolved_compressors()
    compress_draws = steps * (n * (worker.kind in RANDOMIZED) + (server.kind in RANDOMIZED))
    return {
        "simulator.run": 1,
        "simulator.run_step": steps,
        "compression.compress": steps * (n + 1),
        "compensation.filter_update": steps * (n + 1),
        "problems.stoch_grad": sampled,
        "problems.minibatch_indices": sampled if dataset else 0,
        # one draw each for the dataset and the partition, then one per minibatch
        "rng.keyed_generator": (2 + sampled if dataset else 0) + compress_draws,
        "estimators.fixed_order_mean": 1 + 4 * steps,
    }


def _failed(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _op(config, trace, error: str | None, extra_counts: dict | None = None) -> Op:
    return Op(
        steps=trace.t_effective,
        bits=int(trace.cum_bits[-1]),
        digest=hashlib.blake2b(trace.final_x.tobytes(), digest_size=16).hexdigest(),
        error=error,
        counts=hand_counts(config, trace.t_effective) | (extra_counts or {}),
    )


def _failed_op(error: str) -> Op:
    return Op(steps=0, bits=0, digest="", error=error)


class Fig1Cell:
    name = "fig1-cell"
    why = (
        "paper figure-1 cell: d=20, n=8, STORM and IGT, five variants; small vectors, "
        "so per-call overhead and keyed-RNG minibatch sampling dominate"
    )
    # Span names and layers that should hold the largest self-time share.
    purpose = ("rng", "problems.minibatch_indices")
    estimators = ("storm", "igt")
    variants = ("uncompressed", "identity_control", "no_compensation", "single", "two_step")
    gamma = 0.1
    steps = 300

    def build(self, G) -> dict:
        spec = G.problems.ProblemSpec(
            kind="lin_reg", dim=20, n_samples=512, noise_std=0.1, condition=10.0,
            batch_size=1, seed=3,
        )
        problem = G.problems.make_problem(spec)
        G.problems.partition_data(problem, 8, spec.seed)
        return {}

    def run_round(self, G, inputs: dict, seed: int, steps: int | None = None) -> list[Op]:
        harness = G.harness
        original = harness.execute_run
        captured = []

        def capture(config):
            trace, diverged_at = original(config)
            captured.append((config, trace, diverged_at))
            return trace, diverged_at

        harness.execute_run = capture
        try:
            summary = harness.figure1_experiment(
                estimators=self.estimators, steps=steps or self.steps, gamma=self.gamma, seed=seed
            )
            whole = None
        except Exception as exc:  # noqa: BLE001 - counted as failed ops
            summary, whole = None, _failed(exc)
        finally:
            harness.execute_run = original

        labels = [(e, v) for e in self.estimators for v in self.variants]
        if whole is None and len(captured) != len(labels):
            whole = f"expected {len(labels)} runs, saw {len(captured)}"
        ops = []
        for i, (estimator, variant) in enumerate(labels):
            if i >= len(captured):
                ops.append(_failed_op(whole or "run missing"))
                continue
            config, trace, diverged_at = captured[i]
            error = whole
            if error is None and diverged_at is not None and config.scheme.kind != "none":
                error = f"{estimator}/{variant} diverged at step {diverged_at}"
            if error is None:
                error = bits_error(G, config, trace)
            if error is None and variant == "identity_control":
                gap = summary[estimator][variant].get("log10_grad_gap")
                if gap is None or abs(gap) > 1e-9:
                    error = f"{estimator} identity_control log10 gap {gap} exceeds 1e-9"
            ops.append(_op(config, trace, error))
        return ops


class WideD:
    name = "wide-d"
    why = (
        "diagonal quadratic, d=2^18, n=4, one compressor per op (top_k, rand_k, stoch_quant, "
        "one_bit); no sampling, so compress, filter and aggregation dominate"
    )
    purpose = ("compression", "compensation", "estimators.fixed_order_mean")
    dim = 2**18
    steps = 20

    def build(self, G) -> dict:
        spectrum = tuple(G.np.geomspace(1.0, 1e-2, self.dim).tolist())
        spec = G.problems.ProblemSpec(kind="quadratic", spectrum=spectrum)
        problem = G.problems.make_problem(spec)
        G.problems.partition_data(problem, 4, spec.seed)
        C = G.compression.CompressorSpec
        k = self.dim // 100
        compressors = (
            C("top_k", k=k),
            C("rand_k", k=k, rescale=False),
            C("stoch_quant", levels=4),
            C("one_bit"),
        )
        return {"problem": spec, "compressors": compressors}

    def config(self, G, inputs: dict, compressor, seed: int, steps: int):
        return G.simulator.RunConfig(
            problem=inputs["problem"],
            estimator="momentum",
            schedule=G.estimators.AlphaSchedule("constant", alpha=0.1),
            scheme=G.compensation.SchemeSpec("two_step", beta=0.3),
            compressor=compressor,
            topology="double_compression",
            n_workers=4,
            steps=steps,
            gamma=0.05,
            seed=seed,
        )

    def run_round(self, G, inputs: dict, seed: int, steps: int | None = None) -> list[Op]:
        ops = []
        for i, compressor in enumerate(inputs["compressors"]):
            config = self.config(G, inputs, compressor, seed + i, steps or self.steps)
            try:
                trace = G.simulator.run(config)
            except Exception as exc:  # noqa: BLE001 - a DivergenceError here is unexpected too
                ops.append(_failed_op(_failed(exc)))
                continue
            error = bits_error(G, config, trace)
            if error is None and not trace.final_loss < trace.loss[0]:
                error = f"{compressor.kind}: final loss {trace.final_loss} >= loss[0] {trace.loss[0]}"
            ops.append(_op(config, trace, error))
        return ops


class OracleReplay:
    name = "oracle-replay"
    why = (
        "YAML-shaped config -> parse_run_config -> run with ghost history -> ghost_run and "
        "verify_residual_identity; d=256, N=4096, T=1000; recorder and oracle dominate"
    )
    purpose = ("simulator.record", "oracle")
    steps = 1000

    def problem_mapping(self) -> dict:
        return {
            "kind": "lin_reg", "dim": 256, "n_samples": 4096, "noise_std": 0.1,
            "condition": 100.0, "batch_size": 8, "seed": 3,
        }

    def mapping(self, seed: int, steps: int) -> dict:
        """The run section of a YAML config, as yaml.safe_load returns it."""
        return {
            "seed": seed,
            "steps": steps,
            "gamma": 0.01,
            "b0": 8,
            "n_workers": 4,
            "topology": "double_compression",
            "estimator": "momentum",
            # The closed form needs beta = 1 and a constant schedule.
            "schedule": {"kind": "constant", "alpha": 0.1},
            "scheme": {"kind": "two_step", "beta": 1.0},
            "compressor": {"kind": "one_bit"},
            "record_ghost": True,
            "problem": self.problem_mapping(),
        }

    def build(self, G) -> dict:
        spec = G.problems.ProblemSpec(**self.problem_mapping())
        problem = G.problems.make_problem(spec)
        G.problems.partition_data(problem, 4, spec.seed)
        return {}

    def run_round(self, G, inputs: dict, seed: int, steps: int | None = None) -> list[Op]:
        try:
            config = G.harness.parse_run_config(self.mapping(seed, steps or self.steps))
            trace = G.simulator.run(config)
            G.oracle.ghost_run(trace)
            report = G.oracle.verify_residual_identity(trace, tolerance=1e-9)
        except Exception as exc:  # noqa: BLE001 - VerificationError and divergence included
            return [_failed_op(_failed(exc))]
        error = bits_error(G, config, trace)
        if error is None and not (report.passed() and report.resolved_sign == 1):
            error = f"residual identity: {report}"
        extra = {
            "harness.parse_run_config": 1,
            # one direct call, one inside verify_residual_identity
            "oracle.ghost_run": 2,
            # both c2 signs, for every history row plus the final iterate
            "oracle.residual_closed_form": 2 * (trace.t_effective + 1),
        }
        return [_op(config, trace, error, extra)]


WORKLOADS = {w.name: w for w in (Fig1Cell(), WideD(), OracleReplay())}

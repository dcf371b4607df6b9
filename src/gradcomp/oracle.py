"""Post-hoc verification of the compression-residual algebra.

The central object is the ghost trajectory: rerun the estimator recursion on
the inner estimates recorded during a compressed run, but without any
compression,

    u_t = (1 - a_t) u_{t-1} + a_t * b_t,        u_0 = v_0,
    xhat_{t+1} = xhat_t - gamma * u_t,          xhat_0 = x_0,

where b_t is the worker-averaged estimate the compressed run actually saw.
The gap x_t - xhat_t then isolates exactly what compression injected into
the trajectory, and for beta = 1 and constant a it has a closed form in the
aggregated residuals delta_bar_s: unrolling the difference recursion

    w_t = v_t - u_t = (1 - a) w_{t-1} + eta2 * ebar_t - eta1 * delta_bar_t

and summing gives, with the filter ebar_s = c1 delta_bar_{s-1} -
c2 delta_bar_{s-2},

    x_t - xhat_t = (gamma/a) * sum_{s<=t-1} (1 - (1-a)^(t-s)) D_s,
    D_s = eta1 delta_bar_s - eta2*c1 delta_bar_{s-1} + sign * eta2*c2 delta_bar_{s-2},

with delta_bar at a negative index taken as 0.  The weights split the sum
into a plain and a decayed running sum of the combined D,

    Q_t = Q_{t-1} + D_{t-1},    H_t = (1-a) (H_{t-1} + D_{t-1}),    Q_0 = H_0 = 0,
    x_t - xhat_t = (gamma/a) * (Q_t - H_t),

so the predictions for t = 0, 1, ..., T come out of one forward pass with
O(d) state.  Summing D rather than its three terms keeps Q bounded when the
terms nearly cancel, as they do under the two-step filter.

The sign on the c2 term is not taken on faith: verify_residual_identity
evaluates both choices against the brute-force ghost difference and reports
which one holds.  Note the ghost x-update uses u_{t-1}, mirroring the
simulator's x_{t+1} = x_t - gamma v_t; this is the alignment under which an
identity compressor makes the gap exactly zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .compensation import scheme_coefficients, transmits_weighted_increment
from .compression import compress
from .errors import ConfigError, VerificationError
from .estimators import Estimator, fixed_order_mean
from .problems import SampleHandle, full_grad
from .simulator import RunConfig, RunTrace, build_context

# Guard against division by zero when a residual trace is identically zero.
_TINY = 1e-30


@dataclass
class GhostTrace:
    """Uncompressed shadow of one recorded run.

    Rows of u and x_hat align with the source trace's history rows (step t);
    final_x_hat is the ghost counterpart of the run's final iterate.
    """

    u: np.ndarray
    x_hat: np.ndarray
    final_x_hat: np.ndarray
    source: RunTrace

    def residuals(self) -> np.ndarray:
        """Per-step gaps x_t - xhat_t, with the final iterates as the last row."""
        hist = self.source.history
        gaps = hist.x - self.x_hat
        final = (self.source.final_x - self.final_x_hat)[None, :]
        return np.concatenate([gaps, final], axis=0)


def _require_history(trace: RunTrace) -> None:
    if trace.history is None:
        raise ConfigError("this analysis needs a run recorded with record_history=True")


def _ghost_steps(trace: RunTrace):
    """The ghost recursion with O(d) state: yields (u_t, x_hat_t) for every
    history row t, then the final x_hat."""
    hist = trace.history
    schedule = trace.config.schedule
    gamma = trace.config.gamma
    u, x_hat = trace.v0, trace.x0
    yield u, x_hat
    for t in range(1, hist.x.shape[0]):
        a_t = schedule.at(t)
        x_hat = x_hat - gamma * u
        u = (1.0 - a_t) * u + a_t * hist.a_bar[t]
        yield u, x_hat
    yield x_hat - gamma * u


def _ghost_gaps(trace: RunTrace):
    """Yields x_t - xhat_t for every history row, then final_x - final_x_hat."""
    walk = _ghost_steps(trace)
    for x_t, (_, x_hat) in zip(trace.history.x, walk):
        yield x_t - x_hat
    yield trace.final_x - next(walk)


def ghost_gap_norms(trace: RunTrace):
    """Yields ||x_t - xhat_t|| for every history row, then that of the final
    iterates: the T + 1 row norms of GhostTrace.residuals(), with O(d) state.

    Each norm is sqrt of the pairwise sum of the squared gap, which is what
    np.linalg.norm(gaps, axis=1) computes for each row of a C-contiguous
    stack, so the values match it bit for bit (a 1-d np.linalg.norm goes
    through dot, whose sum differs).
    """
    _require_history(trace)
    for gap in _ghost_gaps(trace):
        yield math.sqrt(np.add.reduce(gap * gap))


def ghost_run(trace: RunTrace) -> GhostTrace:
    """Replay the estimator recursion on recorded estimates, uncompressed."""
    _require_history(trace)
    u = np.zeros_like(trace.history.x)
    x_hat = np.zeros_like(trace.history.x)
    walk = _ghost_steps(trace)
    for t in range(u.shape[0]):
        u[t], x_hat[t] = next(walk)
    return GhostTrace(u=u, x_hat=x_hat, final_x_hat=next(walk), source=trace)


def residual_closed_form(
    delta_bar_hist: np.ndarray,
    eta1: float,
    eta2: float,
    c1: float,
    c2: float,
    alpha: float,
    gamma: float,
    c2_sign: int = 1,
):
    """Predicted gaps x_t - xhat_t from the aggregated residual history alone.

    delta_bar_hist rows are steps s = 0, 1, ..., T - 1; row 0 is the (zero)
    residual of the uncompressed warm-start step.  Returns an iterator over
    the predictions for t = 0, 1, ..., T that keeps O(d) state: the running
    sums Q and H of the module docstring.  Valid for beta = 1 and a constant
    schedule; c2_sign selects the sign of the c2 term.
    """
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
    if c2_sign not in (1, -1):
        raise ConfigError(f"c2_sign must be +1 or -1, got {c2_sign}")
    return _running_sums(delta_bar_hist, eta1, eta2 * c1, c2_sign * eta2 * c2, alpha, gamma)


def _running_sums(delta_bar_hist, w0, w1, w2, alpha, gamma):
    # D_s = w0 delta_bar_s - w1 delta_bar_{s-1} + w2 delta_bar_{s-2}
    zero = np.zeros(delta_bar_hist.shape[1])
    q, h = zero, zero
    prev_1 = prev_2 = zero  # delta_bar_{s-1} and delta_bar_{s-2}
    yield zero
    for delta in delta_bar_hist:
        d = w0 * delta - w1 * prev_1 + w2 * prev_2
        q = q + d
        h = (1.0 - alpha) * (h + d)
        prev_1, prev_2 = delta, prev_1
        yield (gamma / alpha) * (q - h)


@dataclass
class IdentityReport:
    """Outcome of checking the closed form against the ghost difference."""

    max_rel_error_plus: float
    max_rel_error_minus: float
    resolved_sign: int | None
    max_rel_error: float
    tolerance: float

    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def verify_residual_identity(trace: RunTrace, tolerance: float = 1e-9) -> IdentityReport:
    """Check the closed-form residual against the brute-force ghost gap.

    Tries both signs of the c2 term and reports which one satisfies the
    identity; raises VerificationError if neither does.  Requires beta = 1
    and a constant schedule (the closed form assumes both).

    One forward pass: the ghost recursion and, for each sign, the running
    sums Q_t and H_t of the combined residual D_s advance in lockstep.  Only
    the running maxima of ||x_t - xhat_t|| and of each sign's
    ||(x_t - xhat_t) - predicted_t|| are kept, so the check holds O(d)
    state whatever the horizon.  A sign's relative error is its largest gap
    over the largest observed norm.
    """
    config = trace.config
    if config.scheme.beta != 1.0:
        raise ConfigError(f"closed form needs beta = 1, got {config.scheme.beta}")
    if not config.schedule.is_constant():
        raise ConfigError("closed form needs a constant schedule")
    _require_history(trace)

    alpha = config.schedule.at(1)
    coefficients = (*scheme_coefficients(config.scheme, alpha), alpha, config.gamma)
    hist = trace.history
    predictions = {
        sign: residual_closed_form(hist.delta_bar, *coefficients, c2_sign=sign) for sign in (1, -1)
    }
    scale = 0.0
    worst = dict.fromkeys(predictions, 0.0)
    for observed in _ghost_gaps(trace):
        scale = max(scale, float(np.linalg.norm(observed)))
        for sign, rows in predictions.items():
            worst[sign] = max(worst[sign], float(np.linalg.norm(observed - next(rows))))
    scale = max(scale, _TINY)
    errors = {sign: gap / scale for sign, gap in worst.items()}

    plus_ok = errors[1] <= tolerance
    minus_ok = errors[-1] <= tolerance
    if plus_ok and minus_ok:
        # Both signs fit: the c2 term is inert (c2 = 0, or residuals too
        # small to distinguish), so no sign is genuinely resolved.
        resolved = None
        best = min(errors[1], errors[-1])
    elif plus_ok:
        resolved, best = 1, errors[1]
    elif minus_ok:
        resolved, best = -1, errors[-1]
    else:
        raise VerificationError(
            "closed-form residual identity failed for both c2 signs: "
            f"rel errors +:{errors[1]:.3e} -:{errors[-1]:.3e} (tol {tolerance:.1e})"
        )
    return IdentityReport(
        max_rel_error_plus=errors[1],
        max_rel_error_minus=errors[-1],
        resolved_sign=resolved,
        max_rel_error=best,
        tolerance=tolerance,
    )


@dataclass
class SchemeComparison:
    """Residual-sum comparison across compensation schemes on shared seeds."""

    sums: dict
    eps_hat: dict
    per_step_max: dict
    gamma: float
    alpha: float
    diverged: dict

    def ordering_ok(self) -> bool:
        """two_step < single < none on the summed squared gaps."""
        have = [k for k in ("two_step", "single", "none") if k in self.sums]
        vals = [self.sums[k] for k in have]
        return all(a < b for a, b in zip(vals, vals[1:]))

    def ecx_per_step_bound_ok(self, slack: float = 2.0) -> bool:
        """Per-step non-accumulation: every gap <= slack * gamma * eps_hat."""
        if "two_step" not in self.per_step_max:
            return False
        bound = slack * self.gamma * self.eps_hat["two_step"]
        return self.per_step_max["two_step"] <= bound


def residual_sum_comparison(traces: dict) -> SchemeComparison:
    """Compare summed squared ghost gaps across schemes run on shared seeds.

    traces maps scheme kind -> RunTrace (history recorded).  Entries whose
    runs diverged may be passed as None; they are reported as diverged and
    skipped in the sums.  Each run's gaps stream from ghost_gap_norms, so no
    (T, d) array is built.
    """
    if not traces:
        raise ConfigError("need at least one trace to compare")
    sums = {}
    eps = {}
    per_step = {}
    diverged = {}
    gamma = None
    alpha = None
    for kind, trace in traces.items():
        if trace is None:
            diverged[kind] = True
            continue
        diverged[kind] = False
        gamma = trace.config.gamma
        alpha = trace.config.schedule.at(1)
        gaps = np.fromiter(ghost_gap_norms(trace), dtype=np.float64)
        sums[kind] = float(np.dot(gaps, gaps))
        per_step[kind] = float(gaps.max())
        eps[kind] = trace.eps_hat()
    if gamma is None:
        raise ConfigError("every compared run diverged; nothing to sum")
    return SchemeComparison(
        sums=sums,
        eps_hat=eps,
        per_step_max=per_step,
        gamma=gamma,
        alpha=alpha,
        diverged=diverged,
    )


def u_hat_run(trace: RunTrace) -> np.ndarray:
    """Re-evaluated ghost estimates: the estimator recursion driven by
    gradients taken AT the ghost points with the run's own sample handles.

    Costs one extra pass of gradient work; rows align with the history.
    """
    _require_history(trace)
    config = trace.config
    _, _, grad = build_context(config)

    ghost = ghost_run(trace)
    schedule = config.schedule
    steps = ghost.x_hat.shape[0]
    estimator = Estimator(kind=config.estimator, schedule=schedule, x_prev=ghost.x_hat[0])
    estimator.v = trace.v0.copy()
    u_hat = np.zeros_like(ghost.x_hat)
    u_hat[0] = trace.v0
    for t in range(1, steps):
        a_t = schedule.at(t)
        estimates = [
            estimator.eval_a(ghost.x_hat[t], SampleHandle(t=t, worker=i, draw=0), a_t, grad)
            for i in range(config.n_workers)
        ]
        estimator.advance(ghost.x_hat[t])
        u_hat[t] = estimator.update_v(fixed_order_mean(estimates), a_t)
    return u_hat


def diagnostic_At(
    ghost: GhostTrace, u_hat: np.ndarray, problem, smooth_l: float, gamma: float
) -> np.ndarray:
    """Per-step descent diagnostic evaluated on the ghost trajectory:

        A_t = ||grad f(xhat_t) - uhat_t||^2
              - (1 - 2 L gamma) ||uhat_t||^2 - ||grad f(xhat_t)||^2 / 4.

    Negative values are the healthy regime; the derivation behind the bound
    needs gamma <= 1/L, so larger steps trigger a warning.
    """
    if smooth_l > 0.0 and gamma > 1.0 / smooth_l:
        warnings.warn(
            f"diagnostic assumes gamma <= 1/L; gamma={gamma} exceeds 1/L={1.0 / smooth_l}",
            stacklevel=2,
        )
    steps = ghost.x_hat.shape[0]
    if u_hat.shape != ghost.x_hat.shape:
        raise ConfigError(
            f"u_hat shape {u_hat.shape} does not match ghost trajectory {ghost.x_hat.shape}"
        )
    out = np.zeros(steps)
    for t in range(steps):
        g = full_grad(problem, ghost.x_hat[t])
        mismatch = g - u_hat[t]
        out[t] = (
            float(np.dot(mismatch, mismatch))
            - (1.0 - 2.0 * smooth_l * gamma) * float(np.dot(u_hat[t], u_hat[t]))
            - 0.25 * float(np.dot(g, g))
        )
    return out


def uncompressed_reference(config: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Straight-line uncompressed run sharing the problem and sample streams.

    Independent of the simulator's protocol code: no compensation states, no
    compressor calls, no message plumbing.  Returns (x_hist, v_hist,
    final_x) with rows aligned the same way as RunHistory.
    """
    problem, _, grad = build_context(config)
    dim = problem.dim
    schedule = config.schedule
    x = config.x0_scale * np.ones(dim)
    x_prev_for_estimator = x
    grads0 = [
        grad(x, SampleHandle(t=0, worker=j % config.n_workers, draw=j)) for j in range(config.b0)
    ]
    v = fixed_order_mean(grads0)

    x_hist = np.zeros((config.steps, dim))
    v_hist = np.zeros((config.steps, dim))
    x_hist[0] = x
    v_hist[0] = v
    x = x - config.gamma * v
    for t in range(1, config.steps):
        a_t = schedule.at(t)
        estimates = []
        for i in range(config.n_workers):
            handle = SampleHandle(t=t, worker=i, draw=0)
            if config.estimator in ("sgd", "momentum"):
                estimates.append(grad(x, handle))
            elif config.estimator in ("storm", "root_sgd"):
                g_now = grad(x, handle)
                g_prev = grad(x_prev_for_estimator, handle)
                estimates.append((g_now - (1.0 - a_t) * g_prev) / a_t)
            else:  # igt
                shift = (1.0 - a_t) / a_t
                point = x + shift * (x - x_prev_for_estimator)
                estimates.append(grad(point, handle))
        x_prev_for_estimator = x
        v = (1.0 - a_t) * v + a_t * fixed_order_mean(estimates)
        x_hist[t] = x
        v_hist[t] = v
        x = x - config.gamma * v
    return x_hist, v_hist, x


def coefficient_form_run(config: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-node stepper in the unified coefficient form.

    Applies v_t = (1-a_t) v_{t-1} + a_t A_t + eta2 e_t - eta1 delta_t with
    (eta1, eta2, c1, c2) from scheme_coefficients, where delta_t is the
    residual of compressing the same message the protocol transmits
    (a_t A_t + e_t for none/single, A_t + e_t for two_step).  This is the
    same algorithm as the simulator's transmit-then-blend form up to float
    associativity; the filter here uses the constant-schedule table weights,
    so equivalence holds for constant schedules.  Returns
    (x_hist, v_hist, final_x).
    """
    if config.n_workers != 1:
        raise ConfigError("coefficient-form stepper is defined for a single worker")
    problem, _, grad = build_context(config)
    worker_spec, _ = config.resolved_compressors()
    dim = problem.dim
    schedule = config.schedule
    beta = config.scheme.beta
    x = config.x0_scale * np.ones(dim)
    estimator = Estimator(kind=config.estimator, schedule=schedule, x_prev=x)
    grads0 = [grad(x, SampleHandle(t=0, worker=0, draw=j)) for j in range(config.b0)]
    v = fixed_order_mean(grads0)

    e = np.zeros(dim)
    delta_1 = np.zeros(dim)
    delta_2 = np.zeros(dim)
    x_hist = np.zeros((config.steps, dim))
    v_hist = np.zeros((config.steps, dim))
    x_hist[0] = x
    v_hist[0] = v
    x = x - config.gamma * v
    for t in range(1, config.steps):
        a_t = schedule.at(t)
        eta1, eta2, c1, c2 = scheme_coefficients(config.scheme, a_t)
        e = (1.0 - beta) * e + beta * (c1 * delta_1 - c2 * delta_2)
        a_vec = estimator.eval_a(x, SampleHandle(t=t, worker=0, draw=0), a_t, grad)
        if transmits_weighted_increment(config.scheme):
            outgoing = a_t * a_vec + e
        else:
            outgoing = a_vec + e
        result = compress(outgoing, worker_spec, step=t, node_id=0)
        delta_2, delta_1 = delta_1, result.residual
        estimator.advance(x)
        v = (1.0 - a_t) * v + a_t * a_vec + eta2 * e - eta1 * result.residual
        estimator.v = v
        x_hist[t] = x
        v_hist[t] = v
        x = x - config.gamma * v
    return x_hist, v_hist, x

"""Moving-average gradient estimators.

All five estimator kinds share the same state update

    v_t = (1 - alpha_t) v_{t-1} + alpha_t * a_t

and differ only in the inner estimate a_t and in how alpha_t is scheduled:

    sgd        a_t = grad(x_t), alpha forced to 1 (no averaging)
    momentum   a_t = grad(x_t), constant alpha
    storm      a_t = (grad(x_t) - (1-alpha_t) grad(x_prev)) / alpha_t,
               both gradients on the SAME minibatch
    root_sgd   identical code path to storm, conventionally paired with the
               1/t schedule
    igt        a_t = grad at the extrapolated point
               x_t + ((1-alpha_t)/alpha_t)(x_t - x_prev)

The gradient oracle is any callable grad(x, sample) -> vector; the sample
pins the minibatch so storm's two evaluations see the same samples.  It is
a SampleHandle for problems.shard_sampler and the drawn dataset indices for
a problem's own grad_at.  Those indices may be an (n, batch) stack, one
row per worker: grad_at then returns an (n, d) stack (a quadratic's stays
(d,)), and eval_a's arithmetic is elementwise, so each row of a_t has the
bits a lone worker's call would give.  igt's extrapolated point is then
computed once for the whole stack.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .problems import SampleHandle

KINDS = ("sgd", "momentum", "storm", "root_sgd", "igt")
SCHEDULE_KINDS = ("constant", "inverse_t", "inverse_linear", "power_two_thirds")


def fixed_order_mean(vectors, out: np.ndarray | None = None) -> np.ndarray:
    """Mean over a sequence of vectors with a fixed reduction order.

    Reducing row by row over an (n, d) array pins the summation tree, so the
    result does not depend on which worker finished first; simulator and
    oracles both reduce this way.  An array is reduced as is, anything else
    is stacked into one first.  The mean is written into out if given, and
    into one new array otherwise.
    """
    stacked = vectors if isinstance(vectors, np.ndarray) else np.stack(list(vectors), axis=0)
    total = np.add.reduce(stacked, axis=0, out=out)
    return np.divide(total, stacked.shape[0], out=total)


@dataclass(frozen=True)
class AlphaSchedule:
    """Moving-average weight schedule, defined for every t >= -1.

    kind       constant | inverse_t | inverse_linear | power_two_thirds
    alpha      the constant value (constant kind).
    c0         decay rate for inverse_linear: alpha_t = 1/(1 + c0 t).
    horizon    T for power_two_thirds: alpha_t = 1/T^(2/3).

    Decaying schedules return their t=1 value at t=0 and t=-1, so start-up
    ratios alpha_{t-1}/alpha_t equal 1 before any compression happened.
    """

    kind: str = "constant"
    alpha: float = field(default=1.0, metadata={"kinds": ("constant",)})
    c0: float = field(default=0.05, metadata={"kinds": ("inverse_linear",)})
    horizon: int = field(default=1, metadata={"kinds": ("power_two_thirds",)})

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(
                f"unknown schedule kind {self.kind!r}, expected one of {SCHEDULE_KINDS}"
            )
        for name in ("alpha", "c0"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind == "constant" and not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"constant alpha must be in (0, 1], got {self.alpha}")
        if self.kind == "inverse_linear" and self.c0 <= 0.0:
            raise ConfigError(f"inverse_linear c0 must be positive, got {self.c0}")
        if self.kind == "power_two_thirds" and self.horizon < 1:
            raise ConfigError(f"power_two_thirds horizon must be >= 1, got {self.horizon}")
        if self.kind == "power_two_thirds" and self.horizon > sys.float_info.max:
            raise ConfigError("integer too large for a float", "horizon")

    def at(self, t: int) -> float:
        if t < -1:
            raise ConfigError(f"schedule is defined for t >= -1, got {t}")
        if self.kind == "constant":
            return self.alpha
        if self.kind == "power_two_thirds":
            return 1.0 / float(self.horizon) ** (2.0 / 3.0)
        tt = max(t, 1)
        if self.kind == "inverse_t":
            return 1.0 / tt
        return 1.0 / (1.0 + self.c0 * tt)

    def is_constant(self) -> bool:
        return self.kind in ("constant", "power_two_thirds")


@dataclass
class Estimator:
    """Model-level estimator state: the running average v and the previous iterate."""

    kind: str
    schedule: AlphaSchedule
    v: np.ndarray | None = None
    x_prev: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown estimator kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "sgd" and not (
            self.schedule.kind == "constant" and self.schedule.alpha == 1.0
        ):
            raise ConfigError("sgd runs with alpha fixed to 1; use momentum to average")

    def eval_a(self, x_t: np.ndarray, sample, alpha_t: float, grad) -> np.ndarray:
        """Inner estimate a_t at x_t; pure given the oracle, reads x_prev only.

        sample may be a stack of minibatches; see the module docstring.
        """
        if alpha_t <= 0.0:
            raise ConfigError(f"alpha_t must be positive, got {alpha_t}")
        if self.kind in ("sgd", "momentum"):
            return grad(x_t, sample)
        if self.kind in ("storm", "root_sgd"):
            g_now = grad(x_t, sample)
            g_prev = grad(self.x_prev, sample)
            return (g_now - (1.0 - alpha_t) * g_prev) / alpha_t
        # igt: gradient at the extrapolated point
        shift = (1.0 - alpha_t) / alpha_t
        return grad(x_t + shift * (x_t - self.x_prev), sample)

    def update_v(self, a_t: np.ndarray, alpha_t: float, weighted: bool = False) -> np.ndarray:
        """Blend a_t into the moving average.

        With weighted=True the increment already carries the alpha_t factor
        (it was applied before transmission), so it is added as is.
        """
        # A new array every step: callers keep the v of earlier steps.
        v = (1.0 - alpha_t) * self.v
        v += a_t if weighted else alpha_t * a_t
        self.v = v
        return v

    def advance(self, x_t: np.ndarray) -> None:
        """Record x_t as the previous iterate once every worker evaluated at it."""
        self.x_prev = x_t


def _pairwise_sum(draws, n: int):
    """Sum of the next n draws in numpy's pairwise order for a contiguous
    run of n floats: a plain loop below 8, eight interleaved accumulators up
    to 128, and above that the two halves split at a multiple of 8.  Draws
    are taken in order, depth first, so at most O(log n) partial sums live."""
    if n < 8:
        total = 0.0
        for _ in range(n):
            total = total + next(draws)
        return total
    if n <= 128:
        acc = [next(draws) for _ in range(8)]
        for _ in range(n // 8 - 1):
            acc = [a + next(draws) for a in acc]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for _ in range(n % 8):
            total = total + next(draws)
        return total
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(draws, half) + _pairwise_sum(draws, n - half)


def init_v0(x0: np.ndarray, b0: int, grad, n_workers: int = 1) -> np.ndarray:
    """Warm-start estimate: mean of b0 stochastic gradients at x0.

    Draws are assigned to workers round-robin (total batch b0 across the
    fleet); the randomness lives in the oracle's own seed, so the same
    oracle always produces the same v0.  The result has the bits of
    fixed_order_mean on the draws' stack in O(d) memory for any b0: the
    draws are added in draw order into one buffer, which is how numpy
    reduces the rows of a (b0, d) stack.  A one-coordinate stack is one
    contiguous column, which numpy sums pairwise from 0.0, so for d = 1 the
    draws are streamed through that pairwise order instead.
    """
    if b0 < 1:
        raise ConfigError(f"b0 must be >= 1, got {b0}")
    if n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
    draws = (grad(x0, SampleHandle(t=0, worker=j % n_workers, draw=j)) for j in range(b0))
    first = next(draws)
    if first.size == 1:
        total = 0.0 + _pairwise_sum(itertools.chain([first], draws), b0)
    else:
        total = np.array(first)
        for g in draws:
            total += g
    return np.divide(total, b0, out=total)

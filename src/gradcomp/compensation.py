"""Error-compensation schemes for compressed communication.

Every node (worker or server) keeps a small state: the filtered error e_t
and its last two compression residuals.  Before compressing, the node adds
e_t to its outgoing message; after compressing, it records the new residual.
The schemes differ in how e_t is built from past residuals:

    none      e_t = 0 (compression error is simply dropped)
    single    e_t = (1-beta) e_{t-1} + beta * delta_{t-1}
    two_step  e_t = (1-beta) e_{t-1}
              + beta * ((a_{t-1}/a_t)(2-a_t) delta_{t-1}
                        - (a_{t-2}/a_t)(1-a_t) delta_{t-2})

with a_t the moving-average weight of the estimator being compensated, and
in WHERE the compression sits relative to that weight:

    none, single   the node transmits the already-weighted increment,
                   C[a_t A_t + e_t], and the receiver adds it as is, so the
                   compression error perturbs the estimator at full strength;
    two_step       the node transmits the raw increment, C[A_t + e_t], and
                   the receiver folds it in with weight a_t, so the error is
                   damped by a_t on entry.

The two_step filter weights are chosen so that the damped update telescopes:
all but the most recent residual cancel from the trajectory.  Both layouts
collapse to the same update when a_t = 1.

scheme_coefficients exposes the unified analysis form (eta1, eta2, c1, c2)
in which all three schemes are written at the v-update level:

    v_t = (1 - a_t) v_{t-1} + a_t A_t - eta1 delta_t + eta2 e_t,

with eta1 = eta2 = 1 for none/single (undamped error) and eta1 = eta2 = a_t
for two_step (damped error).

Buffer ownership.  A state owns two e-sized buffers and two tile buffers,
built on first use (zeros() starts e in the first).  filter_update writes
the new e_t into whichever of the two is not the current e, tile by tile
through the tile buffers, and rebinds e to it; it allocates nothing once
the buffers exist.  So the array it returns stays unchanged until the
second call after it, two consecutive results never share memory, and an
e that a caller assigned is never written to.  The residual buffers are
never written here; shift_deltas only rebinds them.  compensate writes
into out when one is given (out may be the message itself) and otherwise
returns a new array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

KINDS = ("none", "single", "two_step")

# Elements per filter tile: 32 Ki float64 = 256 KiB, so a tile's operands
# stay in a 4 MiB L2 cache between its elementwise operations.  A state of
# at most this many elements is filtered as one tile, without slicing.
FILTER_TILE = 2**15


@dataclass(frozen=True)
class SchemeSpec:
    """Compensation scheme choice plus the low-pass parameter beta.

    beta = 1 disables the filter's memory (e_t depends only on the latest
    residuals); smaller beta averages compensation over a longer history.
    """

    kind: str = "two_step"
    beta: float = 0.3

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scheme kind {self.kind!r}, expected one of {KINDS}")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must be in (0, 1], got {self.beta}")


@dataclass
class CompensationState:
    """Filter state: e_t and the two most recent residuals.

    One node holds (d,) vectors; a fleet of n nodes holds (n, d) arrays
    with one row per node, and every function below then acts on all rows
    at once, row by row exactly as it would on each node alone.
    """

    e: np.ndarray
    delta_1: np.ndarray
    delta_2: np.ndarray
    # filter_update's own buffers: two for e to alternate between, then two
    # tile buffers for the intermediate terms.
    scratch: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def zeros(cls, shape: int | tuple[int, ...]) -> "CompensationState":
        state = cls(e=np.zeros(shape), delta_1=np.zeros(shape), delta_2=np.zeros(shape))
        state.scratch = _scratch(state.e)
        return state


def _scratch(e: np.ndarray) -> tuple[np.ndarray, ...]:
    tile = e.shape if e.size <= FILTER_TILE else (FILTER_TILE,)
    return (e, np.empty(e.shape), np.empty(tile), np.empty(tile))


def _next_buffers(state: CompensationState) -> tuple[np.ndarray, ...]:
    """The buffer the next e goes into, then the two tile buffers."""
    e = state.e
    if state.scratch is not None:
        first, second, s1, s2 = state.scratch
        if e is first:
            return second, s1, s2
        if e is second or first.shape == e.shape:
            return first, s1, s2
    state.scratch = _scratch(np.empty(e.shape))
    return state.scratch[0], *state.scratch[2:]


def scheme_coefficients(kind: str, alpha_t: float) -> tuple[float, float, float, float]:
    """Unified-form coefficients (eta1, eta2, c1, c2) for the given scheme."""
    if not 0.0 < alpha_t <= 1.0:
        raise ConfigError(f"alpha_t must be in (0, 1], got {alpha_t}")
    if kind == "none":
        return (1.0, 0.0, 0.0, 0.0)
    if kind == "single":
        return (1.0, 1.0, 1.0, 0.0)
    if kind == "two_step":
        return (alpha_t, alpha_t, 2.0 - alpha_t, 1.0 - alpha_t)
    raise ConfigError(f"unknown scheme kind {kind!r}, expected one of {KINDS}")


def transmits_weighted_increment(kind: str) -> bool:
    """Whether the scheme compresses the a_t-weighted increment.

    True for none/single: the message is a_t A_t + e_t and the receiver adds
    the compressed vector without further scaling, so the compression error
    enters the estimator undamped (eta1 = 1 in the unified form).  False for
    two_step: the message is A_t + e_t and the receiver applies the weight,
    damping the error by a_t (eta1 = a_t).
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown scheme kind {kind!r}, expected one of {KINDS}")
    return kind in ("none", "single")


def filter_update(
    state: CompensationState,
    beta: float,
    alpha_t: float,
    alpha_t1: float,
    alpha_t2: float,
    kind: str,
) -> np.ndarray:
    """Advance the low-pass filter and return the new e_t.

    The residual buffers are left untouched; they shift only after the node
    compressed its message (shift_deltas).  Every element goes through the
    same float operations, in the same order, as the expression in the
    module docstring: w1*delta_1, w2*delta_2, their difference, times beta,
    then (1-beta)*e added to it.
    """
    if alpha_t <= 0.0:
        raise ConfigError(f"alpha_t must be positive, got {alpha_t}")
    if kind not in KINDS:
        raise ConfigError(f"unknown scheme kind {kind!r}, expected one of {KINDS}")
    new, *tiles = _next_buffers(state)
    if kind == "none":
        new.fill(0.0)
    else:
        keep = 1.0 - beta
        if kind == "two_step":
            w1 = (alpha_t1 / alpha_t) * (2.0 - alpha_t)
            w2 = (alpha_t2 / alpha_t) * (1.0 - alpha_t)
        size = new.size
        arrays = (new, state.e, state.delta_1, state.delta_2)
        if size > FILTER_TILE:
            arrays = tuple(a.reshape(-1) for a in arrays)
        for lo in range(0, size, FILTER_TILE):
            if size <= FILTER_TILE:  # one tile: the arrays themselves
                out, e, d1, d2 = arrays
                s1, s2 = tiles
            else:
                out, e, d1, d2 = (a[lo : lo + FILTER_TILE] for a in arrays)
                s1, s2 = (t[: out.size] for t in tiles)
            if kind == "single":
                np.multiply(d1, beta, out=s1)
            else:
                np.multiply(d1, w1, out=s1)
                np.multiply(d2, w2, out=s2)
                np.subtract(s1, s2, out=s1)
                np.multiply(s1, beta, out=s1)
            np.multiply(e, keep, out=s2)
            np.add(s2, s1, out=out)
    state.e = new
    return new


def compensate(message: np.ndarray, e_t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The compensated message: what actually gets compressed.

    With out given (it may be message itself), the sum is written there.
    """
    if message.shape != e_t.shape:
        raise ConfigError(f"shape mismatch: message {message.shape} vs error {e_t.shape}")
    return np.add(message, e_t, out=out)


def shift_deltas(state: CompensationState, new_delta: np.ndarray) -> None:
    """Record the latest residual, aging the previous one into the t-2 slot."""
    state.delta_2 = state.delta_1
    state.delta_1 = new_delta

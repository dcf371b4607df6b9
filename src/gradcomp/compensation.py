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

Buffer ownership.  filter_update writes the new e_t over the old one: in
one pass when the state holds at most FILTER_TILE elements, and tile by
tile otherwise.  Each tile of e is read before it is written, so the result
is the same bits as the allocating expression above.  It returns state.e
itself, so a caller that keeps an e across a later call must copy it.  The
residual buffers are never written here; shift_deltas only rebinds them.
compensate writes into out when one is given (out may be the message
itself) and otherwise returns a new array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

KINDS = ("none", "single", "two_step")

# Elements per filter tile: 32 Ki float64 = 256 KiB, so a tile's operands
# stay in a 4 MiB L2 cache between its elementwise operations.
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
            raise ConfigError(f"unknown scheme kind {self.kind!r}, expected one of {KINDS}", "kind")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"must be in (0, 1], got {self.beta}", "beta")


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

    @classmethod
    def zeros(cls, shape: int | tuple[int, ...]) -> "CompensationState":
        return cls(e=np.zeros(shape), delta_1=np.zeros(shape), delta_2=np.zeros(shape))


def scheme_coefficients(scheme: SchemeSpec, alpha_t: float) -> tuple[float, float, float, float]:
    """Unified-form coefficients (eta1, eta2, c1, c2) for the given scheme."""
    if not 0.0 < alpha_t <= 1.0:
        raise ConfigError(f"alpha_t must be in (0, 1], got {alpha_t}")
    if scheme.kind == "none":
        return (1.0, 0.0, 0.0, 0.0)
    if scheme.kind == "single":
        return (1.0, 1.0, 1.0, 0.0)
    return (alpha_t, alpha_t, 2.0 - alpha_t, 1.0 - alpha_t)


def transmits_weighted_increment(scheme: SchemeSpec) -> bool:
    """Whether the scheme compresses the a_t-weighted increment.

    True for none/single: the message is a_t A_t + e_t and the receiver adds
    the compressed vector without further scaling, so the compression error
    enters the estimator undamped (eta1 = 1 in the unified form).  False for
    two_step: the message is A_t + e_t and the receiver applies the weight,
    damping the error by a_t (eta1 = a_t).
    """
    return scheme.kind in ("none", "single")


def _filter_tile(kind, beta, w1, w2, e, delta_1, delta_2, s1, s2) -> None:
    """The filter's arithmetic on one tile, writing e in place; s1 and s2 are scratch."""
    if kind == "single":
        np.multiply(delta_1, beta, out=s1)
    else:
        np.multiply(delta_1, w1, out=s1)
        np.multiply(delta_2, w2, out=s2)
        np.subtract(s1, s2, out=s1)
        np.multiply(s1, beta, out=s1)
    np.multiply(e, 1.0 - beta, out=s2)
    np.add(s2, s1, out=e)


def filter_update(
    state: CompensationState,
    scheme: SchemeSpec,
    alpha_t: float,
    alpha_t1: float,
    alpha_t2: float,
) -> np.ndarray:
    """Advance scheme's low-pass filter in place and return state.e, now e_t.

    scheme gives the kind and beta; SchemeSpec has checked both, and the
    run's schedule that alpha_t > 0.  The state is the one
    CompensationState.zeros built, so its three arrays are C-contiguous and
    of one shape.  The residual buffers are left untouched; they shift only
    after the node compressed its message (shift_deltas).  Every element
    goes through the same float operations, in the same order, as the
    expression in the module docstring: w1*delta_1, w2*delta_2, their
    difference, times beta, then (1-beta)*e added to it.  A state of at most
    FILTER_TILE elements is filtered in one pass, a larger one in tiles of
    FILTER_TILE elements.
    """
    e = state.e
    kind, beta = scheme.kind, scheme.beta
    if kind == "none":
        e.fill(0.0)
        return e
    w1 = w2 = None
    if kind == "two_step":
        w1 = (alpha_t1 / alpha_t) * (2.0 - alpha_t)
        w2 = (alpha_t2 / alpha_t) * (1.0 - alpha_t)
    if e.size <= FILTER_TILE:
        _filter_tile(kind, beta, w1, w2, e, state.delta_1, state.delta_2, np.empty(e.shape),
                     np.empty(e.shape))
        return e
    flat = [a.reshape(-1) for a in (e, state.delta_1, state.delta_2)]
    scratch = np.empty(FILTER_TILE), np.empty(FILTER_TILE)
    for lo in range(0, e.size, FILTER_TILE):
        tile = [a[lo : lo + FILTER_TILE] for a in flat]
        _filter_tile(kind, beta, w1, w2, *tile, *(s[: len(tile[0])] for s in scratch))
    return e


def compensate(message: np.ndarray, e_t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The compensated message: what actually gets compressed.

    message and e_t have one shape.  With out given (it may be message
    itself), the sum is written there.
    """
    return np.add(message, e_t, out=out)


def shift_deltas(state: CompensationState, new_delta: np.ndarray) -> None:
    """Record the latest residual, aging the previous one into the t-2 slot."""
    state.delta_2 = state.delta_1
    state.delta_1 = new_delta

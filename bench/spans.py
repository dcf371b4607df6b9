"""Timing probes installed on gradcomp from outside the package.

Nothing here edits gradcomp's source.  A probe replaces a function at the
names it is bound to (``gradcomp.simulator.compress`` as well as
``gradcomp.compression.compress``, because the simulator, oracle and harness
import functions by name) and puts the original back afterwards.

``Tracer`` opens one span per call of every entry point in ``ENTRY_POINTS``
and keeps, per span name, the call count, total time and self time.  Self
time is the span's duration minus the time its child spans cover.
``StepTimer`` is the untraced run's only probe: one clock pair around each
``simulator.run_step`` call.
"""

from __future__ import annotations

import functools
import sys
import time

# Wrappers carry this attribute so a leftover one can be found after restore.
MARK = "__bench_probe__"

LAYERS = (
    "rng",
    "problems",
    "estimators",
    "compensation",
    "compression",
    "simulator",
    "oracle",
    "harness",
)


def _compress_label(x, spec, *args, **kwargs) -> str:
    return f"compression.compress.{spec.kind}"


# (defining module, attribute, span name or labeller, modules whose bound
# names are wrapped; None means every gradcomp module that binds it).
ENTRY_POINTS = (
    ("rng", "keyed_generator", "rng.keyed_generator", None),
    ("problems", "make_problem", "problems.make_problem", None),
    ("problems", "partition_data", "problems.partition_data", None),
    ("problems", "minibatch_indices", "problems.minibatch_indices", None),
    ("problems", "stoch_grad", "problems.stoch_grad", None),
    # The recorder's full-data passes are the only full_grad/loss calls the
    # simulator makes, so they are timed at its bound names alone.
    ("problems", "full_grad", "simulator.record", ("simulator",)),
    ("problems", "loss", "simulator.record", ("simulator",)),
    ("estimators", "Estimator.eval_a", "estimators.eval_a", None),
    ("estimators", "Estimator.update_v", "estimators.update_v", None),
    ("estimators", "fixed_order_mean", "estimators.fixed_order_mean", None),
    ("estimators", "init_v0", "estimators.init_v0", None),
    ("compensation", "filter_update", "compensation.filter_update", None),
    ("compensation", "compensate", "compensation.compensate", None),
    ("compression", "compress", _compress_label, None),
    ("simulator", "run", "simulator.run", None),
    ("simulator", "run_step", "simulator.run_step", None),
    ("oracle", "ghost_run", "oracle.ghost_run", None),
    ("oracle", "verify_residual_identity", "oracle.verify_residual_identity", None),
    ("oracle", "residual_closed_form", "oracle.residual_closed_form", None),
    ("harness", "parse_run_config", "harness.parse_run_config", None),
    ("harness", "figure1_experiment", "harness.figure1_experiment", None),
)

# shard_sampler builds the per-run gradient oracle; its closure (which salts
# each sample handle) is timed by wrapping what the factory returns.
SAMPLER_SPAN = "problems.shard_sampler.grad"


def package_modules(package: str = "gradcomp") -> dict:
    """Loaded modules of the package, keyed by their short name."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == package or name.startswith(package + ".")):
            out[name.rpartition(".")[2] if name != package else ""] = module
    return out


class Patcher:
    """Replaces attributes and puts every original back on restore()."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def replace_bound(self, original, new, modules: dict, only=None) -> None:
        """Replace original at every module-level name bound to it."""
        for short, module in modules.items():
            if only is not None and short not in only:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, new)

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def leftover_probes(modules: dict) -> list[str]:
    """Names in the package that still hold a benchmark wrapper."""
    found = []
    for short, module in modules.items():
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{short}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member, inner in vars(value).items():
                    if getattr(inner, MARK, False):
                        found.append(f"{short}.{attr}.{member}")
    return found


class Tracer:
    """Aggregating span tracer; see the module docstring."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self._stack: list[list[int]] = []      # child time of each open span
        self._patcher = Patcher()

    def wrap(self, fn, name):
        """fn with a span around every call; name may be a labeller of fn's arguments."""
        stack, stats, clock = self._stack, self.stats, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            children = [0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = stats.get(label)
                if entry is None:
                    entry = stats[label] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children[0]

        setattr(traced, MARK, True)
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every entry point at each name the package binds it to."""
        for home, attr, name, only in ENTRY_POINTS:
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(modules[home], owner_name)
                self._patcher.replace(owner, method, self.wrap(vars(owner)[method], name))
            else:
                original = getattr(modules[home], attr)
                self._patcher.replace_bound(original, self.wrap(original, name), modules, only)

        factory = modules["problems"].shard_sampler
        wrap = self.wrap

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return wrap(factory(*args, **kwargs), SAMPLER_SPAN)

        setattr(traced_factory, MARK, True)
        self._patcher.replace_bound(factory, traced_factory, modules)

    def restore(self) -> None:
        self._patcher.restore()

    def total_ns(self) -> int:
        """Time inside outermost spans; equals the sum of all self times."""
        return sum(entry[2] for entry in self.stats.values())


class StepTimer:
    """Records the wall time of every simulator.run_step call, in ns."""

    def __init__(self, modules: dict):
        self.samples: list[int] = []
        self._patcher = Patcher()
        original = modules["simulator"].run_step
        samples, clock = self.samples, time.perf_counter_ns

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            samples.append(clock() - start)
            return result

        setattr(timed, MARK, True)
        self._patcher.replace_bound(original, timed, modules)

    def restore(self) -> None:
        self._patcher.restore()

"""The benchmark's probes must still find every name they wrap in gradcomp.

bench/spans.py binds its spans to gradcomp attributes by name.  A renamed or
deleted entry point would otherwise surface only as an AttributeError in a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(home: str, attr: str):
    value = importlib.import_module(f"gradcomp.{home}")
    for part in attr.split("."):
        value = getattr(value, part)
    return value


ENTRY_POINTS = load_spans().ENTRY_POINTS
# Wrapped outside ENTRY_POINTS: the sampler factory and the step timer; and
# execute_run, which the fig1-cell workload patches to capture its runs.
EXTRA = (("problems", "shard_sampler"), ("simulator", "run_step"), ("harness", "execute_run"))


@pytest.mark.parametrize(
    "home, attr", [(home, attr) for home, attr, _, _ in ENTRY_POINTS] + list(EXTRA)
)
def test_bench_entry_points_resolve(home, attr):
    assert callable(resolve(home, attr))


def test_bench_restricted_spans_find_a_bound_name():
    # A span limited to some modules measures nothing unless each of them
    # binds the function at module level.
    for home, attr, name, only in ENTRY_POINTS:
        original = resolve(home, attr)
        for short in only or ():
            module = importlib.import_module(f"gradcomp.{short}")
            assert any(value is original for value in vars(module).values()), (name, short)

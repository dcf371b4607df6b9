"""Exceptions shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Raised when a configuration value is missing, malformed, or out of range."""


class EmptyTraceError(ValueError):
    """Raised when a trace-level statistic is requested from an empty trace."""


class VerificationError(AssertionError):
    """Raised when an algebraic identity check fails beyond its tolerance."""


class DivergenceError(RuntimeError):
    """Raised when the iterate escapes (non-finite values or norm blow-up).

    Carries the step index at which divergence was detected and the partial
    trace (a RunTrace) of the rows up to and including that step, whose
    final_x is the iterate that escaped, so callers can still inspect how
    the run unravelled.  trace is None when no
    single run's trace describes the failure; message then says what did.
    """

    def __init__(self, step: int, trace=None, message: str | None = None):
        super().__init__(message or f"iterate diverged at step {step}")
        self.step = step
        self.trace = trace

"""Exceptions shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Raised when a configuration value is missing, malformed, or out of range.

    field, if given, is the dotted path of the offending value below the
    spec that raised the error (e.g. "compressor.k" for a RunConfig); the
    message then reads "<field>: <reason>", and harness.decode prefixes the
    spec's own path to field.
    """

    def __init__(self, reason: str, field: str | None = None):
        super().__init__(f"{field}: {reason}" if field else reason)
        self.reason = reason
        self.field = field


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

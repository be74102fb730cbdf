"""Exception types shared across the simulator, and the type names their messages use."""

from __future__ import annotations

__all__ = ["ConfigError", "InvalidTraceError", "ComparisonError"]


class ConfigError(ValueError):
    """A scenario file or cluster/job specification violates an invariant."""


class InvalidTraceError(ValueError):
    """A trace is not its plan's schedule; carries the violation list."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid trace: " + "; ".join(self.violations))


class ComparisonError(ValueError):
    """Two metrics objects describe different job sets and cannot be compared."""


def _a(value: object) -> str:
    """``value``'s type name with its article, as in "an int"."""
    name = type(value).__name__
    return f"{'an' if name[0] in 'aeiouAEIOU' else 'a'} {name}"

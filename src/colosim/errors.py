"""Exception types shared across the simulator, and the checks and quoting their messages use."""

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


# type-name prefixes read a letter at a time, so "an" goes before them
_SPELLED = ("Sgd",)


def _a(value: object) -> str:
    """``value``'s type name with its article, as in "an int" (see ``_a_type``)."""
    return _a_type(type(value))


def _a_type(kind: type) -> str:
    """``kind``'s name with its article, as in "an int", "a SchedulePlan" or "an SgdConfig"."""
    name = kind.__name__
    return f"{'an' if name[0] in 'aeiouAEIOU' or name.startswith(_SPELLED) else 'a'} {name}"


def _check_type(name: str, kind: type, value: object) -> None:
    """Raise ``ConfigError``, naming ``name``, unless ``value``'s type is exactly ``kind``."""
    if type(value) is not kind:
        raise ConfigError(f"{name}: expected {_a_type(kind)}, got {_a(value)}")


def _check_least(where: str, fields: tuple[tuple[str, object], ...], values: tuple) -> None:
    """Raise ``ConfigError`` unless each value has its least value's exact type and is >= it.

    ``fields`` holds ``(name, least)`` pairs in order; messages name ``where + name``.
    """
    for (name, least), value in zip(fields, values):
        _check_type(where + name, type(least), value)
        if value < least:
            raise ConfigError(f"{where}{name}: must be >= {least}")


def _quoted(n: int) -> str:
    """``str(n)``, or ``2^k or more`` (``-2^k or less``) past 1024 bits, which str may refuse."""
    bits = n.bit_length()
    if bits <= 1024:
        return str(n)
    return f"-2^{bits - 1} or less" if n < 0 else f"2^{bits - 1} or more"

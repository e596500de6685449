"""Exception hierarchy shared by all modules, and the file-field decoder.

The split matters for the command line tool, which maps these onto exit
codes: usage and malformed-input problems exit 2, numeric guard rejections
and root-finding failures exit 3, and verdict failures exit 1.
"""

from __future__ import annotations


class DualcxError(Exception):
    """Base class for all library errors."""


class ValidationError(DualcxError):
    """Structural data is inconsistent (bad ids, broken coherence, ...)."""


class GuardError(DualcxError):
    """A numeric genericity guard rejected the input configuration.

    Carries a short machine-readable ``reason`` naming the guard.
    """

    def __init__(self, reason: str, message: str | None = None):
        self.reason = reason
        super().__init__(message or reason)


class RootFindingError(DualcxError):
    """The simultaneous root finder failed to converge."""


class BudgetError(DualcxError):
    """A bounded search was invoked with a non-positive budget."""


def int_tuple(values) -> tuple[int, ...]:
    """The values as a tuple of integers; a non-integer raises ``TypeError``
    (a float is never truncated, and a JSON boolean is not an integer), for
    use inside :func:`decode_field`."""
    out = tuple(values)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in out):
        raise TypeError(f"non-integer value in {values!r}")
    return out


def decode_field(data, key: str, decode):
    """``decode(data[key])`` for a parsed JSON file; a missing or malformed
    field raises :class:`ValidationError` naming ``key``."""
    try:
        return decode(data[key])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"missing or malformed field {key!r} ({type(exc).__name__}: {exc})") from exc

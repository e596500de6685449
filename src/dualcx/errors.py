"""Exception hierarchy shared by all modules, and the one boundary for files.

The split matters for the command line tool, which maps these onto exit
codes: usage and malformed-input problems exit 2, numeric guard rejections
and root-finding failures exit 3, and verdict failures exit 1.
"""

from __future__ import annotations

import json

# the one schema version of the three file kinds (complex, surface, construct)
SCHEMA_VERSION = 1


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


def load_json(text, kinds: tuple[str, ...], what: str) -> dict:
    """The parsed file: a JSON object whose ``kind`` is one of ``kinds`` at
    :data:`SCHEMA_VERSION`; anything else raises :class:`ValidationError`."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the parser recurses once per nesting level
        raise ValidationError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") not in kinds or data.get("schema") != SCHEMA_VERSION:
        raise ValidationError(f"not a supported {what} file")
    return data


def int_value(v) -> int:
    """``v`` as an integer; anything else raises ``TypeError`` (a float is
    never truncated, and a JSON boolean is not an integer), for use inside
    :func:`decode_field`."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"non-integer value {v!r}")
    return v


def int_tuple(values) -> tuple[int, ...]:
    """The values as a tuple of integers, each decoded by :func:`int_value`."""
    return tuple(map(int_value, values))


def decode_field(data, key: str, decode):
    """``decode(data[key])`` for a parsed JSON file; a missing or malformed
    field raises :class:`ValidationError` naming ``key``."""
    try:
        return decode(data[key])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"missing or malformed field {key!r} ({type(exc).__name__}: {exc})") from exc

"""Linear-ratio / decibel conversions, and the domain checks of every entry point.

All efficiencies inside the library are linear ratios in (0, 1]; decibels
are a presentation format only.

Each input domain is decided here, once, by a predicate and a checker:

- ``_is_positive`` / ``_check_positive``: finite and > 0
- ``_is_non_negative`` / ``_check_non_negative``: finite and >= 0
- ``_is_ratio`` / ``_check_ratio``: in (0, 1]
- ``_is_integer`` / ``_check_integer``: a whole number >= a minimum

The predicates combine comparisons with ``&``, so the same one takes a float
or a numpy array (elementwise; ``linkbudget.sweep_budget`` builds its
validity mask from them).  NaN and ±inf fail all four.  A checker raises
``ValueError(f"{name} must be <domain>, got {value}")``.
"""

import math


def to_db(ratio: float) -> float:
    """10*log10(ratio). Requires a finite ratio > 0."""
    _check_positive("ratio", ratio)
    return 10.0 * math.log10(ratio)


def from_db(db: float) -> float:
    """Inverse of to_db."""
    return 10.0 ** (db / 10.0)


def format_db(ratio: float) -> str:
    """Signed, one-decimal dB string used in human-readable reports."""
    return f"{to_db(ratio):+.1f} dB"


def _is_positive(v):
    return (v > 0) & (v < math.inf)


def _is_non_negative(v):
    return (v >= 0) & (v < math.inf)


def _is_ratio(v):
    return (v > 0) & (v <= 1)


def _is_integer(v, minimum: int):
    return (v >= minimum) & (v % 1 == 0)


def _check_positive(name: str, value) -> None:
    if not _is_positive(value):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_non_negative(name: str, value) -> None:
    if not _is_non_negative(value):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_ratio(name: str, value) -> None:
    if not _is_ratio(value):
        raise ValueError(f"{name} must be in (0, 1], got {value}")


def _check_integer(name: str, value, minimum: int) -> None:
    if not _is_integer(value, minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")

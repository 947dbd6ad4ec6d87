"""Linear-ratio / decibel conversions, and the check shared by count fields.

All efficiencies inside the library are linear ratios in (0, 1]; decibels
are a presentation format only.
"""

import math


def to_db(ratio: float) -> float:
    """10*log10(ratio). Requires a finite ratio > 0."""
    if not 0 < ratio < math.inf:
        raise ValueError(f"ratio must be finite and positive, got {ratio}")
    return 10.0 * math.log10(ratio)


def from_db(db: float) -> float:
    """Inverse of to_db."""
    return 10.0 ** (db / 10.0)


def format_db(ratio: float) -> str:
    """Signed, one-decimal dB string used in human-readable reports."""
    return f"{to_db(ratio):+.1f} dB"


def _check_integer(name: str, value, minimum: int) -> None:
    """ValueError naming the input unless value is a whole number >= minimum."""
    if not (value >= minimum and value % 1 == 0):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")

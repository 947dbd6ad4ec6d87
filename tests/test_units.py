"""The domain checkers of skylink.units agree with their predicates."""

import math

import numpy as np
import pytest

from skylink import units

_BASE = [0, -0.0, 5e-324, 0.5, 1, math.nextafter(1.0, 2.0), 1e308, -1, math.nan, math.inf, -math.inf]


def _values():
    """Each base value as Python gave it, as np.float32, np.float64 and np.int64,
    and as a 0-d array; then the two bools."""
    with np.errstate(all="ignore"):  # float32 of 1e308 is inf, of 5e-324 is 0
        for v in _BASE:
            yield v
            yield np.float32(v)
            yield np.float64(v)
            yield np.array(v)
            if abs(v) < 2**63 and v == int(v):
                yield np.int64(v)
    yield True
    yield False


# (checker, predicate, message after "NAME must be ")
_DOMAINS = {
    "positive": (units._check_positive, units._is_positive, "finite and positive"),
    "non-negative": (units._check_non_negative, units._is_non_negative, "finite and >= 0"),
    "ratio": (units._check_ratio, units._is_ratio, "in (0, 1]"),
    "integer>=0": (
        lambda name, v: units._check_integer(name, v, 0),
        lambda v: units._is_integer(v, 0),
        "an integer >= 0",
    ),
    "integer>=1": (
        lambda name, v: units._check_integer(name, v, 1),
        lambda v: units._is_integer(v, 1),
        "an integer >= 1",
    ),
}


@pytest.mark.parametrize("domain", _DOMAINS)
def test_checker_raises_exactly_where_its_predicate_is_false(domain):
    check, predicate, message = _DOMAINS[domain]
    # inf % 1 on a numpy float warns in the predicate; the checker never takes it.
    with np.errstate(all="ignore"):
        for v in _values():
            try:
                check("x", v)
            except ValueError as exc:
                raised = str(exc)
            else:
                raised = None
            expected = None if predicate(v) else f"x must be {message}, got {v!s}"
            assert raised == expected, (type(v).__name__, v)

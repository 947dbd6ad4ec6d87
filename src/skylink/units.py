"""Linear-ratio / decibel conversions, and the domain checks of every entry point.

All efficiencies inside the library are linear ratios in (0, 1]; decibels
are a presentation format only.

Each input domain is decided here, once, by a predicate and a checker:

- ``_is_positive`` / ``_check_positive``: finite and > 0
- ``_is_non_negative`` / ``_check_non_negative``: finite and >= 0
- ``_is_ratio`` / ``_check_ratio``: in (0, 1]
- ``_is_integer`` / ``_check_integer``: a whole number >= a minimum

The predicates combine comparisons with ``&``, so the same one takes a float
or a numpy array (elementwise; ``linkbudget.sweep_columns`` builds its
validity mask from them).  The checkers take one scalar and write the same
test as a chained comparison (``0 < value < math.inf``), which for a scalar
accepts and rejects exactly what the ``&`` form does.  NaN and ±inf fail all
four.  The key-rate point path of :mod:`skylink.qkd` (signal rate, windowed
noise, QBER, secret key rate) goes one step further: each entry point tests
all of its inputs in one chained condition, each written as its checker writes
it, and calls the checkers only to raise, in argument order, when that fails;
a valid point makes no checker call.  A checker raises
``ValueError(f"{name} must be <domain>, got {value!s}")``: ``str`` gives a
Python number's usual digits and a numpy scalar its own (a float32 -0.05,
which ``format`` would widen to -0.05000000074505806).

The one range rule of the scalar leaves is here too: :func:`_check_result`
raises ``ValueError(f"{name} must give a finite, positive {what}, got {value}
({what} = {result})")``, naming the input, unless its result is finite and > 0.
A product names the input behind its factor smallest in dB, or largest where
it overflows (:func:`_finite_product`).
``value`` is formatted as an f-string does: a float32 r0 of 1e-30 reads
1.0000000031710769e-30.
"""

import math

__all__ = ["to_db", "from_db", "format_db"]


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


# Each checker writes its predicate's test out, chained, rather than calling
# it: one Python call per check on the per-point paths.  _check_integer tests
# value < inf first, so % never sees ±inf (numpy warns on inf % 1).


def _check_positive(name: str, value) -> None:
    if not 0 < value < math.inf:  # _is_positive
        raise ValueError(f"{name} must be finite and positive, got {value!s}")


def _check_non_negative(name: str, value) -> None:
    if not 0 <= value < math.inf:  # _is_non_negative
        raise ValueError(f"{name} must be finite and >= 0, got {value!s}")


def _check_ratio(name: str, value) -> None:
    if not 0 < value <= 1:  # _is_ratio
        raise ValueError(f"{name} must be in (0, 1], got {value!s}")


def _check_integer(name: str, value, minimum: int) -> None:
    if not (minimum <= value < math.inf and value % 1 == 0):  # _is_integer
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!s}")


def _finite_result(name: str, value, what: str, compute, *args, on_error: float = math.inf):
    """compute(*args), checked by :func:`_check_result`.

    Where numpy gives inf, Python's float ``**`` raises OverflowError and ``/``
    by an underflowed 0 ZeroDivisionError; either counts as the result
    ``on_error``: inf, or 0.0 where that inf falls under an exp(-x).  A numpy
    scalar input computes with numpy's warnings off, so its overflow is this
    rule's ValueError too.
    """
    result = _computed(compute, args, type(value).__module__ == "numpy", on_error)
    _check_result(name, value, what, result)
    return result


def _finite_product(what: str, factors, compute, *args, on_error: float = math.inf):
    """compute(*args), a product of value**exponent over its (name, value,
    exponent) factors, computed as :func:`_finite_result` computes.

    Out of range, it names the input behind its factor smallest in dB, or
    largest where the product overflows; of equal factors, the first.
    """
    numpy_input = any(type(value).__module__ == "numpy" for _, value, _ in factors)
    result = _computed(compute, args, numpy_input, on_error)
    if not 0 < result < math.inf:
        pick = max if result == math.inf else min
        name, value, _ = pick(factors, key=lambda f: f[2] * math.log(f[1]))
        _check_result(name, value, what, result)
    return result


def _computed(compute, args, numpy_input: bool, on_error: float):
    try:
        if numpy_input:  # numpy is loaded already
            import numpy as np

            with np.errstate(all="ignore"):
                return compute(*args)
        return compute(*args)
    except (OverflowError, ZeroDivisionError):
        return on_error


def _check_result(name: str, value, what: str, result) -> None:
    """ValueError naming the input ``name`` unless its result is finite and > 0."""
    if not 0 < result < math.inf:
        raise ValueError(f"{name} must give a finite, positive {what}, got {value} "
                         f"({what} = {result})")

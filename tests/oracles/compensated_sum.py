"""The built-in ``sum`` of CPython 3.12+, in Python, for any interpreter.

CPython 3.12 made ``sum`` of floats compensated (Neumaier summation,
gh-100425): while the items are exact ``float`` s it carries the rounding
error of every addition in a second accumulator and adds it back at the
end.  Earlier versions fold left without compensation.  Tests install
:func:`compensated_sum` as ``builtins.sum`` to run the program as a
3.12 interpreter would and check that no pinned result depends on it.

The control flow follows ``builtin_sum_impl`` in ``Python/bltinmodule.c``:
an integer fast path while the items are ints, then the compensated
float path, then the generic ``+`` for anything else (the compensation
is flushed into the total before leaving the float path).
"""

from __future__ import annotations

import math

__all__ = ["compensated_sum"]


def compensated_sum(iterable, /, start=0):
    """``sum(iterable, start)`` with CPython 3.12's float compensation."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) is not int and type(item) is not bool:
                break
        else:
            return result
    if type(result) is not float:
        for item in items:
            result = result + item
        return result
    total, compensation = result, 0.0
    for item in items:
        if type(item) is float:
            step = total + item
            if abs(total) >= abs(item):
                compensation += (total - step) + item
            else:
                compensation += (item - step) + total
            total = step
            continue
        if type(item) is int and -(2 ** 63) <= item < 2 ** 63:
            total += float(item)
            continue
        if compensation and math.isfinite(compensation):
            total += compensation
        result = total + item
        for rest in items:
            result = result + rest
        return result
    if compensation and math.isfinite(compensation):
        total += compensation
    return total

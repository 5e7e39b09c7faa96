"""Left-to-right float summation that does not depend on the Python version.

Since CPython 3.12 the built-in ``sum`` compensates float rounding
(Neumaier summation), so the same float list can total to a different
last bit on 3.11 and on 3.12.  Run-path totals that feed pinned digests
use :func:`left_sum` instead: the plain ``((start + x0) + x1) + ...``
the built-in made before 3.12, on every version.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable, start=0):
    """``((start + v0) + v1) + ...`` — an uncompensated left fold.

    Equal to the built-in ``sum`` of Python 3.11 and earlier, bit for
    bit, including the integer ``start`` (an all-int input stays int).
    """
    total = start
    for value in values:
        total = total + value
    return total

"""Small shared utilities: seeded RNG plumbing, validation, text rendering."""

from repro.util.fold import left_sum
from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
)
from repro.util.tables import format_table
from repro.util.ascii_chart import ascii_series, ascii_bars

__all__ = [
    "left_sum",
    "ensure_rng",
    "spawn_rngs",
    "check_finite",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "format_table",
    "ascii_series",
    "ascii_bars",
]

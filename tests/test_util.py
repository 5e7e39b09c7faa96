"""Utilities: RNG plumbing, validation, tables, ASCII charts."""

import numpy as np
import pytest

from repro.util import (
    ascii_bars,
    ascii_series,
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
    ensure_rng,
    format_table,
    spawn_rngs,
)
from repro.util.validation import check_monotone_increasing


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert ensure_rng(g) is g

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_count(self):
        children = spawn_rngs(7, 4)
        assert len(children) == 4

    def test_spawn_streams_differ(self):
        a, b = spawn_rngs(7, 2)
        assert not np.array_equal(a.random(8), b.random(8))

    def test_spawn_deterministic(self):
        a1, _ = spawn_rngs(7, 2)
        a2, _ = spawn_rngs(7, 2)
        assert np.array_equal(a1.random(8), a2.random(8))

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(7, -1)


class TestValidation:
    def test_check_positive_ok(self):
        assert check_positive("x", 1.5) == 1.5

    def test_check_positive_zero_rejected(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0.0)

    def test_check_non_negative_zero_ok(self):
        assert check_non_negative("x", 0.0) == 0.0

    def test_check_non_negative_rejects(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -0.1)

    def test_check_in_range_bounds_inclusive(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0
        assert check_in_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_check_in_range_rejects(self):
        with pytest.raises(ValueError):
            check_in_range("x", 2.1, 1.0, 2.0)

    def test_check_finite_array(self):
        check_finite("x", [1.0, 2.0])
        with pytest.raises(ValueError):
            check_finite("x", [1.0, np.nan])
        with pytest.raises(ValueError):
            check_finite("x", [np.inf])

    def test_monotone_increasing(self):
        check_monotone_increasing("x", [1, 2, 3])
        with pytest.raises(ValueError):
            check_monotone_increasing("x", [1, 2, 2])


class TestTables:
    def test_basic_layout(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 0.001]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "bb" in lines[0]

    def test_title(self):
        out = format_table(["a"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_large_numbers_have_commas(self):
        out = format_table(["a"], [[12345.6]])
        assert "12,345.6" in out


class TestAsciiCharts:
    def test_series_has_height_rows(self):
        out = ascii_series([1, 2, 3, 2, 1], height=6)
        assert len(out.splitlines()) == 6

    def test_series_with_label(self):
        out = ascii_series([1, 2], label="L")
        assert out.splitlines()[0] == "L"

    def test_series_empty(self):
        assert "(empty)" in ascii_series([], label="x")

    def test_series_constant_no_crash(self):
        ascii_series([5.0, 5.0, 5.0])

    def test_bars_scaled(self):
        out = ascii_bars(["a", "b"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10  # max bar fills width

    def test_bars_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ascii_bars(["a"], [1.0, 2.0])

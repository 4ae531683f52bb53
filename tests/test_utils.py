"""Tests for the shared utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.utils.rng import ensure_rng
from repro.utils.tables import format_table
from repro.utils.timer import Timer
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_vertex_id,
)


class TestRng:
    def test_ensure_rng_from_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_ensure_rng_from_seed_deterministic(self):
        assert ensure_rng(5).random() == ensure_rng(5).random()

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_type_error(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")  # type: ignore[arg-type]


class TestTables:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 0.001234]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len({len(l) for l in lines[3:4]}) == 1

    def test_scientific_for_extremes(self):
        text = format_table(["x"], [[1e-9], [1e9]])
        assert "e-09" in text and "e+09" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            pass
        with t:
            pass
        assert len(t.laps) == 2
        assert t.elapsed >= 0
        assert t.mean == pytest.approx(t.elapsed / 2)
        t.reset()
        assert t.elapsed == 0 and not t.laps


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.0) == 1.0
        with pytest.raises(ConfigError):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0.0) == 0.0
        with pytest.raises(ConfigError):
            check_non_negative("x", -1)

    def test_check_fraction(self):
        assert check_fraction("x", 0.5) == 0.5
        with pytest.raises(ConfigError):
            check_fraction("x", 1.0)
        assert check_fraction("x", 1.0, inclusive=True) == 1.0
        with pytest.raises(ConfigError):
            check_fraction("x", 1.1, inclusive=True)

    def test_check_vertex_id(self):
        assert check_vertex_id("v", 3) == 3
        with pytest.raises(ConfigError):
            check_vertex_id("v", -1)
        with pytest.raises(ConfigError):
            check_vertex_id("v", True)

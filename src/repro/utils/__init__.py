"""Small shared utilities: RNG handling, timers, tables, validation."""

from .rng import ensure_rng
from .tables import format_table
from .timer import Timer
from .validation import check_fraction, check_non_negative, check_positive

__all__ = [
    "ensure_rng",
    "format_table",
    "Timer",
    "check_fraction",
    "check_non_negative",
    "check_positive",
]

"""Small shared utilities: RNG handling, tables, validation."""

from .rng import ensure_rng
from .tables import format_table
from .validation import check_fraction, check_non_negative, check_positive

__all__ = [
    "ensure_rng",
    "format_table",
    "check_fraction",
    "check_non_negative",
    "check_positive",
]

"""Takagi-Sugeno fuzzy model identification for bearing RUL estimation."""

__version__ = "0.1.0"

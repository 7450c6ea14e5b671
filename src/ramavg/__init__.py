"""Ramanujan sums, their weighted averages, and exact identity verification."""

__version__ = "0.1.0"

"""Exact multi-marginal optimal transport with generalized-metric audits."""

__version__ = "0.1.0"

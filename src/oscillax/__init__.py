"""Numerical laboratory for maximal oscillatory integrals of radial data."""

__version__ = "0.1.0"

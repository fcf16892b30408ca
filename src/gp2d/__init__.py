"""Numerical laboratory for the 2D attractive Gross-Pitaevskii variational problem."""

__version__ = "0.1.0"

"""Kronecker fast Johnson-Lindenstrauss transforms and their applications:
structured sketched least squares, randomized CP decomposition, and a
desk-scale verification toolkit."""

__version__ = "0.1.0"

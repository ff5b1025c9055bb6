"""Certification and search tools for product Kraus representations.

A separable quantum channel acts as ``rho -> sum_j K_j rho K_j^dag`` with every
Kraus operator a tensor product across parties.  This package decides, for a
given product family, whether that representation is the only one (up to
isometric remixing no other product family implements the same channel),
hunts numerically for product combinations inside member subsets, converts
channels to ket ensembles and back, and ships the reference families the
theory is calibrated on.
"""

__version__ = "0.1.0"

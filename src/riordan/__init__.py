"""Exact Riordan-array toolkit.

Triangles from Riordan pairs and bivariate generating functions, the
generating-function inversion operator on triangles, the named polynomial
families it produces, Hankel transforms, and lattice-path and tiling oracles
that cross-check them: cached dynamic programs that never touch the series
machinery.
"""

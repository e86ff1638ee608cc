"""Frozen reference data shared by the tests.

Thirteen known 6x6 matrix displays, stored with rows padded by explicit
zeros to triangle shape, plus the polynomial and sequence values the suite
pins down.  Derived entries carry a note saying which independent oracle
produced them.
"""

# Fibonacci coefficient triangle, (1/(1-x^2), x/(1-x^2)).
FIB_TRIANGLE = [
    [1],
    [0, 1],
    [1, 0, 1],
    [0, 2, 0, 1],
    [1, 0, 3, 0, 1],
    [0, 3, 0, 4, 0, 1],
]

# Its inversion: the dual Fibonacci coefficient array.
DUAL_FIB_TRIANGLE = [
    [1],
    [0, -1],
    [-1, 0, 1],
    [0, 3, 0, -1],
    [2, 0, -6, 0, 1],
    [0, -10, 0, 10, 0, -1],
]

# The binom(k, n-k) triangle, (1, x(1+x)).
X_PLUS_X2_TRIANGLE = [
    [1],
    [0, 1],
    [0, 1, 1],
    [0, 0, 2, 1],
    [0, 0, 1, 3, 1],
    [0, 0, 0, 3, 4, 1],
]

# Its inversion.
TILDE_TRIANGLE = [
    [1],
    [0, -1],
    [0, -1, 1],
    [0, 0, 3, -1],
    [0, 0, 2, -6, 1],
    [0, 0, 0, -10, 10, -1],
]

# The stretched binom(n-k, k) triangle, (1/(1-x), x^2/(1-x)).
A011973_TRIANGLE = [
    [1],
    [1, 0],
    [1, 1, 0],
    [1, 2, 0, 0],
    [1, 3, 1, 0, 0],
    [1, 4, 3, 0, 0, 0],
]

# Its inversion.
TILDETILDE_TRIANGLE = [
    [1],
    [-1, 0],
    [1, -1, 0],
    [-1, 3, 0, 0],
    [1, -6, 2, 0, 0],
    [-1, 10, -10, 0, 0, 0],
]

# Catalan-Fibonacci coefficient array: entry (n, i) = C_n * binom(n-i, i).
CF_COEFF_TRIANGLE = [
    [1],
    [1, 0],
    [2, 2, 0],
    [5, 10, 0, 0],
    [14, 42, 14, 0, 0],
    [42, 168, 126, 0, 0, 0],
]

# Its inversion: the coefficient array of x(sqrt(1-4yx^2) - x) / x shifted.
CF_COEFF_INVERSION = [
    [1],
    [-1, 0],
    [0, -2, 0],
    [0, 0, 0, 0],
    [0, 0, -2, 0, 0],
    [0, 0, 0, 0, 0, 0],
]

# Catalan-Fibonacci matrix (b = 1).
CF_MATRIX_B1 = [
    [1],
    [0, 1],
    [2, 0, 2],
    [0, 10, 0, 5],
    [14, 0, 42, 0, 14],
    [0, 126, 0, 168, 0, 42],
]

# Catalan-Jacobsthal matrix (b = 2).
CF_MATRIX_B2 = [
    [1],
    [0, 1],
    [4, 0, 2],
    [0, 20, 0, 5],
    [56, 0, 84, 0, 14],
    [0, 504, 0, 336, 0, 42],
]

# Inversion of the Catalan-Fibonacci matrix.
CF_MATRIX_B1_INVERSION = [
    [1],
    [0, -1],
    [-2, 0, 0],
    [0, 0, 0, 0],
    [-2, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0],
]

# Central coefficient triangle, (1/sqrt(1-4x^2), x/sqrt(1-4x^2)).
A111959_TRIANGLE = [
    [1],
    [0, 1],
    [2, 0, 1],
    [0, 4, 0, 1],
    [6, 0, 6, 0, 1],
    [0, 16, 0, 8, 0, 1],
]

# Its inversion: the exponential array with J_0(2x) and -x.
I0_DUAL_TRIANGLE = [
    [1],
    [0, -1],
    [-2, 0, 1],
    [0, 6, 0, -1],
    [6, 0, -12, 0, 1],
    [0, -30, 0, 20, 0, -1],
]

# Dual polynomial values at y = 1 and y = -1: coefficients of
# x(sqrt(1-4yx^2)-x) from x^1, evaluated.  The odd entries are twice the
# Catalan numbers with alternating placement, which pins them independently.
DUAL_CF_AT_1 = [1, -1, -2, 0, -2, 0, -4, 0, -10, 0, -28, 0, -84, 0, -264, 0, -858, 0]
DUAL_CF_AT_MINUS_1 = [1, -1, 2, 0, -2, 0, 4, 0, -10, 0, 28, 0, -84, 0, 264, 0, -858, 0]

# Hankel transforms of the two sequences above.
HANKEL_AT_1 = [1, -3, 14, -32, 96, -208, 544, -1152, 2816, -5888]
HANKEL_AT_MINUS_1 = [1, 1, -10, -16, 64, 112, -352, -640, 1792, 3328]

# Dual polynomials of the Catalan-Fibonacci family: coefficients of
# x(sqrt(1-4yx^2)-x) as ascending y-coefficient lists, from x^0.
DUAL_CF_POLY_COEFFS = [
    [],
    [1],
    [-1],
    [0, -2],
    [],
    [0, 0, -2],
    [],
    [0, 0, 0, -4],
    [],
    [0, 0, 0, 0, -10],
]

# First Fibonacci-like family members, ascending coefficients in y.
FIB_POLYS = [[], [1], [0, 1], [1, 0, 1], [0, 2, 0, 1], [1, 0, 3, 0, 1]]
DUAL_FIB_POLYS = [[], [1], [0, -1], [-1, 0, 1], [0, 3, 0, -1], [2, 0, -6, 0, 1]]
TILDE_FIB_POLYS = [[], [1], [0, -1], [0, -1, 1], [0, 0, 3, -1], [0, 0, 2, -6, 1]]
TILDETILDE_FIB_POLYS = [[], [1], [-1], [1, -1], [-1, 3], [1, -6, 2]]

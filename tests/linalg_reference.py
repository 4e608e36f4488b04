"""Reference Fraction eliminations for the integer linear algebra.

Plain Gaussian and Gauss-Jordan elimination over `Fraction`: slow, but
obviously exact.  The tests compare `exactnum.int_det`, `int_adjugate`,
the rank `int_rank` reads off `exactnum.IntEchelon`, the positivity check
of `EucLattice`, `dual_lattice` and the cone coefficients of `tamagawa`
against them.
"""

from fractions import Fraction

from heightlab.exactnum import IntEchelon


def int_rank(rows) -> int:
    """Rank of an integer matrix of any shape: the rows an `IntEchelon` keeps."""
    ech = IntEchelon()
    return sum(ech.add(row) for row in rows)


def reference_det(m) -> Fraction:
    m = [list(map(Fraction, row)) for row in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((k for k in range(col, n) if m[k][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for k in range(col + 1, n):
            f = m[k][col] * inv
            if f:
                m[k] = [a - f * b for a, b in zip(m[k], m[col])]
    return det


def reference_rank(rows) -> int:
    m = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((k for k in range(rank, len(m)) if m[k][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        for k in range(len(m)):
            if k != rank and m[k][col] != 0:
                f = m[k][col] * inv
                m[k] = [a - f * b for a, b in zip(m[k], m[rank])]
        rank += 1
    return rank


def reference_adjugate(m) -> list:
    """Cofactor transpose, each minor by `reference_det`."""
    n = len(m)
    return [[(-1) ** (i + j) * reference_det([row[:i] + row[i + 1:]
                                              for k, row in enumerate(m) if k != j])
             for j in range(n)] for i in range(n)]


def reference_inverse(m) -> list:
    """Gauss-Jordan inverse of a nonsingular square matrix."""
    g = [list(map(Fraction, row)) for row in m]
    r = len(g)
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(r)] for i in range(r)]
    for col in range(r):
        piv = next(k for k in range(col, r) if g[k][col] != 0)
        g[col], g[piv] = g[piv], g[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = 1 / g[col][col]
        g[col] = [x * f for x in g[col]]
        inv[col] = [x * f for x in inv[col]]
        for k in range(r):
            if k != col and g[k][col] != 0:
                f = g[k][col]
                g[k] = [a - f * b for a, b in zip(g[k], g[col])]
                inv[k] = [a - f * b for a, b in zip(inv[k], inv[col])]
    return inv


def reference_solve(m, rhs) -> list:
    """x with x^T M = rhs over the rationals (rows of m are cone generators)."""
    t = len(m)
    a = [[Fraction(m[j][i]) for j in range(t)] for i in range(t)]
    b = [Fraction(r) for r in rhs]
    for col in range(t):
        piv = next(r for r in range(col, t) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        b[col] *= inv
        for r in range(t):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] -= f * b[col]
    return b

"""Exact rational helpers: rational tokens, Fraction vectors and
matrices, a matrix's integer form (K, E) with its Kronecker product, and
the Fraction products and rref solvers behind the spectral solves and
property-U certificates. Nothing here touches floating point.
"""

import math
import re
from fractions import Fraction

# A token Fraction would read as [-]p or [-]p/q with ASCII digits only;
# every other spelling goes to Fraction's own parser.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_ratio(token):
    """(p, q) in lowest terms, q > 0, of a rational token. A plain
    [-]p[/q] token is read with int, every other spelling with
    Fraction's own parser."""
    try:
        plain = _PLAIN_RATIONAL.fullmatch(token) if type(token) is str else None
        if plain is None:
            value = Fraction(token)
            return value.numerator, value.denominator
        num, den = plain.groups()
        num, den = int(num), 1 if den is None else int(den)
        if not den:
            raise ZeroDivisionError
        g = math.gcd(num, den)
        return num // g, den // g
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {token!r}") from exc


def parse_rational(token):
    """Parse 'p/q' or an integer literal into a Fraction."""
    return Fraction(*parse_ratio(token))


def format_rational(q):
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_ratio(k, e):
    """format_rational(Fraction(k, e)) for integers k and e > 0, with one
    gcd and no Fraction."""
    g = math.gcd(k, e)
    return str(k // g) if g == e else f"{k // g}/{e // g}"


def as_fraction_vector(values):
    """values as a tuple of Fractions; entries that already are exactly
    Fractions are kept as they are."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def as_fraction_matrix(rows):
    return tuple(as_fraction_vector(row) for row in rows)


def _int_matrix(rows):
    """(K, E) of a rational matrix: E the lcm of its entry denominators
    and K = E * rows, the integer matrix. For Fraction entries, which
    are in lowest terms, the pair is in lowest terms too."""
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return tuple(tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows), scale


def _kron_int(ka, kb):
    """Kronecker product of two integer matrices, row-major pairing."""
    return tuple(
        tuple(x * y for x in row_a for y in row_b) for row_a in ka for row_b in kb
    )


def vec_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_mat(x, m):
    """Row vector times matrix: returns x^T M as a tuple."""
    n = len(m[0])
    return tuple(
        sum((x[i] * m[i][j] for i in range(len(x))), Fraction(0)) for j in range(n)
    )


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def mat_inf_norm(m):
    """Maximum absolute row sum."""
    return max(sum((abs(v) for v in row), Fraction(0)) for row in m)


def rref(rows, ncols=None):
    """Reduced row echelon form over the rationals.

    Returns (reduced rows as list of lists, pivot column list).
    """
    work = [list(r) for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [v - f * w for v, w in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def solve_unique(a_rows, b):
    """Solve A u = b exactly when the solution exists and is unique.

    Accepts square or overdetermined systems. Returns the solution tuple,
    or None when the system is singular, inconsistent or underdetermined.
    """
    if not a_rows:
        return None
    ncols = len(a_rows[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    reduced, pivots = rref(aug, ncols=ncols)
    # Inconsistent if a zero row maps to a nonzero right-hand side.
    for row in reduced:
        if all(v == 0 for v in row[:ncols]) and row[ncols] != 0:
            return None
    if len(pivots) < ncols:
        return None
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = reduced[r][ncols]
    return tuple(sol)


def find_dependent_row(rows):
    """Index of the first row that is a linear combination of the rows
    above it, or None when the rows are linearly independent.

    Row i lies in the span of the rows above it exactly when column i of
    the transpose is not a pivot column of its reduced echelon form.
    """
    _, pivots = rref(list(zip(*rows)), ncols=len(rows))
    return next((i for i in range(len(rows)) if i not in pivots), None)

"""Property tests: the rref-based elimination helpers against the
top-down elimination reference in helpers.py, and the integer fast
path of parse_rational against Fraction's own parser."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misdyn.rational import find_dependent_row, parse_rational, rref, solve_unique

from helpers import reference_dependent_rows, reference_rank

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """Small integer matrices; some rows are planted as combinations of
    the rows above them, so dependencies are common."""
    cols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        if rows and draw(st.booleans()):
            weights = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(w * r[j] for w, r in zip(weights, rows)) for j in range(cols)])
        else:
            rows.append(draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)))
    return rows


@SETTINGS
@given(matrices())
def test_find_dependent_row_matches_reference(rows):
    dependent = reference_dependent_rows(rows)
    assert find_dependent_row(rows) == (dependent[0] if dependent else None)


@SETTINGS
@given(matrices())
def test_rref_pivots_are_unit_columns(rows):
    reduced, pivots = rref(rows)
    assert len(pivots) == reference_rank(rows)
    for r, c in enumerate(pivots):
        assert [row[c] for row in reduced] == [int(i == r) for i in range(len(reduced))]
    assert all(not any(row) for row in reduced[len(pivots) :])


@SETTINGS
@given(matrices(), st.data())
def test_solve_unique_is_exact_or_none(a, data):
    """b is either arbitrary or A u0 for an integer u0, so that
    consistent overdetermined systems come up too."""
    cols = len(a[0])
    if data.draw(st.booleans()):
        u0 = data.draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols))
        b = [sum(x * y for x, y in zip(row, u0)) for row in a]
    else:
        b = data.draw(st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a)))
    rank = reference_rank(a)
    consistent = reference_rank([row + [v] for row, v in zip(a, b)]) == rank
    u = solve_unique(a, b)
    assert (u is None) == (rank < cols or not consistent)
    if u is not None:
        assert [sum((x * y for x, y in zip(row, u)), Fraction(0)) for row in a] == b


# Plain p/q tokens (the int path) and every other spelling Fraction might
# take or refuse: signs, zeros, underscores, decimals, exponents, blanks,
# and non-ASCII digits.
TOKENS = st.one_of(
    st.from_regex(r"[-+]?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
    st.text(alphabet="0123456789-+/._eE \u00b2\u0661\u0662", max_size=8),
)


@settings(max_examples=100, deadline=None)
@given(TOKENS)
@example("+3/4")
@example("-0/5")
@example("007")
@example("1.5")
@example("1e3")
@example("1_0")
@example("3/-4")
@example("--3")
@example("1/0")
@example("\u00b2")
@example("\u0661/\u0662")
def test_parse_rational_matches_fraction(token):
    try:
        expected = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError) as err:
            parse_rational(token)
        assert str(err.value) == f"invalid rational literal {token!r}"
    else:
        value = parse_rational(token)
        assert type(value) is Fraction and value == expected

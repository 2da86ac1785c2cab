import io
import random
from decimal import Decimal
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misdyn import digraph as dg
from misdyn.rational import format_rational, kron, mat_inf_norm, mat_mul, parse_rational, vec_mat
from misdyn.system import (
    EXACT_PERIODIC,
    ON_DISCONTINUITY,
    BitSizeExceeded,
    Cell,
    ConfigFormatError,
    Hyperplane,
    MISystem,
    NoCellMatch,
    NotPrimitive,
    PeriodVerdict,
    SimplexVector,
    StochasticMatrix,
    coefficient_of_ergodicity,
    is_primitive,
    kronecker_variance_lift,
    lift_state,
    locate_cell,
    orbit,
    perron_decomposition,
    read_mis_config,
    sample_simplex,
    step,
    stationary_distribution,
    variance_of,
    write_mis_config,
    write_trace_csv,
)

from helpers import (
    quadratic_threshold_step,
    random_simplex,
    random_stochastic,
    reference_int_form,
    reference_write_mis_config,
)

F = Fraction


def two_cell_system(m_plus, m_minus, normal=(2, 1), delta=0):
    return MISystem(
        len(normal),
        (Hyperplane(normal),),
        (Cell("+", m_plus), Cell("-", m_minus)),
        delta=delta,
        omega=F(1, 4),
    )


def constant_system(m):
    n = m.n
    return MISystem(n, (), (Cell("", m),))


# ---------------------------------------------------------------------------
# Value types


def test_simplex_vector_validation():
    SimplexVector((F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        SimplexVector((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        SimplexVector((F(3, 2), F(-1, 2)))


def test_stochastic_matrix_validation():
    StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    with pytest.raises(ValueError):
        StochasticMatrix([[F(1, 2), F(1, 3)], [0, 1]])
    with pytest.raises(ValueError):
        StochasticMatrix([[0, 1], [0, 1]])
    m = StochasticMatrix([[0, 1], [1, 0]], allow_zero_diagonal=True)
    assert not m.has_positive_diagonal()


def reference_simplex_check(values, negative, unsummed):
    """The plain Fraction check that SimplexVector and StochasticMatrix
    rows must agree with."""
    values = [F(v) for v in values]
    if any(v < 0 for v in values):
        raise ValueError(negative)
    if sum(values) != 1:
        raise ValueError(unsummed)


def reference_stochastic_matrix(rows, allow_zero_diagonal):
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    for i, row in enumerate(rows):
        reference_simplex_check(row, f"negative entry in row {i}", f"row {i} does not sum to 1")
        if not allow_zero_diagonal and row[i] == 0:
            raise ValueError(f"zero diagonal at row {i}")


def outcome(build, *args):
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return "ok"


@st.composite
def near_simplex_points(draw, size):
    """Weights over their sum, some negative, some nudged off the simplex,
    with integral entries sometimes given as ints."""
    weights = draw(st.lists(st.integers(-1, 6), min_size=size, max_size=size))
    total = sum(weights) or 1
    point = [F(w, total) for w in weights]
    if draw(st.booleans()):
        point[draw(st.integers(0, size - 1))] += draw(
            st.fractions(min_value=-1, max_value=1, max_denominator=12)
        )
    return [int(v) if v.denominator == 1 and draw(st.booleans()) else v for v in point]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(near_simplex_points))
def test_simplex_vector_agrees_with_fraction_sum(point):
    expected = outcome(reference_simplex_check, point, "negative coordinate",
                       "coordinates do not sum to 1")
    assert outcome(SimplexVector, point) == expected
    if expected == "ok":
        assert SimplexVector(point) == tuple(F(v) for v in point)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(near_simplex_points(n), min_size=n, max_size=n)),
       st.booleans())
def test_stochastic_matrix_agrees_with_fraction_sum(rows, allow_zero_diagonal):
    expected = outcome(reference_stochastic_matrix, rows, allow_zero_diagonal)
    assert outcome(StochasticMatrix, rows, allow_zero_diagonal) == expected
    if expected == "ok":
        assert StochasticMatrix(rows, allow_zero_diagonal).rows == tuple(
            tuple(F(v) for v in row) for row in rows
        )


def test_empty_matrix_is_refused():
    with pytest.raises(ValueError, match="^matrix has no rows$"):
        StochasticMatrix([])


def spell(v, how):
    """A config token for the Fraction v: in lowest terms, scaled by 2
    ('2/4'), as a decimal ('0.5') when v has one, or as '-0/3' for 0."""
    p, q = v.numerator, v.denominator
    if how == "scaled":
        return f"{2 * p}/{2 * q}"
    if how == "decimal" and 10**6 % q == 0:
        return str(Decimal(p) / Decimal(q))
    if how == "negative-zero" and p == 0:
        return "-0/3"
    return str(p) if q == 1 else f"{p}/{q}"


SPELLINGS = ("lowest", "scaled", "decimal", "negative-zero")


@st.composite
def kronecker_squares(draw):
    """Fraction rows of a 1-3 state stochastic matrix A with a positive
    diagonal, and a spelling for each entry of A (x) A."""
    m = draw(st.integers(1, 3))
    rows = []
    for i in range(m):
        weights = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
        weights[i] += 1
        rows.append([F(w, sum(weights)) for w in weights])
    spellings = draw(st.lists(st.sampled_from(SPELLINGS), min_size=m**4, max_size=m**4))
    return rows, spellings


@settings(max_examples=40, deadline=None)
@given(kronecker_squares())
@example(  # A (x) A spelled as 2/8 0.25 1/4 1/4, -0/3 0.5 0/2 1/2, 0 -0/3 2/4 0.5, 0 0 -0/3 2/2
    (
        [[F(1, 2), F(1, 2)], [F(0), F(1)]],
        "scaled decimal lowest lowest negative-zero decimal scaled lowest lowest negative-zero"
        " scaled decimal decimal lowest negative-zero scaled".split(),
    )
)
def test_matrix_built_three_ways_has_one_integer_form(inputs):
    """A (x) A from its Fraction rows, from config text and by the lift
    has the reference (K, E), the same rows, == and hash."""
    a_rows, spellings = inputs
    square = tuple(tuple(x * y for x in ra for y in rb) for ra in a_rows for rb in a_rows)
    tokens = iter(spell(v, how) for v, how in zip(chain(*square), spellings))
    text = f"n={len(square)}\ncell: . matrix:\n" + "".join(
        "  " + " ".join(next(tokens) for _ in row) + "\n" for row in square
    )
    a = StochasticMatrix(a_rows)
    from_rows = StochasticMatrix(square)
    built = [
        from_rows,
        read_mis_config(text).cells[0].matrix,
        kronecker_variance_lift(a, a, [0] * a.n, 0).cells[0].matrix,
    ]
    for m in built:
        assert (m.k, m.e) == reference_int_form(square)
        assert m.rows == square
        assert all(type(v) is F for row in m.rows for v in row)
        assert m == from_rows and hash(m) == hash(from_rows)


def test_write_mis_config_matches_entrywise_writer():
    from misdyn.constructions import build_baker, build_clock

    systems = [build_baker()[0], build_clock(1)[0], build_clock(2)[0]]
    rng = random.Random(53)
    for _ in range(3):
        a, b = random_stochastic(rng, 3), random_stochastic(rng, 3)
        xi = [F(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(3)]
        systems.append(kronecker_variance_lift(a, b, xi, F(rng.randint(1, 10), 30)))
    for system in systems:
        text = write_mis_config(system)
        assert text == reference_write_mis_config(system)
        assert write_mis_config(read_mis_config(text)) == text


def test_hyperplane_rejects_zero_normal():
    with pytest.raises(ValueError):
        Hyperplane((0, 0))


def test_misystem_validation():
    m = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    with pytest.raises(ValueError):
        MISystem(2, (Hyperplane((1, 1)),), (Cell("++", m),))
    with pytest.raises(ValueError):
        MISystem(2, (), (Cell("", m),), omega=F(1, 2))
    with pytest.raises(ValueError):
        MISystem(2, (), (Cell("", m),), delta=F(1, 3), omega=F(1, 4))


# ---------------------------------------------------------------------------
# Cell location and stepping


def test_locate_cell_on_discontinuity():
    m = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    sys_ = two_cell_system(m, m, normal=(1, 0))  # hyperplane x1 = 1 + delta
    x = SimplexVector((1, 0))
    assert locate_cell(sys_, x) is ON_DISCONTINUITY
    assert step(sys_, x) == x


def test_locate_cell_matches_sign_oracle():
    rng = random.Random(40)
    m = random_stochastic(rng, 3)
    planes = (Hyperplane((2, 1, F(1, 2))), Hyperplane((F(3, 4), 1, F(5, 4))))
    cells = tuple(
        Cell(p, m) for p in ("++", "+-", "-+", "--")
    )
    sys_ = MISystem(3, planes, cells, omega=F(1, 8))
    for _ in range(200):
        x = random_simplex(rng, 3)
        signs = []
        for h in planes:
            val = sum(c * xi for c, xi in zip(h.normal, x))
            signs.append(0 if val == 1 else (1 if val > 1 else -1))
        if 0 in signs:
            assert locate_cell(sys_, x) is ON_DISCONTINUITY
            continue
        idx = locate_cell(sys_, x)
        pattern = sys_.cells[idx].pattern
        assert all((p == "+") == (s > 0) for p, s in zip(pattern, signs))


def test_locate_cell_first_match_wins_and_wildcards():
    mA = StochasticMatrix([[1]])
    sys_ = MISystem(
        1,
        (Hyperplane((F(3, 2),)),),
        (Cell("*", mA, label="first"), Cell("+", mA, label="second")),
    )
    assert locate_cell(sys_, SimplexVector((1,))) == 0


def test_no_cell_match_reports_signs():
    m = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    sys_ = MISystem(2, (Hyperplane((2, 1)),), (Cell("-", m),))
    with pytest.raises(NoCellMatch) as err:
        locate_cell(sys_, SimplexVector((1, 0)))
    assert err.value.signs == (1,)


def test_step_simple_multiply():
    s = StochasticMatrix([[F(1, 2), F(1, 2)], [0, 1]], allow_zero_diagonal=True)
    sys_ = constant_system(s)
    assert step(sys_, SimplexVector((1, 0))) == SimplexVector((F(1, 2), F(1, 2)))


def test_step_preserves_simplex_exactly():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(2, 5)
        s = random_stochastic(rng, n)
        sys_ = constant_system(s)
        x = random_simplex(rng, n)
        y = step(sys_, x)
        assert sum(y) == 1 and all(c >= 0 for c in y)


def test_a_simplex_vector_start_is_kept_as_is():
    # A SimplexVector was checked when it was built, so a run keeps it
    # rather than building and summing it again.
    s = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    x0 = SimplexVector((F(1, 3), F(2, 3)))
    assert orbit(constant_system(s), x0, 2).states[0] is x0
    assert orbit(constant_system(s), (F(1, 3), F(2, 3)), 2).states[0] == x0
    with pytest.raises(ValueError, match="do not sum to 1"):
        orbit(constant_system(s), (F(1, 2), F(1, 3)), 2)


# ---------------------------------------------------------------------------
# Orbits


def test_orbit_constant_system_resolves():
    s = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
    tr = orbit(constant_system(s), SimplexVector((1, 0)), 10)
    # (1,0) -> (1/2,1/2) -> (1/2,1/2): exact repeat after two steps.
    assert tr.verdict.status == EXACT_PERIODIC
    assert tr.verdict.transient == 1 and tr.verdict.period == 1
    assert len(tr.states) == len(tr.itinerary) + 1


def test_orbit_exact_verdict_carries_the_block_tau():
    # (5/8, 3/8) -> (1/4, 3/4) -> (5/8, 3/8): the block product is rank
    # one (tau 0), while the second matrix alone has tau 1/2.
    high = StochasticMatrix([[F(1, 4), F(3, 4)], [F(1, 4), F(3, 4)]])
    low = StochasticMatrix([[1, 0], [F(1, 2), F(1, 2)]])
    sys_ = two_cell_system(high, low, normal=(2, 0))
    tr = orbit(sys_, SimplexVector((F(5, 8), F(3, 8))), 10)
    assert tr.itinerary == [0, 1]
    assert tr.verdict == PeriodVerdict(EXACT_PERIODIC, 0, 2, F(0), 10)


def test_orbit_on_discontinuity_is_fixed():
    m = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    sys_ = two_cell_system(m, m, normal=(1, 0))
    tr = orbit(sys_, SimplexVector((1, 0)), 5)
    assert all(s == tr.states[0] for s in tr.states)
    assert tr.verdict.period == 1 and tr.itinerary[0] is ON_DISCONTINUITY


def test_orbit_bit_cap():
    # An expanding denominator (powers of 3) blows past a small cap.
    s = StochasticMatrix([[F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)]])
    with pytest.raises(BitSizeExceeded) as err:
        orbit(constant_system(s), SimplexVector((1, 0)), 200, bit_cap=40)
    assert err.value.step is not None
    tr = orbit(constant_system(s), SimplexVector((1, 0)), 40, mode="exact")
    assert tr.inexact is False


def test_orbit_dyadic_mode_flags_inexact():
    s = StochasticMatrix([[F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)]])
    tr = orbit(constant_system(s), SimplexVector((1, 0)), 30, mode="dyadic", dyadic_bits=16)
    assert tr.inexact
    for state in tr.states:
        assert sum(state) == 1 and all(c >= 0 for c in state)


# ---------------------------------------------------------------------------
# Ergodicity and spectra


def test_tau_identity_and_rank_one():
    ident = StochasticMatrix([[1, 0], [0, 1]])
    assert coefficient_of_ergodicity(ident) == 1
    pi = (F(1, 3), F(2, 3))
    rank_one = StochasticMatrix([list(pi), list(pi)])
    assert coefficient_of_ergodicity(rank_one) == 0


def test_tau_submultiplicative():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(2, 5)
        a = random_stochastic(rng, n)
        b = random_stochastic(rng, n)
        prod = mat_mul(a.rows, b.rows)
        assert coefficient_of_ergodicity(prod) <= coefficient_of_ergodicity(
            a
        ) * coefficient_of_ergodicity(b)


def test_tau_extreme_point_characterization():
    # tau equals the maximum of |x^T M|_1 over the cross-polytope slice
    # x . 1 = 0, |x|_1 = 1, whose extreme points are (e_i - e_j) / 2.
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(2, 3)
        m = random_stochastic(rng, n)
        best = F(0)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                x = [F(0)] * n
                x[i], x[j] = F(1, 2), F(-1, 2)
                val = sum(abs(v) for v in vec_mat(x, m.rows))
                best = max(best, val)
        assert best == coefficient_of_ergodicity(m)


def test_primitivity_footnote_pair():
    a = StochasticMatrix(
        [[F(1, 2), F(1, 2)], [1, 0]], allow_zero_diagonal=True
    )
    b = StochasticMatrix(
        [[0, 1], [F(1, 2), F(1, 2)]], allow_zero_diagonal=True
    )
    assert is_primitive(a) and is_primitive(b)
    prod = mat_mul(a.rows, b.rows)

    class Rows:
        def __init__(self, rows):
            self.rows = rows

    assert not is_primitive(Rows(prod))


def test_primitivity_cycle_not_primitive():
    cyc = StochasticMatrix(
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]], allow_zero_diagonal=True
    )
    assert not is_primitive(cyc)

    # Oracle: powers of the 3-cycle support never go entrywise positive.
    def bool_mul(a, b):
        out = []
        for r in a:
            m = 0
            for z in range(3):
                if r >> z & 1:
                    m |= b[z]
            out.append(m)
        return out

    support = [0b010, 0b100, 0b001]
    power = support
    saw_positive = False
    for _ in range((3 - 1) ** 2 + 1):
        if all(r == 0b111 for r in power):
            saw_positive = True
        power = bool_mul(power, support)
    assert not saw_positive


def test_positive_diagonal_strongly_connected_is_primitive():
    rng = random.Random(44)
    for _ in range(50):
        m = random_stochastic(rng, rng.randint(2, 5))
        assert is_primitive(m)


def test_perron_rank_one_and_hand_solved():
    pi = (F(1, 3), F(2, 3))
    rank_one = StochasticMatrix([list(pi), list(pi)])
    got_pi, q = perron_decomposition(rank_one)
    assert tuple(got_pi) == pi
    assert all(v == 0 for row in q for v in row)

    p = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    got_pi, q = perron_decomposition(p)
    # Hand solve: pi1 = pi1/2 + pi2/4 and pi1 + pi2 = 1 give (1/3, 2/3).
    assert tuple(got_pi) == (F(1, 3), F(2, 3))
    assert mat_inf_norm(q) <= 2 * coefficient_of_ergodicity(p)


def test_perron_residual_exact_on_random():
    rng = random.Random(45)
    for _ in range(50):
        n = rng.randint(2, 5)
        p = random_stochastic(rng, n)
        pi, q = perron_decomposition(p)
        assert vec_mat(pi, p.rows) == tuple(pi)
        assert sum(pi) == 1


def test_perron_rejects_non_primitive():
    cyc = StochasticMatrix(
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]], allow_zero_diagonal=True
    )
    with pytest.raises(NotPrimitive):
        perron_decomposition(cyc)


def test_stationary_distribution_direct():
    p = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    assert tuple(stationary_distribution(p)) == (F(1, 3), F(2, 3))


def test_stationary_distribution_needs_one_closed_class():
    # {0, 1} and {2} are closed classes, so every mix of their
    # stationary laws is stationary.
    p = StochasticMatrix([[F(1, 2), F(1, 2), 0], [F(1, 4), F(3, 4), 0], [0, 0, 1]])
    with pytest.raises(NotPrimitive, match="no unique stationary distribution"):
        stationary_distribution(p)


@pytest.mark.parametrize(
    "rows",
    [
        [[F(1, 2), F(1, 2), 0], [0, 1, 0]],
        [[F(1, 2), F(1, 2)], [0, 1], [1, 0]],
        [[F(1, 2), F(1, 2)], [1]],
    ],
    ids=["wide", "tall", "ragged"],
)
@pytest.mark.parametrize(
    "solve",
    [coefficient_of_ergodicity, is_primitive, stationary_distribution, perron_decomposition],
)
def test_raw_rows_must_be_square(solve, rows):
    with pytest.raises(ValueError, match="matrix is not square"):
        solve(rows)


# ---------------------------------------------------------------------------
# Kronecker lift


def test_lift_state_corner():
    x = SimplexVector((1, 0))
    assert tuple(lift_state(x)) == (1, 0, 0, 0)


def test_lift_commutes_with_dynamics():
    rng = random.Random(46)
    for _ in range(50):
        n = rng.randint(2, 4)
        a = random_stochastic(rng, n)
        x = random_simplex(rng, n)
        left = lift_state(SimplexVector(vec_mat(x, a.rows)))
        right = vec_mat(lift_state(x), kron(a.rows, a.rows))
        assert tuple(left) == right


def test_constant_observable_always_low_variance():
    rng = random.Random(47)
    a = random_stochastic(rng, 2)
    b = random_stochastic(rng, 2)
    sys_ = kronecker_variance_lift(a, b, (F(3), F(3)), F(1, 2))
    x = random_simplex(rng, 2)
    y = lift_state(x)
    idx = locate_cell(sys_, y)
    assert sys_.cells[idx].matrix == StochasticMatrix(kron(b.rows, b.rows))
    # Degenerate hyperplane case: constant observable with threshold 1.
    sys0 = kronecker_variance_lift(a, b, (F(3), F(3)), F(1))
    assert len(sys0.hyperplanes) == 0
    assert locate_cell(sys0, y) == 0


@st.composite
def lift_inputs(draw):
    """A 1-3 state variance-threshold pair with possibly zero off-diagonal
    weights, a rational observable and threshold."""
    n = draw(st.integers(1, 3))

    def matrix():
        rows = []
        for i in range(n):
            weights = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
            weights[i] += 1
            rows.append([F(w, sum(weights)) for w in weights])
        return StochasticMatrix(rows)

    xi = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6),
                       min_size=n, max_size=n))
    threshold = draw(st.fractions(min_value=0, max_value=2, max_denominator=12))
    return matrix(), matrix(), xi, threshold


@settings(max_examples=30, deadline=None)
@given(lift_inputs())
def test_lifted_system_config_roundtrip(inputs):
    lifted = kronecker_variance_lift(*inputs)
    assert read_mis_config(write_mis_config(lifted)) == lifted


def test_lift_conjugacy_with_quadratic_reference():
    rng = random.Random(48)
    for _ in range(10):
        n = 3
        a = random_stochastic(rng, n)
        b = random_stochastic(rng, n)
        xi = tuple(F(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(n))
        threshold = F(rng.randint(1, 8), 24)
        lifted = kronecker_variance_lift(a, b, xi, threshold)
        x = random_simplex(rng, n)
        y = lift_state(x)
        for _ in range(60):
            x = quadratic_threshold_step(a, b, xi, threshold, x)
            y = step(lifted, y)
            assert y == lift_state(x)


def test_variance_identity_against_moment_form():
    rng = random.Random(49)
    for _ in range(50):
        n = rng.randint(2, 4)
        xi = tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n))
        x = random_simplex(rng, n)
        mean = sum(v * p for v, p in zip(xi, x))
        second = sum(v * v * p for v, p in zip(xi, x))
        assert variance_of(xi, x) == second - mean * mean


# ---------------------------------------------------------------------------
# Config round trip and traces


def test_config_roundtrip():
    rng = random.Random(50)
    m1 = random_stochastic(rng, 3)
    m2 = random_stochastic(rng, 3)
    sys_ = MISystem(
        3,
        (Hyperplane((1, F(9, 8), F(7, 8))),),
        (Cell("+", m1), Cell("-", m2)),
        delta=F(1, 100),
        omega=F(1, 8),
    )
    text = write_mis_config(sys_)
    assert read_mis_config(text) == sys_


def test_config_roundtrip_no_hyperplanes():
    rng = random.Random(51)
    sys_ = constant_system(random_stochastic(rng, 2))
    assert read_mis_config(write_mis_config(sys_)) == sys_


@st.composite
def config_systems(draw):
    """Random 1-5 state system with 0-2 hyperplanes of arbitrary nonzero
    rational normals, 1-3 cells with '*'-holding patterns and possibly
    zero diagonals, and a drawn omega and delta."""
    n = draw(st.integers(1, 5))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    hyperplanes = [
        Hyperplane(tuple(draw(st.lists(coeffs, min_size=n, max_size=n).filter(any))))
        for _ in range(draw(st.integers(0, 2)))
    ]
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        pattern = "".join(draw(st.sampled_from("+-*")) for _ in hyperplanes)
        rows = []
        for _ in range(n):
            weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
            rows.append([F(w, sum(weights)) for w in weights])
        cells.append(Cell(pattern, StochasticMatrix(rows, allow_zero_diagonal=True)))
    omega = draw(st.fractions(min_value=F(1, 64), max_value=F(31, 64), max_denominator=64))
    delta = draw(st.fractions(min_value=-omega, max_value=omega, max_denominator=64))
    return MISystem(n, hyperplanes, cells, delta=delta, omega=omega)


@settings(max_examples=100, deadline=None)
@given(config_systems())
def test_config_roundtrip_random(system):
    text = write_mis_config(system)
    zero_diagonal = not all(c.matrix.has_positive_diagonal() for c in system.cells)
    assert ("unchecked=1" in text.splitlines()) == zero_diagonal
    assert read_mis_config(text) == system


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigFormatError) as err:
        read_mis_config("n=2\nomega=1/4\nfoo\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ConfigFormatError):
        read_mis_config("n=2\nhyperplane: 1\n")
    with pytest.raises(ConfigFormatError):
        # Zero diagonal entries are rejected at load time.
        read_mis_config(
            "n=2\nhyperplane: 1 1\ncell: + matrix: 1/2 1/2 1 0\n"
        )


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("n=2\ncell: . matrix: 1/2 1/2\n\n# rest\n  1/2 x\n", 5, "invalid rational"),
        ("n=2\ncell: . matrix: 1/2 1/2\n  1/2 1/2 1\n", 3, "too many matrix entries"),
        ("n=2\ncell: . matrix:\n  1/2 1/2\n# end\n", 2, "matrix entries missing"),
        ("n=2\ncell: . matrix:\n  1/2 1/2\n  1/4 1/4\n", 2, "row 1 does not sum to 1"),
        ("n=1\ncell: . matrix:\nomega=1/4\n", 3, "invalid rational"),
        ("n=2\nhyperplane: 1 1\nn=3\n", 3, "n= given twice"),
    ],
    ids=[
        "bad-entry-on-its-line",
        "extra-entry-on-its-line",
        "missing-entries-on-opening-line",
        "bad-row-on-opening-line",
        "next-key-read-as-entries",
        "n-twice",
    ],
)
def test_config_error_lines(text, line, message):
    with pytest.raises(ConfigFormatError) as err:
        read_mis_config(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: {message}")


def test_trace_csv_exact_and_decimal():
    s = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    tr = orbit(constant_system(s), SimplexVector((1, 0)), 3)
    buf = io.StringIO()
    write_trace_csv(tr, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "step,cell,x_1,x_2"
    assert lines[1] == "0,0,1,0"
    assert lines[2].startswith("1,0,1/2,1/2")
    buf = io.StringIO()
    write_trace_csv(tr, buf, exact=False)
    assert "0.5" in buf.getvalue()


def test_sample_simplex_needs_a_state():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"^state count {n} must be at least 1$"):
            sample_simplex(random.Random(0), n)


def test_sample_simplex_is_exact():
    rng = random.Random(52)
    for _ in range(100):
        x = sample_simplex(rng, 4, denominator=720)
        assert sum(x) == 1 and all(c >= 0 for c in x)


def test_rational_parse_format_roundtrip():
    for text in ("3/4", "-2/7", "5", "0"):
        assert format_rational(parse_rational(text)) == text

import random
from fractions import Fraction

import pytest

from misdyn import digraph as dg
from misdyn.analysis import (
    ASYMPTOTICALLY_PERIODIC,
    EXACT_PERIODIC,
    UNRESOLVED,
    PeriodVerdict,
    PropertyUFailure,
    SweepReport,
    block_product,
    check_invariant_sums,
    delta_sweep,
    detect_period,
    estimate_eta,
    interior_grid,
    is_irreducible,
    property_u_certificate,
    weak_irreducibility_partition,
)
from misdyn.rational import mat_mul, vec_dot, vec_mat
from misdyn.system import (
    Cell,
    Hyperplane,
    MISystem,
    SimplexVector,
    StochasticMatrix,
    coefficient_of_ergodicity,
    is_primitive,
    kronecker_variance_lift,
    orbit,
    perron_decomposition,
)

from helpers import (
    random_irreducible_system,
    random_simplex,
    random_stochastic,
)

F = Fraction


def constant_system(m):
    return MISystem(m.n, (), (Cell("", m),))


# ---------------------------------------------------------------------------
# Period detection


def test_constant_primitive_matrix_is_asymptotically_periodic():
    s = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    assert coefficient_of_ergodicity(s) < 1
    verdict = detect_period(constant_system(s), SimplexVector((1, 0)), 200)
    assert verdict.status == ASYMPTOTICALLY_PERIODIC
    assert verdict.period == 1
    assert verdict.tau_block < 1


def test_exact_fixed_point_detected():
    m = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    sys_ = MISystem(
        2, (Hyperplane((1, 0)),), (Cell("+", m), Cell("-", m)), omega=F(1, 4)
    )
    verdict = detect_period(sys_, SimplexVector((1, 0)), 50)
    assert verdict.status == EXACT_PERIODIC
    assert verdict.transient == 0 and verdict.period == 1


def test_exact_periodicity_soundness_by_resimulation():
    # A two-cell flip between permutation-like contractive matrices can
    # produce genuine exact cycles; verify the contract by re-simulating.
    swap = StochasticMatrix([[0, 1], [1, 0]], allow_zero_diagonal=True)
    sys_ = constant_system(swap)
    verdict = detect_period(sys_, SimplexVector((F(1, 3), F(2, 3))), 50)
    assert verdict.status == EXACT_PERIODIC
    assert verdict.period == 2 and verdict.transient == 0
    t0, sigma = verdict.transient, verdict.period
    states = [SimplexVector((F(1, 3), F(2, 3)))]
    for _ in range(t0 + 4 * sigma):
        states.append(_advance(sys_, states[-1], 1))
    for t in range(t0, t0 + 3 * sigma):
        assert states[t] == states[t + sigma]


def test_asymptotic_contraction_certificate():
    rng = random.Random(60)
    hits = 0
    for _ in range(30):
        sys_ = random_irreducible_system(rng, 4)
        x0 = random_simplex(rng, 4)
        verdict = detect_period(sys_, x0, 2000)
        if verdict.status != ASYMPTOTICALLY_PERIODIC:
            continue
        hits += 1
        prod = block_product(
            sys_, _verified_block(sys_, x0, verdict)
        )
        tau = coefficient_of_ergodicity(prod)
        assert tau == verdict.tau_block and tau < 1
        # Contraction: distance to the block fixed point decays like tau^k.
        pi, _ = perron_decomposition(_as_rows(prod))
        x = x0
        for _ in range(verdict.transient):
            pass
        x = _advance(sys_, x0, verdict.transient)
        for k in range(1, 21):
            x = SimplexVector(vec_mat(x, prod))
            dist = sum(abs(a - b) for a, b in zip(x, pi))
            assert dist <= 2 * tau**k
    assert hits >= 20


class _as_rows:
    def __init__(self, rows):
        self.rows = rows


def _advance(sys_, x, steps):
    from misdyn.system import step

    for _ in range(steps):
        x = step(sys_, x)
    return x


def _verified_block(sys_, x0, verdict):
    from misdyn.system import locate_cell, step

    x = _advance(sys_, x0, verdict.transient)
    block = []
    for _ in range(verdict.period):
        block.append(locate_cell(sys_, x))
        x = step(sys_, x)
    return block


def test_discontinuity_start_is_fixed_point():
    m = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    sys_ = MISystem(2, (Hyperplane((1, 0)),), (Cell("+", m), Cell("-", m)))
    verdict = detect_period(sys_, SimplexVector((1, 0)), 20)
    assert verdict.status == EXACT_PERIODIC and verdict.period == 1


def test_unresolved_when_horizon_too_short():
    # Rotation-like dynamics with an irrational-angle flavor: a lazy swap
    # never exactly repeats from a generic start and needs many steps for
    # a sustained symbolic cycle below the sigma cap.
    s = StochasticMatrix([[F(1, 100), F(99, 100)], [F(99, 100), F(1, 100)]])
    sys_ = MISystem(
        2,
        (Hyperplane((F(21, 20), F(19, 20))),),
        (Cell("+", s), Cell("-", s)),
        omega=F(1, 64),
    )
    verdict = detect_period(
        sys_, SimplexVector((F(17, 64), F(47, 64))), 4, scan_interval=1 << 30
    )
    assert verdict.status in (UNRESOLVED, ASYMPTOTICALLY_PERIODIC, EXACT_PERIODIC)
    short = detect_period(
        sys_, SimplexVector((F(17, 64), F(47, 64))), 2, scan_interval=1 << 30, sigma_cap=0
    )
    assert short.status == UNRESOLVED


@pytest.mark.parametrize("mode", ["dyadic", "bogus"])
def test_detect_period_takes_exact_and_capped_modes_only(mode):
    s = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    with pytest.raises(ValueError, match="unknown arithmetic mode"):
        detect_period(constant_system(s), SimplexVector((1, 0)), 10, mode=mode)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"sustained": 0}, "sustained"),
        ({"sustained": -2}, "sustained"),
        ({"scan_interval": 0}, "scan_interval"),
        ({"sigma_cap": -1}, "sigma_cap"),
    ],
)
def test_detect_period_refuses_bad_scan_parameters(kwargs, name):
    s = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    with pytest.raises(ValueError, match=f"{name} -?[0-9]+ must be at least"):
        detect_period(constant_system(s), SimplexVector((1, 0)), 10, **kwargs)


# ---------------------------------------------------------------------------
# Ergodic renormalizer


def test_eta_constant_rank_one_is_one():
    pi = (F(1, 3), F(2, 3))
    rank_one = StochasticMatrix([list(pi), list(pi)])
    sys_ = constant_system(rank_one)
    assert estimate_eta(sys_, horizon=10, sample_budget=3) == 1


def test_eta_definitional_recheck():
    rng = random.Random(61)
    sys_ = random_irreducible_system(rng, 4)
    eta = estimate_eta(sys_, horizon=60, sample_budget=12, rng=rng)
    assert eta is not None
    # Fresh samples: every eta-window must be primitive with tau < 1/2.
    from misdyn.system import is_primitive, locate_cell, step

    for _ in range(40):
        x = random_simplex(rng, 4)
        cells = []
        for _ in range(40):
            c = locate_cell(sys_, x)
            if c is None:
                break
            cells.append(c)
            x = step(sys_, x)
        for start in range(len(cells) - eta + 1):
            window = cells[start : start + eta]
            prod = block_product(sys_, window)
            assert is_primitive(_as_rows(prod))
            assert coefficient_of_ergodicity(prod) < F(1, 2)


def test_eta_exhaustive_mode_sound():
    rng = random.Random(62)
    sys_ = random_irreducible_system(rng, 3)
    eta_symbolic = estimate_eta(sys_, horizon=6, sample_budget=0, exhaustive=True)
    assert eta_symbolic is not None
    eta_sampled = estimate_eta(sys_, horizon=40, sample_budget=10, rng=rng)
    assert eta_sampled is not None and eta_sampled <= eta_symbolic


def test_eta_refuses_a_horizon_or_sample_budget_below_one():
    sys_ = constant_system(StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]]))
    for exhaustive in (False, True):
        with pytest.raises(ValueError, match="^horizon must be at least 1$"):
            estimate_eta(sys_, horizon=0, sample_budget=3, exhaustive=exhaustive)
    with pytest.raises(ValueError, match="^sample_budget 0 must be at least 1$"):
        estimate_eta(sys_, horizon=5, sample_budget=0)
    assert estimate_eta(sys_, horizon=5, sample_budget=0, exhaustive=True) == 1


def test_block_product_refuses_an_empty_block_or_a_bad_index():
    from misdyn.constructions import build_baker

    system, _ = build_baker()
    with pytest.raises(ValueError, match="^block needs at least one cell index$"):
        block_product(system, [])
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=f"^cell index {bad} outside 0..1$"):
            block_product(system, [0, bad])


def test_eta_unbounded_for_reducible_flip_flop():
    # Both cells keep two absorbing halves, so no window product is ever
    # primitive and the renormalizer does not exist.
    m1 = StochasticMatrix(
        [[F(1, 2), F(1, 2), 0, 0], [F(1, 2), F(1, 2), 0, 0],
         [0, 0, F(1, 2), F(1, 2)], [0, 0, F(1, 2), F(1, 2)]]
    )
    m2 = StochasticMatrix(
        [[F(3, 4), F(1, 4), 0, 0], [F(1, 4), F(3, 4), 0, 0],
         [0, 0, F(3, 4), F(1, 4)], [0, 0, F(1, 4), F(3, 4)]]
    )
    sys_ = MISystem(
        4,
        (Hyperplane((2, 1, 1, F(1, 2))),),
        (Cell("+", m1), Cell("-", m2)),
        omega=F(1, 8),
    )
    assert estimate_eta(sys_, horizon=12, sample_budget=6) is None


# ---------------------------------------------------------------------------
# Irreducibility structure


def test_is_irreducible():
    rng = random.Random(63)
    sys_ = random_irreducible_system(rng, 4)
    assert is_irreducible(sys_)
    sink = StochasticMatrix(
        [[1, 0, 0], [F(1, 2), F(1, 4), F(1, 4)], [0, F(1, 2), F(1, 2)]]
    )
    bad = MISystem(3, (), (Cell("", sink),))
    assert not is_irreducible(bad)


def test_irreducible_windows_become_cliques():
    # Any n consecutive itinerary supports multiply to a clique: at every
    # step the reach set of each vertex grows until it is everything.
    rng = random.Random(64)
    from misdyn.system import locate_cell, step

    for _ in range(10):
        n = rng.randint(2, 6)
        sys_ = random_irreducible_system(rng, n)
        assert is_irreducible(sys_)
        x = random_simplex(rng, n)
        supports = []
        for _ in range(3 * n):
            c = locate_cell(sys_, x)
            if c is None:
                break
            supports.append(sys_.cells[c].matrix.support())
            x = step(sys_, x)
        for start in range(len(supports) - n + 1):
            assert dg.is_clique(dg.cumulant(supports[start : start + n]))


def test_weak_irreducibility_two_blocks():
    # Two coupled halves: the hyperplane reads block two, the matrices
    # never connect the blocks.
    def block_mat(p, q):
        return StochasticMatrix(
            [
                [1 - p, p, 0, 0],
                [p, 1 - p, 0, 0],
                [0, 0, 1 - q, q],
                [0, 0, q, 1 - q],
            ]
        )

    m_plus = block_mat(F(1, 3), F(1, 5))
    m_minus = block_mat(F(1, 7), F(2, 5))
    sys_ = MISystem(
        4,
        (Hyperplane((0, 0, 2, F(2, 3))),),
        (Cell("+", m_plus), Cell("-", m_minus)),
        omega=F(1, 8),
    )
    partition = weak_irreducibility_partition(sys_)
    assert partition == [frozenset({0, 1}), frozenset({2, 3})]
    assert not is_irreducible(sys_)

    x0 = SimplexVector((F(1, 4), F(1, 4), F(3, 8), F(1, 8)))
    tr = orbit(sys_, x0, 60)
    assert check_invariant_sums(sys_, partition, tr)


def test_weak_irreducibility_single_block_for_irreducible():
    rng = random.Random(65)
    sys_ = random_irreducible_system(rng, 4)
    assert weak_irreducibility_partition(sys_) == [frozenset(range(4))]


def test_weak_irreducibility_rejects_cross_edges():
    crossing = StochasticMatrix(
        [
            [F(1, 2), F(1, 4), F(1, 4), 0],
            [F(1, 2), F(1, 2), 0, 0],
            [0, 0, F(1, 2), F(1, 2)],
            [0, 0, F(1, 2), F(1, 2)],
        ]
    )
    sys_ = MISystem(4, (), (Cell("", crossing),))
    assert weak_irreducibility_partition(sys_) is None


def cycle_matrix(n, blocks=None, loop=F(1, 2)):
    """Each vertex keeps `loop` and passes the rest to its successor on a
    cycle through its block (one block of all n vertices by default)."""
    blocks = blocks or [range(n)]
    rows = [[F(0)] * n for _ in range(n)]
    for block in blocks:
        block = list(block)
        for k, i in enumerate(block):
            rows[i][i] += loop
            rows[i][block[(k + 1) % len(block)]] += 1 - loop
    return StochasticMatrix(rows, allow_zero_diagonal=True)


def test_support_checks_have_no_state_limit():
    # Support digraphs past 64 vertices: a 65-state cycle, and 81-state
    # Kronecker lifts of 9-state pairs.
    m = cycle_matrix(65)
    assert is_primitive(m)
    pi, q = perron_decomposition(m)
    assert tuple(pi) == (F(1, 65),) * 65
    sys_ = constant_system(m)
    assert is_irreducible(sys_)
    assert weak_irreducibility_partition(sys_) == [frozenset(range(65))]
    cycle = cycle_matrix(65, loop=0)
    assert not is_primitive(cycle)
    support = cycle.support()
    assert all(support.has_edge(i, (i + 1) % 65) for i in range(65))
    assert support.edge_count() == 65 and support.edge_count(include_loops=True) == 130
    # The public constructor and the text format take what the kernel built.
    assert dg.Digraph(support.n, support.rows) == support
    assert dg.read_sequence_text(dg.write_sequence_text([support])) == [support]

    xi = range(9)
    lifted = kronecker_variance_lift(cycle_matrix(9), cycle_matrix(9, loop=F(1, 3)), xi, 1)
    assert lifted.n == 81 and len(lifted.cells) == 2
    assert all(is_primitive(cell.matrix) for cell in lifted.cells)
    assert weak_irreducibility_partition(lifted) == [frozenset(range(81))]

    # Two closed classes {0..3} and {4..8} lift to the four products of
    # classes, as lifted states (i, j) sit at index 9 * i + j.
    halves = [range(4), range(4, 9)]
    a, b = cycle_matrix(9, halves), cycle_matrix(9, halves, loop=F(1, 3))
    lifted = kronecker_variance_lift(a, b, xi, 1)
    assert not any(is_primitive(cell.matrix) for cell in lifted.cells)
    assert not is_irreducible(lifted)
    assert weak_irreducibility_partition(lifted) == [
        frozenset(9 * i + j for i in p for j in q) for p in halves for q in halves
    ]


def test_invariant_sums_detect_broken_block():
    leaky = StochasticMatrix(
        [
            [F(1, 2), F(1, 4), F(1, 4), 0],
            [F(1, 2), F(1, 2), 0, 0],
            [0, 0, F(1, 2), F(1, 2)],
            [0, 0, F(1, 2), F(1, 2)],
        ]
    )
    sys_ = MISystem(4, (), (Cell("", leaky),))
    partition = [frozenset({0, 1}), frozenset({2, 3})]
    x0 = SimplexVector((F(1, 4), F(1, 4), F(1, 4), F(1, 4)))
    tr = orbit(sys_, x0, 10)
    assert not check_invariant_sums(sys_, partition, tr)


def test_invariant_sums_trivial_for_irreducible():
    rng = random.Random(66)
    sys_ = random_irreducible_system(rng, 3)
    x0 = random_simplex(rng, 3)
    tr = orbit(sys_, x0, 20)
    assert check_invariant_sums(sys_, [frozenset(range(3))], tr)


# ---------------------------------------------------------------------------
# Constancy certificates


def test_certificate_rank_one_family():
    pi = SimplexVector([F(1, 3)] * 3)
    rank_one = StochasticMatrix([list(pi)] * 3)
    u = property_u_certificate([rank_one] * 8, [1, 3, 5, 7], (1, 2, 3))
    assert u == (1, 0, 0, 0)


def test_certificate_all_ones_footnote_form():
    # For the flat matrix, x^T (1 1^T / n) u = 1/n-weighted constant; the
    # uniform u certifies constancy.
    flat = StochasticMatrix([[F(1, 3)] * 3] * 3)
    u = property_u_certificate([flat], [1], (1, 1, 1))
    assert sum(u) == 1
    prod = flat.rows
    vals = [vec_dot(row, (1, 1, 1)) * u[0] for row in prod]
    assert max(vals) == min(vals)


def test_certificate_random_families_verified_constant():
    rng = random.Random(67)
    for _ in range(30):
        mats = [random_stochastic(rng, 3) for _ in range(8)]
        theta = sorted(rng.sample(range(1, 9), 4))
        a = tuple(F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(3))
        u = property_u_certificate(mats, theta, a)
        assert sum(u) == 1
        # Independent constancy re-check over fresh simplex points.
        prefix = None
        cols = []
        acc = None
        for k, m in enumerate(mats, start=1):
            acc = m.rows if acc is None else mat_mul(acc, m.rows)
            if k in theta:
                cols.append(tuple(vec_dot(row, a) for row in acc))
        for _ in range(100):
            x = random_simplex(rng, 3)
            val = sum(
                u[i] * vec_dot(x, cols[i]) for i in range(len(theta))
            )
            if _ == 0:
                first = val
            assert val == first


@pytest.mark.parametrize(
    "sizes, theta, a, message",
    [
        ((3, 3, 3, 3), [1, 2, 3, 4], (1, 2), "a has 2 entries for 3-state matrices"),
        ((3, 3, 3, 3), [1, 2, 3, 4], (1, 2, 3, 4, 5), "a has 5 entries"),
        ((3, 2, 3, 2), [1, 2, 3, 4], (1, 2, 3), "matrices differ in size"),
        ((3, 3, 3, 3), [], (1, 2, 3), "theta must not be empty"),
    ],
    ids=["a-short", "a-long", "mixed-sizes", "theta-empty"],
)
def test_certificate_rejects_mismatched_input(sizes, theta, a, message):
    rng = random.Random(70)
    mats = [random_stochastic(rng, n) for n in sizes]
    with pytest.raises(ValueError, match=message):
        property_u_certificate(mats, theta, a)


def test_certificate_rejects_bad_theta():
    rng = random.Random(68)
    mats = [random_stochastic(rng, 3) for _ in range(4)]
    with pytest.raises(ValueError):
        property_u_certificate(mats, [2, 2, 3], (1, 0, 0))
    with pytest.raises(ValueError):
        property_u_certificate(mats, [0, 1], (1, 0, 0))


# ---------------------------------------------------------------------------
# Delta sweep


def test_sweep_constant_system_all_period_one():
    s = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    sys_ = constant_system(s)
    grid = interior_grid(sys_.omega, 8)
    rng = random.Random(69)
    samples = [random_simplex(rng, 2) for _ in range(2)]
    report = delta_sweep(sys_, grid, samples, 200)
    assert len(report.entries) == 16
    assert all(e.verdict.period == 1 for e in report.entries)
    assert report.unresolved_fraction() == 0.0
    assert report.period_histogram() == {1: 16}


def test_sweep_baker_mostly_unresolved():
    # The chaotic five-state system never certifies: states never repeat
    # exactly (one block contracts by 2/3 each step) and every block
    # product keeps two absorbing rows, pinning its tau at one.
    from misdyn.constructions import build_baker

    system, sampler = build_baker()
    rng = random.Random(71)
    grid = interior_grid(system.omega, 8)
    samples = [sampler(rng) for _ in range(2)]
    report = delta_sweep(system, grid, samples, 300)
    assert report.unresolved_fraction() >= 0.9


def test_sweep_rejects_grid_outside_omega():
    s = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    sys_ = constant_system(s)
    with pytest.raises(ValueError):
        delta_sweep(sys_, [F(1, 2)], [SimplexVector((1, 0))], 10)


def test_sweep_raises_the_callers_errors():
    sys_ = constant_system(StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]]))
    with pytest.raises(ValueError, match="start vector has 3 coordinates"):
        delta_sweep(sys_, [0], [SimplexVector((1, 0, 0))], 10)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        delta_sweep(sys_, [0], [SimplexVector((1, 0))], 0)


def test_sweep_records_a_run_without_a_cell_and_goes_on():
    import io

    # Only the side 2 x_1 < 1 + delta has a cell: the start (1, 0) meets
    # none, while (0, 1) sits still under the identity.
    sys_ = MISystem(
        2, (Hyperplane((2, 0)),), (Cell("-", StochasticMatrix([[1, 0], [0, 1]])),)
    )
    report = delta_sweep(sys_, [F(-1, 8), F(1, 8)], [(1, 0), (0, 1)], 10)
    assert [e.error for e in report.entries] == ["NoCellMatch", None] * 2
    buf = io.StringIO()
    report.write_csv(buf)
    assert buf.getvalue().splitlines()[1:] == [
        "-1/8,0,error(NoCellMatch),,,",
        "-1/8,1,exact-periodic,0,1,1",
        "1/8,0,error(NoCellMatch),,,",
        "1/8,1,exact-periodic,0,1,1",
    ]
    assert report.resolved_fraction() == 0.5


def test_interior_grid_excludes_endpoints():
    grid = interior_grid(F(1, 4), 64)
    assert len(grid) == 64
    assert all(-F(1, 4) < d < F(1, 4) for d in grid)
    assert len(set(grid)) == 64


def test_sweep_csv_shape():
    import io

    s = StochasticMatrix([[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
    sys_ = constant_system(s)
    grid = interior_grid(sys_.omega, 4)
    report = delta_sweep(sys_, grid, [SimplexVector((1, 0))], 100)
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "delta,x0_index,status,transient,period,tau_block"
    assert len(lines) == 5

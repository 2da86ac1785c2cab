import random
from fractions import Fraction

import pytest

from misdyn.analysis import EXACT_PERIODIC, UNRESOLVED, detect_period
from misdyn.constructions import (
    BAKER_A,
    BAKER_B,
    BASE_PERIOD,
    ClockBuildError,
    DegenerateCoordinate,
    baker_coordinates,
    build_baker,
    build_clock,
    clock_spec,
    in_invariant_wedge,
    measure_clock_period,
)
from misdyn.system import ON_DISCONTINUITY, locate_cell, orbit, step

F = Fraction


def doubling_map(z):
    """Piecewise-doubling interval map; the oracle for the z dynamics."""
    return 2 * z + 1 if z <= 0 else 2 * z - 1


def clock_cycle_count_oracle(p):
    """Ring count per outer cycle from the scalar accumulator recurrence:
    z starts at 0 and gains (1 - z) * 2^(1-p) while z <= 1/2, then one
    more ring resets. Independent of the system machinery."""
    z = F(0)
    rings = 0
    while True:
        rings += 1
        if z > F(1, 2):
            return rings
        z += (1 - z) * F(1, 2 ** (p - 1))


# ---------------------------------------------------------------------------
# Clock


def test_clock_level0_period_four():
    verdict = measure_clock_period(0, 100)
    assert verdict.status == EXACT_PERIODIC
    assert verdict.transient == 0 and verdict.period == 4


def test_clock_period_counts_exact_recurrences_only():
    # Three steps are short of the period 4. The block scan would call
    # the halving cell asymptotically periodic, but the clock's
    # measurement takes exact recurrences only, at the horizon too.
    assert measure_clock_period(0, 3).status == UNRESOLVED


def test_clock_level0_states_halve_then_reset():
    system, x0 = build_clock(0)
    tr = orbit(system, x0, 8)
    lead = [s[0] for s in tr.states[:5]]
    assert lead == [1, F(1, 2), F(1, 4), F(1, 8), 1]
    # The initial cell is the halving branch.
    assert system.cells[locate_cell(system, x0)].label == "halve"


def test_clock_level1_period_matches_ring_oracle():
    rings = clock_cycle_count_oracle(BASE_PERIOD)
    expected = rings * BASE_PERIOD
    assert expected == 28  # golden, pinned by the scalar recurrence
    verdict = measure_clock_period(1, 2000)
    assert verdict.status == EXACT_PERIODIC
    assert verdict.transient == 0
    assert verdict.period == expected


def test_clock_level1_z_increments_exact():
    system, x0 = build_clock(1)
    spec = clock_spec(1)
    zi = spec.z_index(1)
    m = spec.group_mass
    tr = orbit(system, x0, 60, mode="exact")
    z_values = [s[zi] for s in tr.states]
    lo, hi = F(1, 2**BASE_PERIOD), F(1, 2 ** (BASE_PERIOD - 1))
    increments = []
    for a, b in zip(z_values, z_values[1:]):
        if b > a:
            increments.append((b - a) / m)  # gadget-local units
        else:
            assert b == a or b == 0  # constant between rings, or reset
    assert increments, "no accumulator gains observed"
    assert all(lo <= inc <= hi for inc in increments)
    # Nondecreasing between resets.
    run = []
    for a, b in zip(z_values, z_values[1:]):
        if b < a:
            run = []
        else:
            run.append(b - a)
            assert b >= a


def test_clock_level1_growth_exceeds_exponential_floor():
    # One added level multiplies the period by at least 2^p / p here:
    # sigma_1 = 28 >= 2^4 = 16 while sigma_0 = 4.
    v0 = measure_clock_period(0, 100)
    v1 = measure_clock_period(1, 2000)
    assert v1.period >= 2**v0.period
    assert v1.period % v0.period == 0


def test_clock_level2_no_repeat_within_long_horizon():
    system, x0 = build_clock(2)
    horizon = 1100
    verdict = detect_period(
        system, x0, horizon, scan_interval=1 << 30, mode="exact"
    )
    # No state recurs at any distance <= 1024 inside the window, so no
    # period up to 2^10 is compatible with the observed orbit.
    assert verdict.status != EXACT_PERIODIC or verdict.period > 1024


def test_clock_level2_outer_accumulator_strictly_grows():
    system, x0 = build_clock(2)
    spec = clock_spec(2)
    zi = spec.z_index(2)
    tr = orbit(system, x0, 300, mode="exact")
    z_values = [s[zi] for s in tr.states]
    gains = [b - a for a, b in zip(z_values, z_values[1:]) if b != a]
    assert gains and all(g > 0 for g in gains)
    # The outer gadget rings once per inner period.
    v1 = measure_clock_period(1, 2000)
    first_gain_at = next(
        t for t, (a, b) in enumerate(zip(z_values, z_values[1:])) if b != a
    )
    later = [
        t
        for t, (a, b) in enumerate(zip(z_values, z_values[1:]))
        if b != a and t > first_gain_at
    ]
    assert all(
        (t - first_gain_at) % v1.period == 0 for t in later
    )


def test_clock_level3_transient_transfer_clears_the_outer_detector():
    # Gadget 2 starts one halving in and first transfers when gadget 1
    # first resets, p = 28 steps in, so its x jumps to m * (1 - 2^-29).
    # A gadget-3 threshold placed there froze the orbit on a hyperplane.
    system, x0 = build_clock(3)
    spec = clock_spec(3)
    m, xi = spec.group_mass, spec.gadget_start(2)
    tr = orbit(system, x0, 400, mode="exact")
    assert ON_DISCONTINUITY not in tr.itinerary and len(tr.states) == 401
    first = next(b[xi] for a, b in zip(tr.states, tr.states[1:]) if b[xi] > a[xi])
    assert first == m * (1 - F(1, 2**29))
    # Hyperplanes: base, then ring and accumulator test per gadget.
    threshold = 1 / system.hyperplanes[5].normal[xi]
    assert first < threshold < m
    assert measure_clock_period(3, 400).status != EXACT_PERIODIC


def test_clock_rejects_oversized_and_unmeasurable_levels():
    with pytest.raises(ClockBuildError):
        clock_spec(21)  # 2 + 63 states
    # Level 4 needs the level-2 period for its detector, which is far
    # beyond any practical horizon, so clock_spec refuses it before any
    # stepping.
    with pytest.raises(ClockBuildError, match="level-2 period"):
        clock_spec(4)
    with pytest.raises(ClockBuildError):
        build_clock(4, inner_horizon=200)


def test_clock_masses_and_layout():
    spec = clock_spec(2)
    assert spec.n == 8
    assert spec.group_mass == F(1, 3)
    assert spec.gadget_start(1) == 2 and spec.gadget_start(2) == 5
    system, x0 = build_clock(2)
    assert sum(x0[0:2]) == spec.group_mass
    assert sum(x0[2:5]) == spec.group_mass
    assert sum(x0[5:8]) == spec.group_mass
    # One cell per base mode and gadget modes, the last gadget varying fastest.
    gadget = (("-*", "halve"), ("+-", "transfer"), ("++", "reset"))
    expected = [
        (base + s1 + s2, f"{name},g1:{n1},g2:{n2}")
        for base, name in (("+", "halve"), ("-", "reset"))
        for s1, n1 in gadget
        for s2, n2 in gadget
    ]
    assert [(c.pattern, c.label) for c in system.cells] == expected
    assert system.cells[1].label == "halve,g1:halve,g2:transfer"


# ---------------------------------------------------------------------------
# Baker


def test_baker_matrices_are_stochastic_with_positive_diagonals():
    for m in (BAKER_A, BAKER_B):
        assert m.has_positive_diagonal()
        for row in m.rows:
            assert sum(row) == 1 and all(v >= 0 for v in row)


def test_baker_branch_selection():
    system, sampler = build_baker()
    x = sampler(random.Random(0))
    # Sign of x1 + x2 - x4 picks the matrix.
    val = x[0] + x[1] - x[3]
    idx = locate_cell(system, x)
    assert (idx == 0) == (val > 0)


def test_baker_wedge_invariance():
    system, sampler = build_baker()
    rng = random.Random(1)
    for _ in range(5):
        x = sampler(rng)
        assert in_invariant_wedge(x)
        for _ in range(300):
            x = step(system, x)
            assert in_invariant_wedge(x)
            assert x[2] >= 0


def test_baker_block_sum_invariant_and_x4_path_branch_free():
    # Rows four and five agree across both matrices, so those coordinates
    # evolve independently of the branch taken: x4 contracts by 2/3 per
    # step and x4 + x5 stays fixed.
    system, sampler = build_baker()
    rng = random.Random(2)
    x = sampler(rng)
    total = x[3] + x[4]
    for t in range(200):
        x_next = step(system, x)
        assert x_next[3] == x[3] * F(2, 3)
        assert x_next[3] + x_next[4] == total
        x = x_next


def test_baker_coordinates_plugin():
    # x1 = x4/4, x2 = x4/2 gives y = 0 and z = -1.
    x = (F(1, 16), F(1, 8), F(1 - 0) - F(1, 16) - F(1, 8) - F(1, 4), F(1, 4), F(0))
    from misdyn.system import SimplexVector

    y, z = baker_coordinates(SimplexVector(x))
    assert y == 0 and z == -1
    with pytest.raises(DegenerateCoordinate):
        baker_coordinates(SimplexVector((F(1, 8), F(1, 8), F(1, 2), F(1, 4), 0)))


def test_baker_z_follows_doubling_map_exactly():
    system, sampler = build_baker()
    rng = random.Random(3)
    for _ in range(4):
        x = sampler(rng)
        _, z = baker_coordinates(x)
        assert -1 <= z < 1
        for _ in range(250):
            x = step(system, x)
            z = doubling_map(z)
            _, z_now = baker_coordinates(x)
            assert z_now == z


def test_baker_branch_equivalence_of_descriptions():
    # The cell sign (x1 + x2 > x4) must agree with the y-coordinate
    # branch split: the left branch is y < -1, the right -1 <= y <= 0.
    system, sampler = build_baker()
    rng = random.Random(4)
    x = sampler(rng)
    for _ in range(300):
        idx = locate_cell(system, x)
        if idx is ON_DISCONTINUITY:
            break
        y, _ = baker_coordinates(x)
        if idx == 0:
            assert y < -1
        else:
            assert -1 <= y <= 0
        x = step(system, x)


def test_baker_sensitive_dependence():
    # Two starts with z within 2^-20 separate beyond 1/2 within 60 steps.
    system, _ = build_baker()
    quarter = F(1, 4)

    def from_z(z):
        y = (1 + z) / (z - 1)
        d = F(1, 64)  # x4 - 2 x1
        x1 = (quarter - d) / 2
        x2 = (quarter - y * d) / 2
        x3 = 1 - x1 - x2 - quarter
        from misdyn.system import SimplexVector

        return SimplexVector((x1, x2, x3, quarter, F(0)))

    z0 = F(-1, 3)
    z1 = z0 + F(1, 2**20)
    xa, xb = from_z(z0), from_z(z1)
    assert in_invariant_wedge(xa) and in_invariant_wedge(xb)
    za, zb = baker_coordinates(xa)[1], baker_coordinates(xb)[1]
    assert abs(za - zb) <= F(1, 10**6) * 2
    separated = False
    for _ in range(60):
        xa, xb = step(system, xa), step(system, xb)
        za, zb = baker_coordinates(xa)[1], baker_coordinates(xb)[1]
        if abs(za - zb) > F(1, 2):
            separated = True
            break
    assert separated

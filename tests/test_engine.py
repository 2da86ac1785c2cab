"""Property tests: the integer orbit engine behind step, orbit and
detect_period against the plain-Fraction reference in helpers.py."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misdyn.analysis import (
    _all_windows_good,
    _observed_itinerary,
    block_product,
    detect_period,
    weak_irreducibility_partition,
)
from misdyn.system import (
    EXACT_PERIODIC,
    BitSizeExceeded,
    Cell,
    Hyperplane,
    MISystem,
    NoCellMatch,
    StochasticMatrix,
    coefficient_of_ergodicity,
    is_primitive,
    locate_cell,
    orbit,
    step,
)

from helpers import (
    reference_block_product,
    reference_detect_period,
    reference_orbit,
    reference_primitive,
    reference_step,
    reference_tau,
    reference_weak_partition,
)

F = Fraction

SETTINGS = settings(max_examples=60, deadline=None)


def simplex_points(n):
    weights = st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any)
    return weights.map(lambda w: tuple(F(v, sum(w)) for v in w))


@st.composite
def systems(draw, max_planes=2):
    """Random 2-5 state system: 0-2 hyperplanes near the unit normal, one
    cell per strict sign pattern. Cells may have zero diagonals (the
    unchecked case of the config format)."""
    n = draw(st.integers(2, 5))
    planes = draw(st.integers(0, max_planes))
    hyperplanes = [
        Hyperplane(tuple(1 + F(draw(st.integers(-3, 3)), 8) for _ in range(n)))
        for _ in range(planes)
    ]
    cells = []
    for pattern in itertools.product("+-", repeat=planes):
        rows = []
        for i in range(n):
            weights = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
            if not any(weights):
                weights[(i + 1) % n] = 1
            rows.append([F(w, sum(weights)) for w in weights])
        matrix = StochasticMatrix(rows, allow_zero_diagonal=True)
        cells.append(Cell("".join(pattern), matrix))
    delta = F(draw(st.integers(-3, 3)), 32)
    return MISystem(n, hyperplanes, cells, delta=delta, omega=F(1, 8))


@st.composite
def system_and_start(draw, max_planes=2):
    system = draw(systems(max_planes))
    return system, draw(simplex_points(system.n))


def outcome(fn, *args, **kwargs):
    """The value of fn, or the type, step and message of what it raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except (BitSizeExceeded, ValueError) as exc:
        return "raised", type(exc), getattr(exc, "step", None), str(exc)


@SETTINGS
@given(system_and_start())
def test_step_matches_reference(case):
    system, x = case
    _, nxt = reference_step(system, x)
    assert step(system, x) == nxt


@SETTINGS
@given(system_and_start(), st.integers(1, 40))
def test_orbit_matches_reference(case, horizon):
    system, x0 = case
    states, itinerary, recurrence, _ = reference_orbit(system, x0, horizon)
    trace = orbit(system, x0, horizon, mode="exact")
    assert trace.states == states
    assert trace.itinerary == itinerary
    if recurrence is None:
        assert trace.verdict.status != EXACT_PERIODIC
    else:
        verdict = trace.verdict
        assert (verdict.status, verdict.transient, verdict.period) == (EXACT_PERIODIC, *recurrence)
    # estimate_eta's itinerary runs on past recurrences and stops at a
    # hyperplane.
    observed, x = [], x0
    for _ in range(horizon):
        cell, x = reference_step(system, x)
        if cell is None:
            break
        observed.append(cell)
    assert _observed_itinerary(system, x0, horizon) == observed


@SETTINGS
@given(systems(max_planes=1), st.data())
def test_start_on_a_hyperplane_freezes(system, data):
    # Tilt a normal so the plane passes through the start; the map is the
    # identity there, so the orbit recurs at once.
    x0 = data.draw(simplex_points(system.n))
    r = [F(data.draw(st.integers(-4, 4)), 8) for _ in range(system.n)]
    shift = sum(a * c for a, c in zip(r, x0))
    normal = tuple(1 + system.delta + a - shift for a in r)
    if not any(normal):
        return
    planes = (Hyperplane(normal),) + system.hyperplanes[1:]
    cells = system.cells if system.hyperplanes else (
        Cell("+", system.cells[0].matrix), Cell("-", system.cells[0].matrix))
    on_plane = MISystem(system.n, planes, cells, delta=system.delta, omega=system.omega)
    trace = orbit(on_plane, x0, 5)
    assert trace.itinerary == [None]
    assert trace.states == [x0, x0]
    assert (trace.verdict.transient, trace.verdict.period) == (0, 1)
    assert step(on_plane, x0) == x0
    verdict = detect_period(on_plane, x0, 5)
    assert (verdict.status, verdict.period, verdict.tau_block) == ("exact-periodic", 1, None)


@SETTINGS
@given(system_and_start(), st.integers(4, 60))
def test_bit_cap_raises_at_the_reference_step(case, bit_cap):
    system, x0 = case
    expected = outcome(reference_orbit, system, x0, 30, bit_cap=bit_cap)
    got = outcome(orbit, system, x0, 30, mode="capped", bit_cap=bit_cap)
    if expected[0] == "raised":
        assert got == expected
    else:
        assert got[0] == "ok" and got[1].states == expected[1][0]


@SETTINGS
@given(system_and_start(), st.integers(1, 20))
def test_dyadic_mode_matches_reference(case, bits):
    system, x0 = case
    expected = outcome(reference_orbit, system, x0, 30, dyadic_bits=bits)
    got = outcome(orbit, system, x0, 30, mode="dyadic", dyadic_bits=bits)
    if expected[0] == "raised":
        assert got[:2] == expected[:2]
        return
    states, itinerary, recurrence, inexact = expected[1]
    trace = got[1]
    assert trace.states == states and trace.itinerary == itinerary
    assert trace.inexact == inexact
    if recurrence is not None:
        assert (trace.verdict.transient, trace.verdict.period) == recurrence


@SETTINGS
@given(
    system_and_start(),
    st.integers(1, 60),
    st.integers(1, 3),
    st.integers(1, 8),
    st.integers(0, 64),
)
def test_detect_period_matches_reference(case, horizon, sustained, scan_interval, sigma_cap):
    system, x0 = case
    kwargs = dict(sustained=sustained, scan_interval=scan_interval, sigma_cap=sigma_cap)
    expected, states = reference_detect_period(system, x0, horizon, **kwargs)
    verdict, trace = detect_period(
        system, x0, horizon, mode="exact", return_trace=True, **kwargs
    )
    assert (verdict.status, verdict.transient, verdict.period, verdict.tau_block) == expected
    assert trace.states == states
    assert trace.verdict is verdict
    if verdict.tau_block is not None:
        if verdict.status == "exact-periodic":
            block = trace.itinerary[verdict.transient :]
        else:
            block = trace.itinerary[-verdict.period :]
        assert verdict.tau_block == reference_tau(reference_block_product(system, block))
    if sigma_cap == 0:  # exact recurrences only, as in orbit
        assert verdict == orbit(system, x0, horizon, mode="exact").verdict


@st.composite
def blocked_systems(draw):
    """Random 1-6 state system with 0-2 hyperplanes and 1-4 cells whose
    patterns may hold '*' and need not cover every sign vector. Rows are
    sparse and may have zero diagonals; half the time every cell keeps
    its support inside the blocks of one random vertex partition, so
    weak irreducibility partitions are common."""
    n = draw(st.integers(1, 6))
    label = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    confined = draw(st.booleans())
    planes = draw(st.integers(0, 2))
    hyperplanes = [
        Hyperplane(tuple(1 + F(draw(st.integers(-3, 3)), 8) for _ in range(n)))
        for _ in range(planes)
    ]
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        pattern = "".join(draw(st.sampled_from("+-*")) for _ in range(planes))
        rows = []
        for i in range(n):
            allowed = [j for j in range(n) if not confined or label[j] == label[i]]
            weights = [draw(st.integers(0, 3)) if j in allowed else 0 for j in range(n)]
            if not any(weights):
                weights[draw(st.sampled_from(allowed))] = 1
            rows.append([F(w, sum(weights)) for w in weights])
        cells.append(Cell(pattern, StochasticMatrix(rows, allow_zero_diagonal=True)))
    delta = F(draw(st.integers(-3, 3)), 32)
    return MISystem(n, hyperplanes, cells, delta=delta, omega=F(1, 8))


@settings(max_examples=150, deadline=None)
@given(blocked_systems(), st.data())
def test_shared_integer_paths_match_references(system, data):
    """tau, block products, primitivity, cell lookup and the weak
    irreducibility partition against plain-Fraction and edge-set
    references."""
    for cell in system.cells:
        rows = cell.matrix.rows
        assert coefficient_of_ergodicity(cell.matrix) == reference_tau(rows)
        assert is_primitive(cell.matrix) == reference_primitive(rows)
    indices = st.integers(0, len(system.cells) - 1)
    block = data.draw(st.lists(indices, min_size=1, max_size=4))
    expected = reference_block_product(system, block)
    prod = block_product(system, block)
    assert prod == expected
    tau = reference_tau(expected)
    assert coefficient_of_ergodicity(prod) == tau
    assert is_primitive(prod) == reference_primitive(expected)
    assert _all_windows_good(system, [tuple(block)]) == (
        reference_primitive(expected) and tau < F(1, 2)
    )
    x = data.draw(simplex_points(system.n))
    try:
        cell, _ = reference_step(system, x)
    except NoCellMatch as exc:
        with pytest.raises(NoCellMatch) as err:
            locate_cell(system, x)
        assert err.value.signs == exc.signs
    else:
        assert locate_cell(system, x) == cell
    assert weak_irreducibility_partition(system) == reference_weak_partition(system)


def three_state_system():
    m = StochasticMatrix([[F(1, 2), F(1, 2), 0], [0, F(1, 2), F(1, 2)], [F(1, 2), 0, F(1, 2)]])
    return MISystem(3, (), (Cell("", m),))


@pytest.mark.parametrize("x0", [(F(1, 2), F(1, 2)), (F(1, 4),) * 4])
def test_wrong_length_start_is_rejected(x0):
    system = three_state_system()
    with pytest.raises(ValueError, match="3 states"):
        orbit(system, x0, 3)
    with pytest.raises(ValueError, match="3 states"):
        detect_period(system, x0, 3)
    with pytest.raises(ValueError, match="3 states"):
        step(system, x0)
    with pytest.raises(ValueError, match="3 states"):
        _observed_itinerary(system, x0, 3)

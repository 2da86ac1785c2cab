"""Dynamical analysis: period detection, the ergodic renormalizer,
irreducibility structure, constancy certificates and delta sweeps.
"""

import itertools
import math
import random
from fractions import Fraction

from . import digraph as dg
from ._record import Record
from .rational import (
    find_dependent_row,
    format_rational,
    mat_mul,
    solve_unique,
    vec_dot,
)
# PeriodVerdict and its status names live in system; analysis re-exports
# them for its callers.
from .system import (
    ASYMPTOTICALLY_PERIODIC,
    EXACT_PERIODIC,
    ON_DISCONTINUITY,
    UNRESOLVED,
    BitSizeExceeded,
    DEFAULT_BIT_CAP,
    NoCellMatch,
    PeriodVerdict,
    StochasticMatrix,
    _int_tau,
    _IntCells,
    _mode_orbit,
    _Orbit,
    _stochastic,
    _support_is_primitive,
    perron_decomposition,
    sample_simplex,
)


def block_product(system, cells):
    """StochasticMatrix product along a run of cell indices, in step
    order, in lowest terms (its diagonal may be zero); the run must hold
    at least one index, each in 0..len(system.cells) - 1."""
    cells = tuple(cells)
    if not cells:
        raise ValueError("block needs at least one cell index")
    for c in cells:
        if not 0 <= c < len(system.cells):
            raise ValueError(f"cell index {c} outside 0..{len(system.cells) - 1}")
    k, e = _IntCells(system).product(cells)
    g = math.gcd(e, *itertools.chain.from_iterable(k))
    return _stochastic(tuple(tuple(v // g for v in row) for row in k), e // g)


def detect_period(
    system,
    x0,
    horizon,
    sustained=3,
    scan_interval=16,
    sigma_cap=64,
    mode="capped",
    bit_cap=DEFAULT_BIT_CAP,
    return_trace=False,
):
    """Classify the orbit of x0 within the horizon.

    Exact periodicity means a state recurs exactly (rational equality);
    for a deterministic map the first recurrence pins both the transient
    and the minimal period. Otherwise the itinerary is scanned for a
    sustained repeating cell block of length at most sigma_cap whose
    matrix product contracts (tau < 1), every scan_interval steps and
    at the horizon, and the smallest such length is reported as
    asymptotically periodic; sigma_cap=0 means exact recurrences only.
    That verdict is heuristic: contraction forces convergence only if
    the itinerary keeps repeating the block, which is not checked.
    Anything else is unresolved at this horizon.
    """
    run = _mode_orbit(system, x0, horizon, mode, bit_cap)
    states, itinerary, verdict = run.classify(horizon, sustained, scan_interval, sigma_cap)
    if return_trace:
        return verdict, run.trace(states, itinerary, verdict)
    return verdict


def estimate_eta(
    system,
    horizon,
    sample_budget,
    rng=None,
    exhaustive=False,
    denominator=1024,
):
    """Smallest t such that every observed t-long itinerary window has a
    primitive matrix product with coefficient of ergodicity below 1/2.

    Sampling mode draws sample_budget starting points and collects the
    windows their orbits realize; that under-approximates the set of
    reachable itineraries, so the true renormalizer may be larger.
    Exhaustive mode instead checks every symbolic cell sequence up to
    length `horizon`, an over-approximation that is sound but may
    overshoot (it includes itineraries no orbit realizes). Returns None
    when no t up to the horizon works.

    When every cell matrix has a positive diagonal, supports only grow
    with window length and tau is submultiplicative, so the first
    passing t is enough.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not exhaustive and sample_budget < 1:
        raise ValueError(f"sample_budget {sample_budget} must be at least 1")
    if exhaustive:
        n_cells = len(system.cells)
        for t in range(1, horizon + 1):
            windows = itertools.product(range(n_cells), repeat=t)
            if _all_windows_good(system, windows):
                return t
        return None
    rng = rng or random.Random(0)
    itineraries = []
    for _ in range(sample_budget):
        x0 = sample_simplex(rng, system.n, denominator)
        itinerary = _observed_itinerary(system, x0, horizon)
        if itinerary:
            itineraries.append(itinerary)
    max_t = max((len(it) for it in itineraries), default=0)
    for t in range(1, max_t + 1):
        windows = set()
        for it in itineraries:
            for start in range(len(it) - t + 1):
                windows.add(tuple(it[start : start + t]))
        if windows and _all_windows_good(system, windows):
            return t
    return None


def _observed_itinerary(system, x0, horizon):
    itinerary = []
    for _, cell, _ in _Orbit(system, x0).steps(horizon):
        if cell is ON_DISCONTINUITY:
            break
        itinerary.append(cell)
    return itinerary


def _all_windows_good(system, windows):
    """True iff every window's block product is primitive with tau < 1/2."""
    cells = _IntCells(system)
    for window in windows:
        k, e = cells.product(window)
        if not _support_is_primitive(k) or _int_tau(k, e) >= Fraction(1, 2):
            return False
    return True


def is_irreducible(system):
    """True iff every cell matrix has a strongly connected support."""
    return all(dg.is_strongly_connected(cell.matrix.support()) for cell in system.cells)


def weak_irreducibility_partition(system):
    """Vertex blocks within which every cell is strongly connected and
    between which no cell ever has an edge; None when no such partition
    exists. It exists exactly when every cell's support has the same
    reachability closure and that closure is symmetric (an equivalence
    relation); its classes are then the blocks.
    """
    closures = {dg.transitive_closure(cell.matrix.support()) for cell in system.cells}
    if len(closures) != 1:
        return None
    (closure,) = closures
    return dg.scc_partition(closure) if dg.is_undirected(closure) else None


def check_invariant_sums(system, partition, trace):
    """True iff the per-block coordinate sums are exactly constant along
    the trace; every vertex must lie in 0..system.n - 1."""
    bad = [v for block in partition for v in block if not 0 <= v < system.n]
    if bad:
        raise ValueError(f"vertex {bad[0]} outside 0..{system.n - 1}")
    reference = [
        sum((trace.states[0][v] for v in block), Fraction(0)) for block in partition
    ]
    for state in trace.states[1:]:
        for block, expected in zip(partition, reference):
            if sum((state[v] for v in block), Fraction(0)) != expected:
                return False
    return True


class PropertyUFailure(Exception):
    """The elimination ran out of dependent rows without a solution."""

    def __init__(self, residual_rows, residual_rhs):
        self.residual_rows = residual_rows
        self.residual_rhs = residual_rhs
        super().__init__(
            f"no constancy certificate: residual system has {len(residual_rows)} rows"
        )


def property_u_certificate(matrices, theta, a):
    """Rational u with unit coordinate sum making x^T M^(theta) u
    independent of x on the simplex.

    theta lists prefix lengths (1-based, strictly increasing); column i
    of M^(theta) is the product of the first theta[i] matrices applied
    to a. Writing each prefix product as 1 pi^T + Q, it suffices to
    solve Q^(theta) u = 0 with sum(u) = 1. The solver borders the first
    n active columns of Q^(theta) with one more column and a row of ones
    and solves R u = (0, ..., 0, 1); whenever R is singular it removes a
    Q-block row that is a linear combination of the others along with
    the last active column (pinning that u coordinate to zero) and
    recurses, down to the trivial one-column system, whose solution is
    the scalar one. Raises PropertyUFailure when no dependent row is
    available.

    The result is verified exactly before returning: sum(u) == 1 and
    M^(theta) u is a constant vector.
    """
    matrices = list(matrices)
    t_len = len(matrices)
    theta = list(theta)
    if not theta:
        raise ValueError("theta must not be empty")
    if any(k < 1 or k > t_len for k in theta):
        raise ValueError("theta indices must lie in 1..len(matrices)")
    if sorted(theta) != theta or len(set(theta)) != len(theta):
        raise ValueError("theta must be strictly increasing")
    n = matrices[0].n
    if any(m.n != n for m in matrices):
        raise ValueError("matrices differ in size")
    a = tuple(Fraction(v) for v in a)
    if len(a) != n:
        raise ValueError(f"a has {len(a)} entries for {n}-state matrices")
    prefix_products = {}
    acc = None
    for k, m in enumerate(matrices, start=1):
        acc = m.rows if acc is None else mat_mul(acc, m.rows)
        prefix_products[k] = acc
    q_columns = []
    m_columns = []
    for k in theta:
        p_k = prefix_products[k]
        _, q_k = perron_decomposition(StochasticMatrix(p_k, allow_zero_diagonal=True))
        q_columns.append(tuple(vec_dot(row, a) for row in q_k))
        m_columns.append(tuple(vec_dot(row, a) for row in p_k))
    m = len(theta)
    active_cols = list(range(min(m, n + 1)))
    active_rows = list(range(n))
    u = [Fraction(0)] * m
    while True:
        q_block = [[q_columns[c][r] for c in active_cols] for r in active_rows]
        rows = q_block + [[Fraction(1)] * len(active_cols)]
        rhs = [Fraction(0)] * len(active_rows) + [Fraction(1)]
        sol = solve_unique(rows, rhs)
        if sol is not None:
            for c, val in zip(active_cols, sol):
                u[c] = val
            break
        dep = find_dependent_row(q_block) if q_block else None
        if dep is None:
            raise PropertyUFailure(rows, rhs)
        del active_rows[dep]
        active_cols.pop()
        if not active_cols:
            raise PropertyUFailure(rows, rhs)
    assert sum(u) == 1
    constant = [
        sum((m_columns[c][r] * u[c] for c in range(m)), Fraction(0)) for r in range(n)
    ]
    if max(constant) != min(constant):
        raise PropertyUFailure([constant], [])
    return tuple(u)


class SweepEntry(Record):
    __slots__ = ("delta", "x0_index", "verdict", "error")

    def __init__(self, delta, x0_index, verdict=None, error=None):
        self.delta = delta
        self.x0_index = x0_index
        self.verdict = verdict
        self.error = error


class SweepReport(Record):
    __slots__ = ("grid", "entries")

    def __init__(self, grid, entries):
        self.grid = grid
        self.entries = entries

    def period_histogram(self):
        hist = {}
        for e in self.entries:
            if e.verdict is not None and e.verdict.period is not None:
                hist[e.verdict.period] = hist.get(e.verdict.period, 0) + 1
        return hist

    def resolved_fraction(self):
        if not self.entries:
            return 0.0
        good = sum(
            1
            for e in self.entries
            if e.verdict is not None and e.verdict.status != UNRESOLVED
        )
        return good / len(self.entries)

    def unresolved_fraction(self):
        if not self.entries:
            return 0.0
        return 1.0 - self.resolved_fraction()

    def write_csv(self, out):
        out.write("delta,x0_index,status,transient,period,tau_block\n")
        for e in self.entries:
            if e.error is not None:
                out.write(
                    f"{format_rational(e.delta)},{e.x0_index},error({e.error}),,,\n"
                )
                continue
            v = e.verdict
            transient = "" if v.transient is None else v.transient
            period = "" if v.period is None else v.period
            tau = "" if v.tau_block is None else format_rational(v.tau_block)
            out.write(
                f"{format_rational(e.delta)},{e.x0_index},{v.status},"
                f"{transient},{period},{tau}\n"
            )


def interior_grid(omega, count):
    """Evenly spaced rational grid strictly inside (-omega, omega); the
    interval endpoints are excluded so every point is a valid delta."""
    omega = Fraction(omega)
    return [-omega + Fraction(2 * (i + 1), count + 1) * omega for i in range(count)]


def delta_sweep(system, grid, x0_samples, horizon, **detect_kwargs):
    """Run period detection over a delta grid times a set of starts.

    A run that meets no cell or outgrows the bit cap becomes an error
    entry and the sweep goes on; any other error (a bad start, horizon
    or mode) is raised. Entries come in (grid index, start index) order.
    """
    grid = [Fraction(d) for d in grid]
    x0_samples = list(x0_samples)
    if not grid or not x0_samples:
        raise ValueError("a sweep needs at least one grid point and one start")
    for d in grid:
        if abs(d) > system.omega:
            raise ValueError(f"grid point {d} outside [-omega, omega]")
    entries = []
    for delta in grid:
        shifted = system.with_delta(delta)
        for xi, x0 in enumerate(x0_samples):
            try:
                verdict = detect_period(shifted, x0, horizon, **detect_kwargs)
                entries.append(SweepEntry(delta, xi, verdict=verdict))
            except (NoCellMatch, BitSizeExceeded) as exc:
                entries.append(SweepEntry(delta, xi, error=type(exc).__name__))
    return SweepReport(grid, entries)
